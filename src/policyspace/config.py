"""Run configuration: flat typed key-value files with one section per module,
per-environment defaults, and reproducibility manifests.

A config file looks like

    [run]
    env = farmworld
    method = adap
    seed = 0

    [trainer]
    batch_size = 8000

Every value not set falls back to the environment's default table; every
resolved value (including simulator numerics) is echoed into the run
manifest so a run can be reproduced from the manifest alone: bit-exactly on the
software stack the manifest also records (Python, numpy, BLAS and its threads).
"""

from __future__ import annotations

import configparser
import dataclasses
import datetime
import json
import os
import platform
import typing

import numpy as np

from .diversity import DiversityConfig
from .envs import FarmworldConfig, MultiGoal, SoccerConfig, build_ablation, make_env
from .errors import ConfigError
from .generator import PolicyGenerator
from .training import TrainerConfig

CODE_VERSION = "policyspace-0.1.0"


def _dataclass_section(cls, skip=()) -> tuple[dict, dict]:
    """A config section read off a dataclass: (field -> type, field -> default)."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    return {f.name: hints[f.name] for f in fields}, {f.name: f.default for f in fields}


TRAINER_TYPES, TRAINER_DEFAULTS = _dataclass_section(TrainerConfig, skip=("method", "diversity"))
DIVERSITY_TYPES, DIVERSITY_DEFAULTS = _dataclass_section(DiversityConfig)

# key -> type, per section; unknown keys are rejected by name
SCHEMA = {
    "run": {
        "env": str, "method": str, "seed": int, "epochs": int,
        "checkpoint_every": int, "architecture": str, "run_name": str,
    },
    "trainer": TRAINER_TYPES,
    "diversity": DIVERSITY_TYPES,
    "model": {
        "hidden_dim": int, "latent_dim": int, "hidden_layers": int,
        "policy_activation": str, "value_activation": str,
    },
    "env": {},   # free-form, validated by the environment config class
}

# per-environment defaults follow the reference hyperparameter tables
ENV_DEFAULTS = {
    "multigoal": {
        "trainer": {"batch_size": 4000, "minibatch_size": 400, "sgd_iters": 10,
                    "discount": 0.99, "gae_lambda": 1.0},
        "diversity": {"coef": 0.5},
        "model": {"hidden_dim": 32},
        "run": {"epochs": 500},
    },
    "farmworld": {
        "trainer": {"batch_size": 8000, "minibatch_size": 8000, "sgd_iters": 10,
                    "discount": 0.99, "gae_lambda": 1.0},
        "diversity": {"coef": 0.2},
        "model": {"hidden_dim": 64},
        "run": {"epochs": 10000},
    },
    "soccer": {
        "trainer": {"batch_size": 8000, "minibatch_size": 8000, "sgd_iters": 10,
                    "discount": 0.9, "gae_lambda": 0.95},
        "diversity": {"coef": 0.2},
        "model": {"hidden_dim": 64},
        "run": {"epochs": 10000},
    },
}

BASE_DEFAULTS = {
    "run": {"env": "", "method": "adap", "seed": 0, "epochs": 1000,
            "checkpoint_every": 50, "architecture": "multiplicative",
            "run_name": ""},
    "trainer": TRAINER_DEFAULTS,
    "diversity": DIVERSITY_DEFAULTS,
    "model": {"hidden_dim": 64, "latent_dim": 3, "hidden_layers": 2,
              "policy_activation": "tanh", "value_activation": "tanh"},
}


def _coerce(section: str, key: str, raw: str):
    if section == "env":
        # env keys are typed by the env config class; parse leniently, and a
        # comma-separated value (a cell, a region) as the tuple of its parts
        if "," in raw:
            return tuple(_coerce(section, key, part.strip()) for part in raw.split(","))
        for caster in (int, float):
            try:
                return caster(raw)
            except ValueError:
                pass
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        return raw
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown config field [{section}] {key}")
    typ = SCHEMA[section][key]
    try:
        if typ is bool:
            if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(raw)
            return raw.lower() in ("true", "1", "yes")
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"field [{section}] {key}: cannot parse {raw!r} as "
                          f"{typ.__name__}") from exc


def load_config_file(path) -> dict:
    """Parse an INI config file into {section: {key: typed value}}."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section, items in sections.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {key: _coerce(section, key, raw) for key, raw in items}
    return out


def resolve_config(overrides: dict) -> dict:
    """Layer file overrides onto base and per-environment defaults."""
    run = overrides.get("run", {})
    env_name = run.get("env", "")
    if not env_name:
        raise ConfigError("missing required field [run] env")
    if env_name not in ENV_DEFAULTS:
        raise ConfigError(f"field [run] env: unknown environment {env_name!r}")

    resolved = {section: dict(values) for section, values in BASE_DEFAULTS.items()}
    for section, values in ENV_DEFAULTS[env_name].items():
        resolved[section].update(values)
    for section, values in overrides.items():
        if section == "env":
            continue
        for key, value in values.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config field [{section}] {key}")
            resolved[section][key] = value

    for key in ("seed", "epochs", "checkpoint_every"):
        if resolved["run"][key] < 0:
            raise ConfigError(f"field [run] {key}: must be >= 0, got {resolved['run'][key]}")
    method = resolved["run"]["method"]
    if method not in ("adap", "vanilla", "diayn_star"):
        raise ConfigError(f"field [run] method: unknown method {method!r}")
    if method == "vanilla":
        resolved["diversity"]["coef"] = 0.0

    # resolve the simulator config (including every default numeric)
    env_overrides = dict(overrides.get("env", {}))
    probe = make_env(env_name, env_overrides)
    resolved["env"] = probe.config_dict()
    resolved["run"]["env"] = env_name
    return resolved


def build_environment_factory(env_name: str, env_config: dict):
    def factory():
        return make_env(env_name, env_config)
    return factory


def build_generator(resolved: dict, rng) -> PolicyGenerator:
    env = make_env(resolved["run"]["env"], resolved["env"])
    model = resolved["model"]
    return PolicyGenerator(
        env.observation_size, env.num_actions, rng,
        architecture=resolved["run"]["architecture"],
        latent_dim=model["latent_dim"], hidden_dim=model["hidden_dim"],
        hidden_layers=model["hidden_layers"],
        policy_activation=model["policy_activation"],
        value_activation=model["value_activation"])


def build_trainer_config(resolved: dict) -> TrainerConfig:
    cfg = TrainerConfig(**resolved["trainer"], method=resolved["run"]["method"],
                        diversity=DiversityConfig(**resolved["diversity"]))
    cfg.validate()
    return cfg


# -- manifests -----------------------------------------------------------------


def software_stack() -> dict:
    """Python, numpy and BLAS versions, the BLAS thread variables as set, and the platform."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.26 has no dict mode
        blas = {}
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": threads, "platform": platform.platform()}


def write_manifest(path, resolved: dict):
    manifest = {
        "config": resolved,
        "seed": resolved["run"]["seed"],
        "env": resolved["run"]["env"],
        "code_version": CODE_VERSION,
        "start_time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "software": software_stack(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def read_manifest(path) -> dict:
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path} is not a JSON object")
    for field in ("config", "seed", "env"):
        if field not in manifest:
            raise ConfigError(f"manifest missing required field {field!r}")
    return manifest


def _has_type(value, typ) -> bool:
    if typ is float:
        return type(value) in (int, float)
    return type(value) is typ


def check_resolved(config) -> dict:
    """Check that a manifest's resolved config sets every schema field, and
    only those, with values of the schema's types; returns the config."""
    if not isinstance(config, dict):
        raise ConfigError("manifest field 'config' must be an object")
    for section in config:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    for section, fields in SCHEMA.items():
        values = config.get(section)
        if not isinstance(values, dict):
            raise ConfigError(f"missing config section [{section}]")
        if section == "env":
            continue
        for key in values:
            if key not in fields:
                raise ConfigError(f"unknown config field [{section}] {key}")
        for key, typ in fields.items():
            if key not in values:
                raise ConfigError(f"missing config field [{section}] {key}")
            if not _has_type(values[key], typ):
                raise ConfigError(f"field [{section}] {key}: {values[key]!r} is not "
                                  f"a {typ.__name__}")
    return config


def load_run_spec(path) -> dict:
    """A run is specified by either an INI config or an existing manifest."""
    try:
        text = open(path).read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not text: {exc}") from exc
    if text.lstrip().startswith("{"):
        return resolve_config(check_resolved(read_manifest(path)["config"]))
    return resolve_config(load_config_file(path))
