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
import functools
import json
import os
import platform
import types
import typing

import numpy as np

from .diversity import DiversityConfig
from .envs import ENVIRONMENTS, make_env
from .envs.base import (at_least, check_ranges, check_types, field_types, from_json, one_of,
                        to_dict, type_name)
from .errors import ConfigError, open_input
from .generator import GeneratorConfig, PolicyGenerator
from .training import METHODS, TrainerConfig

CODE_VERSION = "policyspace-0.1.0"


@dataclasses.dataclass
class RunConfig:
    env: str = ""
    method: str = "adap"
    seed: int = 0
    epochs: int = 1000
    checkpoint_every: int = 50
    architecture: str = GeneratorConfig.architecture
    run_name: str = ""

    def validate(self):
        check_types(self)
        check_ranges(self, {"method": one_of(*METHODS), "seed": at_least(0),
                            "epochs": at_least(0), "checkpoint_every": at_least(0)})


def _dataclass_section(cls, skip=()) -> tuple[dict, dict]:
    """A config section read off a dataclass: (field -> type, field -> default)."""
    typed = {name: typ for name, typ in field_types(cls).items() if name not in skip}
    return typed, {f.name: f.default for f in dataclasses.fields(cls) if f.name in typed}


# section -> (key -> type, key -> default), read off its dataclass; [model] is
# the generator's shape less what [run] and the simulator set
_SECTIONS = {
    "run": _dataclass_section(RunConfig),
    "trainer": _dataclass_section(TrainerConfig, skip=("method", "diversity")),
    "diversity": _dataclass_section(DiversityConfig),
    "model": _dataclass_section(GeneratorConfig, skip=("obs_size", "num_actions", "architecture")),
}
SCHEMA = {section: typed for section, (typed, _) in _SECTIONS.items()}   # unknown keys are rejected
BASE_DEFAULTS = {section: defaults for section, (_, defaults) in _SECTIONS.items()}
# [env] holds the fields of the simulator named in [run], and its name
ENV_SCHEMA = {name: {"name": str, **_dataclass_section(env.config_class)[0]}
              for name, env in ENVIRONMENTS.items()}
SECTIONS = (*SCHEMA, "env")     # [run] first: it names the simulator

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


def _env_name(run: dict) -> str:
    env_name = run.get("env", "")
    if not env_name:
        raise ConfigError("missing required field [run] env")
    if not isinstance(env_name, str) or env_name not in ENV_DEFAULTS:
        raise ConfigError(f"field [run] env: unknown environment {env_name!r}")
    return env_name


def _schema(section: str, run: dict) -> dict:
    """Key -> type of one section; [env]'s are those of the simulator `run` names."""
    if section == "env":
        return ENV_SCHEMA[_env_name(run)]
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    return SCHEMA[section]


def _parse(raw: str, typ):
    """An INI value as a `typ`; a comma-separated value is the tuple of its parts."""
    if typ in (int, float, str):
        return typ(raw)
    if typ is bool:
        if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
            raise ValueError(raw)
        return raw.lower() in ("true", "1", "yes")
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if origin is tuple:     # the parts share one type; the type check counts them
        return tuple(_parse(part.strip(), args[0]) for part in raw.split(","))
    if origin in (typing.Union, types.UnionType):
        return _parse(raw, args[0])     # every union is `X | None`; INI cannot write None
    raise ValueError(raw)               # a dict, such as a farmworld layout


def _coerce(section: str, key: str, raw: str, fields: dict):
    if key not in fields:
        raise ConfigError(f"unknown config field [{section}] {key}")
    try:
        return _parse(raw, fields[key])
    except ValueError as exc:
        raise ConfigError(f"field [{section}] {key}: cannot parse {raw!r} as "
                          f"{type_name(fields[key])}") from exc


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
    run = dict(sections.get("run", ()))
    out: dict = {}
    for section, items in sections.items():
        fields = _schema(section, run)
        out[section] = {key: _coerce(section, key, raw, fields) for key, raw in items}
    return out


def resolve_config(overrides: dict) -> dict:
    """Layer file overrides onto base and per-environment defaults, then check
    every section, so a spec that resolves can be built and run."""
    env_name = _env_name(overrides.get("run", {}))

    resolved = {section: dict(values) for section, values in BASE_DEFAULTS.items()}
    for section, values in ENV_DEFAULTS[env_name].items():
        resolved[section].update(values)
    for section, values in overrides.items():
        if section == "env":
            continue
        for key, value in values.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config field [{section}] {key}")
            resolved[section][key] = from_json(value, SCHEMA[section][key])
    RunConfig(**resolved["run"]).validate()
    build_trainer_config(resolved)
    if resolved["run"]["method"] == "vanilla":
        resolved["diversity"]["coef"] = 0.0

    # resolve the simulator config (including every default numeric)
    resolved["env"] = make_env(env_name, overrides.get("env", {})).config_dict()
    resolved["run"]["env"] = env_name
    _generator_config(resolved).validate()
    return resolved


def build_environment_factory(env_name: str, env_config: dict):
    return functools.partial(make_env, env_name, env_config)


def _generator_config(resolved: dict) -> GeneratorConfig:
    env = make_env(resolved["run"]["env"], resolved["env"])
    return GeneratorConfig(env.observation_size, env.num_actions,
                           resolved["run"]["architecture"], **resolved["model"])


def build_generator(resolved: dict, rng) -> PolicyGenerator:
    return PolicyGenerator(rng=rng, **to_dict(_generator_config(resolved)))


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


def check_resolved(config) -> dict:
    """Check that a manifest's resolved config sets every schema field, and
    only those; `resolve_config` checks their values. Returns the config."""
    if not isinstance(config, dict):
        raise ConfigError("manifest field 'config' must be an object")
    for section in config:
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    for section in SECTIONS:
        values = config.get(section)
        if not isinstance(values, dict):
            raise ConfigError(f"missing config section [{section}]")
        fields = _schema(section, config["run"])
        for key in values:
            if key not in fields:
                raise ConfigError(f"unknown config field [{section}] {key}")
        for key in fields:
            if key not in values:
                raise ConfigError(f"missing config field [{section}] {key}")
    return config


def load_run_spec(path) -> dict:
    """A run is specified by either an INI config or an existing manifest."""
    with open_input(path) as fh:
        raw = fh.read()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not text: {exc}") from exc
    if text.lstrip().startswith("{"):
        return resolve_config(check_resolved(read_manifest(path)["config"]))
    return resolve_config(load_config_file(path))
