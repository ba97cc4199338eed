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
manifest so a run can be reproduced from the manifest alone.
"""

from __future__ import annotations

import configparser
import datetime
import json

from .diversity import DiversityConfig
from .envs import FarmworldConfig, MultiGoal, SoccerConfig, build_ablation, make_env
from .errors import ConfigError
from .generator import PolicyGenerator
from .training import TrainerConfig

CODE_VERSION = "policyspace-0.1.0"

# key -> type, per section; unknown keys are rejected by name
SCHEMA = {
    "run": {
        "env": str, "method": str, "seed": int, "epochs": int,
        "checkpoint_every": int, "architecture": str, "run_name": str,
    },
    "trainer": {
        "batch_size": int, "minibatch_size": int, "sgd_iters": int,
        "clip_epsilon": float, "entropy_coef": float, "value_coef": float,
        "discount": float, "gae_lambda": float, "learning_rate": float,
        "grad_clip": float, "optimizer": str, "num_envs": int,
        "normalize_advantages": bool, "intrinsic_coef": float,
        "discriminator_epochs": int, "resample_diversity_each_epoch": bool,
    },
    "diversity": {
        "num_latents": int, "num_states": int, "smoothing": float,
        "coef": float, "mode": str,
    },
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
    "trainer": {"batch_size": 4000, "minibatch_size": 400, "sgd_iters": 10,
                "clip_epsilon": 0.2, "entropy_coef": 0.05, "value_coef": 0.5,
                "discount": 0.99, "gae_lambda": 1.0, "learning_rate": 3e-4,
                "grad_clip": 0.5, "optimizer": "adam", "num_envs": 8,
                "normalize_advantages": True, "intrinsic_coef": 0.05,
                "discriminator_epochs": 3, "resample_diversity_each_epoch": False},
    "diversity": {"num_latents": 10, "num_states": 30, "smoothing": 0.05,
                  "coef": 0.2, "mode": "exp_neg_kl"},
    "model": {"hidden_dim": 64, "latent_dim": 3, "hidden_layers": 2,
              "policy_activation": "tanh", "value_activation": "tanh"},
}


def _coerce(section: str, key: str, raw: str):
    if section == "env":
        # env keys are typed by the env config class; parse leniently
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
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {key: _coerce(section, key, raw)
                        for key, raw in parser.items(section)}
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
    t = resolved["trainer"]
    d = resolved["diversity"]
    cfg = TrainerConfig(
        batch_size=t["batch_size"], minibatch_size=t["minibatch_size"],
        sgd_iters=t["sgd_iters"], clip_epsilon=t["clip_epsilon"],
        entropy_coef=t["entropy_coef"], value_coef=t["value_coef"],
        discount=t["discount"], gae_lambda=t["gae_lambda"],
        learning_rate=t["learning_rate"], grad_clip=t["grad_clip"],
        optimizer=t["optimizer"], method=resolved["run"]["method"],
        diversity=DiversityConfig(num_latents=d["num_latents"],
                                  num_states=d["num_states"],
                                  smoothing=d["smoothing"], coef=d["coef"],
                                  mode=d["mode"]),
        resample_diversity_each_epoch=t["resample_diversity_each_epoch"],
        normalize_advantages=t["normalize_advantages"], num_envs=t["num_envs"],
        intrinsic_coef=t["intrinsic_coef"],
        discriminator_epochs=t["discriminator_epochs"])
    cfg.validate()
    return cfg


# -- manifests -----------------------------------------------------------------


def write_manifest(path, resolved: dict):
    manifest = {
        "config": resolved,
        "seed": resolved["run"]["seed"],
        "env": resolved["run"]["env"],
        "code_version": CODE_VERSION,
        "start_time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
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
    text = open(path).read()
    if text.lstrip().startswith("{"):
        return resolve_config(check_resolved(read_manifest(path)["config"]))
    return resolve_config(load_config_file(path))
