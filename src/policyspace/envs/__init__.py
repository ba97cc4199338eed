"""Environment registry."""

from __future__ import annotations

from ..errors import ConfigError
from .base import Environment, from_dict
from .farmworld import (ABLATION_NAMES, Farmworld, FarmworldConfig,
                        build_ablation, config_from_map, parse_map)
from .multigoal import MultiGoal, MultiGoalConfig
from .soccer import (BOT_KINDS, Bot, MarkovSoccer, SoccerConfig, bot_action,
                     bot_match_config)

__all__ = [
    "Environment", "Farmworld", "FarmworldConfig", "MultiGoal", "MultiGoalConfig",
    "MarkovSoccer", "SoccerConfig", "Bot", "bot_action", "bot_match_config",
    "build_ablation", "config_from_map", "parse_map", "make_env", "make_config",
    "ENVIRONMENTS", "ABLATION_NAMES", "BOT_KINDS",
]

# name -> simulator; each reads its fields off its `config_class`
ENVIRONMENTS = {env.name: env for env in (MultiGoal, Farmworld, MarkovSoccer)}


def make_config(name: str, values: dict):
    """The validated config of simulator `name` from JSON values: an `[env]`
    section, a checkpoint's `env_config` or a replay's `config`, any of which
    may also carry the simulator's name."""
    values = dict(values)
    named = values.pop("name", name)
    if named != name:
        raise ConfigError(f"a {name} config is named {named!r}")
    return from_dict(ENVIRONMENTS[name].config_class, values)


def make_env(name: str, config: dict | None = None) -> Environment:
    """Build an environment from its registry name and a config dict."""
    if name in ENVIRONMENTS:
        return ENVIRONMENTS[name](make_config(name, config or {}))
    if name in ABLATION_NAMES and name != "none":
        return Farmworld(build_ablation(name))
    raise ConfigError(f"unknown environment {name!r}")
