"""Environment registry."""

from __future__ import annotations

from ..errors import ConfigError
from .base import Environment
from .farmworld import (ABLATION_NAMES, Farmworld, FarmworldConfig,
                        build_ablation, config_from_map, parse_map)
from .multigoal import MultiGoal
from .soccer import (BOT_KINDS, Bot, MarkovSoccer, SoccerConfig, bot_action,
                     bot_match_config)

__all__ = [
    "Environment", "Farmworld", "FarmworldConfig", "MultiGoal", "MarkovSoccer",
    "SoccerConfig", "Bot", "bot_action", "bot_match_config", "build_ablation",
    "config_from_map", "parse_map", "make_env", "ABLATION_NAMES", "BOT_KINDS",
]


def make_env(name: str, config: dict | None = None) -> Environment:
    """Build an environment from its registry name and a config dict."""
    config = dict(config or {})
    config.pop("name", None)
    try:
        if name == "multigoal":
            return MultiGoal(**config)
        if name == "farmworld":
            return Farmworld(FarmworldConfig.from_dict(config) if config else None)
        if name == "soccer":
            return MarkovSoccer(SoccerConfig.from_dict(config) if config else None)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc
    if name in ABLATION_NAMES and name != "none":
        return Farmworld(build_ablation(name))
    raise ConfigError(f"unknown environment {name!r}")
