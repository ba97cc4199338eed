"""Shared simulator contract.

Every environment exposes a fixed agent roster, a discrete action set, and
per-agent (observation, reward, done) triples from ``step``. Simulation is
deterministic given (seed, action sequence): all stochastic events draw
from one generator seeded at ``reset``. A finished environment refuses to
step; an action id that is not an int in ``range(num_actions)`` raises
instead of being clamped or truncated.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

import numpy as np

from ..errors import ConfigError


def is_int(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)   # bool is not an int here


def is_action(value, num_actions: int) -> bool:
    """Whether `value` is an action id: an int (not a bool or a float) in range."""
    return is_int(value) and 0 <= value < num_actions


# -- one typed schema for every config section ------------------------------------


@functools.cache
def type_rule(typ):
    """The predicate accepting values of `typ`: the one type rule of every
    config section. Bool is not an int, an int is acceptable as a float, and a
    list is acceptable as a tuple (JSON has no tuples)."""
    origin, args = typing.get_origin(typ), typing.get_args(typ)
    if typ is int:
        return is_int
    if typ is float:
        return lambda value: isinstance(value, float) or is_int(value)
    if origin in (typing.Union, types.UnionType):     # every union is `X | None`
        rule = type_rule(args[0])
        return lambda value: value is None or rule(value)
    if origin is tuple:     # `tuple[X, ...]` or `tuple[X, X, ...]`: the parts share one type
        item, count = type_rule(args[0]), None if args[-1] is Ellipsis else len(args)
        return lambda value: (isinstance(value, (tuple, list)) and count in (None, len(value))
                              and all(map(item, value)))
    return lambda value: type(value) is typ       # bool, str, dict


def type_name(typ) -> str:
    return str(typ) if typing.get_origin(typ) else typ.__name__


@functools.cache
def field_types(cls) -> dict:
    """Field -> type of a config dataclass, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def _field_rules(cls) -> tuple:
    return tuple((name, typ, type_rule(typ)) for name, typ in field_types(cls).items())


def check_types(config):
    """Raise ConfigError unless every field of a config dataclass has its type;
    each `validate()` runs this before checking ranges."""
    for name, typ, rule in _field_rules(type(config)):
        if not rule(getattr(config, name)):
            raise ConfigError(f"{type(config).__name__} field {name}: "
                              f"{getattr(config, name)!r} is not a {type_name(typ)}")


# legal ranges of config fields, for `check_ranges`: (the range in words, its test)
POSITIVE = ("finite and > 0", lambda value: 0.0 < value < math.inf)
FINITE = ("finite", math.isfinite)


def at_least(low) -> tuple:
    return f"finite and >= {low}", lambda value: low <= value < math.inf


def between(low, high) -> tuple:
    return f"in [{low}, {high}]", lambda value: low <= value <= high


def one_of(*choices) -> tuple:
    return f"one of {', '.join(choices)}", lambda value: value in choices


def check_ranges(config, ranges: dict):
    """Raise ConfigError unless each field named in `ranges` passes its test;
    NaN fails every test. Run after `check_types`."""
    for name, (words, test) in ranges.items():
        if not test(getattr(config, name)):
            raise ConfigError(f"{type(config).__name__} field {name} must be {words}, "
                              f"got {getattr(config, name)!r}")


def to_dict(config) -> dict:
    """A config dataclass as JSON values, in field order: tuples become lists."""
    return {name: _to_json(getattr(config, name)) for name in field_types(type(config))}


def from_dict(cls, values: dict):
    """A validated config dataclass from JSON values, which may leave fields at
    their defaults. Unknown keys are rejected by name; lists become tuples, and
    an int for a float field becomes a float, so the dict round-trips exactly."""
    fields = field_types(cls)
    unknown = sorted(set(values) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    config = cls(**{key: from_json(value, fields[key]) for key, value in values.items()})
    config.validate()
    return config


def _to_json(value):
    return [_to_json(part) for part in value] if isinstance(value, tuple) else value


def from_json(value, typ):
    """A JSON value as a field of type `typ`: a list becomes a tuple and an int
    for a float field a float. Every config section read from JSON runs this."""
    if isinstance(value, list):
        return tuple(from_json(part, None) for part in value)
    return float(value) if typ is float and is_int(value) else value


class Environment:
    """Base class holding the roster/bookkeeping common to all simulators; each
    simulator reads its fields off a config dataclass, `config_class`."""

    name = "environment"
    config_class: type
    observation_size: int
    num_actions: int
    agent_ids: tuple[str, ...]

    def __init__(self, config=None):
        self.config = config or self.config_class()
        self.config.validate()
        self.max_episode_timesteps = self.config.max_episode_timesteps
        self.tick = 0
        self.seed = None
        self.rng = None
        self._finished = True

    # -- subclass hooks ----------------------------------------------------

    def _do_reset(self) -> dict:
        raise NotImplementedError

    def _do_step(self, actions: dict) -> tuple[dict, dict, dict]:
        raise NotImplementedError

    def living_agents(self) -> list[str]:
        raise NotImplementedError

    def config_dict(self) -> dict:
        """Resolved configuration for manifests and replay headers."""
        return {"name": self.name, **to_dict(self.config)}

    def render(self) -> str:
        raise NotImplementedError

    # -- contract ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def reset(self, seed: int) -> dict:
        """Start a fresh episode; identical seeds give identical states."""
        self._start(seed)
        return self._do_reset()

    def _start(self, seed: int):
        """The episode bookkeeping of `reset`: the seed, its generator, tick 0."""
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.tick = 0
        self._finished = False

    def step(self, actions: dict) -> tuple[dict, dict, dict]:
        """Advance one tick with one action per living agent."""
        self._check_step(actions)
        obs, rewards, dones = self._do_step({a: int(v) for a, v in actions.items()})
        self.tick += 1
        if self.tick >= self.max_episode_timesteps or not self.living_agents():
            dones = {a: True for a in dones}
        self._finished = all(dones.values())
        return obs, rewards, dones

    def _check_step(self, actions: dict):
        """Raise ConfigError unless `step(actions)` may play: the episode is
        on, and `actions` holds one action id per living agent."""
        if self._finished:
            raise ConfigError(f"{self.name}: step() on a finished episode")
        living = set(self.living_agents())
        if set(actions) != living:
            raise ConfigError(f"{self.name}: need exactly one action per living agent "
                              f"({sorted(living)}), got {sorted(actions)}")
        for agent, action in actions.items():
            if not is_action(action, self.num_actions):
                raise ConfigError(f"{self.name}: illegal action {action!r} for {agent}")
