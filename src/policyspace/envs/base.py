"""Shared simulator contract.

Every environment exposes a fixed agent roster, a discrete action set, and
per-agent (observation, reward, done) triples from ``step``. Simulation is
deterministic given (seed, action sequence): all stochastic events draw
from one generator seeded at ``reset``. A finished environment refuses to
step; illegal action ids raise instead of being clamped.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def is_int(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)   # bool is not an int here


def is_int_tuple(value, count: int) -> bool:
    """Whether `value` is a tuple or list of `count` integers: a cell or a region."""
    return isinstance(value, (tuple, list)) and len(value) == count and all(map(is_int, value))


class Environment:
    """Base class holding the roster/bookkeeping common to all simulators."""

    name = "environment"
    observation_size: int
    num_actions: int
    agent_ids: tuple[str, ...]
    max_episode_timesteps: int

    def __init__(self):
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
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    # -- contract ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def reset(self, seed: int) -> dict:
        """Start a fresh episode; identical seeds give identical states."""
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.tick = 0
        self._finished = False
        return self._do_reset()

    def step(self, actions: dict) -> tuple[dict, dict, dict]:
        """Advance one tick with one action per living agent."""
        if self._finished:
            raise ConfigError(f"{self.name}: step() on a finished episode")
        living = set(self.living_agents())
        if set(actions) != living:
            raise ConfigError(f"{self.name}: need exactly one action per living agent "
                              f"({sorted(living)}), got {sorted(actions)}")
        for agent, action in actions.items():
            if not 0 <= int(action) < self.num_actions:
                raise ConfigError(f"{self.name}: illegal action {action} for {agent}")
        obs, rewards, dones = self._do_step({a: int(v) for a, v in actions.items()})
        self.tick += 1
        if self.tick >= self.max_episode_timesteps or not self.living_agents():
            dones = {a: True for a in dones}
        self._finished = all(dones.values())
        return obs, rewards, dones
