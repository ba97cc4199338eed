"""Point-navigation toy with four corner goals, used for fast diversity checks.

One agent on the unit square observes its own position; each tick it takes
a compass step of 0.05 (or stays) and receives the negated distance to the
nearest goal. Coming within 0.05 of any goal ends the episode, so distinct
behaviors are visible as distinct corners reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .base import Environment, check_types

CORNERS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
MOVES = np.array([[0.0, 0.05], [0.0, -0.05], [0.05, 0.0], [-0.05, 0.0], [0.0, 0.0]])
ACTION_NAMES = ("up", "down", "right", "left", "stay")


@dataclass
class MultiGoalConfig:
    max_episode_timesteps: int = 100
    capture_radius: float = 0.05
    step_size: float = 0.05
    start_jitter: float = 0.05

    def validate(self):
        check_types(self)
        if self.max_episode_timesteps < 1:
            raise ConfigError("max_episode_timesteps must be >= 1")
        if not 0.0 <= self.capture_radius <= 0.5:     # the goal discs stay apart
            raise ConfigError(f"capture_radius must be in [0, 0.5], got {self.capture_radius!r}")
        if not 0.0 < self.step_size <= 1.0:
            raise ConfigError(f"step_size must be in (0, 1], got {self.step_size!r}")
        if not 0.0 <= self.start_jitter <= 0.5:       # every start is inside the square
            raise ConfigError(f"start_jitter must be in [0, 0.5], got {self.start_jitter!r}")


class MultiGoal(Environment):
    name = "multigoal"
    config_class = MultiGoalConfig
    observation_size = 2
    num_actions = 5
    agent_ids = ("agent_0",)

    def __init__(self, config: MultiGoalConfig | None = None):
        super().__init__(config)
        self.position = np.zeros(2)
        self.captured = False

    @property
    def goals(self) -> np.ndarray:
        return CORNERS

    def living_agents(self) -> list[str]:
        return [] if self.captured else ["agent_0"]

    def _do_reset(self) -> dict:
        jitter = self.config.start_jitter
        self.position = 0.5 + self.rng.uniform(-jitter, jitter, size=2)
        self.captured = False
        return {"agent_0": self.position.copy()}

    def nearest_goal(self) -> tuple[int, float]:
        dists = np.linalg.norm(CORNERS - self.position, axis=1)
        idx = int(np.argmin(dists))
        return idx, float(dists[idx])

    def _do_step(self, actions: dict) -> tuple[dict, dict, dict]:
        move = MOVES[actions["agent_0"]] * (self.config.step_size / 0.05)
        self.position = np.clip(self.position + move, 0.0, 1.0)
        _, dist = self.nearest_goal()
        reward = -dist
        self.captured = dist <= self.config.capture_radius
        return ({"agent_0": self.position.copy()},
                {"agent_0": reward},
                {"agent_0": self.captured})

    def render(self) -> str:
        # 11x11 character grid of the unit square, goals marked G, agent marked A
        side = 11
        grid = [["." for _ in range(side)] for _ in range(side)]
        for gx, gy in CORNERS:
            grid[int(round((1 - gy) * (side - 1)))][int(round(gx * (side - 1)))] = "G"
        x, y = self.position
        grid[int(round((1 - y) * (side - 1)))][int(round(x * (side - 1)))] = "A"
        return "\n".join("".join(row) for row in grid)
