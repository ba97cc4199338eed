"""Point-navigation toy with four corner goals, used for fast diversity checks.

One agent on the unit square observes its own position; each tick it takes
a compass step of 0.05 (or stays) and receives the negated distance to the
nearest goal. Coming within 0.05 of any goal ends the episode, so distinct
behaviors are visible as distinct corners reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Environment, at_least, between, check_ranges, check_types

CORNERS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
MOVES = np.array([[0.0, 0.05], [0.0, -0.05], [0.05, 0.0], [-0.05, 0.0], [0.0, 0.0]])
ACTION_NAMES = ("up", "down", "right", "left", "stay")


# MultiGoalConfig field -> its legal range: the goal discs stay apart, and
# every start is inside the square
MULTIGOAL_RANGES = {
    "max_episode_timesteps": at_least(1), "capture_radius": between(0.0, 0.5),
    "step_size": ("in (0, 1]", lambda value: 0.0 < value <= 1.0),
    "start_jitter": between(0.0, 0.5),
}


@dataclass
class MultiGoalConfig:
    max_episode_timesteps: int = 100
    capture_radius: float = 0.05
    step_size: float = 0.05
    start_jitter: float = 0.05

    def validate(self):
        check_types(self)
        check_ranges(self, MULTIGOAL_RANGES)


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
