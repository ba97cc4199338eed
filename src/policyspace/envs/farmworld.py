"""Farmworld: a partially observable multi-agent foraging gridworld.

Agents roam a grid harvesting health from chickens (attack them down) and
towers (attack until they collapse into a haystack, then mine the haystack
out), while their health decays every tick and each living agent earns a
flat 0.1 reward per tick. Fences block movement and cannot be destroyed.
Chickens wander randomly. Consumed resources respawn on a timer at a random
free cell of the food-spawn region.

The optional *enforced specialization* rule locks an agent to the first
resource kind it gains health from; harvesting the other kind afterwards
yields nothing and is counted as a blunder. The locked state is never part
of any observation.

Observations cover the 13 cells within L1 distance 2 in a fixed scan order.
Each cell contributes (type, health, orientation, haystack-flag), all scaled
to [0, 1]; off-map cells read as a border type. The agent's own normalized
health is appended.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ConfigError
from .base import Environment

GROUND, AGENT, CHICKEN, TOWER, FENCE = 0, 1, 2, 3, 4
KIND_SCALE = 1.0 / 5.0
BORDER_FEATURES = np.array([1.0, 0.0, 0.0, 0.0])

# actions: up, down, right, left, attack, mine
ACTION_NAMES = ("up", "down", "right", "left", "attack", "mine")
ATTACK, MINE = 4, 5
# orientations 0..3 = N, E, S, W; (row, col) deltas
ORIENT_DELTAS = np.array([[-1, 0], [0, 1], [1, 0], [0, -1]])
ACTION_TO_ORIENT = {0: 0, 1: 2, 2: 1, 3: 3}

VIEW_OFFSETS = np.array([(dr, dc)
                         for dr in range(-2, 3)
                         for dc in range(-2 + abs(dr), 3 - abs(dr))])
assert len(VIEW_OFFSETS) == 13

ABLATION_NAMES = ("none", "far_corner", "wall_barrier", "speed", "patience",
                  "poison_chickens")


@dataclass
class FarmworldConfig:
    width: int = 10
    height: int = 10
    num_agents: int = 10
    num_chickens: int = 10
    num_towers: int = 10
    agent_max_health: float = 10.0
    agent_start_health: float = 5.0
    health_decay: float = 0.1
    agent_attack_damage: float = 1.0
    agent_food_yield: float = 0.0
    chicken_yield: float = 3.0
    chicken_max_health: int = 2
    chicken_move_probability: float = 0.25
    tower_yield: float = 5.0
    tower_attacks: int = 2
    haystack_mines: int = 2
    respawn_time: int = 20
    max_episode_timesteps: int = 200
    enforced_specialization: bool = False
    ablation: str = "none"
    agent_region: tuple | None = None   # (r0, c0, r1, c1), half-open
    food_region: tuple | None = None
    chicken_region: tuple | None = None  # overrides food_region for chickens
    tower_region: tuple | None = None    # overrides food_region for towers
    fence_cells: tuple = field(default_factory=tuple)
    layout: dict | None = None          # parsed hand-crafted map

    def validate(self):
        cells = self.width * self.height
        units = self.num_agents + self.num_chickens + self.num_towers + len(self.fence_cells)
        if units > cells:
            raise ConfigError(f"{units} units cannot fit a {self.width}x{self.height} grid")
        if self.respawn_time < 0:
            raise ConfigError("respawn_time must be >= 0")
        if self.num_agents < 1:
            raise ConfigError("need at least one agent")
        if self.num_chickens < 0 or self.num_towers < 0:
            raise ConfigError("num_chickens and num_towers must be >= 0")
        if self.ablation not in ABLATION_NAMES:
            raise ConfigError(f"unknown ablation {self.ablation!r}")

    def to_dict(self) -> dict:
        return {
            "name": "farmworld",
            "width": self.width, "height": self.height,
            "num_agents": self.num_agents, "num_chickens": self.num_chickens,
            "num_towers": self.num_towers,
            "agent_max_health": self.agent_max_health,
            "agent_start_health": self.agent_start_health,
            "health_decay": self.health_decay,
            "agent_attack_damage": self.agent_attack_damage,
            "agent_food_yield": self.agent_food_yield,
            "chicken_yield": self.chicken_yield,
            "chicken_max_health": self.chicken_max_health,
            "chicken_move_probability": self.chicken_move_probability,
            "tower_yield": self.tower_yield,
            "tower_attacks": self.tower_attacks,
            "haystack_mines": self.haystack_mines,
            "respawn_time": self.respawn_time,
            "max_episode_timesteps": self.max_episode_timesteps,
            "enforced_specialization": self.enforced_specialization,
            "ablation": self.ablation,
            "agent_region": list(self.agent_region) if self.agent_region else None,
            "food_region": list(self.food_region) if self.food_region else None,
            "chicken_region": list(self.chicken_region) if self.chicken_region else None,
            "tower_region": list(self.tower_region) if self.tower_region else None,
            "fence_cells": [list(c) for c in self.fence_cells],
            "layout": self.layout,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FarmworldConfig":
        d = {k: v for k, v in d.items() if k != "name"}
        if d.get("agent_region"):
            d["agent_region"] = tuple(d["agent_region"])
        if d.get("food_region"):
            d["food_region"] = tuple(d["food_region"])
        if d.get("chicken_region"):
            d["chicken_region"] = tuple(d["chicken_region"])
        if d.get("tower_region"):
            d["tower_region"] = tuple(d["tower_region"])
        d["fence_cells"] = tuple(tuple(c) for c in d.get("fence_cells", ()))
        return cls(**d)


def parse_map(text: str) -> dict:
    """Hand-crafted map: one char per cell, '.' ground, 'A' agent spawn,
    'c' chicken, 't' tower, 'f' fence."""
    rows = [line.rstrip("\n") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ConfigError("empty map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("map rows have unequal lengths")
    layout = {"width": width, "height": len(rows),
              "agents": [], "chickens": [], "towers": [], "fences": []}
    targets = {"A": "agents", "c": "chickens", "t": "towers", "f": "fences"}
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == ".":
                continue
            if ch not in targets:
                raise ConfigError(f"unknown map character {ch!r} at row {r}, col {c}")
            layout[targets[ch]].append([r, c])
    return layout


def config_from_map(text: str, **overrides) -> FarmworldConfig:
    layout = parse_map(text)
    cfg = FarmworldConfig(
        width=layout["width"], height=layout["height"],
        num_agents=len(layout["agents"]), num_chickens=len(layout["chickens"]),
        num_towers=len(layout["towers"]),
        fence_cells=tuple(tuple(c) for c in layout["fences"]),
        layout=layout, **overrides)
    cfg.validate()
    return cfg


def build_ablation(name: str) -> FarmworldConfig:
    """The held-out environment variants, plus the reference training config."""
    if name in ("none", "training"):
        cfg = FarmworldConfig()
    elif name == "far_corner":
        cfg = FarmworldConfig(width=18, height=18, ablation="far_corner",
                              agent_region=(0, 0, 6, 6),
                              food_region=(12, 12, 18, 18))
    elif name == "wall_barrier":
        wall = tuple((r, 5) for r in range(1, 10))  # gap at the top row
        cfg = FarmworldConfig(ablation="wall_barrier", fence_cells=wall,
                              agent_region=(0, 0, 10, 5),
                              food_region=(0, 6, 10, 10))
    elif name == "speed":
        cfg = FarmworldConfig(width=2, height=2, ablation="speed",
                              num_agents=1, num_chickens=0, num_towers=1,
                              tower_yield=1.5, respawn_time=2)
    elif name == "patience":
        cfg = FarmworldConfig(width=2, height=2, ablation="patience",
                              num_agents=1, num_chickens=0, num_towers=1,
                              tower_yield=9.0, respawn_time=60)
    elif name == "poison_chickens":
        base = FarmworldConfig()
        cfg = replace(base, ablation="poison_chickens", chicken_yield=-base.chicken_yield)
    else:
        raise ConfigError(f"unknown ablation {name!r}")
    cfg.validate()
    return cfg


class Farmworld(Environment):
    name = "farmworld"
    num_actions = 6
    observation_size = 13 * 4 + 1

    def __init__(self, config: FarmworldConfig | None = None):
        super().__init__()
        self.config = config or FarmworldConfig()
        self.config.validate()
        self.agent_ids = tuple(f"agent_{i}" for i in range(self.config.num_agents))
        self.max_episode_timesteps = self.config.max_episode_timesteps

    def config_dict(self) -> dict:
        return self.config.to_dict()

    # -- grid bookkeeping ---------------------------------------------------

    def _clear_cell(self, r: int, c: int):
        self.kind_grid[r, c] = GROUND
        self.feat_kind[r, c] = 0.0
        self.feat_health[r, c] = 0.0
        self.feat_orient[r, c] = 0.0
        self.feat_hay[r, c] = 0.0

    def _set_cell(self, r: int, c: int, kind: int, health: float, orient: int, hay: bool):
        self.kind_grid[r, c] = kind
        self.feat_kind[r, c] = kind * KIND_SCALE
        self.feat_health[r, c] = health
        self.feat_orient[r, c] = orient / 3.0
        self.feat_hay[r, c] = 1.0 if hay else 0.0

    def _free(self, r: int, c: int) -> bool:
        return self.kind_grid[r, c] == GROUND

    def _sample_cell(self, region: tuple | None, tries: int = 10_000):
        r0, c0, r1, c1 = region or (0, 0, self.config.height, self.config.width)
        for _ in range(tries):
            r = int(self.rng.integers(r0, r1))
            c = int(self.rng.integers(c0, c1))
            if self._free(r, c):
                return r, c
        return None

    # -- reset ---------------------------------------------------------------

    def _do_reset(self) -> dict:
        cfg = self.config
        h, w = cfg.height, cfg.width
        self.kind_grid = np.zeros((h, w), dtype=np.int8)
        self.feat_kind = np.zeros((h, w))
        self.feat_health = np.zeros((h, w))
        self.feat_orient = np.zeros((h, w))
        self.feat_hay = np.zeros((h, w))

        n = cfg.num_agents
        self.agent_pos = np.zeros((n, 2), dtype=np.int64)
        self.agent_health = np.full(n, cfg.agent_start_health)
        self.agent_orient = np.zeros(n, dtype=np.int64)
        self.agent_alive = np.ones(n, dtype=bool)
        self.agent_locked = np.zeros(n, dtype=np.int64)  # 0 none, CHICKEN, TOWER
        self.chicken_attacks = np.zeros(n, dtype=np.int64)
        self.tower_attacks = np.zeros(n, dtype=np.int64)
        self.blunders = np.zeros(n, dtype=np.int64)

        self.chicken_pos = np.zeros((cfg.num_chickens, 2), dtype=np.int64)
        self.chicken_hits = np.full(cfg.num_chickens, cfg.chicken_max_health, dtype=np.int64)
        self.chicken_orient = np.zeros(cfg.num_chickens, dtype=np.int64)
        self.chicken_alive = np.zeros(cfg.num_chickens, dtype=bool)
        self.chicken_timer = np.zeros(cfg.num_chickens, dtype=np.int64)

        self.tower_pos = np.zeros((cfg.num_towers, 2), dtype=np.int64)
        self.tower_left = np.full(cfg.num_towers, cfg.tower_attacks, dtype=np.int64)
        self.mine_left = np.full(cfg.num_towers, cfg.haystack_mines, dtype=np.int64)
        self.tower_hay = np.zeros(cfg.num_towers, dtype=bool)
        self.tower_alive = np.zeros(cfg.num_towers, dtype=bool)
        self.tower_timer = np.zeros(cfg.num_towers, dtype=np.int64)

        for r, c in cfg.fence_cells:
            if not self._free(r, c):
                raise ConfigError(f"fence placement collides at ({r}, {c})")
            self._set_cell(r, c, FENCE, 1.0, 0, False)

        layout = cfg.layout
        if layout is not None:
            placements = {
                "agents": layout["agents"], "chickens": layout["chickens"],
                "towers": layout["towers"]}
            for key, cells in placements.items():
                for idx, (r, c) in enumerate(cells):
                    if key == "agents":
                        self._place_agent(idx, r, c)
                    elif key == "chickens":
                        self._place_chicken(idx, r, c)
                    else:
                        self._place_tower(idx, r, c)
            for r, c in layout["fences"]:
                if self.kind_grid[r, c] != FENCE:
                    self._set_cell(r, c, FENCE, 1.0, 0, False)
        else:
            for i in range(cfg.num_agents):
                cell = self._sample_cell(cfg.agent_region)
                if cell is None:
                    raise ConfigError("could not place agents; grid too crowded")
                self._place_agent(i, *cell)
            for i in range(cfg.num_chickens):
                cell = self._sample_cell(cfg.chicken_region or cfg.food_region)
                if cell is None:
                    raise ConfigError("could not place chickens; grid too crowded")
                self._place_chicken(i, *cell)
            for i in range(cfg.num_towers):
                cell = self._sample_cell(cfg.tower_region or cfg.food_region)
                if cell is None:
                    raise ConfigError("could not place towers; grid too crowded")
                self._place_tower(i, *cell)

        return self._observations()

    def _place_agent(self, i: int, r: int, c: int):
        self.agent_pos[i] = (r, c)
        self._set_cell(r, c, AGENT, self.agent_health[i] / self.config.agent_max_health, 0, False)

    def _place_chicken(self, i: int, r: int, c: int):
        self.chicken_pos[i] = (r, c)
        self.chicken_hits[i] = self.config.chicken_max_health
        self.chicken_orient[i] = 0
        self.chicken_alive[i] = True
        self._set_cell(r, c, CHICKEN, 1.0, 0, False)

    def _place_tower(self, i: int, r: int, c: int):
        self.tower_pos[i] = (r, c)
        self.tower_left[i] = self.config.tower_attacks
        self.mine_left[i] = self.config.haystack_mines
        self.tower_hay[i] = False
        self.tower_alive[i] = True
        self._set_cell(r, c, TOWER, 1.0, 0, False)

    # -- observations ----------------------------------------------------------

    def living_agents(self) -> list[str]:
        return [f"agent_{i}" for i in np.flatnonzero(self.agent_alive)]

    def _observations(self, include: np.ndarray | None = None) -> dict:
        idx = np.flatnonzero(self.agent_alive) if include is None else include
        if idx.size == 0:
            return {}
        h, w = self.config.height, self.config.width
        cells = self.agent_pos[idx][:, None, :] + VIEW_OFFSETS[None, :, :]
        rr, cc = cells[..., 0], cells[..., 1]
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        rs, cs = rr.clip(0, h - 1), cc.clip(0, w - 1)
        feats = np.stack([self.feat_kind[rs, cs], self.feat_health[rs, cs],
                          self.feat_orient[rs, cs], self.feat_hay[rs, cs]], axis=-1)
        feats[~inside] = BORDER_FEATURES
        flat = feats.reshape(idx.size, -1)
        own = (self.agent_health[idx] / self.config.agent_max_health)[:, None]
        obs = np.concatenate([flat, own], axis=1)
        return {f"agent_{i}": obs[row] for row, i in enumerate(idx)}

    # -- unit lookup --------------------------------------------------------------

    def _chicken_at(self, r: int, c: int) -> int:
        hits = np.flatnonzero(self.chicken_alive
                              & (self.chicken_pos[:, 0] == r) & (self.chicken_pos[:, 1] == c))
        return int(hits[0])

    def _tower_at(self, r: int, c: int) -> int:
        hits = np.flatnonzero(self.tower_alive
                              & (self.tower_pos[:, 0] == r) & (self.tower_pos[:, 1] == c))
        return int(hits[0])

    def _agent_at(self, r: int, c: int) -> int:
        hits = np.flatnonzero(self.agent_alive
                              & (self.agent_pos[:, 0] == r) & (self.agent_pos[:, 1] == c))
        return int(hits[0])

    # -- harvesting ------------------------------------------------------------------

    def _harvest(self, agent: int, kind: int, amount: float):
        """Resolve a completed harvest under the specialization rule."""
        if self.config.enforced_specialization:
            if self.agent_locked[agent] == 0:
                self.agent_locked[agent] = kind
            elif self.agent_locked[agent] != kind:
                self.blunders[agent] += 1
                return
        self.agent_health[agent] = min(self.config.agent_max_health,
                                       self.agent_health[agent] + amount)

    # -- one tick ------------------------------------------------------------------------

    def _do_step(self, actions: dict) -> tuple[dict, dict, dict]:
        cfg = self.config
        h, w = cfg.height, cfg.width
        acted = np.flatnonzero(self.agent_alive)

        for i in acted:
            action = actions[f"agent_{i}"]
            r, c = self.agent_pos[i]
            if action < 4:
                self.agent_orient[i] = ACTION_TO_ORIENT[action]
                self.feat_orient[r, c] = self.agent_orient[i] / 3.0
                dr, dc = ORIENT_DELTAS[self.agent_orient[i]]
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and self._free(nr, nc):
                    self._clear_cell(r, c)
                    self._place_agent(i, nr, nc)
                    self.feat_orient[nr, nc] = self.agent_orient[i] / 3.0
                continue

            dr, dc = ORIENT_DELTAS[self.agent_orient[i]]
            tr, tc = r + dr, c + dc
            if not (0 <= tr < h and 0 <= tc < w):
                continue
            target = self.kind_grid[tr, tc]
            if action == ATTACK:
                if target == CHICKEN:
                    ci = self._chicken_at(tr, tc)
                    self.chicken_hits[ci] -= 1
                    self.chicken_attacks[i] += 1
                    if self.chicken_hits[ci] <= 0:
                        self.chicken_alive[ci] = False
                        self.chicken_timer[ci] = cfg.respawn_time
                        self._clear_cell(tr, tc)
                        self._harvest(i, CHICKEN, cfg.chicken_yield)
                    else:
                        self.feat_health[tr, tc] = self.chicken_hits[ci] / cfg.chicken_max_health
                elif target == TOWER:
                    ti = self._tower_at(tr, tc)
                    if not self.tower_hay[ti]:
                        self.tower_left[ti] -= 1
                        self.tower_attacks[i] += 1
                        if self.tower_left[ti] <= 0:
                            self.tower_hay[ti] = True
                            self.feat_hay[tr, tc] = 1.0
                        self.feat_health[tr, tc] = ((self.tower_left[ti] + self.mine_left[ti])
                                                    / (cfg.tower_attacks + cfg.haystack_mines))
                elif target == AGENT:
                    vi = self._agent_at(tr, tc)
                    self.agent_health[vi] -= cfg.agent_attack_damage
                    self.feat_health[tr, tc] = max(0.0, self.agent_health[vi]) / cfg.agent_max_health
                    if cfg.agent_food_yield:
                        self.agent_health[i] = min(cfg.agent_max_health,
                                                   self.agent_health[i] + cfg.agent_food_yield)
                # fences and ground shrug off attacks
            elif action == MINE:
                if target == TOWER:
                    ti = self._tower_at(tr, tc)
                    if self.tower_hay[ti]:
                        self.mine_left[ti] -= 1
                        self.tower_attacks[i] += 1
                        if self.mine_left[ti] <= 0:
                            self.tower_alive[ti] = False
                            self.tower_timer[ti] = cfg.respawn_time
                            self._clear_cell(tr, tc)
                            self._harvest(i, TOWER, cfg.tower_yield)
                        else:
                            self.feat_health[tr, tc] = ((self.tower_left[ti] + self.mine_left[ti])
                                                        / (cfg.tower_attacks + cfg.haystack_mines))

        # chickens wander
        for ci in range(cfg.num_chickens):
            if not self.chicken_alive[ci]:
                continue
            if self.rng.random() >= cfg.chicken_move_probability:
                continue
            direction = int(self.rng.integers(4))
            self.chicken_orient[ci] = direction
            r, c = self.chicken_pos[ci]
            self.feat_orient[r, c] = direction / 3.0
            dr, dc = ORIENT_DELTAS[direction]
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and self._free(nr, nc):
                hits = self.chicken_hits[ci]
                self._clear_cell(r, c)
                self.chicken_pos[ci] = (nr, nc)
                self._set_cell(nr, nc, CHICKEN, hits / cfg.chicken_max_health,
                               direction, False)

        # decay, respawns, deaths
        for i in acted:
            self.agent_health[i] -= cfg.health_decay
            r, c = self.agent_pos[i]
            self.feat_health[r, c] = max(0.0, self.agent_health[i]) / cfg.agent_max_health

        for ci in range(cfg.num_chickens):
            if not self.chicken_alive[ci]:
                self.chicken_timer[ci] -= 1
                if self.chicken_timer[ci] <= 0:
                    cell = self._sample_cell(cfg.chicken_region or cfg.food_region, tries=50)
                    if cell is not None:
                        self._place_chicken(ci, *cell)
        for ti in range(cfg.num_towers):
            if not self.tower_alive[ti]:
                self.tower_timer[ti] -= 1
                if self.tower_timer[ti] <= 0:
                    cell = self._sample_cell(cfg.tower_region or cfg.food_region, tries=50)
                    if cell is not None:
                        self._place_tower(ti, *cell)

        dones = {}
        rewards = {}
        for i in acted:
            if self.agent_health[i] <= 0.0:
                self.agent_alive[i] = False
                r, c = self.agent_pos[i]
                self._clear_cell(r, c)
                rewards[f"agent_{i}"] = 0.0
                dones[f"agent_{i}"] = True
            else:
                rewards[f"agent_{i}"] = 0.1
                dones[f"agent_{i}"] = False

        obs = self._observations(include=acted)
        return obs, rewards, dones

    # -- inspection --------------------------------------------------------

    def specialization_counts(self) -> dict:
        return {
            f"agent_{i}": {
                "chicken_attacks": int(self.chicken_attacks[i]),
                "tower_attacks": int(self.tower_attacks[i]),
                "blunders": int(self.blunders[i]),
            }
            for i in range(self.config.num_agents)
        }

    def mean_final_health(self) -> float:
        """Mean agent health, dead agents counting as zero."""
        return float(np.where(self.agent_alive, np.maximum(self.agent_health, 0.0), 0.0).mean())

    def render(self) -> str:
        chars = {GROUND: ".", AGENT: "A", CHICKEN: "c", FENCE: "f"}
        rows = []
        for r in range(self.config.height):
            row = []
            for c in range(self.config.width):
                kind = self.kind_grid[r, c]
                if kind == TOWER:
                    row.append("h" if self.feat_hay[r, c] > 0 else "t")
                else:
                    row.append(chars[int(kind)])
            rows.append("".join(row))
        healths = " ".join(f"{i}:{self.agent_health[i]:.1f}" if self.agent_alive[i] else f"{i}:x"
                           for i in range(self.config.num_agents))
        rows.append(f"tick={self.tick} health {healths}")
        return "\n".join(rows)
