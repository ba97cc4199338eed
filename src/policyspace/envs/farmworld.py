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

The unit arrays (positions, health, hits, attacks and mines left,
orientations) are the whole state of the units; an occupancy grid records the
kind and the index of the unit on each cell. Observations cover the 13 cells
within L1 distance 2 in a fixed scan order. Each cell contributes (type,
health, orientation, haystack-flag), all scaled to [0, 1] and computed from
the units when the observation is made; off-map cells read as a border type.
The agent's own normalized health is appended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .base import FINITE, Environment, at_least, between, check_ranges, check_types, type_rule

GROUND, AGENT, CHICKEN, TOWER, FENCE = 0, 1, 2, 3, 4
KIND_SCALE = 1.0 / 5.0
# the channels of a cell's features: what an observation reads of each cell
KIND, HEALTH, ORIENT, HAY = range(4)
FENCE_FEATURES = (FENCE * KIND_SCALE, 1.0, 0.0, 0.0)
BORDER_FEATURES = (1.0, 0.0, 0.0, 0.0)

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

IS_CELL = type_rule(tuple[int, int])    # a (row, col) pair

# FarmworldConfig field -> its legal range; yields keep their sign, since
# `poison_chickens` negates `chicken_yield`
FARMWORLD_RANGES = {
    "width": at_least(1), "height": at_least(1), "num_agents": at_least(1),
    "num_chickens": at_least(0), "num_towers": at_least(0), "chicken_max_health": at_least(1),
    "tower_attacks": at_least(1), "haystack_mines": at_least(1), "respawn_time": at_least(0),
    "max_episode_timesteps": at_least(1), "health_decay": at_least(0.0),
    "agent_attack_damage": at_least(0.0), "chicken_move_probability": between(0.0, 1.0),
    "agent_food_yield": FINITE, "chicken_yield": FINITE, "tower_yield": FINITE,
}


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
    agent_region: tuple[int, int, int, int] | None = None   # (r0, c0, r1, c1), half-open
    food_region: tuple[int, int, int, int] | None = None
    chicken_region: tuple[int, int, int, int] | None = None  # overrides food_region for chickens
    tower_region: tuple[int, int, int, int] | None = None    # overrides food_region for towers
    fence_cells: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    layout: dict | None = None          # parsed hand-crafted map

    def validate(self):
        """Check every field's type, then its range."""
        check_types(self)
        check_ranges(self, FARMWORLD_RANGES)
        if not 0.0 < self.agent_start_health <= self.agent_max_health < math.inf:
            raise ConfigError(f"farmworld needs 0 < agent_start_health <= agent_max_health, "
                              f"got {self.agent_start_health!r} and {self.agent_max_health!r}")
        cells = self.width * self.height
        units = self.num_agents + self.num_chickens + self.num_towers + len(self.fence_cells)
        if units > cells:
            raise ConfigError(f"{units} units cannot fit a {self.width}x{self.height} grid")
        if self.ablation not in ABLATION_NAMES:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        for name in ("agent_region", "food_region", "chicken_region", "tower_region"):
            r = getattr(self, name)
            if r is not None and not (0 <= r[0] < r[2] <= self.height
                                      and 0 <= r[1] < r[3] <= self.width):
                raise ConfigError(f"farmworld {name} {r!r} is not an (r0, c0, r1, c1) "
                                  f"region of the {self.height}x{self.width} grid")
        for cell in self.fence_cells:
            if not self._on_grid(cell):
                raise ConfigError(f"farmworld fence_cells: {cell!r} is not a cell of the "
                                  f"{self.height}x{self.width} grid")
        if len({tuple(cell) for cell in self.fence_cells}) < len(self.fence_cells):
            raise ConfigError("farmworld fence_cells lists a cell twice")
        if self.layout is None:
            return
        if not self._is_map(self.layout):
            raise ConfigError(f"farmworld layout is not a map of the {self.height}x{self.width} "
                              f"grid with {self.num_agents} agents, {self.num_chickens} "
                              f"chickens and {self.num_towers} towers, one unit per cell")
        units = {tuple(cell) for kind in ("agents", "chickens", "towers")
                 for cell in self.layout[kind]}
        under = sorted(units & {tuple(cell) for cell in self.fence_cells})
        if under:
            raise ConfigError(f"farmworld fence_cells {under} are under units of the layout")

    def _on_grid(self, cell) -> bool:
        return IS_CELL(cell) and 0 <= cell[0] < self.height and 0 <= cell[1] < self.width

    def _is_map(self, layout: dict) -> bool:
        """Whether `layout` is what `parse_map` makes of a map of this grid."""
        kinds = ("agents", "chickens", "towers", "fences")
        return (set(layout) == {"width", "height", *kinds}
                and (layout["width"], layout["height"]) == (self.width, self.height)
                and all(isinstance(layout[kind], list) and all(map(self._on_grid, layout[kind]))
                        for kind in kinds)
                and [len(layout[kind]) for kind in kinds[:3]]
                == [self.num_agents, self.num_chickens, self.num_towers]
                and len({tuple(cell) for kind in kinds for cell in layout[kind]})
                == sum(len(layout[kind]) for kind in kinds))


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


# ablation -> its FarmworldConfig overrides; "none" is the reference training config
ABLATIONS = {
    "none": {},
    "far_corner": {"width": 18, "height": 18,
                   "agent_region": (0, 0, 6, 6), "food_region": (12, 12, 18, 18)},
    "wall_barrier": {"fence_cells": tuple((r, 5) for r in range(1, 10)),  # gap at the top row
                     "agent_region": (0, 0, 10, 5), "food_region": (0, 6, 10, 10)},
    "speed": {"width": 2, "height": 2, "num_agents": 1, "num_chickens": 0, "num_towers": 1,
              "tower_yield": 1.5, "respawn_time": 2},
    "patience": {"width": 2, "height": 2, "num_agents": 1, "num_chickens": 0, "num_towers": 1,
                 "tower_yield": 9.0, "respawn_time": 60},
    "poison_chickens": {"chicken_yield": -FarmworldConfig.chicken_yield},
}
ABLATION_NAMES = tuple(ABLATIONS)


def build_ablation(name: str) -> FarmworldConfig:
    """The held-out environment variants, plus the reference training config
    (named "none", or "training")."""
    name = "none" if name == "training" else name
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}")
    cfg = FarmworldConfig(**ABLATIONS[name], ablation=name)
    cfg.validate()
    return cfg


class Farmworld(Environment):
    name = "farmworld"
    config_class = FarmworldConfig
    num_actions = 6
    observation_size = 13 * 4 + 1

    def __init__(self, config: FarmworldConfig | None = None):
        super().__init__(config)
        self.agent_ids = tuple(f"agent_{i}" for i in range(self.config.num_agents))

    # -- grid bookkeeping ---------------------------------------------------

    def _clear_cell(self, r: int, c: int):
        self._set_cell(r, c, GROUND)

    def _set_cell(self, r: int, c: int, kind: int, index: int = 0):
        """Record unit `index` of `kind` on (r, c); ground and fences have index 0."""
        self.kind_grid[r, c] = kind
        self.unit_grid[r, c] = index

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
        self.unit_grid = np.zeros((h, w), dtype=np.int64)   # the index of its unit

        n = cfg.num_agents
        self.agent_pos = np.zeros((n, 2), dtype=np.int64)
        self.agent_health = np.full(n, cfg.agent_start_health, dtype=np.float64)
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
            self._set_cell(r, c, FENCE)

        # a map places each unit on its own cell; otherwise cells are drawn in its region
        layout = cfg.layout
        for kind, count, region, place in (
                ("agents", n, cfg.agent_region, self._place_agent),
                ("chickens", cfg.num_chickens, cfg.chicken_region or cfg.food_region,
                 self._place_chicken),
                ("towers", cfg.num_towers, cfg.tower_region or cfg.food_region, self._place_tower)):
            for i in range(count):
                cell = self._sample_cell(region) if layout is None else layout[kind][i]
                if cell is None:
                    raise ConfigError(f"could not place {kind}; grid too crowded")
                place(i, *cell)
        for r, c in layout["fences"] if layout is not None else ():
            self._set_cell(r, c, FENCE)

        return self._observations()

    def _place_agent(self, i: int, r: int, c: int):
        self.agent_pos[i] = (r, c)
        self._set_cell(r, c, AGENT, i)

    def _place_chicken(self, i: int, r: int, c: int):
        self.chicken_pos[i] = (r, c)
        self.chicken_hits[i] = self.config.chicken_max_health
        self.chicken_orient[i] = 0
        self.chicken_alive[i] = True
        self._set_cell(r, c, CHICKEN, i)

    def _place_tower(self, i: int, r: int, c: int):
        self.tower_pos[i] = (r, c)
        self.tower_left[i] = self.config.tower_attacks
        self.mine_left[i] = self.config.haystack_mines
        self.tower_hay[i] = False
        self.tower_alive[i] = True
        self._set_cell(r, c, TOWER, i)

    # -- observations ----------------------------------------------------------

    def living_agents(self) -> list[str]:
        return [self.agent_ids[i] for i in np.flatnonzero(self.agent_alive)]

    def _cell_features(self) -> np.ndarray:
        """What each cell shows an observer, its (KIND, HEALTH, ORIENT, HAY),
        computed from the occupancy grid and the unit arrays, on the grid
        padded by two border cells: cell (r, c) is at [r + 2, c + 2]."""
        cfg = self.config
        na, nc = cfg.num_agents, cfg.num_chickens
        # one row per unit, between a ground row and the fence and border rows
        rows = np.zeros((1 + na + nc + cfg.num_towers + 2, 4))
        rows[-2:] = FENCE_FEATURES, BORDER_FEATURES
        agents, chickens, towers = rows[1:1 + na], rows[1 + na:1 + na + nc], rows[1 + na + nc:-2]
        agents[:, KIND] = AGENT * KIND_SCALE
        agents[:, HEALTH] = self.agent_health / cfg.agent_max_health
        agents[:, ORIENT] = self.agent_orient / 3.0
        chickens[:, KIND] = CHICKEN * KIND_SCALE
        chickens[:, HEALTH] = self.chicken_hits / cfg.chicken_max_health
        chickens[:, ORIENT] = self.chicken_orient / 3.0
        towers[:, KIND] = TOWER * KIND_SCALE
        towers[:, HEALTH] = ((self.tower_left + self.mine_left)
                             / (cfg.tower_attacks + cfg.haystack_mines))
        towers[:, HAY] = self.tower_hay
        first = np.array((0, 1, 1 + na, 1 + na + nc, len(rows) - 2))   # each kind's first row
        slots = np.full((cfg.height + 4, cfg.width + 4), len(rows) - 1)
        slots[2:-2, 2:-2] = first[self.kind_grid] + self.unit_grid
        return rows[slots]

    def _observations(self, include: np.ndarray | None = None) -> dict:
        idx = np.flatnonzero(self.agent_alive) if include is None else include
        if idx.size == 0:
            return {}
        cells = self.agent_pos[idx][:, None, :] + (VIEW_OFFSETS + 2)
        feats = self._cell_features()[cells[..., 0], cells[..., 1]]
        flat = feats.reshape(idx.size, -1)
        own = (self.agent_health[idx] / self.config.agent_max_health)[:, None]
        obs = np.concatenate([flat, own], axis=1)
        return {self.agent_ids[i]: obs[row] for row, i in enumerate(idx)}

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
            action = actions[self.agent_ids[i]]
            r, c = self.agent_pos[i]
            if action < 4:
                self.agent_orient[i] = ACTION_TO_ORIENT[action]
                dr, dc = ORIENT_DELTAS[self.agent_orient[i]]
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and self._free(nr, nc):
                    self._clear_cell(r, c)
                    self._place_agent(i, nr, nc)
                continue

            dr, dc = ORIENT_DELTAS[self.agent_orient[i]]
            tr, tc = r + dr, c + dc
            if not (0 <= tr < h and 0 <= tc < w):
                continue
            target, unit = self.kind_grid[tr, tc], self.unit_grid[tr, tc]
            if action == ATTACK:
                if target == CHICKEN:
                    self.chicken_hits[unit] -= 1
                    self.chicken_attacks[i] += 1
                    if self.chicken_hits[unit] <= 0:
                        self.chicken_alive[unit] = False
                        self.chicken_timer[unit] = cfg.respawn_time
                        self._clear_cell(tr, tc)
                        self._harvest(i, CHICKEN, cfg.chicken_yield)
                elif target == TOWER:
                    if not self.tower_hay[unit]:
                        self.tower_left[unit] -= 1
                        self.tower_attacks[i] += 1
                        if self.tower_left[unit] <= 0:
                            self.tower_hay[unit] = True
                elif target == AGENT:
                    self.agent_health[unit] -= cfg.agent_attack_damage
                    if cfg.agent_food_yield:
                        self.agent_health[i] = min(cfg.agent_max_health,
                                                   self.agent_health[i] + cfg.agent_food_yield)
                # fences and ground shrug off attacks
            elif action == MINE:
                if target == TOWER and self.tower_hay[unit]:
                    self.mine_left[unit] -= 1
                    self.tower_attacks[i] += 1
                    if self.mine_left[unit] <= 0:
                        self.tower_alive[unit] = False
                        self.tower_timer[unit] = cfg.respawn_time
                        self._clear_cell(tr, tc)
                        self._harvest(i, TOWER, cfg.tower_yield)

        # chickens wander
        for ci in range(cfg.num_chickens):
            if not self.chicken_alive[ci]:
                continue
            if self.rng.random() >= cfg.chicken_move_probability:
                continue
            direction = int(self.rng.integers(4))
            self.chicken_orient[ci] = direction
            r, c = self.chicken_pos[ci]
            dr, dc = ORIENT_DELTAS[direction]
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and self._free(nr, nc):
                self._clear_cell(r, c)
                self.chicken_pos[ci] = (nr, nc)
                self._set_cell(nr, nc, CHICKEN, ci)

        # decay, respawns, deaths
        self.agent_health[acted] -= cfg.health_decay

        # chickens first, then towers, each in ascending index
        for alive, timer, region, place in (
                (self.chicken_alive, self.chicken_timer, cfg.chicken_region or cfg.food_region,
                 self._place_chicken),
                (self.tower_alive, self.tower_timer, cfg.tower_region or cfg.food_region,
                 self._place_tower)):
            for i in np.flatnonzero(~alive):
                timer[i] -= 1
                if timer[i] <= 0:
                    cell = self._sample_cell(region, tries=50)
                    if cell is not None:
                        place(i, *cell)

        dones = {}
        rewards = {}
        for i in acted:
            agent = self.agent_ids[i]
            if self.agent_health[i] <= 0.0:
                self.agent_alive[i] = False
                self._clear_cell(*self.agent_pos[i])
                rewards[agent], dones[agent] = 0.0, True
            else:
                rewards[agent], dones[agent] = 0.1, False

        obs = self._observations(include=acted)
        return obs, rewards, dones

    # -- inspection --------------------------------------------------------

    def specialization_counts(self) -> dict:
        return {
            agent: {
                "chicken_attacks": int(self.chicken_attacks[i]),
                "tower_attacks": int(self.tower_attacks[i]),
                "blunders": int(self.blunders[i]),
            }
            for i, agent in enumerate(self.agent_ids)
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
                    row.append("h" if self.tower_hay[self.unit_grid[r, c]] else "t")
                else:
                    row.append(chars[int(kind)])
            rows.append("".join(row))
        healths = " ".join(f"{i}:{self.agent_health[i]:.1f}" if self.agent_alive[i] else f"{i}:x"
                           for i in range(self.config.num_agents))
        rows.append(f"tick={self.tick} health {healths}")
        return "\n".join(rows)
