"""Two-player gridworld soccer with simultaneous moves and possession stealing.

A 4x5 pitch; the goal mouths are the two middle rows just off the left and
right edges. The left player scores by carrying the ball off the right edge
through a goal cell, and vice versa. Both actions are submitted together,
executed in a uniformly random order; a mover stepping into the opponent's
cell stays put and possession switches. Every tick independently ends the
game in a draw with a small probability, which keeps games short.

The pitch's geometry is worked out once, when a `MarkovSoccer` is built: a
move table gives, for each cell and action, the cell moved to (None off the
pitch or for standing) and the side, if any, that scores by carrying the ball there, and a
per-side table numbers the cells in each side's attacking frame. The rules
are written once, in `MarkovSoccer.play`, a game loop that asks two players
for their actions each tick and applies each move by the rules in order (a
goal with possession, the edge, a bump, the move) by table lookups;
positions stay `(row, col)` tuples in `pos`. `step_pair` and the dict
`step` are one-tick plays between two fixed actions.

Observations are side-invariant: both players see a board on which they
attack to the right (coordinates are mirrored for the right player), as
one-hot positions for self and opponent plus a possession flag. `reset` and
the dict `step` return both sides' observations of the board they leave;
`observe(side)` builds one side's observation of the current board.
`board_index(side)` numbers that board, an int below `board_count`, and
`board_observations()` is every board's observation in that order, so a
policy can tabulate its action distributions over the whole pitch without
knowing the observation layout.

The pitch's uniforms (the possession coin, each tick's draw and move-order
coins) come from `rng.random(DRAW_BLOCK)` blocks and are used in order, so a
game plays exactly as if each were a scalar `rng.random()` call. After a game
`rng` has run ahead to the end of the last block, and replacing `rng`
mid-episode takes effect only once the block in hand is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from .base import (Environment, at_least, between, check_ranges, check_types, is_action,
                   one_of)

# actions: up, down, left, right, stand
ACTION_NAMES = ("up", "down", "left", "right", "stand")
DELTAS = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0)}
STAND = 4
ACTION_IDS = range(len(ACTION_NAMES))
OTHER = {"left": "right", "right": "left"}
LEFT_FIRST, RIGHT_FIRST = ("left", "right"), ("right", "left")   # move orders
DRAW_BLOCK = 64   # uniforms drawn from the pitch's rng at a time: a typical game's worth


# SoccerConfig field -> its legal range
SOCCER_RANGES = {
    "rows": at_least(2), "cols": at_least(2), "max_episode_timesteps": at_least(1),
    "draw_prob": between(0.0, 1.0), "initial_possession": one_of("left", "right", "random"),
}


@dataclass
class SoccerConfig:
    rows: int = 4
    cols: int = 5
    draw_prob: float = 0.02
    max_episode_timesteps: int = 500
    start_left: tuple[int, int] = (1, 1)
    start_right: tuple[int, int] = (1, 3)
    initial_possession: str = "random"   # "left" | "right" | "random"

    def validate(self):
        """Check every field's type and range, and that the start cells are two
        distinct cells of the pitch. A config is checked when it is read and
        when a `MarkovSoccer` is built on it, not once per game."""
        check_types(self)
        check_ranges(self, SOCCER_RANGES)
        for name in ("start_left", "start_right"):
            cell = getattr(self, name)
            if not (0 <= cell[0] < self.rows and 0 <= cell[1] < self.cols):
                raise ConfigError(f"soccer {name} {cell!r} is not a cell of the "
                                  f"{self.rows}x{self.cols} pitch")
        if tuple(self.start_left) == tuple(self.start_right):
            raise ConfigError("players cannot share a starting cell")


class FixedAction:
    """A player that plays one action id: `step_pair`'s two players."""

    __slots__ = ("action",)

    def __init__(self, action: int):
        self.action = action

    def act(self, env, side: str, rng) -> int:
        return self.action


class MarkovSoccer(Environment):
    """Soccer on one pitch. `play(left, right, rng)` holds the rules: it plays
    from the current board until the result (or for `ticks` ticks), asking
    the two players' `act` for each tick's actions, as the game loop of
    `evaluation.play_game` does. `step_pair(left, right)` is a one-tick
    `play` between two fixed action ids and returns nothing, since game loop
    policies read `pos`, `possession` and `board_index`. The dict `step`
    wraps `step_pair` with `Environment.step`'s checks and returns both
    sides' observations of the new board, their rewards and their dones. All
    take their uniforms from `_draws`, a block of `rng`'s next draws (see the
    module docstring).

    What a tick reads of the config is read once, at construction: `_moves`
    maps each cell to one `(cell moved to, side scoring)` entry per action,
    and `_numbers` gives each side's cell numbers, which `board_index` and
    `observe` read."""

    name = "soccer"
    config_class = SoccerConfig
    num_actions = 5
    agent_ids = ("left", "right")

    def __init__(self, config: SoccerConfig | None = None):
        super().__init__(config)
        cfg = self.config
        rows, cols = cfg.rows, cfg.cols
        self._cells = rows * cols
        self.observation_size = 2 * self._cells + 1
        # boards a side can see: own cell, opponent cell, own possession
        self.board_count = 2 * self._cells ** 2
        mid = rows // 2
        self.goal_rows = (mid - 1, mid)
        self._draw_prob, self._initial_possession = cfg.draw_prob, cfg.initial_possession
        self._starts = (tuple(cfg.start_left), tuple(cfg.start_right))
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        # cell -> per action (the cell moved to, or None for off the pitch or
        # standing; the side that scores by carrying the ball there, or None)
        self._moves = {cell: tuple(self._move(cell, action) for action in ACTION_IDS)
                       for cell in cells}
        # side -> cell -> its number in the side's attacking frame (mirrored for right)
        self._numbers = {side: {(r, c): r * cols + (c if side == "left" else cols - 1 - c)
                                for r, c in cells} for side in self.agent_ids}

    def _move(self, cell: tuple, action: int) -> tuple:
        """The move table's entry for `action` from `cell`: the pitch's geometry."""
        if action == STAND:
            return None, None
        dr, dc = DELTAS[action]
        r, c = cell[0] + dr, cell[1] + dc
        if r in self.goal_rows and c in (-1, self.config.cols):
            return None, "left" if c == self.config.cols else "right"
        on_pitch = 0 <= r < self.config.rows and 0 <= c < self.config.cols
        return ((r, c) if on_pitch else None), None

    def living_agents(self) -> list[str]:
        return [] if self._finished else ["left", "right"]

    def reset_pair(self, seed: int):
        """`reset` without building the observations, which game loop policies
        do not read; the slot form of `reset`, as `step_pair` is of `step`."""
        self._start(seed)
        self._kick_off()

    def _do_reset(self) -> dict:
        self._kick_off()
        return {side: self.observe(side) for side in self.agent_ids}

    def _kick_off(self):
        self.pos = {"left": self._starts[0], "right": self._starts[1]}
        self._draws = []   # the unused uniforms of the block in hand, next one last
        if self._initial_possession == "random":
            self.possession = "left" if self._refill().pop() < 0.5 else "right"
        else:
            self.possession = self._initial_possession
        self.result = None       # None while ongoing, else "left" | "right" | "draw"
        self.last_order = None

    # -- observations ----------------------------------------------------------

    def observe(self, side: str) -> np.ndarray:
        """The current board as seen by `side`, always attacking to the right."""
        numbers, n = self._numbers[side], self._cells
        obs = np.zeros(2 * n + 1)
        obs[numbers[self.pos[side]]] = 1.0
        obs[n + numbers[self.pos[OTHER[side]]]] = 1.0
        obs[2 * n] = 1.0 if self.possession == side else 0.0
        return obs

    def board_index(self, side: str) -> int:
        """The board `observe(side)` shows, numbered in `[0, board_count)` from
        own cell, opponent cell and own possession in the side's attacking
        frame: the row of `board_observations()` that equals `observe(side)`."""
        numbers = self._numbers[side]
        return (numbers[self.pos[side]] * self._cells + numbers[self.pos[OTHER[side]]]) * 2 \
            + (self.possession == side)

    def board_observations(self) -> np.ndarray:
        """The (board_count, observation_size) array whose row `board_index(side)`
        is `observe(side)`; rows whose two cells coincide are never played."""
        cells = self._cells
        index = np.arange(self.board_count)
        obs = np.zeros((self.board_count, self.observation_size))
        obs[index, index // (2 * cells)] = 1.0
        obs[index, cells + index // 2 % cells] = 1.0
        obs[:, 2 * cells] = index % 2
        return obs

    # -- dynamics ------------------------------------------------------------------

    def _refill(self) -> list:
        """Put the next `DRAW_BLOCK` uniforms of `rng` behind those in hand."""
        block = self.rng.random(DRAW_BLOCK).tolist()
        block.reverse()
        self._draws = block + self._draws
        return self._draws

    def play(self, left, right, rng, ticks: int | None = None) -> str | None:
        """Play from the current board until the result, or for `ticks` ticks,
        and return `result`. Each tick `left.act(self, "left", rng)` and then
        `right.act(self, "right", rng)` give the two action ids, and the rules
        play them: the draw, the move order, both moves (a goal with
        possession, the edge or standing, a bump, the move) and the timeout
        draw. The board is kept in locals; `pos`, `possession` and `tick` are
        written back before each `act`, and everything once play stops. A
        finished game refuses to play, and an action that is not an id
        raises, before the tick draws anything, with `step`'s messages."""
        if self._finished:
            raise ConfigError(f"{self.name}: step() on a finished episode")
        act_left, act_right = left.act, right.act
        moves, pos, draws = self._moves, self.pos, self._draws
        draw_prob, cap = self._draw_prob, self.max_episode_timesteps
        possession, tick, order, result = self.possession, self.tick, self.last_order, None
        stop = None if ticks is None else tick + ticks
        try:
            while result is None and tick != stop:
                self.possession, self.tick = possession, tick
                a, b = act_left(self, "left", rng), act_right(self, "right", rng)
                if not (type(a) is int and type(b) is int   # the common case, checked fast
                        and a in ACTION_IDS and b in ACTION_IDS):
                    for side, action in (("left", a), ("right", b)):
                        if not is_action(action, self.num_actions):
                            raise ConfigError(f"{self.name}: illegal action {action!r} for {side}")
                if len(draws) < 2:
                    draws = self._refill()
                if draws.pop() < draw_prob:
                    result = "draw"
                else:   # the order coin; then the first mover's move, the second's
                    if draws.pop() < 0.5:
                        order = first, second = LEFT_FIRST
                    else:
                        order = first, second = RIGHT_FIRST
                        a, b = b, a
                    first_at, second_at = pos[first], pos[second]
                    target, scorer = moves[first_at][a]
                    if scorer == first and possession == first:
                        result = first   # a goal by the first mover ends the tick
                    elif target is not None:
                        if target == second_at:   # bump: mover stays, ball changes hands
                            possession = OTHER[possession]
                        else:
                            pos[first] = first_at = target
                    if result is None:
                        target, scorer = moves[second_at][b]
                        if scorer == second and possession == second:
                            result = second
                        elif target is not None:
                            if target == first_at:
                                possession = OTHER[possession]
                            else:
                                pos[second] = target
                tick += 1
                if result is None and tick >= cap:
                    result = "draw"
        finally:
            self.possession, self.tick, self.last_order, self.result = \
                possession, tick, order, result
            self._draws = draws
            self._finished = result is not None   # a tick at the cap always ends in a draw
        return result

    def step_pair(self, left: int, right: int):
        """Advance one tick with the left and right players' action ids: a
        one-tick `play` between the two fixed actions. The slot form of
        `step`, refusing what it refuses with the same errors; it returns
        nothing, since game loop policies read the board themselves."""
        self.play(FixedAction(left), FixedAction(right), None, 1)

    def step(self, actions: dict) -> tuple[dict, dict, dict]:
        """`step_pair` behind `Environment.step`'s checks, returning both
        sides' observations of the new board, their rewards and their dones."""
        self._check_step(actions)
        self.step_pair(int(actions["left"]), int(actions["right"]))
        rewards = {"left": 0.0, "right": 0.0}
        if self.result in ("left", "right"):
            rewards[self.result] = 1.0
            rewards[OTHER[self.result]] = -1.0
        over = self.result is not None
        obs = {side: self.observe(side) for side in self.agent_ids}
        return obs, rewards, {"left": over, "right": over}

    def render(self) -> str:
        rows = []
        for r in range(self.config.rows):
            cells = []
            for c in range(self.config.cols):
                mark = ". "
                if self.pos["left"] == (r, c):
                    mark = "L*" if self.possession == "left" else "L "
                elif self.pos["right"] == (r, c):
                    mark = "R*" if self.possession == "right" else "R "
                cells.append(mark)
            edge_l = "|" if r in self.goal_rows else " "
            edge_r = "|" if r in self.goal_rows else " "
            rows.append(f"{edge_l}{''.join(cells)}{edge_r}")
        rows.append(f"tick={self.tick} possession={self.possession} result={self.result}")
        return "\n".join(rows)


# -- scripted opponents ----------------------------------------------------------

BOT_KINDS = ("straight", "oscillate0", "oscillate1", "stand", "rule_based", "random")

BOT_ROLES = {
    "straight": "offense",
    "oscillate0": "defense",
    "oscillate1": "defense",
    "stand": "defense",
    "rule_based": "mixed",
    "random": "mixed",
}

# bots always play the left side and start on the top goal row of the pitch
# (`bot_match_config`), in a column chosen so the scripted motion begins in
# place (the stand bot really does stand every tick)
BOT_COLUMNS = {"straight": 1, "oscillate0": 0, "oscillate1": 1, "stand": 0,
               "rule_based": 1, "random": 1}

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3


@dataclass(frozen=True)
class Bot:
    kind: str

    def __post_init__(self):
        if self.kind not in BOT_KINDS:
            raise ConfigError(f"unknown bot {self.kind!r}")

    @property
    def role(self) -> str:
        return BOT_ROLES[self.kind]

    @property
    def column(self) -> int:
        return BOT_COLUMNS[self.kind]

    def action(self, env: MarkovSoccer, rng: np.random.Generator) -> int:
        return bot_action(self.kind, env, rng)


def _toward(src: tuple, dst: tuple) -> int:
    """Deterministic approach: close the row gap first, then the column gap."""
    if src[0] < dst[0]:
        return DOWN
    if src[0] > dst[0]:
        return UP
    if src[1] > dst[1]:
        return LEFT
    if src[1] < dst[1]:
        return RIGHT
    return STAND


def bot_action(kind: str, env: MarkovSoccer, rng: np.random.Generator) -> int:
    """Scripted policies for the left side."""
    if kind == "straight":
        return RIGHT
    if kind == "stand":
        return STAND
    if kind == "random":
        return int(rng.integers(5))
    me = env.pos["left"]
    opp = env.pos["right"]
    top, bottom = env.goal_rows
    if kind in ("oscillate0", "oscillate1"):
        col = 0 if kind == "oscillate0" else 1
        if me == (top, col):
            return DOWN
        if me == (bottom, col):
            return UP
        return _toward(me, (top, col))
    # rule_based heuristic: with the ball run right, sidestepping a blocker;
    # without it, park between the opponent and our goal
    if env.possession == "left":
        if opp == (me[0], me[1] + 1):
            return DOWN if me[0] <= top else UP
        return RIGHT
    block = (min(max(opp[0], top), bottom), max(opp[1] - 1, 0))
    if me == block:
        return STAND
    return _toward(me, block)


def bot_match_config(bot: Bot, base: SoccerConfig | None = None) -> SoccerConfig:
    """Environment setup for a bot game: bot on the left, learned policy right."""
    cfg = base or SoccerConfig()
    # an offensive bot starts with the ball, a defensive one without it
    possession = {"offense": "left", "defense": "right", "mixed": "random"}[bot.role]
    start = (cfg.rows // 2 - 1, bot.column)
    # a learner whose start cell is the bot's takes the config's other start
    # cell, which is on the pitch and is not the bot's
    start_right = cfg.start_left if start == tuple(cfg.start_right) else cfg.start_right
    out = replace(cfg, start_left=start, start_right=start_right,
                  initial_possession=possession)
    out.validate()
    return out
