"""Two-player gridworld soccer with simultaneous moves and possession stealing.

A 4x5 pitch by default, of at most `MAX_CELLS` cells; the goal mouths are
the two middle rows just off the left and right edges. The left player
scores by carrying the ball off the right edge through a goal cell, and vice
versa. Both actions are submitted together, executed in a uniformly random
order; a mover stepping into the opponent's cell stays put and possession
switches. Every tick independently ends the game in a draw with a small
probability, which keeps games short.

The rules are written once, in the tick table of the pitch size
(`tick_table`), built once per size and shared: for every board (an int from
the left cell, the right cell and the side in possession), every action pair
and both move orders, the board after the tick and its result. A tick is the
first mover's half-move, then, unless it scored, the second mover's (a goal
with possession, the edge or standing, a bump, the move).
`MarkovSoccer.play` is the game loop: it asks two players for their actions
each tick, applies the tick with one lookup in the table, and writes the
board back to `pos` (`(row, col)` tuples) and `possession` for the players
to read. The dict `step` is a one-tick `play` between two `FixedAction`
players. `MarkovSoccer.play_lockstep` plays a whole series of games
together, as arrays of boards, one lookup per live game and tick in the same
table.

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
mid-episode takes effect only once the block in hand is spent. A lockstep
series draws everything, the players' actions too, from the one generator
it is given (see `play_lockstep`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from .base import (Environment, at_least, between, check_ranges, check_types, is_action,
                   one_of)

# actions: up, down, left, right, stand
ACTION_NAMES = ("up", "down", "left", "right", "stand")
DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))   # per action: (row, col) step
STAND = 4
ACTION_IDS = range(len(ACTION_NAMES))
OTHER = {"left": "right", "right": "left"}
LEFT_FIRST, RIGHT_FIRST = ("left", "right"), ("right", "left")   # move orders
DRAW_BLOCK = 64   # uniforms drawn from the pitch's rng at a time: a typical game's worth

# The most cells of a pitch: 10x10 has 2 * 100**2 = 20,000 boards, each in the
# tick table and in every policy's whole-pitch table. Measured 2026-10-20 with
# one BLAS thread, an `eval bots` gauntlet at the benchmark's settings took
# 0.38-0.44 of the time of filling one board at a time on every pitch from 4x5
# to 10x10, but its peak RSS rose with the boards (+2 MB at 4x5, +65 MB at
# 10x10, +170 MB at 12x12): the bound keeps that cost under about 70 MB.
MAX_CELLS = 100


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
        """Check every field's type and range, that the pitch has at most
        `MAX_CELLS` cells, and that the start cells are two distinct cells of
        the pitch. A config is checked when it is read and when a
        `MarkovSoccer` is built on it, not once per game."""
        check_types(self)
        check_ranges(self, SOCCER_RANGES)
        if self.rows * self.cols > MAX_CELLS:
            raise ConfigError(f"the soccer pitch {self.rows}x{self.cols} has "
                              f"{self.rows * self.cols} cells; at most {MAX_CELLS} are played")
        for name in ("start_left", "start_right"):
            cell = getattr(self, name)
            if not (0 <= cell[0] < self.rows and 0 <= cell[1] < self.cols):
                raise ConfigError(f"soccer {name} {cell!r} is not a cell of the "
                                  f"{self.rows}x{self.cols} pitch")
        if tuple(self.start_left) == tuple(self.start_right):
            raise ConfigError("players cannot share a starting cell")


class FixedAction:
    """A player that plays one action id: the dict `step`'s two players."""

    __slots__ = ("action",)

    def __init__(self, action: int):
        self.action = action

    def act(self, env, side: str, rng) -> int:
        return self.action


def goal_rows(rows: int) -> tuple:
    """The two rows of a pitch's goal mouths: the middle two."""
    return rows // 2 - 1, rows // 2


# a lockstep game's result code -> `MarkovSoccer.result`; 0 while the game is on
RESULTS = (None, "left", "right", "draw")
DRAW = 3


@dataclass(frozen=True)
class TickTable:
    """Every tick of one pitch size, by board number: a board is its
    `board_index("left")`, an int from the left cell, the right cell and
    the left side's possession. Entry `((board * 5 + a_left) * 5 + a_right)
    * 2 + order` of `next_board` and `result` is the board after the tick
    and its result code (`RESULTS`: 0 on, 1 or 2 when the left or right
    side scored), with `order` 0 for the left side moving first; a goal's
    board is the one the scorer moved from. `right_board` maps a board to
    its `board_index("right")`, and `boards` to its (left cell, right cell,
    side in possession)."""

    next_board: np.ndarray
    result: np.ndarray
    right_board: np.ndarray
    boards: tuple


@functools.cache
def tick_table(rows: int, cols: int) -> TickTable:
    """The tick table of a rows x cols pitch, built once per pitch size. A
    move takes a cell and an action to the cell moved to (none off the pitch
    or for standing) and the side, if any, scoring there through a goal
    mouth. A half tick is one mover's move, the other standing; a tick is the
    first mover's half, then, on the board it leaves and unless it scored,
    the second mover's."""
    cells = rows * cols
    step_row, step_col = np.array(DELTAS).T
    row, col = np.divmod(np.arange(cells)[:, None], cols)
    to_row, to_col = row + step_row, col + step_col   # per cell number and action
    on = (to_row >= 0) & (to_row < rows) & (to_col >= 0) & (to_col < cols) \
        & (np.arange(len(DELTAS)) != STAND)
    # the cell number moved to (-1: stays) and the scorer's code
    target = np.where(on, to_row * cols + to_col, -1)
    mouth = np.isin(to_row, goal_rows(rows))
    scorer = np.select([mouth & (to_col == cols), mouth & (to_col == -1)],
                       [RESULTS.index("left"), RESULTS.index("right")])
    board = np.arange(2 * cells * cells)
    at = {"left": board // (2 * cells), "right": board // 2 % cells}
    ball = board % 2   # 1: the left side has the ball

    def half(side: str) -> tuple:
        """(next board, result) per board and action of `side`, the other standing."""
        code, own, other = RESULTS.index(side), at[side], at[OTHER[side]][:, None]
        to = target[own]
        goal = (scorer[own] == code) & (ball == (side == "left"))[:, None]
        bump = to == other   # the mover stays and the ball changes hands
        moved = np.where((to >= 0) & ~bump, to, own[:, None])
        left, right = (moved, other) if side == "left" else (other, moved)
        next_board = (left * cells + right) * 2 + (ball[:, None] ^ bump)
        return np.where(goal, board[:, None], next_board), np.where(goal, code, 0)

    def tick(first: tuple, second: tuple) -> tuple:
        """(next board, result) per board, first mover's action and second's."""
        after, scored = first
        then, then_scored = second[0][after], second[1][after]
        return (np.where(scored[..., None] > 0, after[..., None], then),
                np.where(scored[..., None] > 0, scored[..., None], then_scored))

    left, right = half("left"), half("right")
    left_first = tick(left, right)                                  # [board, a_left, a_right]
    right_first = [part.transpose(0, 2, 1) for part in tick(right, left)]
    next_board, result = (np.stack(parts, axis=-1).ravel()
                          for parts in zip(left_first, right_first))
    mirror = at["left"] // cols * cols + cols - 1 - at["left"] % cols, \
        at["right"] // cols * cols + cols - 1 - at["right"] % cols
    right_board = (mirror[1] * cells + mirror[0]) * 2 + 1 - ball
    cell_of = [divmod(cell, cols) for cell in range(cells)]
    boards = tuple((cell_of[l], cell_of[r], "left" if b else "right")
                   for l, r, b in zip(at["left"].tolist(), at["right"].tolist(), ball.tolist()))
    arrays = next_board, result.astype(np.int8), right_board
    for array in arrays:   # one table serves every caller of its pitch size
        array.flags.writeable = False
    return TickTable(*arrays, boards)


class MarkovSoccer(Environment):
    """Soccer on one pitch. `play(left, right, rng)` is the game loop: it
    plays from the current board until the result (or for `ticks` ticks),
    asking the two players' `act` for each tick's actions, as the game loop
    of `evaluation.play_game` does, and looks each tick up in the pitch
    size's `tick_table`; game loop policies read `pos`, `possession` and
    `board_index` themselves. The dict `step` is a one-tick `play` between
    two `FixedAction` players behind `Environment.step`'s checks, and
    returns both sides' observations of the new board, their rewards and
    their dones. Both take their uniforms from `_draws`, a block of `rng`'s
    next draws (see the module docstring). `play_lockstep` plays a series of
    games from kick-off together, on the same table.

    What a tick reads of the config is read once, at construction: the tick
    table (`_table`, shared by the pitches of one size, and memoryviews of
    its `next_board` and `result`, whose items are Python ints), and
    `_numbers`, each side's cell numbers, which `board_index` and `observe`
    read."""

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
        self.goal_rows = goal_rows(rows)
        self._draw_prob, self._initial_possession = cfg.draw_prob, cfg.initial_possession
        self._starts = (tuple(cfg.start_left), tuple(cfg.start_right))
        self._table = tick_table(rows, cols)
        self._next_board, self._result = memoryview(self._table.next_board), \
            memoryview(self._table.result)
        # side -> cell -> its number in the side's attacking frame (mirrored for right)
        self._numbers = {side: {(r, c): r * cols + (c if side == "left" else cols - 1 - c)
                                for r in range(rows) for c in range(cols)}
                         for side in self.agent_ids}

    def living_agents(self) -> list[str]:
        return [] if self._finished else ["left", "right"]

    def reset_pair(self, seed: int):
        """`reset` without building the observations, which game loop policies
        do not read."""
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
        `right.act(self, "right", rng)` give the two action ids; the draw
        coin, then the move-order coin and one `tick_table` lookup play them,
        and the timeout draw ends a game at the cap. The board is kept in
        locals as its number; `pos` and `possession` are written back from
        the board after each tick and `tick` before each `act`, and
        everything once play stops. A finished game refuses to play, and an
        action that is not an id raises, before the tick draws anything, with
        `step`'s messages."""
        if self._finished:
            raise ConfigError(f"{self.name}: step() on a finished episode")
        act_left, act_right = left.act, right.act
        next_board, results, shown = self._next_board, self._result, self._table.boards
        pos, draws = self.pos, self._draws
        draw_prob, cap = self._draw_prob, self.max_episode_timesteps
        possession, tick, order, result = self.possession, self.tick, self.last_order, None
        board = self.board_index("left")
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
                else:   # the order coin picks the entry's last bit
                    entry = ((board * 5 + a) * 5 + b) * 2
                    if draws.pop() < 0.5:
                        order = LEFT_FIRST
                    else:
                        order, entry = RIGHT_FIRST, entry + 1
                    board, result = next_board[entry], RESULTS[results[entry]]
                    pos["left"], pos["right"], possession = shown[board]
                tick += 1
                if result is None and tick >= cap:
                    result = "draw"
        finally:
            self.possession, self.tick, self.last_order, self.result = \
                possession, tick, order, result
            self._draws = draws
            self._finished = result is not None   # a tick at the cap always ends in a draw
        return result

    def play_lockstep(self, left, right, games: int, rng: np.random.Generator) -> list:
        """Play `games` games from kick-off together and return their results
        in game order. Every game is a board number (`board_index("left")`)
        and each tick is one `tick_table` lookup per live game; a game that
        ends leaves the live set. Everything is drawn from `rng`, in order:
        the possession coins of all games at kick-off, then on each tick,
        over the live games in game order, the left side's actions, the
        right side's, and a (2, live) array of draw coins (first row) and
        move-order coins (second row).

        A player with an `act_boards(env, side, boards, rng)` method acts for
        all live games in one call, given their `board_index(side)` numbers;
        any other player is asked `act(self, side, rng)` once per live game,
        with `pos`, `possession` and `tick` showing that game's board. An
        action that is not an id raises with `play`'s message. The
        environment's own game is ended."""
        table = self._table
        numbers, cells = self._numbers["left"], self._cells
        kick_off = (numbers[self._starts[0]] * cells + numbers[self._starts[1]]) * 2
        if self._initial_possession == "random":
            boards = kick_off + (rng.random(games) < 0.5)
        else:
            boards = np.full(games, kick_off + (self._initial_possession == "left"))
        draw_prob, cap = self._draw_prob, self.max_episode_timesteps
        results = np.zeros(games, dtype=np.int8)
        live = np.arange(games)
        self.pos, self._finished, tick = dict(zip(self.agent_ids, self._starts)), True, 0
        while live.size:
            self.tick = tick
            a = self._lockstep_actions(left, "left", boards, rng)
            b = self._lockstep_actions(right, "right", boards, rng)
            draw, order = rng.random((2, live.size))
            index = ((boards * 5 + a) * 5 + b) * 2 + (order >= 0.5)
            boards, result = table.next_board[index], table.result[index]
            result[draw < draw_prob] = DRAW
            tick += 1
            if tick >= cap:
                result[result == 0] = DRAW
            over = result > 0
            if over.any():
                results[live[over]] = result[over]
                on = ~over
                live, boards = live[on], boards[on]
        self.tick = tick
        return [RESULTS[code] for code in results.tolist()]

    def _lockstep_actions(self, player, side: str, boards: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
        """`side`'s actions in the live games on `boards` (left board numbers)."""
        act_boards = getattr(player, "act_boards", None)
        if act_boards is not None:
            return act_boards(self, side,
                              boards if side == "left" else self._table.right_board[boards], rng)
        act, pos, shown = player.act, self.pos, self._table.boards
        actions = []
        for board in boards.tolist():
            pos["left"], pos["right"], self.possession = shown[board]
            actions.append(act(self, side, rng))
        if set(map(type, actions)) != {int} or min(actions) < 0 \
                or max(actions) >= self.num_actions:
            for action in actions:
                if not is_action(action, self.num_actions):
                    raise ConfigError(f"{self.name}: illegal action {action!r} for {side}")
        return np.array(actions)

    def step(self, actions: dict) -> tuple[dict, dict, dict]:
        """A one-tick `play` between two `FixedAction` players behind
        `Environment.step`'s checks, returning both sides' observations of
        the new board, their rewards and their dones."""
        self._check_step(actions)
        self.play(FixedAction(int(actions["left"])), FixedAction(int(actions["right"])), None, 1)
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
