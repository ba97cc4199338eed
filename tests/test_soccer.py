import hashlib

import numpy as np
import pytest

from policyspace.envs.soccer import (BOT_KINDS, RESULTS, Bot, FixedAction, MarkovSoccer,
                                     SoccerConfig, bot_action, bot_match_config, tick_table)
from policyspace.errors import ConfigError

from helpers import soccer_moves_oracle

UP, DOWN, LEFT, RIGHT, STAND = range(5)


def fresh(seed=0, **cfg):
    cfg.setdefault("draw_prob", 0.0)
    env = MarkovSoccer(SoccerConfig(**cfg))
    env.reset(seed=seed)
    return env


def test_carrier_scores_by_entering_the_goal_mouth():
    env = fresh(initial_possession="left", start_left=(1, 4), start_right=(3, 0))
    _, rewards, dones = env.step({"left": RIGHT, "right": STAND})
    assert env.result == "left"
    assert rewards == {"left": 1.0, "right": -1.0}
    assert dones == {"left": True, "right": True}


def test_carrier_cannot_score_outside_goal_rows():
    env = fresh(initial_possession="left", start_left=(0, 4), start_right=(3, 0))
    env.step({"left": RIGHT, "right": STAND})
    assert env.result is None
    assert env.pos["left"] == (0, 4)  # blocked by the edge


def test_non_carrier_cannot_score():
    env = fresh(initial_possession="right", start_left=(1, 4), start_right=(3, 0))
    env.step({"left": RIGHT, "right": STAND})
    assert env.result is None


def test_right_player_scores_into_the_left_goal():
    env = fresh(initial_possession="right", start_left=(3, 4), start_right=(2, 0))
    _, rewards, _ = env.step({"left": STAND, "right": LEFT})
    assert env.result == "right"
    assert rewards["right"] == 1.0 and rewards["left"] == -1.0


def test_bumping_the_carrier_steals_possession():
    env = fresh(initial_possession="right", start_left=(1, 1), start_right=(1, 2))
    env.step({"left": RIGHT, "right": STAND})
    assert env.possession == "left"
    assert env.pos["left"] == (1, 1)      # the bumper does not move
    assert env.pos["right"] == (1, 2)


def test_carrier_bumping_defender_loses_the_ball():
    env = fresh(initial_possession="left", start_left=(1, 1), start_right=(1, 2))
    env.step({"left": RIGHT, "right": STAND})
    assert env.possession == "right"
    assert env.pos["left"] == (1, 1)


def test_draw_probability_one_ends_every_step_in_a_draw():
    env = fresh(draw_prob=1.0)
    _, rewards, dones = env.step({"left": RIGHT, "right": LEFT})
    assert env.result == "draw"
    assert rewards == {"left": 0.0, "right": 0.0}
    assert all(dones.values())


def test_tick_cap_forces_a_draw():
    env = fresh(max_episode_timesteps=3)
    for _ in range(3):
        env.step({"left": STAND, "right": STAND})
    assert env.result == "draw"
    assert env.finished


def test_no_teleporting_single_cell_moves_only():
    env = fresh(seed=4)
    rng = np.random.default_rng(1)
    prev = dict(env.pos)
    for _ in range(100):
        if env.finished:
            break
        env.step({"left": int(rng.integers(5)), "right": int(rng.integers(5))})
        for side in ("left", "right"):
            dist = abs(env.pos[side][0] - prev[side][0]) + abs(env.pos[side][1] - prev[side][1])
            assert dist <= 1
        prev = dict(env.pos)


def test_observation_is_side_invariant_under_mirroring():
    env_a = fresh(initial_possession="left", start_left=(2, 1), start_right=(0, 3))
    # the mirrored scenario: right player stands where left stood, mirrored
    env_b = fresh(initial_possession="right", start_left=(0, 1), start_right=(2, 3))
    assert np.array_equal(env_a.observe("left"), env_b.observe("right"))


def test_observation_pure_and_possession_flag_binary():
    env = fresh(seed=2)
    obs1 = env.observe("left")
    obs2 = env.observe("left")
    assert np.array_equal(obs1, obs2)
    assert obs1[-1] in (0.0, 1.0)
    assert obs1.shape == (41,)
    assert obs1.sum() == pytest.approx(2.0 + obs1[-1])


def test_execution_order_is_a_fair_coin():
    # both race for the same empty cell; the first mover wins it
    wins_left = 0
    trials = 10_000
    for seed in range(trials):
        env = fresh(seed=seed, initial_possession="left",
                    start_left=(1, 2), start_right=(3, 2))
        env.step({"left": DOWN, "right": UP})  # both want (2, 2)
        if env.pos["left"] == (2, 2):
            wins_left += 1
    assert abs(wins_left / trials - 0.5) < 0.02


def test_illegal_action_rejected():
    env = fresh()
    with pytest.raises(ConfigError):
        env.step({"left": 7, "right": STAND})


def test_same_seed_same_game():
    actions = [{"left": RIGHT, "right": LEFT}, {"left": DOWN, "right": UP}]
    def run():
        env = MarkovSoccer(SoccerConfig(draw_prob=0.1))
        env.reset(seed=33)
        trace = [dict(env.pos)]
        for acts in actions:
            if env.finished:
                break
            env.step(acts)
            trace.append((dict(env.pos), env.possession, env.result))
        return trace
    assert run() == run()


# -- bots ---------------------------------------------------------------------


def test_straight_bot_always_moves_right():
    env = fresh()
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert bot_action("straight", env, rng) == RIGHT
        env.step({"left": RIGHT, "right": STAND})
        if env.finished:
            break


def test_stand_bot_stands_every_tick():
    bot = Bot("stand")
    env = fresh(start_left=bot_match_config(bot).start_left, initial_possession="right")
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert bot.action(env, rng) == STAND
        env.step({"left": STAND, "right": STAND})


def test_oscillate0_bounces_between_goal_adjacent_cells():
    env = fresh(start_left=(1, 0), initial_possession="right", start_right=(1, 3))
    rng = np.random.default_rng(0)
    assert bot_action("oscillate0", env, rng) == DOWN   # top blocking cell
    env.pos["left"] = (2, 0)
    assert bot_action("oscillate0", env, rng) == UP     # bottom blocking cell


def test_oscillate1_works_in_column_one():
    env = fresh(start_left=(1, 1), initial_possession="right", start_right=(1, 3))
    rng = np.random.default_rng(0)
    assert bot_action("oscillate1", env, rng) == DOWN
    env.pos["left"] = (2, 1)
    assert bot_action("oscillate1", env, rng) == UP


def test_rule_based_bot_advances_with_ball_and_blocks_without():
    env = fresh(start_left=(1, 1), start_right=(3, 3), initial_possession="left")
    rng = np.random.default_rng(0)
    assert bot_action("rule_based", env, rng) == RIGHT
    env.possession = "right"
    act = bot_action("rule_based", env, rng)
    assert act in (UP, DOWN, LEFT, RIGHT)  # heads toward the blocking cell
    env.pos["left"] = (2, 2)  # the blocking cell for opponent at (3, 3): row clipped
    assert bot_action("rule_based", env, rng) == STAND


def test_rule_based_sidesteps_a_blocker():
    env = fresh(start_left=(1, 1), start_right=(1, 2), initial_possession="left")
    rng = np.random.default_rng(0)
    assert bot_action("rule_based", env, rng) == DOWN


def test_bot_roles_fix_initial_possession():
    assert Bot("straight").role == "offense"
    assert Bot("oscillate0").role == "defense"
    assert Bot("rule_based").role == "mixed"
    cfg = bot_match_config(Bot("straight"))
    assert cfg.initial_possession == "left"
    cfg = bot_match_config(Bot("stand"))
    assert cfg.initial_possession == "right"
    assert cfg.start_left == (1, 0)
    with pytest.raises(ConfigError):
        Bot("psychic")


def test_a_learner_on_the_bots_start_cell_takes_the_configs_start_left():
    # on a 2-row pitch bots start on row 0; the column-1 bots start on (0, 1)
    small = SoccerConfig(rows=2, start_left=(1, 0), start_right=(0, 1))
    for kind in BOT_KINDS:
        cfg = bot_match_config(Bot(kind), small)
        assert cfg.start_right == ((1, 0) if Bot(kind).column == 1 else (0, 1))


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6, 7])
def test_bots_start_on_the_top_goal_row_of_the_pitch(rows):
    for kind in BOT_KINDS:
        cfg = bot_match_config(Bot(kind), SoccerConfig(rows=rows, start_right=(rows - 1, 3)))
        assert cfg.start_left == (MarkovSoccer(cfg).goal_rows[0], Bot(kind).column)
        assert cfg.start_left[0] == rows // 2 - 1


def test_random_bot_uses_all_actions():
    env = fresh()
    rng = np.random.default_rng(0)
    seen = {bot_action("random", env, rng) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_render_marks_the_ball_carrier():
    env = fresh(initial_possession="left")
    board = env.render()
    assert "L*" in board and "R*" not in board
    env.possession = "right"
    board = env.render()
    assert "R*" in board and "L*" not in board


def test_step_observations_show_the_tick_that_returned_them():
    env = fresh(seed=4, initial_possession="left")
    rng = np.random.default_rng(5)
    held = []
    for _ in range(6):
        obs, _, _ = env.step({"left": int(rng.integers(5)), "right": int(rng.integers(5))})
        held.append((obs, {side: env.observe(side) for side in ("left", "right")}))
        if env.finished:
            break
    # read only after the board has moved on: each still shows its own tick
    for obs, expected in held:
        assert sorted(obs) == ["left", "right"] and len(obs) == 2
        for side in ("left", "right"):
            assert np.array_equal(obs[side], expected[side])
            assert obs[side] is obs[side]
    with pytest.raises(KeyError):
        held[0][0]["nobody"]


# one row per field: values of the wrong type or out of range
BAD_FIELDS = {
    "rows": ["4", 4.0, True, 1, 0],
    "cols": ["5", 5.5, False, 1, -3],
    "draw_prob": ["x", True, None, -0.1, 1.5, float("nan")],
    "max_episode_timesteps": ["x", 2.5, True, 0, -1],
    "start_left": [(9, 9), (-1, 1), (1, 5), (4, 0), (1,), (1, 1, 1), ("1", "1"), (1.0, 1), 3, None],
    "start_right": [(9, 9), (1, -1), (0, 5), (1,), (True, 3), "13"],
    "initial_possession": ["up", 3, None, ""],
}


@pytest.mark.parametrize("field, value", [(f, v) for f, values in BAD_FIELDS.items()
                                          for v in values])
def test_config_rejects_a_bad_field(field, value):
    config = SoccerConfig(**{field: value})
    with pytest.raises(ConfigError):
        config.validate()
    with pytest.raises(ConfigError):
        MarkovSoccer(config)


@pytest.mark.parametrize("rows, cols, played", [
    (11, 10, False), (10, 11, False), (51, 2, False), (10, 10, True), (50, 2, True)])
def test_a_pitch_has_at_most_100_cells(rows, cols, played):
    from policyspace.evaluation import RandomPolicy
    config = SoccerConfig(rows=rows, cols=cols, start_left=(0, 0), start_right=(0, 1))
    if played:
        config.validate()
        env = MarkovSoccer(config)
        env.reset(0)
        assert env.board_count == 2 * 100 ** 2
        assert env.play(RandomPolicy(), RandomPolicy(), np.random.default_rng(0), 50) in \
            (None, "left", "right", "draw")
        return
    with pytest.raises(ConfigError, match="at most 100"):
        config.validate()
    with pytest.raises(ConfigError, match="at most 100"):
        MarkovSoccer(config)


def test_config_accepts_every_legal_start_cell_and_numpy_integers():
    config = SoccerConfig()
    cells = [(r, c) for r in range(config.rows) for c in range(config.cols)]
    for cell in cells:
        other = (0, 0) if cell != (0, 0) else (3, 4)
        SoccerConfig(start_left=cell, start_right=list(other)).validate()
    SoccerConfig(rows=np.int64(3), max_episode_timesteps=np.int32(1), draw_prob=1,
                 start_left=(np.int64(0), 0)).validate()


def step_pair(env, left, right):
    """The slot step: one tick of `play` between two fixed action ids, the
    tick the dict `step` plays behind `Environment.step`'s checks."""
    env.play(FixedAction(left), FixedAction(right), None, 1)


# -- the move table against the rules ------------------------------------------


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 4), (4, 5), (5, 4), (6, 5), (8, 8)])
def test_the_move_table_plays_the_rules(rows, cols):
    # every ordered pair of distinct cells, both possessions, every action
    # pair and both move orders: one tick leaves the oracle's pos,
    # possession and result
    env = MarkovSoccer(SoccerConfig(rows=rows, cols=cols, draw_prob=0.0,
                                    start_left=(0, 0), start_right=(0, 1)))
    env.reset(0)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    # the tick pops the draw coin (0.5, never a draw), then the order coin
    orders = {("left", "right"): 0.25, ("right", "left"): 0.75}
    for left_cell in cells:
        for right_cell in cells:
            if left_cell == right_cell:
                continue
            start = {"left": left_cell, "right": right_cell}
            for possession in ("left", "right"):
                for left in range(5):
                    for right in range(5):
                        for order, coin in orders.items():
                            env.pos, env.possession, env.result = dict(start), possession, None
                            env.tick, env._finished, env._draws = 0, False, [coin, 0.5]
                            step_pair(env, left, right)
                            expected = soccer_moves_oracle(rows, cols, start, possession,
                                                           {"left": left, "right": right}, order)
                            assert (env.pos, env.possession, env.result) == expected
                            assert env.last_order == order


# -- the tick table and the lockstep series -------------------------------------

ORDERS = (("left", "right"), ("right", "left"))


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 4), (4, 5), (5, 4), (6, 5)])
def test_the_tick_table_plays_the_rules(rows, cols):
    # every board of two distinct cells, every action pair and both move
    # orders: the entry's next board and result are the oracle's tick, and
    # the table's board numbers are board_index's
    table = tick_table(rows, cols)
    env = MarkovSoccer(SoccerConfig(rows=rows, cols=cols, start_left=(0, 0), start_right=(0, 1)))
    assert len(table.boards) == env.board_count
    assert table.next_board.shape == table.result.shape == (env.board_count * 5 * 5 * 2,)
    played = 0
    for board, (left_cell, right_cell, possession) in enumerate(table.boards):
        if left_cell == right_cell:
            continue
        env.pos, env.possession = {"left": left_cell, "right": right_cell}, possession
        assert env.board_index("left") == board
        assert env.board_index("right") == table.right_board[board]
        for left in range(5):
            for right in range(5):
                for order_code, order in enumerate(ORDERS):
                    entry = ((board * 5 + left) * 5 + right) * 2 + order_code
                    pos, after, result = soccer_moves_oracle(
                        rows, cols, env.pos, possession, {"left": left, "right": right}, order)
                    assert RESULTS[table.result[entry]] == result
                    if result is None:
                        assert table.boards[table.next_board[entry]] == \
                            (pos["left"], pos["right"], after)
                    played += 1
    cells = rows * cols
    assert played == cells * (cells - 1) * 2 * 5 * 5 * 2


def test_the_tick_table_is_built_once_per_pitch_size():
    # a pure function of rows and cols: environments of one pitch size, of
    # any other config, and every series on them share one table
    from policyspace.evaluation import RandomPolicy, play_series
    tick_table.cache_clear()
    rng = np.random.default_rng(0)
    for cfg in ({}, {"draw_prob": 0.1}, {"rows": 6}, {"rows": 6, "max_episode_timesteps": 9}):
        for kind in ("straight", "random"):
            env = MarkovSoccer(bot_match_config(Bot(kind), SoccerConfig(**cfg)))
            play_series(env, Bot(kind), RandomPolicy(), 20, rng)
            play_series(env, Bot(kind), RandomPolicy(), 20, rng)
    assert tick_table.cache_info().misses == 2
    assert tick_table(4, 5) is tick_table(4, 5)


class AlwaysPlays:
    """A player asked game by game: one action id, or one action per side."""

    def __init__(self, action):
        self.action = action

    def act(self, env, side, rng):
        return self.action


def lockstep_oracle(cfg: SoccerConfig, games: int, rng) -> list:
    """The lockstep series of two random players by the rules written out
    (`soccer_moves_oracle`) and its stream stated plainly: the possession
    coins, then per tick over the live games the left actions, the right
    actions, and the draw and order coins."""
    on = {"left": tuple(cfg.start_left), "right": tuple(cfg.start_right)}
    if cfg.initial_possession == "random":
        possession = ["left" if u < 0.5 else "right" for u in rng.random(games)]
    else:
        possession = [cfg.initial_possession] * games
    pos, results, tick = [dict(on) for _ in range(games)], [None] * games, 0
    live = list(range(games))
    while live:
        left, right = rng.integers(5, size=len(live)), rng.integers(5, size=len(live))
        draw, order = rng.random((2, len(live)))
        for k, game in enumerate(live):
            if draw[k] < cfg.draw_prob:
                results[game] = "draw"
                continue
            actions = {"left": int(left[k]), "right": int(right[k])}
            pos[game], possession[game], results[game] = soccer_moves_oracle(
                cfg.rows, cfg.cols, pos[game], possession[game], actions,
                ORDERS[int(order[k] >= 0.5)])
        tick += 1
        if tick >= cfg.max_episode_timesteps:
            results = ["draw" if r is None and g in live else r for g, r in enumerate(results)]
        live = [game for game in live if results[game] is None]
    return results


LOCKSTEP_CONFIGS = {
    "default": {},
    "draw_prob 0, cap 30": {"draw_prob": 0.0, "max_episode_timesteps": 30},
    "cap 1": {"max_episode_timesteps": 1},
    "6 rows": {"rows": 6, "draw_prob": 0.0, "max_episode_timesteps": 60},
    "left starts with the ball": {"initial_possession": "left"},
}


@pytest.mark.parametrize("cfg", LOCKSTEP_CONFIGS.values(), ids=LOCKSTEP_CONFIGS.keys())
def test_the_lockstep_series_plays_the_rules_on_its_named_stream(cfg):
    from policyspace.evaluation import RandomPolicy
    config = SoccerConfig(**cfg)
    results = MarkovSoccer(config).play_lockstep(RandomPolicy(), RandomPolicy(), 300,
                                                 np.random.default_rng(5))
    assert results == lockstep_oracle(config, 300, np.random.default_rng(5))
    assert set(results) <= {"left", "right", "draw"}


def test_a_lockstep_series_asks_other_players_game_by_game_on_each_board():
    # a player without act_boards sees each live game's board in pos,
    # possession and tick, once per live game per tick
    seen = []

    class Watching(AlwaysPlays):
        def act(self, env, side, rng):
            seen.append((side, dict(env.pos), env.possession, env.tick))
            return self.action

    env = MarkovSoccer(SoccerConfig(draw_prob=0.0, initial_possession="left",
                                    max_episode_timesteps=3))
    results = env.play_lockstep(Watching(RIGHT), Watching(STAND), 4, np.random.default_rng(0))
    # the left side runs right with the ball from (1, 1): blocked by the
    # standing right player at (1, 3) whichever moves first
    assert results == ["draw"] * 4
    assert len(seen) == 2 * 4 * 3
    assert [tick for *_, tick in seen] == [t for t in range(3) for _ in range(8)]
    assert [side for side, *_ in seen] == (["left"] * 4 + ["right"] * 4) * 3
    assert all(possession in ("left", "right") for _, _, possession, _ in seen)
    assert seen[0][1] == {"left": (1, 1), "right": (1, 3)}


@pytest.mark.parametrize("illegal", [5, -1, True, 2.0, "up"])
def test_a_lockstep_series_refuses_an_illegal_action_as_play_does(illegal):
    from policyspace.evaluation import RandomPolicy
    for left, right, side in ((AlwaysPlays(illegal), RandomPolicy(), "left"),
                              (RandomPolicy(), AlwaysPlays(illegal), "right")):
        with pytest.raises(ConfigError, match=f"illegal action {illegal!r} for {side}"):
            MarkovSoccer().play_lockstep(left, right, 3, np.random.default_rng(0))
    # a numpy integer is an id, as in play
    assert len(MarkovSoccer().play_lockstep(AlwaysPlays(np.int64(STAND)), RandomPolicy(), 3,
                                            np.random.default_rng(0))) == 3


def test_a_series_takes_one_draw_of_the_callers_rng():
    from policyspace.evaluation import RandomPolicy, play_series
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    score = play_series(MarkovSoccer(), RandomPolicy(), RandomPolicy(), 50, rng)
    child = np.random.default_rng(int(twin.integers(2 ** 62)))
    results = MarkovSoccer().play_lockstep(RandomPolicy(), RandomPolicy(), 50, child)
    assert (score.wins, score.losses, score.draws) == \
        (results.count("right"), results.count("left"), results.count("draw"))
    assert rng.random() == twin.random()


# -- the slot step ---------------------------------------------------------------


def board(env):
    return (dict(env.pos), env.possession, env.result, env.tick, env.last_order,
            env.finished, env.rng.bit_generator.state)


SLOT_STEP_CONFIGS = {
    "default": {},
    "draw_prob 0": {"draw_prob": 0.0},
    "draw_prob 1": {"draw_prob": 1.0},
    **{f"cap {cap}": {"max_episode_timesteps": cap} for cap in (1, 2, 3)},
    "2 rows": {"rows": 2, "start_left": (0, 0), "start_right": (1, 1), "draw_prob": 0.0},
    "6 rows": {"rows": 6, "draw_prob": 0.0, "max_episode_timesteps": 60},
    **{f"{side} starts with the ball": {"initial_possession": side}
       for side in ("left", "right", "random")},
}


@pytest.mark.parametrize("cfg", SLOT_STEP_CONFIGS.values(), ids=SLOT_STEP_CONFIGS.keys())
def test_step_pair_plays_the_game_step_plays(cfg):
    for seed in range(20):
        by_dict, by_slot = MarkovSoccer(SoccerConfig(**cfg)), MarkovSoccer(SoccerConfig(**cfg))
        by_dict.reset(seed)
        by_slot.reset(seed)
        actions = np.random.default_rng(seed)
        while not by_dict.finished:
            left, right = (int(a) for a in actions.integers(5, size=2))
            by_dict.step({"left": left, "right": right})
            step_pair(by_slot, left, right)
            assert board(by_slot) == board(by_dict)
        assert by_slot.finished and by_slot.result is not None
        assert by_slot.rng.random() == by_dict.rng.random()


@pytest.mark.parametrize("left, right", [(-1, STAND), (STAND, 5), (5, -1), (STAND, -1),
                                         (2.7, STAND), (STAND, "3"), (None, STAND),
                                         (True, STAND), (STAND, 2.0), (np.float64(1), STAND),
                                         (np.int64(2), True)])
def test_step_pair_refuses_an_illegal_action_as_step_does(left, right):
    env = fresh()
    with pytest.raises(ConfigError, match="illegal action") as by_dict:
        env.step({"left": left, "right": right})
    with pytest.raises(ConfigError, match="illegal action") as by_slot:
        step_pair(env, left, right)
    assert str(by_slot.value) == str(by_dict.value)
    assert env.tick == 0 and not env.finished


def test_step_pair_accepts_a_numpy_integer_as_step_does():
    by_dict, by_slot = fresh(seed=2), fresh(seed=2)
    by_dict.step({"left": np.int64(2), "right": STAND})
    step_pair(by_slot, np.int64(2), STAND)
    assert board(by_slot) == board(by_dict) and by_slot.tick == 1


def test_step_pair_refuses_a_finished_game():
    env = fresh(draw_prob=1.0)
    step_pair(env, STAND, STAND)
    assert env.finished and env.result == "draw" and env.tick == 1
    with pytest.raises(ConfigError, match="finished"):
        step_pair(env, STAND, STAND)
    assert env.tick == 1


# -- the game loop ---------------------------------------------------------------


class RecordingPolicy:
    """Draws its actions from the rng it is given, and records the board it
    reads at each act; from tick `illegal_at` on it returns `illegal`."""

    def __init__(self, illegal_at=None, illegal=None):
        self.boards, self.illegal_at, self.illegal = [], illegal_at, illegal

    def act(self, env, side, rng):
        self.boards.append((side, dict(env.pos), env.possession, env.tick,
                            env.board_index(side)))
        if env.tick == self.illegal_at:
            return self.illegal
        return int(rng.integers(5))


def step_game(env, left, right, rng):
    """The game `play` plays, tick by tick through the dict step."""
    while not env.finished:
        env.step({"left": left.act(env, "left", rng), "right": right.act(env, "right", rng)})


PLAY_CONFIGS = {
    **SLOT_STEP_CONFIGS,
    "2x2": {"rows": 2, "cols": 2, "start_left": (0, 0), "start_right": (1, 1)},
    "3x4": {"rows": 3, "cols": 4},
    "8x8": {"rows": 8, "cols": 8, "draw_prob": 0.005},
}


def game_end(env):
    return env.result, env.tick, env.last_order, env.finished, env.rng.random()


@pytest.mark.parametrize("cfg", PLAY_CONFIGS.values(), ids=PLAY_CONFIGS.keys())
def test_play_plays_the_game_the_dict_step_plays(cfg):
    for seed in range(20):
        by_play, by_step = MarkovSoccer(SoccerConfig(**cfg)), MarkovSoccer(SoccerConfig(**cfg))
        by_play.reset(seed)
        by_step.reset(seed)
        played = (RecordingPolicy(), RecordingPolicy())
        stepped = (RecordingPolicy(), RecordingPolicy())
        rng_play, rng_step = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        assert by_play.play(*played, rng_play) == by_play.result
        step_game(by_step, *stepped, rng_step)
        for a, b in zip(played, stepped):
            assert a.boards == b.boards
        assert game_end(by_play) == game_end(by_step)
        assert rng_play.random() == rng_step.random()


def test_play_for_some_ticks_stops_on_the_board_it_reached():
    for seed in range(20):
        whole, in_parts = (MarkovSoccer(SoccerConfig(draw_prob=0.0)) for _ in range(2))
        whole.reset(seed)
        in_parts.reset(seed)
        rng_whole, rng_parts = np.random.default_rng(seed), np.random.default_rng(seed)
        policies = (RecordingPolicy(), RecordingPolicy())
        whole.play(*policies, rng_whole)
        parts = (RecordingPolicy(), RecordingPolicy())
        while in_parts.play(*parts, rng_parts, ticks=3) is None:
            assert in_parts.tick % 3 == 0 and not in_parts.finished
        assert [p.boards for p in parts] == [p.boards for p in policies]
        assert game_end(in_parts) == game_end(whole)


@pytest.mark.parametrize("illegal", [5, -1, 2.0, True, "3", None])
@pytest.mark.parametrize("side", ["left", "right"])
def test_play_refuses_an_illegal_action_mid_game_as_step_does(side, illegal):
    cfg = SoccerConfig(draw_prob=0.0, max_episode_timesteps=100)
    for seed in range(10):
        by_play, by_step = MarkovSoccer(cfg), MarkovSoccer(cfg)
        by_play.reset(seed)
        by_step.reset(seed)
        made = {}

        def policies():
            made[side] = RecordingPolicy(illegal_at=4 + seed % 3, illegal=illegal)
            return [made[side] if s == side else RecordingPolicy() for s in ("left", "right")]

        rng_play, rng_step = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(ConfigError, match="illegal action") as by_loop:
            by_play.play(*policies(), rng_play)
        with pytest.raises(ConfigError, match="illegal action") as by_dict:
            step_game(by_step, *policies(), rng_step)
        assert str(by_loop.value) == str(by_dict.value)
        # the refused tick drew nothing: the same tick, board and unused draws
        assert by_play.tick == by_step.tick == 4 + seed % 3
        assert board(by_play) == board(by_step) and by_play._draws == by_step._draws
        assert rng_play.random() == rng_step.random()


# -- the pinned random stream ----------------------------------------------------

# per-tick (last_order, result, tick, possession) under seeded random actions,
# seeds 0-19, as a sha256 prefix; recorded when each tick drew its uniforms one
# at a time, so drawing them in blocks must leave every game unchanged. With
# draw_prob 0 each tick takes two uniforms and only a goal or the cap ends a
# game, so the long config's games run through several blocks.
STREAM_CONFIGS = {
    "default": {},
    "draw_prob 0": {"draw_prob": 0.0},
    "cap 3": {"max_episode_timesteps": 3},
    "6 rows": SLOT_STEP_CONFIGS["6 rows"],
    "random starts with the ball": {"initial_possession": "random", "draw_prob": 0.05},
    "long": {"draw_prob": 0.0, "max_episode_timesteps": 200},
}
GOLDEN_STREAMS = {
    "default": "fd703a88219a8d3c",
    "draw_prob 0": "cce0fff96cae0245",
    "cap 3": "38ac84f353e8321c",
    "6 rows": "d7c9dc73919b048e",
    "random starts with the ball": "c0bcb9096eb168aa",
    "long": "6ee6c7bf4ba65081",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def tick_stream(cfg: dict, seed: int) -> list:
    env = MarkovSoccer(SoccerConfig(**cfg))
    env.reset(seed)
    actions, ticks = np.random.default_rng(seed), []
    while not env.finished:
        step_pair(env, *(int(a) for a in actions.integers(5, size=2)))
        ticks.append((env.last_order, env.result, env.tick, env.possession))
    return ticks


@pytest.mark.parametrize("name", STREAM_CONFIGS)
def test_the_tick_stream_is_pinned(name):
    streams = [tick_stream(STREAM_CONFIGS[name], seed) for seed in range(20)]
    assert digest(streams) == GOLDEN_STREAMS[name]
    if name == "long":   # some game draws more uniforms than one block holds
        assert max(map(len, streams)) > 100


# play_game's (result, tick) for 20 games of a random policy against itself,
# and the caller's next draw, as a sha256 prefix
GOLDEN_RANDOM_GAMES = {"default": "657f45696f40efb0", "long": "302a9bd8f34c2ae1"}


@pytest.mark.parametrize("name", GOLDEN_RANDOM_GAMES)
def test_random_policy_games_are_pinned(name):
    from policyspace.evaluation import RandomPolicy, play_game
    env, policy = MarkovSoccer(SoccerConfig(**STREAM_CONFIGS[name])), RandomPolicy()
    rng = np.random.default_rng(17)
    games = [(play_game(env, policy, policy, seed, rng), env.tick) for seed in range(20)]
    assert digest((games, rng.random())) == GOLDEN_RANDOM_GAMES[name]
