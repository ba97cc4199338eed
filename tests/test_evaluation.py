from collections import Counter

import numpy as np
import pytest

import policyspace.evaluation as evaluation
from policyspace.autodiff import softmax_np
from policyspace.envs import Bot, MarkovSoccer, SoccerConfig, bot_match_config
from policyspace.envs.soccer import BOT_KINDS
from policyspace.evaluation import (BotPolicy, LatentPolicy, MatchScore,
                                    RandomPolicy, ablation_sweep, bot_gauntlet,
                                    evaluate_final_health, play_game,
                                    play_series, read_results_csv,
                                    round_robin_matrix, round_robin_pair,
                                    specialization, specialization_eval,
                                    write_results_csv)
from policyspace.generator import PolicyGenerator, sample_latent
from policyspace.latent_search import SearchConfig

UP, DOWN, LEFT, RIGHT, STAND = range(5)


def soccer_gen(seed=0, config=None):
    config = config or SoccerConfig()
    obs_size = 2 * config.rows * config.cols + 1   # as MarkovSoccer.observation_size
    return PolicyGenerator(obs_size, 5, np.random.default_rng(seed), hidden_dim=8)


# a pitch with more boards than evaluation.TABLE_BOARDS: policies fill by board
MEMO_PITCH = SoccerConfig(rows=8, cols=8)


# -- specialization metric ------------------------------------------------------


def test_pure_tower_agent_has_specialization_one():
    assert specialization({"chicken_attacks": 0, "tower_attacks": 5}) == 1.0
    assert specialization({"chicken_attacks": 7, "tower_attacks": 0}) == 1.0


def test_even_split_has_specialization_zero():
    assert specialization({"chicken_attacks": 4, "tower_attacks": 4}) == pytest.approx(0.0, abs=1e-12)


def test_three_to_one_split_binary_entropy_value():
    # direct binary-entropy evaluation: 1 - H2(0.75)
    p = 0.75
    expected = 1.0 - (-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))
    got = specialization({"chicken_attacks": 1, "tower_attacks": 3})
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.18872, abs=1e-5)


def test_specialization_bounds_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c, t = int(rng.integers(0, 20)), int(rng.integers(0, 20))
        s = specialization({"chicken_attacks": c, "tower_attacks": t})
        assert 0.0 <= s <= 1.0
        mirrored = specialization({"chicken_attacks": t, "tower_attacks": c})
        assert s == pytest.approx(mirrored, abs=1e-12)


def test_zero_attacks_scores_zero():
    assert specialization({"chicken_attacks": 0, "tower_attacks": 0}) == 0.0


# -- soccer series ---------------------------------------------------------------


def test_match_score_accounting_is_zero_sum():
    rng = np.random.default_rng(1)
    score = play_series(MarkovSoccer(), RandomPolicy(), RandomPolicy(), 200, rng)
    assert score.wins + score.losses + score.draws == 200
    assert score.games == 200


def test_identical_random_policies_are_statistically_even():
    rng = np.random.default_rng(2)
    score = play_series(MarkovSoccer(), RandomPolicy(), RandomPolicy(), 1000, rng)
    assert abs(score.score) <= 3 * np.sqrt(1000)


class StraightCounter:
    """The blocking counter to the straight bot: stand in its path to steal,
    then carry around it into the left goal."""

    def act(self, env, side, rng):
        me, opp = env.pos["right"], env.pos["left"]
        top, bottom = env.goal_rows
        if env.possession == "right":
            if opp == (me[0], me[1] - 1):
                return DOWN if me[0] <= top else UP
            if me[0] < top:
                return DOWN
            if me[0] > bottom:
                return UP
            return LEFT
        block = (opp[0], opp[1] + 1)
        if me == block:
            return STAND
        if me[1] != block[1]:
            return LEFT if me[1] > block[1] else RIGHT
        return UP if me[0] > block[0] else DOWN


def test_scripted_blocker_beats_the_straight_bot():
    bot = Bot("straight")
    config = bot_match_config(bot)
    rng = np.random.default_rng(3)
    score = play_series(MarkovSoccer(config), BotPolicy(bot), StraightCounter(), 200, rng)
    assert score.score > 0


def test_the_straight_bot_scores_on_a_six_row_pitch():
    # it starts on the top goal row, row 2, so running right scores
    bot = Bot("straight")
    env = MarkovSoccer(bot_match_config(bot, SoccerConfig(rows=6, draw_prob=0.0)))
    score = play_series(env, BotPolicy(bot), RandomPolicy(), 100, np.random.default_rng(8),
                        perspective="left")
    assert score.wins > 50


def test_play_game_plays_on_the_slot_step(monkeypatch):
    def refuse(self, actions):
        raise AssertionError("play_game called the dict step")
    monkeypatch.setattr(MarkovSoccer, "step", refuse)
    rng = np.random.default_rng(9)
    results = {play_game(MarkovSoccer(), RandomPolicy(), RandomPolicy(), seed, rng)
               for seed in range(50)}
    assert results <= {"left", "right", "draw"} and len(results) == 3


def test_bot_policy_refuses_the_right_side():
    env = MarkovSoccer(SoccerConfig())
    env.reset(0)
    from policyspace.errors import ConfigError
    with pytest.raises(ConfigError):
        BotPolicy(Bot("straight")).act(env, "right", np.random.default_rng(0))


def test_latent_policy_plays_deterministic_weights():
    gen = soccer_gen()
    z = sample_latent(np.random.default_rng(4))
    env = MarkovSoccer(SoccerConfig())
    env.reset(7)
    a1 = LatentPolicy(gen, z).act(env, "right", np.random.default_rng(5))
    a2 = LatentPolicy(gen, z).act(env, "right", np.random.default_rng(5))
    assert a1 == a2


# -- the memoized latent policy ------------------------------------------------------


class UncachedLatentPolicy:
    """Reference sampler: one forward pass of the observation on every call."""

    def __init__(self, gen, latent, features=None):
        self.gen = gen
        self.latent = np.asarray(latent, dtype=np.float64)

    def act(self, env, side, rng):
        probs = self.gen.probs_np(env.observe(side)[None], self.latent[None])[0]
        return int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum()))


def test_memoized_policy_matches_the_uncached_sampler_in_every_state():
    gen = soccer_gen(30)
    z = sample_latent(np.random.default_rng(31))
    memoized, reference = LatentPolicy(gen, z), UncachedLatentPolicy(gen, z)
    config = SoccerConfig()
    env = MarkovSoccer(config)
    env.reset(0)
    # the whole-board affine fill the policy's rows are made from
    base, parts = gen.latent_terms(gen.state_features(env.board_observations()))
    board = softmax_np(base + z[0] * parts[0] + z[1] * parts[1] + z[2] * parts[2])
    cumsum, totals = np.cumsum(board, axis=1), board.sum(axis=1)
    cells = [(r, c) for r in range(config.rows) for c in range(config.cols)]
    states = [(left, right, possession) for left in cells for right in cells
              if left != right for possession in ("left", "right")]
    visited = set()
    for i, (left, right, possession) in enumerate(states):
        env.pos = {"left": left, "right": right}
        env.possession = possession
        for side in ("left", "right"):
            index = env.board_index(side)
            assert (index in memoized._cdfs) == (index in visited)   # no row before its visit
            for repeat in range(3):   # the very first act makes the whole-board pass
                seed = [i, side == "right", repeat]
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert memoized.act(env, side, rng_a) == reference.act(env, side, rng_b)
                assert rng_a.random() == rng_b.random()
            visited.add(index)
            # the sampler's row, made on the board's first visit: row `index`
            # of the whole-board pass's cumulative sum, and its total, bit for bit
            cdf = memoized._cdfs[index]
            assert cdf == (cumsum[index].tolist(), totals[index])
            assert type(cdf[0]) is list and type(cdf[1]) is float
    # one row per board played; the pass's arrays are kept whole
    assert len(memoized._cdfs) == len(visited) == len(states)
    assert np.array_equal(memoized._table[0], cumsum) and np.array_equal(memoized._table[1], totals)


@pytest.mark.parametrize("rows, cols", [(2, 5), (4, 5), (6, 5), (5, 4)])
def test_board_index_numbers_the_observation(rows, cols):
    # row board_index(side) of the board array is observe(side), on every
    # board and for both sides, and distinct boards have distinct indices
    env = MarkovSoccer(SoccerConfig(rows=rows, cols=cols))
    env.reset(0)
    board = env.board_observations()
    assert board.shape == (env.board_count, env.observation_size)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    seen = {}
    for left in cells:
        for right in cells:
            if left == right:
                continue
            for possession in ("left", "right"):
                env.pos = {"left": left, "right": right}
                env.possession = possession
                for side in ("left", "right"):
                    index = env.board_index(side)
                    assert type(index) is int and 0 <= index < env.board_count
                    obs = env.observe(side)
                    assert np.array_equal(board[index], obs)
                    assert seen.setdefault(obs.tobytes(), index) == index
    # every (own cell, opponent cell, possession) board shows, one index each
    assert len(seen) == len(cells) * (len(cells) - 1) * 2
    assert len(set(seen.values())) == len(seen)


# How far an affine fill's probabilities may lie from the head pass's: both
# sides compute the same logits, a few units in size, with their sums in
# different orders, so probabilities (at most 1) differ by a few rounding
# errors of float64 near 1.0 (at most 1.5 eps on these pitches). 64 eps
# leaves room for other weights and is far below what a wrong term moves.
AFFINE_BOUND = 64 * np.finfo(np.float64).eps


@pytest.mark.parametrize("rows, cols", [(4, 5), (7, 5), (2, 5), (8, 8)])
@pytest.mark.parametrize("hidden", [32, 64])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_the_affine_fill_is_the_head_pass_within_a_bound(rows, cols, hidden, activation):
    # BoardFeatures.probs sums a latent's affine terms; on every board it is
    # probs_from_features of the same features within AFFINE_BOUND: the whole
    # pitch at once up to TABLE_BOARDS, one board at a time (8x8) above it
    config = SoccerConfig(rows=rows, cols=cols, start_left=(0, 0), start_right=(1, 1))
    env = MarkovSoccer(config)
    env.reset(0)
    gen = PolicyGenerator(env.observation_size, 5, np.random.default_rng(hidden),
                          hidden_dim=hidden, policy_activation=activation)
    features = evaluation.BoardFeatures(gen)
    obs = env.board_observations()
    rng = np.random.default_rng(rows)
    for _ in range(3):
        z = sample_latent(rng)
        head_pass = gen.probs_from_features(gen.state_features(obs), z[None])
        if env.board_count <= evaluation.TABLE_BOARDS:
            affine = features.probs(features.table(env), z)
        else:   # the per-board terms of 50 boards, each made on its board
            indices, rows_made = [], []
            for _ in range(50):
                cells = rng.choice(rows * cols, size=2, replace=False)
                env.pos = {side: divmod(int(c), cols) for side, c in zip(("left", "right"), cells)}
                env.possession = ("left", "right")[int(rng.integers(2))]
                indices.append(env.board_index("left"))
                rows_made.append(features.probs(features.row(env, "left", indices[-1]), z))
            head_pass, affine = head_pass[indices], np.concatenate(rows_made)
        assert affine.shape == head_pass.shape
        assert np.abs(affine - head_pass).max() <= AFFINE_BOUND
        assert np.allclose(affine.sum(axis=1), 1.0, rtol=0.0, atol=AFFINE_BOUND)


def test_the_latent_terms_are_the_logits_of_the_multiplicative_generator_only():
    obs = np.random.default_rng(1).random((6, 41))
    z = sample_latent(np.random.default_rng(2))
    gen = soccer_gen(3)
    base, parts = gen.latent_terms(gen.state_features(obs))
    assert base.shape == (6, 5) and [part.shape for part in parts] == [(6, 5)] * 3
    logits = base + z[0] * parts[0] + z[1] * parts[1] + z[2] * parts[2]
    assert np.allclose(logits, gen.logits_np(obs, np.broadcast_to(z, (6, 3))),
                       rtol=0.0, atol=AFFINE_BOUND)
    concat = PolicyGenerator(41, 5, np.random.default_rng(3), hidden_dim=8, architecture="concat")
    assert concat.latent_terms(concat.state_features(obs)) is None


def test_concat_policies_fill_by_the_head_pass():
    # a concat generator's logits are not affine in z: the kept features are
    # the head pass's input, and a fill is that head pass
    env = MarkovSoccer()
    env.reset(0)
    gen = PolicyGenerator(env.observation_size, 5, np.random.default_rng(4), hidden_dim=8,
                          architecture="concat")
    z = sample_latent(np.random.default_rng(5))
    features = evaluation.BoardFeatures(gen)
    obs = env.board_observations()
    assert features.probs(features.table(env), z).tobytes() == \
        gen.probs_from_features(gen.state_features(obs), z[None]).tobytes()


def test_board_features_refuse_a_second_pitch_size():
    from policyspace.errors import ConfigError
    gen = soccer_gen(50)
    four, six = MarkovSoccer(SoccerConfig(rows=4)), MarkovSoccer(SoccerConfig(rows=6))
    four.reset(0)
    six.reset(0)
    features = evaluation.BoardFeatures(gen)
    policy = LatentPolicy(gen, sample_latent(np.random.default_rng(51)), features)
    policy.act(four, "right", np.random.default_rng(52))
    assert features.board_count == four.board_count
    for use in (lambda: features.table(six), lambda: features.row(six, "right", 0),
                lambda: LatentPolicy(gen, policy.latent, features).act(
                    six, "right", np.random.default_rng(53))):
        with pytest.raises(ConfigError, match=f"{four.board_count}-board pitch"):
            use()
    assert features.table(four) is features.table(four)   # the first pitch still serves


def gauntlet_fingerprint(gen, rng_seed, config=None):
    results = bot_gauntlet(gen, [Bot(kind) for kind in BOT_KINDS], games=40,
                           search=SearchConfig(generations=3, episodes_per_latent=3),
                           rng=np.random.default_rng(rng_seed), base=config)
    return {kind: (row["score"].wins, row["score"].losses, row["score"].draws,
                   row["latent"].tobytes()) for kind, row in results.items()}


def test_gauntlet_matches_the_uncached_sampler(monkeypatch):
    # on the default pitch (a whole-pitch table) and on one above the bound
    # (a fill per board)
    configs = (None, MEMO_PITCH)
    gens = [soccer_gen(35, config) for config in configs]
    memoized = [gauntlet_fingerprint(gen, 36, config) for gen, config in zip(gens, configs)]
    monkeypatch.setattr(evaluation, "LatentPolicy", UncachedLatentPolicy)
    assert [gauntlet_fingerprint(gen, 36, config)
            for gen, config in zip(gens, configs)] == memoized


def test_round_robin_matches_the_uncached_sampler(monkeypatch):
    def run(config):
        series, info = round_robin_pair(soccer_gen(37, config), soccer_gen(38, config),
                                        SearchConfig(generations=3, episodes_per_latent=3),
                                        np.random.default_rng(39), games=40, config=config)
        return (series, info["latent_one"].tobytes(), info["latent_two"].tobytes())

    configs = (None, MEMO_PITCH)
    memoized = [run(config) for config in configs]
    monkeypatch.setattr(evaluation, "LatentPolicy", UncachedLatentPolicy)
    assert [run(config) for config in configs] == memoized


class ForwardCounts:
    """Counts `state_features` and `latent_terms` passes per (generator,
    observation rows) and the rows of each `BoardFeatures.probs` fill, and
    refuses head passes (`probs_from_features`) and full `probs_np`
    forwards: the generators here are multiplicative, so every fill is an
    affine one."""

    def __init__(self, monkeypatch):
        self.policies, self.features, self.terms, self.fills = [], Counter(), Counter(), []
        counts = self

        class CountedPolicy(LatentPolicy):
            def __init__(self, *args):
                super().__init__(*args)
                counts.policies.append(self)

        state_features = PolicyGenerator.state_features
        latent_terms = PolicyGenerator.latent_terms
        fill = evaluation.BoardFeatures.probs

        def counting_features(gen, obs):
            features = state_features(gen, obs)
            self.features[id(gen), obs.tobytes()] += 1
            self.rows_of[id(features)] = id(gen), obs.tobytes()
            return features

        def counting_terms(gen, features):
            self.terms[self.rows_of[id(features)]] += 1
            return latent_terms(gen, features)

        def counting_fills(board_features, entry, latent):
            probs = fill(board_features, entry, latent)
            self.fills.append(len(probs))
            return probs

        def refused(*args):
            raise AssertionError("a head pass or full forward in the soccer evaluation loop")

        self.rows_of = {}
        monkeypatch.setattr(evaluation, "LatentPolicy", CountedPolicy)
        monkeypatch.setattr(PolicyGenerator, "state_features", counting_features)
        monkeypatch.setattr(PolicyGenerator, "latent_terms", counting_terms)
        monkeypatch.setattr(evaluation.BoardFeatures, "probs", counting_fills)
        monkeypatch.setattr(PolicyGenerator, "probs_from_features", refused)
        monkeypatch.setattr(PolicyGenerator, "probs_np", refused)

    def shared_features(self, gen):
        """The one `BoardFeatures` every policy of `gen` shares."""
        shared = {id(p.features): p.features for p in self.policies if p.gen is gen}
        assert len(shared) == 1
        return next(iter(shared.values()))

    def check_table(self, generators, board):
        # one state_features and one latent_terms pass per generator, over the
        # whole board array
        assert list(self.features.values()) == [1] * len(generators)
        assert self.terms == self.features
        for gen in generators:
            assert (id(gen), board.tobytes()) in self.features
            assert self.shared_features(gen)._rows == {}
        # one whole-board affine fill per policy that acted, kept whole; a
        # panel member no game picked never acts. Rows are made only for the
        # boards a policy visited.
        acted = [p for p in self.policies if len(p._cdfs)]
        assert self.fills == [len(board)] * len(acted)
        assert all(p._table[0].shape == (len(board), 5) for p in acted)
        assert all(len(p._cdfs) < len(board) for p in acted)

    def check_memo(self, generators):
        # one one-row state_features and latent_terms pass per (generator,
        # board), kept in the generator's shared rows, and one one-row affine
        # fill per (policy, board)
        for gen in generators:
            rows = self.shared_features(gen)._rows
            assert sum(n for (g, _), n in self.features.items() if g == id(gen)) == len(rows)
        assert max(self.features.values()) == 1
        assert self.terms == self.features
        assert self.fills == [1] * sum(len(p._cdfs) for p in self.policies)
        assert len(self.features) < len(self.fills)


def test_gauntlet_computes_state_features_once_per_call(monkeypatch):
    counts = ForwardCounts(monkeypatch)
    search = SearchConfig(generations=3, episodes_per_latent=4)
    bots = [Bot(kind) for kind in BOT_KINDS]
    gen = soccer_gen(40)
    bot_gauntlet(gen, bots, games=30, search=search, rng=np.random.default_rng(41))
    # one policy per scored candidate and one for each bot's series
    assert len(counts.policies) == len(bots) * (search.generations + 1)
    counts.check_table([gen], MarkovSoccer().board_observations())


def test_gauntlet_above_the_table_bound_fills_once_per_board(monkeypatch):
    counts = ForwardCounts(monkeypatch)
    assert MarkovSoccer(MEMO_PITCH).board_count > evaluation.TABLE_BOARDS
    search = SearchConfig(generations=3, episodes_per_latent=4)
    bots = [Bot(kind) for kind in BOT_KINDS]
    gen = soccer_gen(40, MEMO_PITCH)
    bot_gauntlet(gen, bots, games=30, search=search, rng=np.random.default_rng(41),
                 base=MEMO_PITCH)
    assert len(counts.policies) == len(bots) * (search.generations + 1)
    counts.check_memo([gen])


def test_round_robin_computes_state_features_once_per_call(monkeypatch):
    counts = ForwardCounts(monkeypatch)
    search = SearchConfig(generations=3, episodes_per_latent=4)
    gen_one, gen_two = soccer_gen(42), soccer_gen(43)
    round_robin_pair(gen_one, gen_two, search, np.random.default_rng(44), games=30,
                     family_panel=8)
    # the panel, one policy per scored candidate in each pass, the fixed
    # opponent and the series' own policy
    assert len(counts.policies) == 8 + 2 * search.generations + 2
    counts.check_table([gen_one, gen_two], MarkovSoccer().board_observations())


def test_round_robin_above_the_table_bound_fills_once_per_board(monkeypatch):
    counts = ForwardCounts(monkeypatch)
    search = SearchConfig(generations=3, episodes_per_latent=4)
    gen_one, gen_two = soccer_gen(42, MEMO_PITCH), soccer_gen(43, MEMO_PITCH)
    round_robin_pair(gen_one, gen_two, search, np.random.default_rng(44), games=30,
                     family_panel=8, config=MEMO_PITCH)
    assert len(counts.policies) == 8 + 2 * search.generations + 2
    counts.check_memo([gen_one, gen_two])


def test_a_new_call_builds_a_new_feature_table(monkeypatch):
    counts = ForwardCounts(monkeypatch)
    gen = soccer_gen(45)
    search = SearchConfig(generations=2, episodes_per_latent=2)
    for seed in (46, 47):
        bot_gauntlet(gen, [Bot("random")], games=10, search=search,
                     rng=np.random.default_rng(seed))
    assert len({id(p.features) for p in counts.policies}) == 2


class FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def sampled(cumulative, total, rng):
    """The action `LatentPolicy.act` draws from a given cumulative table row."""
    env = MarkovSoccer(SoccerConfig())
    env.reset(0)
    policy = LatentPolicy(soccer_gen(), np.ones(3) / np.sqrt(3))
    policy._cdfs[env.board_index("right")] = (list(cumulative), total)
    return policy.act(env, "right", rng)


def test_bisect_sampler_matches_searchsorted():
    # zero-probability actions repeat a cumulative value; the first index
    # whose cumulative value reaches u wins, as with side="left"
    probs = np.array([0.0, 0.25, 0.0, 0.25, 0.0, 0.5, 0.0])
    cumulative = np.cumsum(probs)
    draws = [0.0, *cumulative, *(np.nextafter(c, np.inf) for c in cumulative),
             *(np.nextafter(c, -np.inf) for c in cumulative[1:]), 0.1, 0.3, 0.75]
    for u in draws:
        expected = int(np.searchsorted(cumulative, u, side="left"))
        assert sampled(cumulative.tolist(), 1.0, FixedDraw(u)) == expected
    assert [sampled(cumulative.tolist(), 1.0, FixedDraw(u)) for u in (0.0, 0.25, 0.5)] == [0, 1, 3]
    rng = np.random.default_rng(48)
    for _ in range(200):
        probs = rng.dirichlet(np.ones(5)) * (rng.random(5) < 0.6)
        cumulative, total = np.cumsum(probs), probs.sum()
        seed = int(rng.integers(2 ** 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sampled(cumulative.tolist(), float(total), a) == \
            int(np.searchsorted(cumulative, b.random() * total))
        assert a.random() == b.random()


GOLDEN_GAUNTLETS = {
    ("multiplicative", "tanh"): {
        "straight": (8, 20, 2, "caddaf74606cdcbf78c270f49755ad3f4ad01c74c39cec3f"),
        "oscillate0": (6, 0, 24, "45cb97bf1e90bfbf1a9947e4b5a8d0bffb863b9cdba4ee3f"),
        "oscillate1": (7, 0, 23, "35c16f0a6757e7bf42108e110572e23f131ca7493793d73f"),
        "stand": (6, 0, 24, "201fc027efeac2bffbd7667545b6e33f76de03569fc2e83f"),
        "rule_based": (0, 22, 8, "8d3b685222ebb3bfcf8174b8a50aefbf3ce6b7472d74cdbf"),
        "random": (10, 3, 17, "3ba48324704ee3bfd4757fd5b733c3bf380136a17410e93f"),
    },
    ("multiplicative", "relu"): {
        "straight": (6, 19, 5, "c69ba6b6b1e4ebbf97848e57215adfbf7c2a79d1b2448ebf"),
        "oscillate0": (3, 0, 27, "78ff4c6321ccdebf73db1e4375dde63fce3649c20c40e03f"),
        "oscillate1": (6, 0, 24, "be4c46c6a5f8d9bf4704c21e2e78ea3fdff8fc3d06e1d83f"),
        "stand": (5, 0, 25, "8dba318ea9a3ef3f748611de0a9cbebffcf40a1b6811b7bf"),
        "rule_based": (0, 21, 9, "27043d64b1c8e2bf091b64e20a35cebf1d2042561ec8e8bf"),
        "random": (6, 5, 19, "4331ca8b99a1e7bf93ad61b4e190e53f43107acbba08963f"),
    },
    ("concat", "tanh"): {
        "straight": (0, 23, 7, "e56b623a332bec3fc43df5a41e27c93fc83ef9419ca3dbbf"),
        "oscillate0": (3, 0, 27, "bc230816c538e4bf05eac69ff49ee83f6fde72c59edab7bf"),
        "oscillate1": (3, 0, 27, "af4ee29311ed9bbff9fa76df97caeb3f82d5a5b3a0addf3f"),
        "stand": (0, 0, 30, "4831ca3af78fecbf37939f5ff61ddcbf8129348bd2fbb93f"),
        "rule_based": (0, 23, 7, "f53b02f6a474dc3f28b0deb7c9dae63f183346b4634ce1bf"),
        "random": (1, 7, 22, "5e49c8a69fdbcbbf55782e5a0c12e0bfe8dd9aa7ffc7ea3f"),
    },
    ("concat", "relu"): {
        "straight": (1, 20, 9, "8f52e4dea5e1c63ffebb6809f84cdebfc2d9c9c88799ebbf"),
        "oscillate0": (6, 0, 24, "80f9f554e8afd2bf76ab75012900ebbf976f517a33d2dc3f"),
        "oscillate1": (8, 0, 22, "21d1025c4113e6bf089134ec0762e53fae97e074d7d3d13f"),
        "stand": (5, 0, 25, "5569b61266eed3bfb845f2292005e4bf6fb97c1a77e3e6bf"),
        "rule_based": (0, 23, 7, "d1052043a3a7ce3f4f417f7360d0df3fa10f009c0fb0ea3f"),
        "random": (4, 3, 23, "7c56de41073cea3f2f7dac8d5ca6e03fc6845d1a639acebf"),
    },
}


def golden_gen(seed, architecture="multiplicative", activation="tanh"):
    return PolicyGenerator(41, 5, np.random.default_rng(seed), architecture=architecture,
                           hidden_dim=8, policy_activation=activation)


@pytest.mark.parametrize("architecture, activation", GOLDEN_GAUNTLETS,
                         ids=["-".join(k) for k in GOLDEN_GAUNTLETS])
def test_gauntlet_results_are_pinned(architecture, activation):
    # W/L/D and the selected latent's bytes, recorded before state features
    # were shared: the whole RNG stream and every action must stay the same
    results = bot_gauntlet(golden_gen(50, architecture, activation),
                           [Bot(kind) for kind in BOT_KINDS], games=30,
                           search=SearchConfig(generations=3, episodes_per_latent=3),
                           rng=np.random.default_rng(51))
    got = {kind: (r["score"].wins, r["score"].losses, r["score"].draws, r["latent"].tobytes().hex())
           for kind, r in results.items()}
    assert got == GOLDEN_GAUNTLETS[architecture, activation]


def test_round_robin_result_is_pinned():
    series, info = round_robin_pair(golden_gen(52), golden_gen(53, "concat", "relu"),
                                    SearchConfig(generations=3, episodes_per_latent=3),
                                    np.random.default_rng(54), games=40)
    assert (series.wins, series.losses, series.draws) == (5, 10, 25)
    assert info["latent_one"].tobytes().hex() == "bcf5f972ec7ecdbf215b9570cacbee3f5a25c812ee6dc23f"
    assert info["latent_two"].tobytes().hex() == "e619b0289457c73f69e90a0854d4883f0c578dc30576ef3f"


# -- gauntlet and round robin ----------------------------------------------------


def test_bot_gauntlet_emits_one_row_per_bot():
    gen = soccer_gen(1)
    bots = [Bot(kind) for kind in BOT_KINDS]
    rng = np.random.default_rng(6)
    results = bot_gauntlet(gen, bots, games=20,
                           search=SearchConfig(generations=2, episodes_per_latent=1),
                           rng=rng)
    assert set(results) == set(BOT_KINDS)
    assert len(results) == 6
    for row in results.values():
        assert row["score"].games == 20
        assert abs(np.linalg.norm(row["latent"]) - 1.0) < 1e-9


def test_round_robin_pair_returns_series_and_latents():
    rng = np.random.default_rng(7)
    series, info = round_robin_pair(soccer_gen(2), soccer_gen(3),
                                    SearchConfig(generations=3, episodes_per_latent=2),
                                    rng, games=30)
    assert series.games == 30
    assert abs(np.linalg.norm(info["latent_one"]) - 1.0) < 1e-9
    assert abs(np.linalg.norm(info["latent_two"]) - 1.0) < 1e-9


def test_self_play_round_robin_is_statistically_even():
    gen = soccer_gen(4)
    rng = np.random.default_rng(8)
    series, _ = round_robin_pair(gen, gen,
                                 SearchConfig(generations=3, episodes_per_latent=2),
                                 rng, games=300)
    assert abs(series.score) <= 3 * np.sqrt(300)


def test_round_robin_matrix_is_antisymmetric_with_zero_diagonal():
    generators = {f"g{i}": soccer_gen(10 + i) for i in range(4)}
    rng = np.random.default_rng(9)
    names, matrix = round_robin_matrix(generators,
                                       SearchConfig(generations=2, episodes_per_latent=1),
                                       rng, games=10)
    assert matrix.shape == (4, 4)
    assert np.array_equal(matrix, -matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    assert names == ["g0", "g1", "g2", "g3"]


def test_each_bot_and_each_pair_builds_one_environment(monkeypatch):
    # every game resets one environment instead of building and validating its own
    built = []
    init = MarkovSoccer.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(MarkovSoccer, "__init__", counting_init)
    search = SearchConfig(generations=2, episodes_per_latent=2)
    bots = [Bot(kind) for kind in BOT_KINDS]
    bot_gauntlet(soccer_gen(55), bots, games=5, search=search, rng=np.random.default_rng(56))
    assert len(built) <= len(bots)
    built.clear()
    round_robin_pair(soccer_gen(57), soccer_gen(58), search, np.random.default_rng(59), games=5)
    assert len(built) == 1


# -- farmworld sweeps --------------------------------------------------------------


def farm_gen(seed=0):
    return PolicyGenerator(53, 6, np.random.default_rng(seed), hidden_dim=8)


def test_ablation_sweep_emits_six_rows():
    gen = farm_gen(5)
    rng = np.random.default_rng(10)
    names = ["training", "far_corner", "wall_barrier", "speed", "patience",
             "poison_chickens"]
    rows = ablation_sweep(gen, names, SearchConfig(generations=2, episodes_per_latent=1),
                          rng, eval_episodes=1)
    assert [r["ablation"] for r in rows] == names
    for row in rows:
        assert row["initial_health"] == 5.0
        assert np.isfinite(row["post_search_health"])  # below initial is permitted


def test_unknown_ablation_name_fails_loudly():
    from policyspace.errors import ConfigError
    with pytest.raises(ConfigError):
        ablation_sweep(farm_gen(6), ["gravity"],
                       SearchConfig(generations=1, episodes_per_latent=1),
                       np.random.default_rng(11))


def test_tower_only_eater_ends_above_initial_health_under_poison():
    # rule consequence: a policy that only harvests towers is unharmed by the flip
    from policyspace.envs.farmworld import Farmworld, config_from_map
    cfg = config_from_map("At", chicken_yield=-3.0, tower_attacks=1, haystack_mines=1,
                          respawn_time=6, max_episode_timesteps=60)
    env = Farmworld(cfg)
    env.reset(seed=0)
    env.step({"agent_0": 2})  # face the tower
    while not env.finished:
        # mine the haystack, otherwise swing east (an air swing keeps orientation)
        mine_now = env.tower_alive[0] and env.tower_hay[0]
        env.step({"agent_0": 5 if mine_now else 4})
    assert env.mean_final_health() > cfg.agent_start_health


def test_specialization_eval_reports_means_and_blunders():
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    gen = farm_gen(7)
    cfg = FarmworldConfig(width=5, height=5, num_agents=2, num_chickens=2,
                          num_towers=2, enforced_specialization=True,
                          max_episode_timesteps=40)
    rng = np.random.default_rng(12)
    out = specialization_eval(gen, lambda: Farmworld(cfg), episodes=2, rng=rng)
    assert 0.0 <= out["mean_specialization"] <= 1.0
    assert out["blunders"] >= 0
    assert np.isfinite(out["mean_episode_reward"])


def test_blunders_require_the_enforced_rule():
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    gen = farm_gen(8)
    cfg = FarmworldConfig(width=5, height=5, num_agents=2, num_chickens=2,
                          num_towers=2, enforced_specialization=False,
                          max_episode_timesteps=40)
    out = specialization_eval(gen, lambda: Farmworld(cfg), episodes=2,
                              rng=np.random.default_rng(13))
    assert out["blunders"] == 0


def test_evaluate_final_health_runs_whole_episodes():
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    gen = farm_gen(9)
    cfg = FarmworldConfig(width=4, height=4, num_agents=1, num_chickens=1,
                          num_towers=1, max_episode_timesteps=30)
    z = sample_latent(np.random.default_rng(14))
    health = evaluate_final_health(gen, lambda: Farmworld(cfg), z, episodes=2,
                                   rng=np.random.default_rng(15))
    assert 0.0 <= health <= cfg.agent_max_health


# small, short-lived farmworld: the agents starve within 10 ticks unless they eat
HUNGRY_FARM = dict(width=4, height=4, num_agents=3, num_chickens=3, num_towers=3,
                   agent_start_health=1.0, respawn_time=3, max_episode_timesteps=40)


def test_specialization_eval_is_pinned():
    # the three metrics and the next draw of the caller's generator, recorded
    # before the farmworld protocols shared one episode loop
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    cfg = FarmworldConfig(**HUNGRY_FARM, tower_attacks=1, haystack_mines=1,
                          enforced_specialization=True)
    rng = np.random.default_rng(64)
    out = specialization_eval(farm_gen(63), lambda: Farmworld(cfg), episodes=3, rng=rng)
    assert out == {"mean_specialization": 0.3333333333333333,
                   "mean_episode_reward": 1.877777777777778, "blunders": 2}
    assert int(rng.integers(2 ** 62)) == 1699522194518994940


GOLDEN_ABLATIONS = {   # post-search health, search score, best latent
    "training": (0.0, 8.044999999999991, "ee05d2a50bd8dabf106940d2417fd8bfa3f5657c2d57eabf"),
    "far_corner": (0.0, 4.56, "3211ad33ea38e1bfa78d3a0dec68e73fba496c4a2dc9da3f"),
    "wall_barrier": (0.0, 3.8650000000000007, "541756330776c3bf0714c4d6c28fc83fd6233dc2b406ef3f"),
    "speed": (0.0, 4.999999999999998, "eceb9e341954e63f34526bb32587e03fa4db288107c4dfbf"),
    "patience": (0.0, 9.499999999999982, "4b22720b5503e5bfd44331601819a9bf6b94b4bf4115e8bf"),
    "poison_chickens": (0.0, 4.35, "a4d818be83a8d83fc8d7b7eb1d42edbf8070fbfb39f2bf3f"),
}


def test_ablation_sweep_rows_are_pinned():
    rng = np.random.default_rng(66)
    rows = ablation_sweep(farm_gen(65), list(GOLDEN_ABLATIONS),
                          SearchConfig(generations=3, episodes_per_latent=2), rng,
                          eval_episodes=2)
    got = {r["ablation"]: (r["post_search_health"], r["search_score"],
                           r["best_latent"].tobytes().hex()) for r in rows}
    assert got == GOLDEN_ABLATIONS
    assert int(rng.integers(2 ** 62)) == 1607754471413805177


# -- results CSV --------------------------------------------------------------------


def test_results_csv_round_trip(tmp_path):
    rows = [
        {"method": "diverse", "seed": 0, "metric": "specialization", "value": 0.8125},
        {"method": "vanilla", "seed": 1, "metric": "reward", "value": -3.25},
    ]
    path = tmp_path / "results.csv"
    write_results_csv(path, rows)
    loaded = read_results_csv(path)
    assert loaded == rows
    header = path.read_text().splitlines()[0]
    assert header == "method,seed,metric,value"


def test_family_panel_of_32_is_converged():
    # doubling the family panel should move the selected latent's measured
    # strength by less than one standard error of the evaluation itself
    gen_a, gen_b = soccer_gen(20), soccer_gen(21)
    search = SearchConfig(generations=6, episodes_per_latent=4)

    def select_z2(panel_size, seed):
        from policyspace.evaluation import play_game
        rng = np.random.default_rng(seed)
        from policyspace.generator import sample_latents
        panel = sample_latents(rng, panel_size)
        seeds = rng.integers(2 ** 62, size=search.episodes_per_latent)
        order = rng.integers(panel_size, size=search.episodes_per_latent)

        def score(z):
            total = 0.0
            for k in range(search.episodes_per_latent):
                game_rng = np.random.default_rng(int(seeds[k]))
                result = play_game(MarkovSoccer(), LatentPolicy(gen_a, panel[order[k]]),
                                   LatentPolicy(gen_b, z), int(seeds[k]), game_rng)
                total += 1.0 if result == "right" else (-1.0 if result == "left" else 0.0)
            return total / search.episodes_per_latent

        from policyspace.latent_search import optimize_latents
        return optimize_latents(score, np.random.default_rng(seed + 1), search).best_latent

    def strength(z, games=80):
        rng = np.random.default_rng(5)
        from policyspace.generator import sample_latents
        outcomes = []
        for seed in rng.integers(2 ** 62, size=games):
            from policyspace.evaluation import play_game
            opp = LatentPolicy(gen_a, sample_latents(np.random.default_rng(int(seed)), 1)[0])
            game_rng = np.random.default_rng(int(seed) + 1)
            result = play_game(MarkovSoccer(), opp, LatentPolicy(gen_b, z),
                               int(seed), game_rng)
            outcomes.append(1.0 if result == "right" else (-1.0 if result == "left" else 0.0))
        outcomes = np.asarray(outcomes)
        return outcomes.mean(), outcomes.std(ddof=1) / np.sqrt(games)

    m32, se32 = strength(select_z2(32, seed=9))
    m64, se64 = strength(select_z2(64, seed=9))
    sigma = np.sqrt(se32 ** 2 + se64 ** 2)
    assert abs(m32 - m64) <= sigma
