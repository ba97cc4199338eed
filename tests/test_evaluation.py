import csv
from collections import Counter

import numpy as np
import pytest

import policyspace.evaluation as evaluation
from policyspace.autodiff import softmax_np
from policyspace.envs import Bot, MarkovSoccer, SoccerConfig, bot_match_config
from policyspace.envs.soccer import BOT_KINDS, MAX_CELLS
from policyspace.evaluation import (BotPolicy, LatentPolicy, MatchScore,
                                    RandomPolicy, ablation_sweep, bot_gauntlet,
                                    evaluate_final_health, play_game,
                                    play_series,
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


# the largest pitch played: MAX_CELLS cells, 20,000 boards
BOUND_PITCH = SoccerConfig(rows=10, cols=10)


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
    base, parts = gen.latent_terms(env.board_observations())
    board = softmax_np(base + z[0] * parts[0] + z[1] * parts[1] + z[2] * parts[2])
    cumsum = np.cumsum(board, axis=1)
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
            # of the whole-board pass's cumulative sum, bit for bit
            cdf = memoized._cdfs[index]
            assert cdf == cumsum[index].tolist() and type(cdf) is list
    # one row per board played; the pass's cumulative sums are kept whole
    assert len(memoized._cdfs) == len(visited) == len(states)
    assert np.array_equal(memoized._table, cumsum)


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


@pytest.mark.parametrize("rows, cols", [(4, 5), (7, 5), (2, 5), (8, 8), (10, 10)])
@pytest.mark.parametrize("hidden", [32, 64])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_the_affine_fill_is_the_head_pass_within_a_bound(rows, cols, hidden, activation):
    # BoardFeatures.probs sums a latent's affine terms; on every board of the
    # pitch, up to the largest (10x10), it is probs_np of the same
    # observations within AFFINE_BOUND
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
        head_pass = gen.probs_np(obs, z[None])
        affine = features.probs(features.table(env), z)
        assert affine.shape == head_pass.shape
        assert np.abs(affine - head_pass).max() <= AFFINE_BOUND
        assert np.allclose(affine.sum(axis=1), 1.0, rtol=0.0, atol=AFFINE_BOUND)


def test_the_latent_terms_are_the_logits_of_the_multiplicative_generator_only():
    obs = np.random.default_rng(1).random((6, 41))
    z = sample_latent(np.random.default_rng(2))
    gen = soccer_gen(3)
    base, parts = gen.latent_terms(obs)
    assert base.shape == (6, 5) and [part.shape for part in parts] == [(6, 5)] * 3
    logits = base + z[0] * parts[0] + z[1] * parts[1] + z[2] * parts[2]
    assert np.allclose(logits, gen.logits_np(obs, np.broadcast_to(z, (6, 3))),
                       rtol=0.0, atol=AFFINE_BOUND)
    concat = PolicyGenerator(41, 5, np.random.default_rng(3), hidden_dim=8, architecture="concat")
    assert concat.latent_terms(obs) is None


def test_concat_policies_fill_by_the_head_pass():
    # a concat generator's logits are not affine in z: the kept rows are the
    # observations, and a fill is probs_np of them
    env = MarkovSoccer()
    env.reset(0)
    gen = PolicyGenerator(env.observation_size, 5, np.random.default_rng(4), hidden_dim=8,
                          architecture="concat")
    z = sample_latent(np.random.default_rng(5))
    features = evaluation.BoardFeatures(gen)
    obs = env.board_observations()
    assert features.probs(features.table(env), z).tobytes() == \
        gen.probs_np(obs, z[None]).tobytes()


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
    for use in (lambda: features.table(six),
                lambda: LatentPolicy(gen, policy.latent, features).act(
                    six, "right", np.random.default_rng(53))):
        with pytest.raises(ConfigError, match=f"{four.board_count}-board pitch"):
            use()
    assert features.table(four) is features.table(four)   # the first pitch still serves


def gauntlet_fingerprint(gen, rng_seed):
    results = bot_gauntlet(gen, [Bot(kind) for kind in BOT_KINDS], games=40,
                           search=SearchConfig(generations=3, episodes_per_latent=3),
                           rng=np.random.default_rng(rng_seed))
    return {kind: (row["score"].wins, row["score"].losses, row["score"].draws,
                   row["latent"].tobytes()) for kind, row in results.items()}


def test_gauntlet_matches_the_uncached_sampler(monkeypatch):
    gen = soccer_gen(35)
    memoized = gauntlet_fingerprint(gen, 36)
    monkeypatch.setattr(evaluation, "LatentPolicy", UncachedLatentPolicy)
    assert gauntlet_fingerprint(gen, 36) == memoized


def test_round_robin_matches_the_uncached_sampler(monkeypatch):
    def run():
        series, info = round_robin_pair(soccer_gen(37), soccer_gen(38),
                                        SearchConfig(generations=3, episodes_per_latent=3),
                                        np.random.default_rng(39), games=40)
        return (series, info["latent_one"].tobytes(), info["latent_two"].tobytes())

    memoized = run()
    monkeypatch.setattr(evaluation, "LatentPolicy", UncachedLatentPolicy)
    assert run() == memoized


class ForwardCounts:
    """Counts `latent_terms` passes per (generator, observation rows) and the
    rows of each `BoardFeatures.probs` fill, and refuses full `probs_np`
    forwards: the generators here are multiplicative, so every fill is an
    affine one."""

    def __init__(self, monkeypatch):
        self.policies, self.terms, self.fills = [], Counter(), []
        counts = self

        class CountedPolicy(LatentPolicy):
            def __init__(self, *args):
                super().__init__(*args)
                counts.policies.append(self)

        latent_terms = PolicyGenerator.latent_terms
        fill = evaluation.BoardFeatures.probs

        def counting_terms(gen, obs):
            self.terms[id(gen), obs.tobytes()] += 1
            return latent_terms(gen, obs)

        def counting_fills(board_features, entry, latent):
            probs = fill(board_features, entry, latent)
            self.fills.append(len(probs))
            return probs

        def refused(*args):
            raise AssertionError("a full forward in the soccer evaluation loop")

        monkeypatch.setattr(evaluation, "LatentPolicy", CountedPolicy)
        monkeypatch.setattr(PolicyGenerator, "latent_terms", counting_terms)
        monkeypatch.setattr(evaluation.BoardFeatures, "probs", counting_fills)
        monkeypatch.setattr(PolicyGenerator, "probs_np", refused)

    def shared_features(self, gen):
        """The one `BoardFeatures` every policy of `gen` shares."""
        shared = {id(p.features): p.features for p in self.policies if p.gen is gen}
        assert len(shared) == 1
        return next(iter(shared.values()))

    def check_table(self, generators, board):
        # one latent_terms pass per generator, over the whole board array
        assert list(self.terms.values()) == [1] * len(generators)
        for gen in generators:
            assert (id(gen), board.tobytes()) in self.terms
            assert self.shared_features(gen).board_count == len(board)
        # one whole-board affine fill per policy that acted, kept whole; a
        # panel member no game picked never acts. Rows are made only for the
        # boards a policy visited one game at a time; a lockstep series'
        # policy reads the whole table and makes none.
        acted = [p for p in self.policies if p._table is not None]
        assert self.fills == [len(board)] * len(acted)
        assert all(p._table.shape == (len(board), 5) for p in acted)
        assert all(len(p._cdfs) < len(board) for p in acted)


def check_gauntlet_features(monkeypatch, config=None):
    counts = ForwardCounts(monkeypatch)
    search = SearchConfig(generations=3, episodes_per_latent=4)
    bots = [Bot(kind) for kind in BOT_KINDS]
    gen = soccer_gen(40, config)
    results = bot_gauntlet(gen, bots, games=30, search=search, rng=np.random.default_rng(41),
                           base=config)
    assert [row["score"].games for row in results.values()] == [30] * len(bots)
    # one policy per scored candidate and one for each bot's series
    assert len(counts.policies) == len(bots) * (search.generations + 1)
    counts.check_table([gen], MarkovSoccer(config).board_observations())


def test_gauntlet_computes_state_features_once_per_call(monkeypatch):
    check_gauntlet_features(monkeypatch)


def test_gauntlet_at_the_pitch_bound_computes_state_features_once_per_call(monkeypatch):
    # the largest pitch: its scalar search games and lockstep series read
    # one whole-pitch pass over 20,000 boards
    check_gauntlet_features(monkeypatch, BOUND_PITCH)


def check_round_robin_features(monkeypatch, config=None):
    counts = ForwardCounts(monkeypatch)
    search = SearchConfig(generations=3, episodes_per_latent=4)
    gen_one, gen_two = soccer_gen(42, config), soccer_gen(43, config)
    series, _ = round_robin_pair(gen_one, gen_two, search, np.random.default_rng(44),
                                 games=30, family_panel=8, config=config)
    assert series.games == 30
    # the panel, one policy per scored candidate in each pass, the fixed
    # opponent and the series' own policy
    assert len(counts.policies) == 8 + 2 * search.generations + 2
    counts.check_table([gen_one, gen_two], MarkovSoccer(config).board_observations())


def test_round_robin_computes_state_features_once_per_call(monkeypatch):
    check_round_robin_features(monkeypatch)


def test_round_robin_at_the_pitch_bound_computes_state_features_once_per_call(monkeypatch):
    check_round_robin_features(monkeypatch, BOUND_PITCH)


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


def sampled(cumulative, rng):
    """The action `LatentPolicy.act` draws from a given cumulative table row."""
    env = MarkovSoccer(SoccerConfig())
    env.reset(0)
    policy = LatentPolicy(soccer_gen(), np.ones(3) / np.sqrt(3))
    policy._cdfs[env.board_index("right")] = list(cumulative)
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
        assert sampled(cumulative.tolist(), FixedDraw(u)) == expected
    assert [sampled(cumulative.tolist(), FixedDraw(u)) for u in (0.0, 0.25, 0.5)] == [0, 1, 3]
    rng = np.random.default_rng(48)
    for _ in range(200):
        probs = rng.dirichlet(np.ones(5)) * (rng.random(5) < 0.6)
        cumulative = np.cumsum(probs)
        seed = int(rng.integers(2 ** 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        u = b.random() * cumulative[-1]
        action = int(np.searchsorted(cumulative, u))
        assert sampled(cumulative.tolist(), a) == action == (cumulative < u).sum()
        assert a.random() == b.random()


GOLDEN_GAUNTLETS = {
    ("multiplicative", "tanh"): {
        "straight": (7, 17, 6, "caddaf74606cdcbf78c270f49755ad3f4ad01c74c39cec3f"),
        "oscillate0": (7, 0, 23, "fae51b3fdeeeed3f72918df7054ca03f31a5f8565789d63f"),
        "oscillate1": (9, 0, 21, "0f009a5e8100ef3f330b311f2caea2bf5e99004a5a5fcf3f"),
        "stand": (13, 0, 17, "cbb338806af3c33f4acbf42c7af8d93f31279e9e87d1ec3f"),
        "rule_based": (0, 24, 6, "063d849ce918eebfd87186e831a1d53fa5584d861f76a13f"),
        "random": (2, 5, 23, "d403674b378ed0bfc5b9a829b6caeebf227ec626eeacb5bf"),
    },
    ("multiplicative", "relu"): {
        "straight": (4, 21, 5, "c69ba6b6b1e4ebbf97848e57215adfbf7c2a79d1b2448ebf"),
        "oscillate0": (1, 0, 29, "f264d6d8ee36ee3f6963c950f187d33f48c53a4e66b6bfbf"),
        "oscillate1": (4, 0, 26, "2c3eca68ad42e9bfb69feb7506c4c23fae299bee7e13e33f"),
        "stand": (8, 0, 22, "609dd65ddf5ce1bf00464ae78c53d33f677826243f15e9bf"),
        "rule_based": (1, 27, 2, "2fa5ad55ee09a3bf056be1ace322ea3fda071935c96ce2bf"),
        "random": (5, 7, 18, "05a731127646c9bf0777043f4839d2bf362335817604eebf"),
    },
    ("concat", "tanh"): {
        "straight": (1, 22, 7, "e56b623a332bec3fc43df5a41e27c93fc83ef9419ca3dbbf"),
        "oscillate0": (2, 0, 28, "0f2f85c74009e73f1426ec336c1cd9bf986bdb996d52e23f"),
        "oscillate1": (3, 0, 27, "f44c431496f8d83f93b88a719840ed3f6376b384972fbc3f"),
        "stand": (0, 0, 30, "83f25e3e591bcd3f1906d634aeb0e3bf05e025960f27e83f"),
        "rule_based": (0, 26, 4, "224f39923a53edbfbc2580507e45cd3ff59ef62bc405d5bf"),
        "random": (3, 5, 22, "2adad009a0beeabfc76f81d1ecb7d73f15152860ededd93f"),
    },
    ("concat", "relu"): {
        "straight": (1, 22, 7, "8f52e4dea5e1c63ffebb6809f84cdebfc2d9c9c88799ebbf"),
        "oscillate0": (6, 0, 24, "ae689794cfb3eabfcc0fb7b0f603d83f96d6a94d78d4d9bf"),
        "oscillate1": (7, 0, 23, "6a7fcd27bb49e93fe64a3512e49ae3bf168064cf048089bf"),
        "stand": (3, 0, 27, "5cb924be7d4399bfbb6d1d5c56c1ee3f64680c87239bd1bf"),
        "rule_based": (0, 26, 4, "8c3604ba2822bb3fd93382ec0d20ed3f41b654752aa1d9bf"),
        "random": (3, 8, 19, "e5afa315d4d3e9bf617cb374e29acabf700be1b1f4aee1bf"),
    },
}


def golden_gen(seed, architecture="multiplicative", activation="tanh"):
    return PolicyGenerator(41, 5, np.random.default_rng(seed), architecture=architecture,
                           hidden_dim=8, policy_activation=activation)


@pytest.mark.parametrize("architecture, activation", GOLDEN_GAUNTLETS,
                         ids=["-".join(k) for k in GOLDEN_GAUNTLETS])
def test_gauntlet_results_are_pinned(architecture, activation):
    # W/L/D and the selected latent's bytes. Each series is played in
    # lockstep on a child generator seeded by one draw from the caller's rng,
    # so the stream and every action up to the first series are as when the
    # games were played one by one (the straight bot's latent is unchanged),
    # and every later search and series is pinned on the lockstep stream
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
    assert (series.wins, series.losses, series.draws) == (6, 4, 30)
    assert info["latent_one"].tobytes().hex() == "bcf5f972ec7ecdbf215b9570cacbee3f5a25c812ee6dc23f"
    assert info["latent_two"].tobytes().hex() == "e619b0289457c73f69e90a0854d4883f0c578dc30576ef3f"


# -- the lockstep series against the scalar games ------------------------------------

DISTRIBUTION_GAMES = 4000   # K, games per arm
DISTRIBUTION_BOUND = 4.0    # the largest |z| allowed on any rate
DISTRIBUTION_PAIRINGS = [*BOT_KINDS, "random-vs-random", "latent-vs-latent"]


def two_proportion_z(count_a: int, count_b: int, n: int) -> float:
    """z of the difference between two rates over n trials each, pooled;
    0 when both rates are 0 or both are 1."""
    pooled = (count_a + count_b) / (2 * n)
    spread = np.sqrt(pooled * (1 - pooled) * 2 / n)
    return 0.0 if spread == 0.0 else (count_a - count_b) / n / spread


@pytest.mark.parametrize("pairing", DISTRIBUTION_PAIRINGS)
def test_the_lockstep_series_plays_the_scalar_games_in_distribution(pairing):
    """The lockstep series (`MarkovSoccer.play_lockstep` behind `play_series`)
    draws other numbers than games played one by one, each on its own
    seeded generator (`play_seeded_games`), so the two can only agree in
    distribution. Each arm plays K = 4,000 games of one pairing: each of the
    six bots, on its `bot_match_config` pitch, against one fixed latent
    (`sample_latent(default_rng(61))`) of `soccer_gen(60)`; `RandomPolicy`
    against itself; and that latent against another
    (`sample_latent(default_rng(64))`) of `soccer_gen(65)`, on the default
    pitch. The scalar arm draws from `default_rng(62)`, the lockstep arm from
    `default_rng(63)`. The win, loss and draw rates of the two arms must
    each lie within |z| <= 4 of each other by a pooled two-proportion z. K,
    the seeds and the bound were fixed before the first run."""
    gen = soccer_gen(60)
    latent = sample_latent(np.random.default_rng(61))
    if pairing in BOT_KINDS:
        bot = Bot(pairing)
        env = MarkovSoccer(bot_match_config(bot))
        players = lambda: (BotPolicy(bot), LatentPolicy(gen, latent))
    elif pairing == "random-vs-random":
        env = MarkovSoccer()
        players = lambda: (RandomPolicy(), RandomPolicy())
    else:
        env = MarkovSoccer()
        other = soccer_gen(65), sample_latent(np.random.default_rng(64))
        players = lambda: (LatentPolicy(gen, latent), LatentPolicy(*other))
    assert env.board_count <= 2 * MAX_CELLS ** 2   # a pitch within the bound
    scalar = evaluation.play_seeded_games(env, *players(), DISTRIBUTION_GAMES,
                                          np.random.default_rng(62))
    lockstep = play_series(env, *players(), DISTRIBUTION_GAMES, np.random.default_rng(63))
    assert scalar.games == lockstep.games == DISTRIBUTION_GAMES
    for rate in ("wins", "losses", "draws"):
        z = two_proportion_z(getattr(scalar, rate), getattr(lockstep, rate), DISTRIBUTION_GAMES)
        assert abs(z) <= DISTRIBUTION_BOUND, (rate, scalar, lockstep, z)


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
    with open(path, newline="") as fh:
        loaded = [{"method": rec["method"], "seed": int(rec["seed"]), "metric": rec["metric"],
                   "value": float(rec["value"])} for rec in csv.DictReader(fh)]
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
