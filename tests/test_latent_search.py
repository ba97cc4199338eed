import csv

import numpy as np
import pytest

from policyspace.envs import MultiGoal, MultiGoalConfig
from policyspace.errors import ConfigError
from policyspace.generator import PolicyGenerator, sample_latent
from policyspace.latent_search import (SearchConfig, episode_score_fn,
                                       mutate, optimize_latents,
                                       run_episode, save_trace)


def test_zero_scale_mutation_is_identity():
    rng = np.random.default_rng(0)
    z = sample_latent(rng)
    assert np.allclose(mutate(z, rng, scale=0.0), z, atol=1e-15)


def test_mutation_stays_on_the_sphere():
    rng = np.random.default_rng(1)
    z = sample_latent(rng)
    for _ in range(500):
        z = mutate(z, rng)
        assert abs(np.linalg.norm(z) - 1.0) < 1e-9


def test_mean_angular_displacement_regression_value():
    rng = np.random.default_rng(2)
    total = 0.0
    n = 100_000
    for _ in range(n):
        z = sample_latent(rng)
        m = mutate(z, rng)
        total += np.arccos(np.clip(np.dot(z, m), -1.0, 1.0))
    mean_angle = total / n
    assert mean_angle < 0.12
    # pinned empirical value for the Unif[-0.1, 0.1]^3 kernel
    assert mean_angle == pytest.approx(0.0754, abs=0.002)


def test_single_generation_evaluates_one_uniform_sample():
    calls = []

    def score(z):
        calls.append(z.copy())
        return 1.0

    rng = np.random.default_rng(3)
    result = optimize_latents(score, rng, SearchConfig(generations=1))
    assert len(calls) == 1
    assert result.evaluations == 1
    assert np.array_equal(result.best_latent, calls[0])
    assert result.trace[0]["action"] == "sample"


def test_budget_is_exactly_one_candidate_per_generation():
    calls = {"n": 0}

    def score(z):
        calls["n"] += 1
        return float(z[0])

    optimize_latents(score, np.random.default_rng(4), SearchConfig(generations=80))
    assert calls["n"] == 80


def test_episode_budget_bounded_by_generations_times_episodes():
    gen = PolicyGenerator(2, 5, np.random.default_rng(0), hidden_dim=8)
    episodes = {"n": 0}

    class CountingEnv(MultiGoal):
        def reset(self, seed):
            episodes["n"] += 1
            return super().reset(seed)

    cfg = SearchConfig(generations=6, episodes_per_latent=3)
    score = episode_score_fn(gen, lambda: CountingEnv(MultiGoalConfig(max_episode_timesteps=5)),
                             cfg.episodes_per_latent, np.random.default_rng(5))
    optimize_latents(score, np.random.default_rng(6), cfg)
    assert episodes["n"] == 6 * 3


def test_all_actions_appear_and_best_is_monotone_on_deterministic_objective():
    target = sample_latent(np.random.default_rng(7))
    result = optimize_latents(lambda z: float(z @ target), np.random.default_rng(8),
                              SearchConfig(generations=120))
    actions = {row["action"] for row in result.trace}
    assert actions == {"sample", "mutate", "replicate", "prune"}
    best_curve = [row["best_score"] for row in result.trace]
    assert all(a <= b + 1e-15 for a, b in zip(best_curve, best_curve[1:]))
    assert result.best_score == best_curve[-1]


def test_stored_latents_lie_on_the_sphere_and_list_is_sorted():
    target = sample_latent(np.random.default_rng(9))
    result = optimize_latents(lambda z: float(z @ target), np.random.default_rng(10),
                              SearchConfig(generations=60))
    scores = [c.score for c in result.best]
    assert scores == sorted(scores, reverse=True)
    for cand in result.best:
        assert abs(np.linalg.norm(cand.latent) - 1.0) < 1e-9


def test_search_improves_with_budget_on_synthetic_objective():
    target = sample_latent(np.random.default_rng(11))
    short = optimize_latents(lambda z: float(z @ target), np.random.default_rng(12),
                             SearchConfig(generations=10))
    long = optimize_latents(lambda z: float(z @ target), np.random.default_rng(12),
                            SearchConfig(generations=400))
    assert long.best_score >= short.best_score
    assert long.best_score >= 0.9


def test_generator_weights_frozen_during_env_search():
    gen = PolicyGenerator(2, 5, np.random.default_rng(13), hidden_dim=8)
    before = gen.get_flat()
    score = episode_score_fn(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=10)), 1,
                             np.random.default_rng(14))
    optimize_latents(score, np.random.default_rng(15), SearchConfig(generations=12))
    assert np.array_equal(gen.get_flat(), before)


def test_identical_seeds_identical_traces(tmp_path):
    target = sample_latent(np.random.default_rng(16))

    def run(path):
        result = optimize_latents(lambda z: float(z @ target), np.random.default_rng(17),
                                  SearchConfig(generations=40))
        save_trace(path, result.trace)
        return path.read_text()

    assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


def test_trace_round_trip(tmp_path):
    target = sample_latent(np.random.default_rng(18))
    result = optimize_latents(lambda z: float(z @ target), np.random.default_rng(19),
                              SearchConfig(generations=15))
    path = tmp_path / "trace.csv"
    save_trace(path, result.trace)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    for loaded, original in zip(rows, result.trace):
        assert int(loaded["generation"]) == original["generation"]
        assert loaded["action"] == original["action"]
        assert float(loaded["score"]) == original["score"]
        assert [float(loaded[f"z{i}"]) for i in range(3)] == original["latent"]


def test_config_validation():
    with pytest.raises(ConfigError):
        optimize_latents(lambda z: 0.0, np.random.default_rng(0),
                         SearchConfig(generations=0))
    with pytest.raises(ConfigError):
        optimize_latents(lambda z: 0.0, np.random.default_rng(0),
                         SearchConfig(episodes_per_latent=0))


BAD_SEARCH_VALUES = [
    ("generations", 0), ("generations", True), ("generations", 2.0),
    ("episodes_per_latent", 0), ("episodes_per_latent", "1"), ("top_k", 0), ("top_k", -3),
    ("max_best", 0), ("explore_fraction", 1.5), ("explore_fraction", -0.25),
    ("explore_fraction", float("nan")), ("explore_fraction", "half"),
    ("mutation_scale", float("nan")), ("mutation_scale", float("inf")),
    ("mutation_scale", -0.1),
]


@pytest.mark.parametrize("field, value", BAD_SEARCH_VALUES)
def test_search_config_refuses_a_bad_value_before_scoring(field, value):
    config = SearchConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"field {field}"):
        config.validate()
    scored = []
    with pytest.raises(ConfigError, match=f"field {field}"):
        optimize_latents(lambda z: scored.append(z) or 0.0, np.random.default_rng(0), config)
    assert scored == []


def test_search_config_accepts_the_edges_of_each_range():
    for edge in ({"explore_fraction": 0.0}, {"explore_fraction": 1}, {"mutation_scale": 0.0},
                 {"top_k": 1, "max_best": 1}, {"generations": np.int64(3)}):
        config = SearchConfig(**{"generations": 12, **edge})
        result = optimize_latents(lambda z: float(z[0]), np.random.default_rng(1), config)
        assert result.evaluations == config.generations


def test_run_episode_gives_each_agent_its_latent_and_sums_its_rewards():
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    cfg = FarmworldConfig(width=5, height=5, num_agents=3, num_chickens=2,
                          num_towers=2, max_episode_timesteps=15)
    gen = PolicyGenerator(Farmworld(cfg).observation_size, 6, np.random.default_rng(20),
                          hidden_dim=8)
    rng = np.random.default_rng(21)
    env = Farmworld(cfg)
    obs = env.reset(22)
    latents = {a: sample_latent(rng) for a in obs}
    act, step = gen.act, env.step
    totals = dict.fromkeys(obs, 0.0)

    def checked_act(obs_mat, z_mat, rng):
        expected = np.asarray([latents[a] for a in env.living_agents()])
        assert np.array_equal(z_mat, expected)
        return act(obs_mat, z_mat, rng)

    def summed_step(actions):
        out = step(actions)
        for a, r in out[1].items():
            totals[a] += r
        return out

    gen.act, env.step = checked_act, summed_step
    returns = run_episode(gen, env, obs, latents, rng)
    assert env.finished
    assert returns == totals


def test_farmworld_adaptation_is_pinned():
    # `adapt`'s search on a small farmworld: the trace's actions and scores, the
    # best latent and the next draw, recorded before the farmworld protocols
    # shared one episode loop
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    cfg = FarmworldConfig(width=4, height=4, num_agents=3, num_chickens=3, num_towers=3,
                          agent_start_health=1.0, respawn_time=3, max_episode_timesteps=40)
    gen = PolicyGenerator(53, 6, np.random.default_rng(62), hidden_dim=8)
    rng = np.random.default_rng(63)
    result = optimize_latents(episode_score_fn(gen, lambda: Farmworld(cfg), 2, rng), rng,
                              SearchConfig(generations=12, top_k=3), latent_dim=gen.latent_dim)
    assert [(row["action"], row["score"]) for row in result.trace] == [
        ("sample", 0.9999999999999999), ("sample", 0.9333333333333332),
        ("sample", 0.9499999999999998), ("sample", 1.4833333333333336),
        ("sample", 1.4500000000000002), ("sample", 0.8333333333333331),
        ("mutate", 0.8333333333333331), ("mutate", 0.9999999999999999),
        ("sample", 0.9999999999999999), ("prune", 0.9999999999999999),
        ("prune", 0.85), ("replicate", 0.9999999999999999)]
    assert result.best_latent.tobytes().hex() == "cc44162d5c62bb3f7f6fd5e0da12c03f093908b0c58fefbf"
    assert result.best_score == 1.4833333333333336
    assert int(rng.integers(2 ** 62)) == 1124047385453051916
