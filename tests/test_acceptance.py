"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, 3, 6, 7 and 8 are tested here; criteria 4 and 5 have no tests.
Criteria 3 and 6 are desk-scale training runs; the full module takes about
4 minutes on two cores. Criterion 7 is the only expected red result: it is
implemented exactly as stated, and its generation budget cannot deliver the
demanded hit probability (the analysis is in the comment block above that
test).

Run just this module:  pytest tests/test_acceptance.py -v
Skip it entirely:      pytest -m "not acceptance"
"""

import time

import numpy as np
import pytest

from policyspace.autodiff import constant
from policyspace.checkpoint import load_checkpoint, save_checkpoint
from policyspace.diversity import DiversityConfig, estimate_for_generator
from policyspace.envs import Bot, MarkovSoccer, MultiGoal, MultiGoalConfig, SoccerConfig
from policyspace.envs.farmworld import Farmworld, FarmworldConfig, build_ablation
from policyspace.evaluation import (LatentPolicy, ablation_sweep,
                                    bot_gauntlet, play_series, round_robin_matrix,
                                    specialization)
from policyspace.generator import PolicyGenerator, sample_latent, sample_latents
from policyspace.latent_search import SearchConfig, optimize_latents, run_episode
from policyspace.replay import read_replay, replay_episode
from policyspace.training import (Discriminator, Trainer, TrainerConfig,
                                  collect_rollouts, ppo_objective)

import generic_ops as ops
from helpers import finite_diff_grads, random_episode, relative_error

pytestmark = pytest.mark.acceptance


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\n[CRITERION {criterion}] {status}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# Criterion 1: gradient fidelity for every loss, < 1e-4 vs finite differences
# ---------------------------------------------------------------------------


def _loss_suite(seed):
    """All five losses on fresh small nets for one random instance."""
    rng = np.random.default_rng(seed)
    gen = PolicyGenerator(4, 3, np.random.default_rng(seed + 1000),
                          architecture="multiplicative" if seed % 2 else "concat",
                          hidden_dim=5)
    n = 6
    obs = rng.random((n, 4))
    z = sample_latents(rng, n)
    actions = rng.integers(3, size=n)
    probs = gen.probs_np(obs, z)
    logp_old = np.log(probs[np.arange(n), actions]) + rng.uniform(-0.2, 0.2, n)
    adv = rng.standard_normal(n)
    targets = rng.standard_normal(n)
    div_states = rng.random((2, 4))
    div_latents = sample_latents(rng, 3)
    disc = Discriminator(4, 3, np.random.default_rng(seed + 2000), hidden_dim=5)

    def clip_loss():
        logits = gen.logits(obs, z)
        log_all = ops.log_softmax(logits, axis=-1)
        ratio = ops.exp(ops.gather(log_all, actions) - constant(logp_old))
        advc = constant(adv)
        return ops.minimum(ratio * advc, ops.clip(ratio, 0.8, 1.2) * advc).mean()

    def value_loss():
        return (gen.value(obs, z) - constant(targets)).square().mean()

    def entropy_bonus():
        log_all = ops.log_softmax(gen.logits(obs, z), axis=-1)
        return -(ops.exp(log_all) * log_all).sum(axis=-1).mean()

    def div_loss():
        return estimate_for_generator(gen, div_states, div_latents, smoothing=0.05)

    def disc_loss():
        return disc.regression_loss(div_states, div_latents[:2])

    return [
        ("ppo_clip", clip_loss, gen.policy_parameters()),
        ("value", value_loss, gen.value_parameters()),
        ("entropy", entropy_bonus, gen.policy_parameters()),
        ("diversity", div_loss, gen.policy_parameters()),
        ("latent_regression", disc_loss, disc.net.parameters()),
    ]


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for seed in range(20):
        for name, loss_fn, params in _loss_suite(seed):
            for p in params:
                p.grad = None
            loss_fn().backward()
            analytic = [p.grad if p.grad is not None else np.zeros_like(p.data)
                        for p in params]
            numeric = finite_diff_grads(lambda: float(loss_fn().data), params, h=1e-5)
            err = relative_error(analytic, numeric)
            worst = max(worst, err)
            instances += 1
            assert err < 1e-4, f"{name} at seed {seed}: relative error {err:.2e}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    assert report(1, ok, f"{instances} loss instances, worst relative error "
                         f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: diversity estimator against enumeration and Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_2_diversity_estimator_oracles():
    start = time.perf_counter()
    gen = PolicyGenerator(6, 4, np.random.default_rng(0), architecture="concat",
                          hidden_dim=8)
    rng = np.random.default_rng(1)

    # (a) m=3, n=2 equals exhaustive enumeration over ordered pairs to 1e-12
    states = rng.random((2, 6))
    latents = sample_latents(rng, 3)
    est = float(estimate_for_generator(gen, states, latents, 0.05).data)
    b, A = 0.05, 4
    total, count = 0.0, 0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for s in range(2):
                p = gen.probs_np(states[s:s + 1], latents[i:i + 1])[0]
                q = gen.probs_np(states[s:s + 1], latents[j:j + 1])[0]
                p, q = (p + b) / (1 + b * A), (q + b) / (1 + b * A)
                total += np.exp(-np.sum(p * (np.log(p) - np.log(q))))
                count += 1
    enumeration = total / count
    enum_gap = abs(est - enumeration)
    assert enum_gap < 1e-12

    # (b) one (m=10, n=30) estimate within 3 standard errors of a 1e5-sample
    # Monte-Carlo reference over the same state pool
    pool = np.random.default_rng(2).random((200, 6))

    def single_estimate(seed):
        r = np.random.default_rng(seed)
        lat = sample_latents(r, 10)
        sts = pool[r.choice(len(pool), size=30, replace=False)]
        return float(estimate_for_generator(gen, sts, lat, 0.05).data)

    mc_rng = np.random.default_rng(3)
    n_mc = 100_000
    zi = sample_latents(mc_rng, n_mc)
    zj = sample_latents(mc_rng, n_mc)
    sts = pool[mc_rng.integers(len(pool), size=n_mc)]
    p = gen.probs_np(sts, zi)
    q = gen.probs_np(sts, zj)
    p = (p + b) / (1 + b * A)
    q = (q + b) / (1 + b * A)
    mc_reference = float(np.mean(np.exp(-np.sum(p * (np.log(p) - np.log(q)), axis=-1))))

    estimate = single_estimate(0)
    redraws = np.array([single_estimate(s) for s in range(1, 51)])
    se = redraws.std(ddof=1)
    gap = abs(estimate - mc_reference)
    elapsed = time.perf_counter() - start
    ok = gap <= 3 * se and elapsed < 60.0
    assert report(2, ok, f"enumeration gap {enum_gap:.1e}; estimate {estimate:.4f} vs "
                         f"MC {mc_reference:.4f} (|diff| {gap:.4f} <= 3*SE {3 * se:.4f}), "
                         f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: the navigation toy splits into corners under the diversity term
# ---------------------------------------------------------------------------


def _train_multigoal(method, seed, iters=200):
    gen = PolicyGenerator(2, 5, np.random.default_rng(seed),
                          architecture="multiplicative", hidden_dim=32)
    cfg = TrainerConfig(batch_size=1000, minibatch_size=250, sgd_iters=6,
                        num_envs=16, method=method,
                        diversity=DiversityConfig(coef=0.5), entropy_coef=0.05)
    trainer = Trainer(gen, MultiGoal, cfg, seed=seed + 10)
    for _ in range(iters):
        trainer.train_iteration()
    return gen


def _goals_reached(gen, n_latents=64, seed=0, episodes=5):
    """Corner -> number of latents whose policy ends there in a strict majority.

    Each latent is rolled out `episodes` times and credited with a corner only
    if more than half of its episodes end within capture radius of it, so a
    single exploratory random walk does not count as a latent's behaviour.
    Argmax rollouts are no substitute: deterministic navigators stall.
    """
    rng = np.random.default_rng(seed)
    counts = {}
    for z in sample_latents(rng, n_latents):
        ends = []
        for _ in range(episodes):
            env = MultiGoal()
            obs = env.reset(int(rng.integers(2 ** 62)))
            run_episode(gen, env, obs, {"agent_0": z}, rng)
            idx, dist = env.nearest_goal()
            if dist <= env.config.capture_radius:
                ends.append(idx)
        for idx in set(ends):
            if 2 * ends.count(idx) > episodes:
                counts[idx] = counts.get(idx, 0) + 1
    return dict(sorted(counts.items()))


def test_criterion_3_multigoal_diversity():
    start = time.perf_counter()
    outcomes = []
    for seed in (0, 1, 2):
        diverse = _goals_reached(_train_multigoal("adap", seed), seed=seed)
        plain = _goals_reached(_train_multigoal("vanilla", seed), seed=seed)
        outcomes.append((seed, diverse, plain))
    elapsed = time.perf_counter() - start
    ok = all(len(d) >= 3 and len(v) <= 2 for _, d, v in outcomes) and elapsed < 600.0
    detail = ", ".join(f"seed {s}: diverse {len(d)}/4 goals {d} vs plain {len(v)}/4 {v}"
                       for s, d, v in outcomes)
    assert report(3, ok, f"{detail} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# Criterion 6: soccer self-play beats the naive bots after latent search
# ---------------------------------------------------------------------------


def test_criterion_6_soccer_vs_naive_bots():
    start = time.perf_counter()
    env = MarkovSoccer(SoccerConfig())
    gen = PolicyGenerator(env.observation_size, env.num_actions,
                          np.random.default_rng(0), architecture="multiplicative",
                          hidden_dim=32)
    cfg = TrainerConfig(batch_size=2000, minibatch_size=500, sgd_iters=10,
                        num_envs=8, method="adap", discount=0.9, gae_lambda=0.95,
                        diversity=DiversityConfig(coef=0.2), entropy_coef=0.05)
    trainer = Trainer(gen, lambda: MarkovSoccer(SoccerConfig()), cfg, seed=100)
    for _ in range(300):
        trainer.train_iteration()
    train_time = time.perf_counter() - start

    # adaptation budget: 10 generations x 10 episodes = 100 episode rollouts;
    # search overhead is wall time outside the rollout score function
    rng = np.random.default_rng(1)
    results = {}
    search_overhead = 0.0
    for kind in ("straight", "random"):
        bot = Bot(kind)
        from policyspace.envs import bot_match_config
        from policyspace.evaluation import play_game
        config = bot_match_config(bot)
        env_cost = [0.0]

        def score(z, config=config, bot=bot):
            t0 = time.perf_counter()
            total = 0.0
            for _ in range(10):
                result = play_game(MarkovSoccer(config), bot, LatentPolicy(gen, z),
                                   int(rng.integers(2 ** 62)), rng)
                total += 1.0 if result == "right" else (-1.0 if result == "left" else 0.0)
            env_cost[0] += time.perf_counter() - t0
            return total / 10

        t0 = time.perf_counter()
        search = optimize_latents(score, rng,
                                  SearchConfig(generations=10, episodes_per_latent=10),
                                  latent_dim=gen.latent_dim)
        search_overhead += (time.perf_counter() - t0) - env_cost[0]
        series = play_series(MarkovSoccer(config), bot, LatentPolicy(gen, search.best_latent),
                             1000, rng, perspective="right")
        results[kind] = series

    ok = (all(s.score > 0 for s in results.values())
          and search_overhead < 30.0 and train_time <= 7200.0)
    detail = ", ".join(f"{k}: {s.wins}W-{s.losses}L-{s.draws}D (net {s.score:+d})"
                       for k, s in results.items())
    assert report(6, ok, f"{detail}; search overhead {search_overhead:.2f}s, "
                         f"training {train_time:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 7: latent-search sanity on f(z) = z . z*
#
# EXPECTED TO FAIL, faithfully implemented. The bound demands reaching 95% of
# the oracle optimum (a spherical cap holding ~2.5% of the sphere) within 50
# generations on 10/10 seeds. The search in `policyspace.latent_search`
# evaluates exactly one candidate per generation, as its module docstring
# prescribes. With 50 generations that means, on average over 400 seeds:
#   - 11 forced uniform draws while the top 10 is still filling, then ~13 more
#     from the 50/50 explore branch (~24 uniform draws in all);
#   - ~13 mutations, each of a uniformly chosen top-10 member, with a kernel
#     whose mean angular step is 0.075 rad;
#   - a final quarter (~13 generations) of replicate/prune, which re-scores
#     latents already in the top 10. The objective is deterministic, so a
#     re-score returns the same value and these generations change nothing.
# Measured over seeds 0-399 (target seed 99), the per-trial hit rate is 0.50
# at 50 generations, 0.81 at 100, 0.99 at 200 and 1.00 at 400. Seeds 0-9, the
# ones this test uses, give 8/10. Even 50 pure uniform draws would hit only
# 0.70 of the time (1 - 0.975^50 = 0.72 analytically). No reading of the
# search that honors the pinned mutation kernel and per-generation economy
# can satisfy the stated numbers, so the red result is reported rather than
# papered over: the assertion, seeds and budget stay as stated.
# ---------------------------------------------------------------------------


def _sphere_grid(n=10_000):
    i = np.arange(n)
    phi = np.arccos(1 - 2 * (i + 0.5) / n)
    theta = np.pi * (1 + 5 ** 0.5) * (i + 0.5)
    return np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)


def test_criterion_7_latent_search_sanity():
    target = sample_latent(np.random.default_rng(99))
    oracle = float((_sphere_grid() @ target).max())
    wins = []
    for seed in range(10):
        result = optimize_latents(lambda z: float(z @ target),
                                  np.random.default_rng(seed),
                                  SearchConfig(generations=50))
        wins.append(result.best_score >= 0.95 * oracle)
    ok = all(wins)
    report(7, ok, f"{sum(wins)}/10 trials reached 0.95 x oracle ({oracle:.4f}) "
                  f"within 50 generations")
    assert ok, (f"only {sum(wins)}/10 trials reached the bound; the stated "
                "budget cannot deliver it (see the docstring analysis)")


# ---------------------------------------------------------------------------
# Criterion 8: engine invariants
# ---------------------------------------------------------------------------


def test_criterion_8_engine_invariants(tmp_path):
    details = []

    # checkpoint round-trip, bit-exact
    gen = PolicyGenerator(7, 4, np.random.default_rng(0), hidden_dim=12)
    from policyspace.optim import Adam
    opt = Adam(gen.parameters())
    rng = np.random.default_rng(1)
    for p in gen.parameters():
        p.grad = rng.standard_normal(p.data.shape)
    opt.step()
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(path_a, gen, opt, step=1, env_name="farmworld")
    loaded = load_checkpoint(path_a)
    roundtrip_ok = np.array_equal(loaded.generator.get_flat(), gen.get_flat())
    opt2 = Adam(loaded.generator.parameters())
    loaded.restore_optimizer(opt2)
    save_checkpoint(path_b, loaded.generator, opt2, step=1, env_name="farmworld")
    roundtrip_ok = roundtrip_ok and path_a.read_bytes() == path_b.read_bytes()
    details.append(f"checkpoint round-trip bit-exact: {roundtrip_ok}")

    # replay reproduces logged rewards bit-exactly
    cfg = FarmworldConfig(width=6, height=6, num_agents=3, num_chickens=3,
                          num_towers=3, max_episode_timesteps=60)
    writer = random_episode(Farmworld(cfg), 42, np.random.default_rng(2))
    log = tmp_path / "episode.jsonl"
    writer.save(log)
    header, records = read_replay(log)
    replay_ok = replay_episode(Farmworld(cfg), header, records) > 0
    details.append(f"replay reproduces rewards bit-exactly: {replay_ok}")

    # zero-alpha and vanilla produce bit-identical training
    def short_run(method):
        g = PolicyGenerator(2, 5, np.random.default_rng(3), hidden_dim=8)
        tc = TrainerConfig(batch_size=80, minibatch_size=40, sgd_iters=2,
                           num_envs=2, method=method,
                           diversity=DiversityConfig(coef=0.0))
        tr = Trainer(g, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=20)), tc, seed=4)
        for _ in range(3):
            tr.train_iteration()
        return g.get_flat()

    equiv_ok = np.array_equal(short_run("adap"), short_run("vanilla"))
    details.append(f"zero-alpha == vanilla bitwise: {equiv_ok}")

    # zero-sum identity across a small tournament
    gens = {f"g{i}": PolicyGenerator(41, 5, np.random.default_rng(10 + i), hidden_dim=8)
            for i in range(3)}
    names, matrix = round_robin_matrix(gens, SearchConfig(generations=2,
                                                          episodes_per_latent=1),
                                       np.random.default_rng(5), games=30)
    zero_sum_ok = np.array_equal(matrix, -matrix.T) and np.all(np.diag(matrix) == 0)
    series = play_series(MarkovSoccer(), LatentPolicy(gens["g0"], sample_latent(np.random.default_rng(6))),
                         LatentPolicy(gens["g1"], sample_latent(np.random.default_rng(7))),
                         100, np.random.default_rng(8))
    zero_sum_ok = zero_sum_ok and (series.wins + series.losses + series.draws == 100)
    details.append(f"soccer zero-sum identities: {zero_sum_ok}")

    ok = roundtrip_ok and replay_ok and equiv_ok and zero_sum_ok
    assert report(8, ok, "; ".join(details))
