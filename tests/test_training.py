import gc
import weakref

import numpy as np
import pytest

from policyspace.diversity import DiversityConfig
from policyspace.envs import MultiGoal
from policyspace.errors import ConfigError, NumericError
from policyspace.generator import PolicyGenerator, sample_latents
from policyspace.training import (Discriminator, RolloutState, Trainer,
                                  TrainerConfig, centered_intrinsic_errors,
                                  collect_rollouts, compute_gae, ppo_objective)

from helpers import check_gradients


def tiny_gen(seed=0, obs=2, acts=5, hidden=8, arch="concat"):
    return PolicyGenerator(obs, acts, np.random.default_rng(seed),
                           architecture=arch, hidden_dim=hidden)


# -- GAE -----------------------------------------------------------------------


def test_gae_hand_example():
    adv, targets = compute_gae(np.array([1.0, 1.0]), np.array([0.0, 0.0]),
                               bootstrap=0.0, discount=0.99, lam=1.0)
    assert adv == pytest.approx([1.99, 1.0], abs=1e-12)
    assert targets == pytest.approx([1.99, 1.0], abs=1e-12)


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(0)
    rewards = rng.standard_normal(6)
    values = rng.standard_normal(6)
    bootstrap = float(rng.standard_normal())
    adv, _ = compute_gae(rewards, values, bootstrap, discount=0.9, lam=0.0)
    next_values = np.append(values[1:], bootstrap)
    expected = rewards + 0.9 * next_values - values
    assert adv == pytest.approx(expected, abs=1e-12)


def test_gae_truncated_episode_bootstraps_value():
    adv, _ = compute_gae(np.array([0.5]), np.array([0.2]), bootstrap=2.0,
                         discount=0.9, lam=1.0)
    assert adv[0] == pytest.approx(0.5 + 0.9 * 2.0 - 0.2, abs=1e-12)


# -- PPO objective -----------------------------------------------------------------


def batch_for(gen, n=16, seed=0):
    rng = np.random.default_rng(seed)
    obs = rng.random((n, gen.obs_size))
    z = sample_latents(rng, n, gen.latent_dim)
    actions = rng.integers(gen.num_actions, size=n)
    probs = gen.probs_np(obs, z)
    logp = np.log(probs[np.arange(n), actions])
    return obs, z, actions, logp


def test_unit_ratio_makes_surrogate_the_mean_advantage():
    gen = tiny_gen(1)
    obs, z, actions, logp = batch_for(gen)
    adv = np.random.default_rng(2).standard_normal(len(actions))
    objective, parts = ppo_objective(gen, obs, z, actions, logp, adv,
                                     np.zeros(len(actions)), clip_epsilon=0.2,
                                     value_coef=0.0, entropy_coef=0.0)
    assert float(objective.data) == pytest.approx(adv.mean(), abs=1e-12)


def test_graphs_are_freed_by_reference_counting_alone():
    # a backward closure that holds its own output node makes a reference
    # cycle, and then every minibatch graph waits for the cyclic collector
    gen = tiny_gen(3, arch="multiplicative")
    obs, z, actions, logp = batch_for(gen)
    n = len(actions)
    enabled = gc.isenabled()
    gc.disable()
    try:
        logits = gen.logits(obs, z)
        logits.sum().backward()
        objective, _ = ppo_objective(gen, obs, z, actions, logp, np.ones(n), np.zeros(n),
                                     clip_epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
        objective.backward()
        # Tensor has __slots__ and takes no weakref; its array does
        alive = [weakref.ref(logits.data)]
        stack, seen = [objective], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._parents:
                seen.add(id(node))
                alive.append(weakref.ref(node.data))
                stack.extend(node._parents)
        del logits, objective, node, stack
        assert len(alive) > 10
        assert all(ref() is None for ref in alive)
    finally:
        if enabled:
            gc.enable()


def test_clipping_caps_the_per_sample_surrogate():
    gen = tiny_gen(3)
    obs, z, actions, logp = batch_for(gen, n=1)
    old = logp - np.log(2.0)      # current policy is 2x more likely
    objective, _ = ppo_objective(gen, obs, z, actions, old, np.ones(1),
                                 np.zeros(1), clip_epsilon=0.2,
                                 value_coef=0.0, entropy_coef=0.0)
    assert float(objective.data) == pytest.approx(1.2, abs=1e-9)


def test_negative_advantage_is_not_clipped_upward():
    # with A < 0 the max-ratio side applies: min(2*(-1), 1.2*(-1)) = -2
    gen = tiny_gen(4)
    obs, z, actions, logp = batch_for(gen, n=1)
    old = logp - np.log(2.0)
    objective, _ = ppo_objective(gen, obs, z, actions, old, -np.ones(1),
                                 np.zeros(1), clip_epsilon=0.2,
                                 value_coef=0.0, entropy_coef=0.0)
    assert float(objective.data) == pytest.approx(-2.0, abs=1e-9)


def test_nonfinite_ratio_names_the_sample():
    gen = tiny_gen(5)
    obs, z, actions, logp = batch_for(gen, n=4)
    logp[2] = -1e6      # exp(logp_new + 1e6) overflows
    with pytest.raises(NumericError, match="sample 2"):
        ppo_objective(gen, obs, z, actions, logp, np.ones(4), np.zeros(4),
                      0.2, 0.5, 0.01)


@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_ppo_composite_gradient_matches_finite_differences(arch):
    gen = tiny_gen(6, obs=3, acts=4, hidden=5, arch=arch)
    obs, z, actions, logp = batch_for(gen, n=6, seed=7)
    rng = np.random.default_rng(8)
    adv = rng.standard_normal(6)
    targets = rng.standard_normal(6)
    old = logp + rng.uniform(-0.1, 0.1, size=6)

    def loss():
        objective, _ = ppo_objective(gen, obs, z, actions, old, adv, targets,
                                     clip_epsilon=0.2, value_coef=0.5,
                                     entropy_coef=0.05)
        return -objective

    check_gradients(loss, gen.parameters())


# -- latent-regression baseline -----------------------------------------------------


def test_equal_errors_center_to_zero():
    errs = centered_intrinsic_errors(np.full(5, 2.0), intrinsic_coef=0.05)
    assert np.allclose(errs, 0.0, atol=1e-15)


def test_two_state_centering_example():
    errs = centered_intrinsic_errors(np.array([1.0, 3.0]), intrinsic_coef=1.0)
    assert errs == pytest.approx([1.0, -1.0], abs=1e-12)


def test_intrinsic_errors_have_zero_batch_mean():
    rng = np.random.default_rng(0)
    errs = centered_intrinsic_errors(rng.random(101) * 5, intrinsic_coef=0.05)
    assert abs(errs.mean()) < 1e-9


def test_intrinsic_coef_default():
    assert TrainerConfig().intrinsic_coef == 0.05


def test_discriminator_regression_gradient():
    disc = Discriminator(3, 2, np.random.default_rng(0), hidden_dim=4)
    rng = np.random.default_rng(1)
    obs = rng.random((5, 3))
    latents = sample_latents(rng, 5, 2)
    check_gradients(lambda: disc.regression_loss(obs, latents), disc.net.parameters())


def test_discriminator_learns_a_constant_latent():
    disc = Discriminator(2, 3, np.random.default_rng(0), hidden_dim=16, lr=1e-2)
    rng = np.random.default_rng(1)
    obs = rng.random((64, 2))
    z = np.tile(sample_latents(rng, 1, 3), (64, 1))
    first = disc.train_batch(obs, z, epochs=1)
    last = disc.train_batch(obs, z, epochs=100)
    assert last < first * 0.2


# -- rollouts and the full iteration ---------------------------------------------------


def test_rollouts_hold_one_latent_per_episode():
    gen = tiny_gen(9)
    state = RolloutState([MultiGoal(max_episode_timesteps=20) for _ in range(3)])
    trajectories, finished = collect_rollouts(gen, state, steps=200,
                                              rng=np.random.default_rng(2))
    assert sum(len(t) for t in trajectories) >= 200
    assert all(np.isfinite(r) for r in finished)
    for traj in trajectories:
        assert traj.latent.shape == (3,)
        assert abs(np.linalg.norm(traj.latent) - 1.0) < 1e-9
        assert len(traj.obs) == len(traj.actions) == len(traj.rewards) == len(traj.values)
        if traj.terminal:
            assert traj.bootstrap == 0.0


def test_rollout_log_probs_match_the_collecting_weights():
    gen = tiny_gen(10)
    state = RolloutState([MultiGoal(max_episode_timesteps=10)])
    trajectories, _ = collect_rollouts(gen, state, steps=30, rng=np.random.default_rng(3))
    for traj in trajectories:
        # batched recompute agrees to BLAS shape-noise; per-row is bit-exact
        z = np.repeat(traj.latent[None], len(traj), axis=0)
        probs = gen.probs_np(traj.obs, z)
        recomputed = np.log(probs[np.arange(len(traj)), traj.actions])
        assert recomputed == pytest.approx(traj.log_probs, abs=1e-12)
        row = len(traj) // 2
        single = gen.probs_np(traj.obs[row:row + 1], traj.latent[None])
        assert np.log(single[0, traj.actions[row]]) == traj.log_probs[row]


def test_batch_is_counted_in_agent_steps():
    gen = tiny_gen(11)
    state = RolloutState([MultiGoal(max_episode_timesteps=50) for _ in range(4)])
    trajectories, _ = collect_rollouts(gen, state, steps=100, rng=np.random.default_rng(4))
    total = sum(len(t) for t in trajectories)
    assert 100 <= total < 100 + len(state.envs)  # one extra lockstep tick at most


def test_vanilla_equals_zero_alpha_bitwise():
    def run(method):
        gen = tiny_gen(12, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=30, sgd_iters=2,
                            num_envs=2, method=method,
                            diversity=DiversityConfig(coef=0.0))
        trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=15), cfg, seed=5)
        for _ in range(3):
            trainer.train_iteration()
        return gen.get_flat()

    assert np.array_equal(run("adap"), run("vanilla"))


def test_nonzero_alpha_changes_updates():
    def run(alpha):
        gen = tiny_gen(13, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=30, sgd_iters=2,
                            num_envs=2, diversity=DiversityConfig(coef=alpha, num_states=10))
        trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=15), cfg, seed=6)
        trainer.train_iteration()
        return gen.get_flat()

    assert not np.array_equal(run(0.0), run(0.5))


def test_same_seed_training_is_reproducible():
    def run():
        gen = tiny_gen(14, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=60, sgd_iters=2, num_envs=2,
                            diversity=DiversityConfig(coef=0.2, num_states=10))
        trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=15), cfg, seed=7)
        metrics = [trainer.train_iteration() for _ in range(2)]
        return gen.get_flat(), [m["mean_episode_reward"] for m in metrics]

    (w1, r1), (w2, r2) = run(), run()
    assert np.array_equal(w1, w2)
    assert r1 == r2


def test_numeric_fault_rolls_back_the_iteration(monkeypatch):
    gen = tiny_gen(15, hidden=8)
    cfg = TrainerConfig(batch_size=40, minibatch_size=20, sgd_iters=2, num_envs=2,
                        method="vanilla")
    trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=10), cfg, seed=8)
    before = gen.get_flat()
    moments_before = [m.copy() for m in trainer.opt.state_arrays()]

    calls = {"n": 0}
    import policyspace.training as training_module
    real = training_module.ppo_objective

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:   # first minibatch commits, second faults
            raise NumericError("injected fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(training_module, "ppo_objective", poisoned)
    with pytest.raises(NumericError):
        trainer.train_iteration()
    assert np.array_equal(gen.get_flat(), before)
    for a, b in zip(trainer.opt.state_arrays(), moments_before):
        assert np.array_equal(a, b)
    assert trainer.iteration == 0


def test_trainer_config_validation():
    TrainerConfig().validate()
    with pytest.raises(ConfigError):
        TrainerConfig(method="q_learning").validate()
    with pytest.raises(ConfigError):
        TrainerConfig(clip_epsilon=0.0).validate()
    with pytest.raises(ConfigError):
        TrainerConfig(optimizer="rmsprop").validate()


def test_metrics_row_has_the_expected_fields():
    gen = tiny_gen(16, hidden=8)
    cfg = TrainerConfig(batch_size=40, minibatch_size=40, sgd_iters=1, num_envs=2)
    trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=10), cfg, seed=9)
    m = trainer.train_iteration()
    for key in ("iteration", "agent_steps", "mean_episode_reward", "l_div",
                "entropy", "value_loss", "wall_seconds"):
        assert key in m
    assert m["iteration"] == 1
    assert m["agent_steps"] >= 40


def test_diayn_star_method_shapes_rewards_and_trains_discriminator():
    gen = tiny_gen(17, hidden=8)
    cfg = TrainerConfig(batch_size=60, minibatch_size=30, sgd_iters=1, num_envs=2,
                        method="diayn_star", diversity=DiversityConfig(coef=0.0))
    trainer = Trainer(gen, lambda: MultiGoal(max_episode_timesteps=15), cfg, seed=10)
    assert trainer.discriminator is not None
    m = trainer.train_iteration()
    assert m["discriminator_loss"] > 0.0


def test_episodes_persist_across_batch_boundaries():
    gen = tiny_gen(20)
    state = RolloutState([MultiGoal(max_episode_timesteps=40, start_jitter=0.0)])
    rng = np.random.default_rng(6)
    # 10-step batches cut 40-tick episodes into segments; the env must carry on
    first, finished_a = collect_rollouts(gen, state, steps=10, rng=rng)
    assert finished_a == [] and state.envs[0].tick == 10
    assert not first[-1].terminal and first[-1].bootstrap != 0.0
    second, _ = collect_rollouts(gen, state, steps=10, rng=rng)
    assert state.envs[0].tick == 20
    # the in-flight episode keeps its latent across the boundary
    assert np.array_equal(first[-1].latent, second[-1].latent)


def test_finished_episode_returns_span_segments():
    gen = tiny_gen(21)
    state = RolloutState([MultiGoal(max_episode_timesteps=12, start_jitter=0.0)])
    rng = np.random.default_rng(7)
    segments, finished = [], []
    for _ in range(6):
        seg, fin = collect_rollouts(gen, state, steps=5, rng=rng)
        segments.extend(seg)
        finished.extend(fin)
    assert finished, "a 12-tick episode must finish within 30 collected steps"
    # the first finished return equals the step-reward sum over the first
    # episode's segments (single env, so segments arrive in episode order)
    first_episode = []
    for seg in segments:
        first_episode.append(seg)
        if seg.terminal:
            break
    total = sum(float(s.rewards.sum()) for s in first_episode)
    assert sum(len(s) for s in first_episode) == 12
    assert finished[0] == pytest.approx(total, abs=1e-12)
