import copy
import gc
import hashlib
import weakref

import numpy as np
import pytest

from policyspace.autodiff import Tensor, parameter
from policyspace.diversity import DiversityConfig
from policyspace.envs import (Farmworld, FarmworldConfig, MarkovSoccer, MultiGoal,
                              MultiGoalConfig, SoccerConfig)
from policyspace.errors import ConfigError, NumericError
from policyspace.generator import PolicyGenerator, sample_latents
from policyspace.training import (Discriminator, RolloutState, Trainer,
                                  TrainerConfig, centered_intrinsic_errors,
                                  clipped_surrogate, collect_rollouts, compute_gae,
                                  ppo_objective, shape_rewards_with_discriminator)

from helpers import check_gradients, ppo_surrogate_generic


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


# SHA-256 of the gradient bytes of one seeded PPO objective, recorded before the
# generator's forward broadcast over leading axes: the PPO path must not move by
# one ulp. They are float bytes of numpy 2.4 with its bundled OpenBLAS on x86-64;
# another numpy, BLAS or CPU may round differently and need them re-recorded.
PPO_GRADIENT_SHA256 = {
    ("concat", "tanh"): "4cb76e0b7c36f05f79186566f83ecce2f04a140494a588162e9f8a272a6570ea",
    ("concat", "relu"): "f2aad02fa0a9b46271b31ad30276d0535ef4dbdef8000f4617d346fa48a8ff7a",
    ("multiplicative", "tanh"): "45067ac0649127dc87034dd4ab08d5b380ebe5d68d28283d0b5449600fdfef8d",
    ("multiplicative", "relu"): "f1a89ffc229bc6665292f274cfceae56ef91bf861ef438c902262916faaf01a7",
}


@pytest.mark.parametrize("arch, activation", PPO_GRADIENT_SHA256)
def test_ppo_gradients_are_pinned_byte_for_byte(arch, activation):
    rng = np.random.default_rng(31)
    gen = PolicyGenerator(5, 4, np.random.default_rng(30), architecture=arch, hidden_dim=8,
                          policy_activation=activation, value_activation=activation)
    n = 16
    obs = rng.standard_normal((n, 5))
    z = sample_latents(rng, n)
    actions = rng.integers(0, 4, size=n)
    logp = np.log(gen.probs_np(obs, z)[np.arange(n), actions]) + 0.1 * rng.standard_normal(n)
    objective, _ = ppo_objective(gen, obs, z, actions, logp, rng.standard_normal(n),
                                 rng.standard_normal(n), clip_epsilon=0.2,
                                 value_coef=0.5, entropy_coef=0.01)
    objective.backward()
    digest = hashlib.sha256()
    for p in gen.parameters():
        digest.update(np.ascontiguousarray(p.grad).tobytes())
    assert digest.hexdigest() == PPO_GRADIENT_SHA256[arch, activation]


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


def surrogate_inputs(seed=30):
    """Logits plus old log-probs that put the policy ratios on both sides of
    the clip range [0.8, 1.2] and inside it, with advantages of both signs."""
    rng = np.random.default_rng(seed)
    ratios = np.array([0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.6, 2.0] * 2)
    adv = np.repeat([1.0, -1.0], 8) * rng.uniform(0.5, 2.0, size=16)
    logits = parameter(rng.standard_normal((16, 4)))
    actions = rng.integers(4, size=16)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    old = logp[np.arange(16), actions] - np.log(ratios)
    return logits, actions, old, adv


def test_surrogate_node_matches_finite_differences():
    logits, actions, old, adv = surrogate_inputs()
    check_gradients(lambda: clipped_surrogate(logits, actions, old, adv, 0.2, 0.05)[0], [logits])


def test_surrogate_node_equals_the_generic_op_composition():
    logits, actions, old, adv = surrogate_inputs(31)
    node, surrogate, entropy = clipped_surrogate(logits, actions, old, adv, 0.2, 0.05)
    total, surrogate_ref, entropy_ref = ppo_surrogate_generic(logits, actions, old, adv, 0.2, 0.05)
    assert float(node.data) == pytest.approx(float(total.data), abs=1e-12)
    assert surrogate == pytest.approx(float(surrogate_ref.data), abs=1e-12)
    assert entropy == pytest.approx(float(entropy_ref.data), abs=1e-12)
    node.backward()
    fused = logits.grad
    logits.grad = None
    total.backward()
    assert np.allclose(fused, logits.grad, rtol=0.0, atol=1e-12)


def test_minibatch_loss_graph_is_small(monkeypatch):
    # a PPO + diversity minibatch loss: fused surrogate, mix and diversity
    # nodes, each dense layer one node (105 non-parameter nodes when every op
    # was its own node)
    gen = tiny_gen(16, arch="multiplicative")
    cfg = TrainerConfig(batch_size=40, minibatch_size=40, sgd_iters=1, num_envs=2)
    trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=10)), cfg, seed=9)
    params = {id(p) for p in gen.parameters()}
    counts = []
    backward = Tensor.backward

    def counting_backward(loss):
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        counts.append(len(seen - params))
        return backward(loss)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    trainer.train_iteration()
    assert counts and max(counts) <= 35


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
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=20)) for _ in range(3)])
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
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=10))])
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
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=50)) for _ in range(4)])
    trajectories, _ = collect_rollouts(gen, state, steps=100, rng=np.random.default_rng(4))
    total = sum(len(t) for t in trajectories)
    assert 100 <= total < 100 + len(state.envs)  # one extra lockstep tick at most


def test_vanilla_equals_zero_alpha_bitwise():
    def run(method):
        gen = tiny_gen(12, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=30, sgd_iters=2,
                            num_envs=2, method=method,
                            diversity=DiversityConfig(coef=0.0))
        trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=15)), cfg, seed=5)
        for _ in range(3):
            trainer.train_iteration()
        return gen.get_flat()

    assert np.array_equal(run("adap"), run("vanilla"))


def test_nonzero_alpha_changes_updates():
    def run(alpha):
        gen = tiny_gen(13, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=30, sgd_iters=2,
                            num_envs=2, diversity=DiversityConfig(coef=alpha, num_states=10))
        trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=15)), cfg, seed=6)
        trainer.train_iteration()
        return gen.get_flat()

    assert not np.array_equal(run(0.0), run(0.5))


def test_same_seed_training_is_reproducible():
    def run():
        gen = tiny_gen(14, hidden=8)
        cfg = TrainerConfig(batch_size=60, minibatch_size=60, sgd_iters=2, num_envs=2,
                            diversity=DiversityConfig(coef=0.2, num_states=10))
        trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=15)), cfg, seed=7)
        metrics = [trainer.train_iteration() for _ in range(2)]
        return gen.get_flat(), [m["mean_episode_reward"] for m in metrics]

    (w1, r1), (w2, r2) = run(), run()
    assert np.array_equal(w1, w2)
    assert r1 == r2


def test_numeric_fault_rolls_back_the_iteration(monkeypatch):
    gen = tiny_gen(15, hidden=8)
    cfg = TrainerConfig(batch_size=40, minibatch_size=20, sgd_iters=2, num_envs=2,
                        method="vanilla")
    trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=10)), cfg, seed=8)
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
    trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=10)), cfg, seed=9)
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
    trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=15)), cfg, seed=10)
    assert trainer.discriminator is not None
    m = trainer.train_iteration()
    assert m["discriminator_loss"] > 0.0


def test_diayn_star_pass_is_train_then_predict_then_shape():
    gen = tiny_gen(18)
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=15)) for _ in range(2)])
    trajectories, _ = collect_rollouts(gen, state, steps=60, rng=np.random.default_rng(8))
    disc = Discriminator(2, 3, np.random.default_rng(9), hidden_dim=8, lr=1e-2)
    twin = copy.deepcopy(disc)
    # by hand, on the copy: train on the batch, predict, center the errors
    obs = np.concatenate([t.obs for t in trajectories])
    latents = np.concatenate([np.repeat(t.latent[None], len(t), axis=0) for t in trajectories])
    expected_loss = twin.train_batch(obs, latents, epochs=3)
    errs = centered_intrinsic_errors(((twin.predict(obs) - latents) ** 2).sum(axis=-1), 0.05)
    expected_rewards = np.concatenate([t.rewards for t in trajectories]) + errs

    loss = shape_rewards_with_discriminator(trajectories, disc, 0.05, epochs=3)
    assert loss == expected_loss
    assert np.array_equal(np.concatenate([t.rewards for t in trajectories]), expected_rewards)
    for shaped, by_hand in zip(disc.net.parameters(), twin.net.parameters()):
        assert np.array_equal(shaped.data, by_hand.data)


@pytest.mark.parametrize("resample, draws", [(False, 1), (True, 3)])
def test_diversity_inputs_are_drawn_once_or_at_every_epoch(monkeypatch, resample, draws):
    gen = tiny_gen(19, hidden=8)
    cfg = TrainerConfig(batch_size=40, minibatch_size=20, sgd_iters=3, num_envs=2,
                        resample_diversity_each_epoch=resample,
                        diversity=DiversityConfig(coef=0.2, num_states=10))
    trainer = Trainer(gen, lambda: MultiGoal(MultiGoalConfig(max_episode_timesteps=10)), cfg, seed=11)
    real, calls = Trainer._sample_diversity_inputs, []

    def counted(self, batch):
        calls.append(len(batch))
        return real(self, batch)

    monkeypatch.setattr(Trainer, "_sample_diversity_inputs", counted)
    trainer.train_iteration()
    assert len(calls) == draws


def test_episodes_persist_across_batch_boundaries():
    gen = tiny_gen(20)
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=40, start_jitter=0.0))])
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
    state = RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=12, start_jitter=0.0))])
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


# Two consecutive `collect_rollouts` calls on small states, so the second
# starts from segments the first cut at the batch boundary: each segment's
# length, actions, rewards and terminal flag, the finished returns, and the
# trainer rng's next draw, as a sha256 prefix
ROLLOUT_STATES = {
    "soccer": lambda: RolloutState([MarkovSoccer(SoccerConfig(rows=3, cols=4, max_episode_timesteps=12))
                                    for _ in range(3)]),
    "farmworld": lambda: RolloutState([Farmworld(FarmworldConfig(
        width=4, height=4, num_agents=3, num_chickens=2, num_towers=2,
        agent_start_health=1.0, respawn_time=3, max_episode_timesteps=12)) for _ in range(2)]),
    "multigoal": lambda: RolloutState([MultiGoal(MultiGoalConfig(max_episode_timesteps=14))
                                       for _ in range(3)]),
}
GOLDEN_ROLLOUTS = {"soccer": "62b6862c698791b7", "farmworld": "589348744eb0b76b",
                   "multigoal": "e11b4daab78a0035"}


@pytest.mark.parametrize("name", GOLDEN_ROLLOUTS)
def test_rollout_stream_is_pinned(name):
    state = ROLLOUT_STATES[name]()
    env = state.envs[0]
    gen = PolicyGenerator(env.observation_size, env.num_actions, np.random.default_rng(40),
                          hidden_dim=8)
    rng = np.random.default_rng(41)
    record = []
    for steps in (37, 53):
        segments, finished = collect_rollouts(gen, state, steps, rng)
        record.append(([(len(t), t.actions.tolist(), t.rewards.tolist(), t.terminal)
                        for t in segments], finished))
    assert any(not t[3] for t in record[0][0]), "the first call must cut a segment"
    digest = hashlib.sha256(repr((record, rng.random())).encode()).hexdigest()[:16]
    assert digest == GOLDEN_ROLLOUTS[name]
