import numpy as np
import pytest

from policyspace.autodiff import constant, parameter
from policyspace.diversity import (DiversityConfig, diversity_loss, estimate_for_generator,
                                   smooth_np)
from policyspace.errors import ConfigError
from policyspace.generator import PolicyGenerator, sample_latents

from helpers import check_gradients, diversity_loss_generic, diversity_oracle


def test_smooth_with_zero_is_identity():
    assert np.array_equal(smooth_np(np.array([0.2, 0.8]), 0.0), [0.2, 0.8])


def test_smooth_categorical_direct_formula():
    out = smooth_np(np.array([1.0, 0.0]), 0.05)
    assert out == pytest.approx([1.05 / 1.1, 0.05 / 1.1], abs=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_smooth_keeps_distribution_valid():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.random(5)
        p /= p.sum()
        out = smooth_np(p, rng.random() * 2)
        assert np.all(out > 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_kl_of_identical_distributions_is_zero():
    stacked = constant(np.array([[0.3, 0.7], [0.3, 0.7]]))
    assert float(diversity_loss(stacked, 2, 1, smoothing=0.0, mode="raw_kl").data) == 0.0


def test_kl_categorical_direct_value():
    p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    kl_pq = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    kl_qp = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
    assert kl_pq == pytest.approx(0.14384, abs=1e-5)
    raw = float(diversity_loss(constant(np.stack([p, q])), 2, 1, smoothing=0.0,
                               mode="raw_kl").data)
    assert raw == pytest.approx(0.5 * (kl_pq + kl_qp), abs=1e-12)
    assert diversity_oracle([[p], [q]], 0.0, mode="raw_kl") == pytest.approx(raw, abs=1e-12)


def test_config_validation():
    DiversityConfig().validate()
    with pytest.raises(ConfigError):
        DiversityConfig(num_latents=1).validate()
    with pytest.raises(ConfigError):
        DiversityConfig(smoothing=-0.1).validate()
    with pytest.raises(ConfigError):
        DiversityConfig(mode="nonsense").validate()


def probs_grid(gen, states, latents):
    """Each (latent, state) pair's action distribution, one forward at a time."""
    return [[gen.probs_np(states[s:s + 1], latents[i:i + 1])[0]
             for s in range(states.shape[0])] for i in range(latents.shape[0])]


def small_generator(seed=0, architecture="concat", activation="tanh"):
    return PolicyGenerator(4, 3, np.random.default_rng(seed), architecture=architecture,
                           hidden_dim=6, policy_activation=activation)


GENERATORS = [(arch, activation) for arch in ("concat", "multiplicative")
              for activation in ("tanh", "relu")]


@pytest.mark.parametrize("arch, activation", GENERATORS)
def test_estimator_matches_brute_force_enumeration(arch, activation):
    gen = small_generator(7, arch, activation)
    rng = np.random.default_rng(8)
    states = rng.random((2, 4))
    latents = sample_latents(rng, 3)
    est = float(estimate_for_generator(gen, states, latents, smoothing=0.05).data)
    oracle = diversity_oracle(probs_grid(gen, states, latents), 0.05)
    assert est == pytest.approx(oracle, abs=1e-12)


def test_identical_latents_give_maximum_one():
    gen = small_generator(9)
    rng = np.random.default_rng(10)
    states = rng.random((3, 4))
    z = sample_latents(rng, 1)
    latents = np.repeat(z, 4, axis=0)
    est = float(estimate_for_generator(gen, states, latents, smoothing=0.05).data)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_estimate_approaches_zero_for_distant_distributions():
    # two nearly-deterministic opposite categoricals: exp(-KL) ~ 0
    probs = np.array([[1e-9, 1.0 - 1e-9], [1.0 - 1e-9, 1e-9]])
    val = float(diversity_loss(constant(probs), num_latents=2, num_states=1,
                               smoothing=0.0).data)
    assert 0.0 < val < 1e-6


@pytest.mark.parametrize("arch, activation", GENERATORS)
def test_estimator_range_and_pair_count(arch, activation):
    gen = small_generator(11, arch, activation)
    rng = np.random.default_rng(12)
    for m, n in ((2, 4), (2, 1), (3, 4), (5, 1)):
        latents = sample_latents(rng, m)
        states = rng.random((n, 4))
        est = float(estimate_for_generator(gen, states, latents, smoothing=0.05).data)
        assert 0.0 < est <= 1.0
        # the oracle averages over all m * (m - 1) ordered pairs
        oracle = diversity_oracle(probs_grid(gen, states, latents), 0.05)
        assert est == pytest.approx(oracle, abs=1e-12)


def test_estimator_symmetric_under_permutations():
    gen = small_generator(13)
    rng = np.random.default_rng(14)
    states = rng.random((4, 4))
    latents = sample_latents(rng, 4)
    base = float(estimate_for_generator(gen, states, latents, smoothing=0.05).data)
    perm_latents = float(estimate_for_generator(gen, states, latents[::-1].copy(), 0.05).data)
    perm_states = float(estimate_for_generator(gen, states[::-1].copy(), latents, 0.05).data)
    assert base == pytest.approx(perm_latents, abs=1e-12)
    assert base == pytest.approx(perm_states, abs=1e-12)


def test_exp_neg_kl_increases_as_distributions_converge():
    p = np.array([0.9, 0.1])
    q = np.array([0.1, 0.9])
    values = []
    for t in np.linspace(0.0, 1.0, 5):
        mid = (1 - t) * q + t * p
        stacked = constant(np.stack([p, mid]))
        values.append(float(diversity_loss(stacked, 2, 1, smoothing=0.0).data))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_requires_at_least_two_latents():
    gen = small_generator(15)
    rng = np.random.default_rng(16)
    with pytest.raises(ConfigError):
        estimate_for_generator(gen, rng.random((2, 4)), sample_latents(rng, 1), 0.05)


@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_estimator_gradient_matches_finite_differences(arch):
    gen = PolicyGenerator(4, 3, np.random.default_rng(17), architecture=arch, hidden_dim=5)
    rng = np.random.default_rng(18)
    states = rng.random((2, 4))
    latents = sample_latents(rng, 3)

    def loss():
        return estimate_for_generator(gen, states, latents, smoothing=0.05)

    check_gradients(loss, gen.policy_parameters())


@pytest.mark.parametrize("arch, activation", GENERATORS)
def test_raw_kl_mode_matches_mean_pairwise_kl(arch, activation):
    gen = small_generator(19, arch, activation)
    rng = np.random.default_rng(20)
    states = rng.random((2, 4))
    latents = sample_latents(rng, 3)
    raw = float(estimate_for_generator(gen, states, latents, 0.05, mode="raw_kl").data)
    oracle = diversity_oracle(probs_grid(gen, states, latents), 0.05, mode="raw_kl")
    assert raw == pytest.approx(oracle, abs=1e-12)


def estimate_by_tiling(gen, states, latents, smoothing, mode="exp_neg_kl"):
    """The estimate with each (latent, state) pair tiled into its own input row,
    row l*n + s for latent l at state s: the grid written out by np.repeat."""
    m, n = len(latents), len(states)
    obs = np.repeat(states[None, :, :], m, axis=0).reshape(m * n, -1)
    z = np.repeat(latents, n, axis=0)
    return diversity_loss(gen.action_probs(obs, z), m, n, smoothing, mode=mode)


@pytest.mark.parametrize("mode", ["exp_neg_kl", "raw_kl"])
@pytest.mark.parametrize("m, n", [(2, 1), (2, 5), (4, 1), (4, 5)])
@pytest.mark.parametrize("arch, activation", GENERATORS)
def test_grid_estimate_equals_the_tiled_rows(arch, activation, m, n, mode):
    gen = small_generator(23, arch, activation)
    rng = np.random.default_rng(24)
    states, latents = rng.random((n, 4)), sample_latents(rng, m)
    results = []
    for estimate in (estimate_for_generator, estimate_by_tiling):
        for p in gen.policy_parameters():
            p.grad = None
        out = estimate(gen, states, latents, 0.05, mode=mode)
        out.backward()
        results.append([out.data] + [p.grad for p in gen.policy_parameters()])
    for grid, tiled in zip(*results):
        if arch == "concat":        # the same input rows reach the same matmuls
            assert np.array_equal(grid, tiled)
        else:                       # latent-free gradients sum over latents first
            assert np.allclose(grid, tiled, rtol=0.0, atol=1e-12)


def random_probs(seed, m=4, n=3, actions=5):
    rng = np.random.default_rng(seed)
    p = rng.random((m * n, actions)) + 0.05
    return p / p.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("mode", ["exp_neg_kl", "raw_kl"])
@pytest.mark.parametrize("smoothing", [0.0, 0.05])
def test_diversity_node_matches_finite_differences(mode, smoothing):
    probs = parameter(random_probs(21))
    check_gradients(lambda: diversity_loss(probs, 4, 3, smoothing, mode=mode), [probs])


@pytest.mark.parametrize("mode", ["exp_neg_kl", "raw_kl"])
@pytest.mark.parametrize("smoothing", [0.0, 0.05])
def test_diversity_node_equals_the_take_pair_composition(mode, smoothing):
    probs = parameter(random_probs(22))
    fused = diversity_loss(probs, 4, 3, smoothing, mode=mode)
    generic = diversity_loss_generic(probs, 4, 3, smoothing, mode=mode)
    assert float(fused.data) == pytest.approx(float(generic.data), abs=1e-12)
    fused.backward()
    grad = probs.grad
    probs.grad = None
    generic.backward()
    assert np.allclose(grad, probs.grad, rtol=0.0, atol=1e-12)
