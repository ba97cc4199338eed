import numpy as np
import pytest

from policyspace.autodiff import constant, parameter
from policyspace.errors import ConfigError
from policyspace.generator import (PolicyGenerator, branch_outputs, mix, sample_latent,
                                  sample_latents)

from helpers import check_gradients, mix_generic


def make_gen(arch, obs_size=5, num_actions=6, hidden_dim=16, seed=0, **kw):
    return PolicyGenerator(obs_size, num_actions, np.random.default_rng(seed),
                           architecture=arch, hidden_dim=hidden_dim, **kw)


def test_latent_is_unit_norm_and_three_dimensional():
    rng = np.random.default_rng(1)
    z = sample_latent(rng)
    assert z.shape == (3,)
    assert abs(np.linalg.norm(z) - 1.0) < 1e-9


def test_latent_sampling_is_symmetric_monte_carlo():
    rng = np.random.default_rng(42)
    zs = sample_latents(rng, 100_000)
    assert np.all(np.abs(np.linalg.norm(zs, axis=1) - 1.0) < 1e-9)
    assert np.all(np.abs(zs.mean(axis=0)) < 0.02)


@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_distribution_is_deterministic_in_weights_obs_latent(arch):
    gen = make_gen(arch)
    rng = np.random.default_rng(3)
    obs = rng.random((1, 5))
    z = sample_latents(rng, 1)
    assert np.array_equal(gen.probs_np(obs, z), gen.probs_np(obs, z))
    assert np.array_equal(gen.probs_np(obs, z), gen.action_probs(obs, z).data)


def test_concat_with_zeroed_latent_weights_ignores_latent():
    gen = make_gen("concat")
    first = gen.policy_net.layers[0]
    first.weight.data[:, gen.obs_size:] = 0.0  # kill the latent inputs
    rng = np.random.default_rng(4)
    obs = rng.random((1, 5))
    z1, z2 = sample_latents(rng, 2)
    assert np.array_equal(gen.probs_np(obs, z1[None]), gen.probs_np(obs, z2[None]))


def test_multiplicative_with_zeroed_branches_ignores_latent():
    gen = make_gen("multiplicative")
    for branch in gen.branches:
        branch.weight.data[:] = 0.0
        branch.bias.data[:] = 0.0
    rng = np.random.default_rng(5)
    obs = rng.random((1, 5))
    z1, z2 = sample_latents(rng, 2)
    assert np.array_equal(gen.probs_np(obs, z1[None]), gen.probs_np(obs, z2[None]))


def test_equal_logits_give_uniform_distribution_over_six_actions():
    gen = make_gen("concat", num_actions=6)
    for layer in gen.policy_net.layers:
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0
    probs = gen.probs_np(np.random.default_rng(0).random((1, 5)), sample_latents(np.random.default_rng(1), 1))
    assert np.allclose(probs, 1.0 / 6.0, atol=1e-12)


def test_concat_distribution_kl_matches_direct_formula():
    gen = make_gen("concat", seed=11)
    rng = np.random.default_rng(12)
    obs = rng.random((1, 5))
    z1, z2 = sample_latents(rng, 2)
    p = gen.probs_np(obs, z1[None])[0]
    q = gen.probs_np(obs, z2[None])[0]
    direct_pq = float(np.sum(p * (np.log(p) - np.log(q))))
    direct_qp = float(np.sum(q * (np.log(q) - np.log(p))))

    from policyspace.autodiff import constant
    from policyspace.diversity import diversity_loss
    via_module = float(diversity_loss(constant(np.stack([p, q])), 2, 1, smoothing=0.0,
                                      mode="raw_kl").data)
    assert via_module == pytest.approx(0.5 * (direct_pq + direct_qp), abs=1e-12)
    assert direct_pq > 0.0 and direct_qp > 0.0


def test_multiplicative_branch_selection_is_structural():
    gen = make_gen("multiplicative", seed=21)
    rng = np.random.default_rng(22)
    obs = rng.random((1, 5))
    e1 = np.array([[1.0, 0.0, 0.0]])
    before = gen.probs_np(obs, e1)
    # branch 2 is inert under z = e1: scrambling it cannot change the output
    gen.branches[1].weight.data[:] = rng.standard_normal(gen.branches[1].weight.data.shape)
    gen.branches[1].bias.data[:] = rng.standard_normal(gen.branches[1].bias.data.shape)
    assert np.array_equal(before, gen.probs_np(obs, e1))
    # but it does change the output for z = e2
    e2 = np.array([[0.0, 1.0, 0.0]])
    changed = gen.probs_np(obs, e2)
    gen.branches[1].weight.data[:] = 0.0
    assert not np.array_equal(changed, gen.probs_np(obs, e2))


def test_multiplicative_hidden_parameter_bound():
    gen = make_gen("multiplicative", obs_size=53, num_actions=6, hidden_dim=64)
    weights, biases = gen.hidden_parameter_count()
    k, d = gen.latent_dim, gen.hidden_dim
    assert weights <= (k + 1) * d * d
    assert biases == (k + 1) * d


def test_multiplicative_output_depends_on_latent():
    gen = make_gen("multiplicative", seed=31)
    rng = np.random.default_rng(32)
    obs = rng.random((1, 5))
    z = sample_latents(rng, 1)
    h = 1e-5
    base = gen.logits_np(obs, z)
    bumped = gen.logits_np(obs, z + np.array([[h, 0.0, 0.0]]))
    fd = (bumped - base) / h
    assert np.any(np.abs(fd) > 1e-3)


@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_value_is_finite_and_latent_conditioned(arch):
    gen = make_gen(arch, seed=41)
    rng = np.random.default_rng(42)
    obs = rng.random((1, 5))
    z1, z2 = sample_latents(rng, 2)
    v1 = gen.value_np(obs, z1[None])[0]
    v2 = gen.value_np(obs, z2[None])[0]
    assert np.isfinite(v1) and np.isfinite(v2)
    assert v1 != v2  # generic fresh weights condition on the latent


@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_policy_and_value_share_no_parameters(arch):
    gen = make_gen(arch)
    policy_ids = {id(p) for p in gen.policy_parameters()}
    value_ids = {id(p) for p in gen.value_parameters()}
    assert not policy_ids & value_ids


def test_dimension_mismatch_raises_config_error():
    gen = make_gen("concat")
    with pytest.raises(ConfigError):
        gen.probs_np(np.zeros((1, 7)), np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        gen.probs_np(np.zeros((1, 5)), np.zeros((1, 4)))
    with pytest.raises(ConfigError):
        make_gen("scrambled")


def test_flat_roundtrip_restores_behavior():
    gen = make_gen("multiplicative", seed=51)
    clone = PolicyGenerator.from_description(gen.describe())
    clone.set_flat(gen.get_flat())
    rng = np.random.default_rng(52)
    obs = rng.random((3, 5))
    z = sample_latents(rng, 3)
    assert np.array_equal(gen.probs_np(obs, z), clone.probs_np(obs, z))
    assert np.array_equal(gen.value_np(obs, z), clone.value_np(obs, z))


def mix_inputs(activation, rows):
    gen = make_gen("multiplicative", hidden_dim=4, seed=23, policy_activation=activation)
    rng = np.random.default_rng(24)
    shape = (rows, 4) if rows else (4,)
    h0 = parameter(rng.standard_normal(shape))
    z = sample_latents(rng, rows) if rows else sample_latent(rng)
    weights = constant(rng.standard_normal(shape))
    return gen, h0, z, weights


@pytest.mark.parametrize("rows", [0, 6])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mix_node_matches_finite_differences(activation, rows):
    gen, h0, z, weights = mix_inputs(activation, rows)
    params = [h0] + [p for branch in gen.branches for p in branch.parameters()]
    check_gradients(lambda: (mix(h0, gen.branches, z) * weights).sum(), params)


@pytest.mark.parametrize("latent_rows", [1, 5])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_broadcast_mix_node_matches_finite_differences(activation, latent_rows):
    # (m, 1, k) latents mix into (n, d) features once per latent: a latent grid;
    # (m, n, k) latents give every (latent, row) pair its own latent
    gen, _, _, _ = mix_inputs(activation, 0)
    rng = np.random.default_rng(25)
    h0 = parameter(rng.standard_normal((5, 4)))
    z = sample_latents(rng, 3 * latent_rows).reshape(3, latent_rows, -1)
    weights = constant(rng.standard_normal((3, 5, 4)))
    tiled = mix(np.broadcast_to(h0.data, (3, 5, 4)), gen.branches, z)
    assert np.array_equal(mix(h0, gen.branches, z).data, tiled)
    params = [h0] + [p for branch in gen.branches for p in branch.parameters()]
    check_gradients(lambda: (mix(h0, gen.branches, z) * weights).sum(), params)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mix_node_equals_the_branch_loop(activation):
    gen, h0, z, weights = mix_inputs(activation, 6)
    params = [h0] + [p for branch in gen.branches for p in branch.parameters()]
    fused = mix(h0, gen.branches, z)
    generic = mix_generic(h0, gen.branches, z)
    assert np.array_equal(fused.data, generic.data)
    assert np.array_equal(fused.data, mix(h0.data, gen.branches, z))
    grads = []
    for out in (fused, generic):
        for p in params:
            p.grad = None
        (out * weights).sum().backward()
        grads.append([p.grad for p in params])
    for a, b in zip(*grads):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("h0_shape, z_shape", [((6, 4), (6, 3)), ((1, 4), (1, 3)),
                                               ((2, 5, 4), (2, 5, 3)), ((5, 4), (7, 1, 3))],
                         ids=["rows", "one row", "3-D", "latent grid"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_array_mix_in_place_equals_the_out_of_place_sum(activation, h0_shape, z_shape):
    # the array mix sums the scaled branches into one buffer; the same
    # additions in the same order, so byte for byte the out-of-place sum
    gen, _, _, _ = mix_inputs(activation, 0)
    rng = np.random.default_rng(27)
    h0 = rng.standard_normal(h0_shape)
    z = sample_latents(rng, int(np.prod(z_shape[:-1]))).reshape(z_shape)
    expected = h0
    for i, out in enumerate(branch_outputs(h0, gen.branches)):
        expected = expected + out * z[..., i:i + 1]
    got = mix(h0, gen.branches, z)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert not np.shares_memory(got, h0)
