import numpy as np
import pytest

from policyspace.autodiff import constant, parameter
from policyspace.errors import ConfigError, NumericError
from policyspace.nets import DenseNet, Layer
from policyspace.optim import SGD, Adam, clip_grad_norm

from helpers import check_gradients


def identity_net():
    return DenseNet([Layer(np.eye(2), np.zeros(2), "identity")])


def test_identity_layer_passes_input_through():
    net = identity_net()
    out = net.forward_np(np.array([0.3, -0.7]))
    assert np.array_equal(out, [0.3, -0.7])


def test_zero_input_zero_bias_gives_zero_output_for_odd_activations():
    rng = np.random.default_rng(0)
    for act in ("tanh", "identity"):
        net = DenseNet.create(rng, [3, 4, 2], [act, act])
        for layer in net.layers:
            layer.bias.data[:] = 0.0
        assert np.all(net.forward_np(np.zeros(3)) == 0.0)


def test_single_tanh_layer_hand_evaluation():
    net = DenseNet([Layer(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), "tanh")])
    out = net.forward_np(np.array([0.5, 0.5]))
    assert out == pytest.approx([np.tanh(1.0), 0.0], abs=1e-12)
    assert out[0] == pytest.approx(0.76159, abs=1e-5)


def test_dimension_mismatch_is_config_error():
    net = identity_net()
    with pytest.raises(ConfigError):
        net.forward_np(np.zeros(3))
    with pytest.raises(ConfigError):
        net.forward(np.zeros((4, 5)))
    with pytest.raises(ConfigError):
        DenseNet([Layer(np.eye(2), np.zeros(2), "identity"),
                  Layer(np.eye(3), np.zeros(3), "identity")])


def test_graph_forward_equals_numpy_forward_bitwise():
    rng = np.random.default_rng(5)
    net = DenseNet.create(rng, [4, 8, 8, 3], ["tanh", "relu", "identity"])
    x = rng.standard_normal((7, 4))
    assert np.array_equal(net.forward(x).data, net.forward_np(x))


def test_forward_deterministic():
    rng = np.random.default_rng(9)
    net = DenseNet.create(rng, [3, 5, 2], ["tanh", "identity"])
    x = rng.standard_normal(3)
    assert np.array_equal(net.forward_np(x), net.forward_np(x))


def graph_nodes(root):
    """Every Tensor reachable from `root` through `_parents`, root included."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("activations", [["identity"], ["tanh", "identity"],
                                         ["relu", "tanh", "relu", "identity"]],
                         ids=["1-layer", "2-layer", "4-layer"])
def test_forward_adds_one_graph_node_per_layer(activations):
    rng = np.random.default_rng(len(activations))
    sizes = [4] + [6] * (len(activations) - 1) + [3]
    net = DenseNet.create(rng, sizes, activations)
    x = constant(rng.standard_normal((5, 4)))
    nodes = graph_nodes(net.forward(x))
    built = [node for node in nodes if node._parents]
    assert len(built) == len(net.layers)
    leaves = {id(node) for node in nodes if not node._parents}
    assert leaves == {id(x)} | {id(p) for p in net.parameters()}


@pytest.mark.parametrize("seed", range(3))
def test_net_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed + 100)
    net = DenseNet.create(rng, [3, 6, 4, 2], ["tanh", "relu", "identity"])
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def loss():
        return (net.forward(x) - target).square().mean()

    check_gradients(loss, net.parameters())


# -- optimizer ----------------------------------------------------------------


def test_adam_zero_gradient_leaves_weights_and_bumps_counter():
    p = parameter(np.array([1.0, -2.0]))
    opt = Adam([p], lr=3e-4)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])
    assert opt.t == 1


def test_adam_default_learning_rate():
    opt = Adam([parameter(np.zeros(1))])
    assert opt.lr == 3e-4


def test_adam_first_step_matches_scalar_hand_trace():
    # from zero moments and gradient g: step = -lr * g / (sqrt(g^2) + eps),
    # since bias corrections cancel to m_hat=g, v_hat=g^2
    lr, eps, g = 0.1, 1e-8, 0.5
    p = parameter(np.array([1.0]))
    opt = Adam([p], lr=lr, eps=eps)
    p.grad = np.array([g])
    opt.step()
    expected = 1.0 - lr * g / (np.sqrt(g * g) + eps)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)


def test_adam_moments_persist_across_calls():
    p = parameter(np.array([0.0]))
    opt = Adam([p], lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    first = p.data.copy()
    p.grad = np.array([0.0])
    opt.step()
    # momentum carries the parameter further even with zero gradient
    assert p.data[0] < first[0]
    assert opt.t == 2


def test_adam_rejects_nonfinite_gradient_without_partial_update():
    p1 = parameter(np.array([1.0]))
    p2 = parameter(np.array([2.0]))
    opt = Adam([p1, p2], lr=0.1)
    p1.grad = np.array([1.0])
    p2.grad = np.array([np.nan])
    with pytest.raises(NumericError):
        opt.step()
    assert p1.data[0] == 1.0 and p2.data[0] == 2.0
    assert opt.t == 0


def test_flat_adam_equals_per_tensor_adam_bit_for_bit():
    rng = np.random.default_rng(41)
    shapes = [(3, 4), (4,), (2, 3), (1,)]
    params = [parameter(rng.standard_normal(s)) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for i, g in enumerate(grads):   # the textbook update, one tensor at a time
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat, v_hat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, r in zip(params, ref):
            assert p.data.shape == r.shape and p.data.tobytes() == r.tobytes()
        moments = opt.state_arrays()
        for got, want in zip(moments, m + v):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_adam_names_the_parameter_with_a_nonfinite_gradient():
    params = [parameter(np.zeros(3)), parameter(np.zeros(2)), parameter(np.zeros(4))]
    opt = Adam(params, lr=0.1)
    for p in params:
        p.grad = np.zeros_like(p.data)
    params[2].grad[1] = np.inf
    with pytest.raises(NumericError, match="parameter 2"):
        opt.step()


def test_sgd_plain_update():
    p = parameter(np.array([1.0]))
    opt = SGD([p], lr=0.5)
    p.grad = np.array([2.0])
    opt.step()
    assert p.data[0] == 0.0


def test_clip_grad_norm_scales_to_max():
    a = parameter(np.zeros(2))
    b = parameter(np.zeros(1))
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([4.0])
    total = clip_grad_norm([a, b], max_norm=0.5)
    assert total == pytest.approx(5.0)
    assert np.linalg.norm(np.concatenate([a.grad, b.grad])) == pytest.approx(0.5)


def test_clip_grad_norm_leaves_small_gradients():
    a = parameter(np.zeros(2))
    a.grad = np.array([0.1, 0.2])
    clip_grad_norm([a], max_norm=0.5)
    assert np.array_equal(a.grad, [0.1, 0.2])
