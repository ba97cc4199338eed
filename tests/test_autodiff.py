import numpy as np
import pytest

from policyspace.autodiff import Tensor, affine, constant, parameter, softmax_np
from policyspace.errors import NumericError

import generic_ops as ops
from helpers import check_gradients, finite_diff_grads, relative_error


def test_sum_of_parameters_has_unit_gradient():
    p = parameter(np.arange(6, dtype=float).reshape(2, 3))
    loss = p.sum()
    loss.backward()
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_unreached_parameter_gets_zero_gradient():
    used = parameter(np.array([1.0, 2.0]))
    unused = parameter(np.array([5.0]))
    loss = (used * used).sum()
    loss.backward()
    assert unused.grad is None or np.all(unused.grad == 0.0)
    assert np.allclose(used.grad, 2.0 * used.data)


def test_nonfinite_loss_raises_with_op_name():
    p = parameter(np.array([0.0]))
    loss = ops.log(p).sum()
    with pytest.raises(NumericError, match="sum"):
        loss.backward()


def test_non_scalar_backward_rejected():
    p = parameter(np.ones(3))
    with pytest.raises(NumericError):
        (p * 2.0).backward()


def test_gradient_accumulates_on_reuse():
    x = parameter(np.array([3.0]))
    y = x * x  # dy/dx = 2x via two paths through mul
    y.sum().backward()
    assert np.allclose(x.grad, [6.0])


@pytest.mark.parametrize("seed", range(5))
def test_two_layer_net_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    w1 = parameter(rng.standard_normal((4, 3)) * 0.5)
    b1 = parameter(rng.standard_normal(4) * 0.1)
    w2 = parameter(rng.standard_normal((2, 4)) * 0.5)
    b2 = parameter(rng.standard_normal(2) * 0.1)
    x = rng.standard_normal((5, 3))

    def loss():
        h = affine(constant(x), w1, b1, "tanh")
        out = affine(h, w2, b2, "identity")
        return (out * out).mean()

    check_gradients(loss, [w1, b1, w2, b2])


@pytest.mark.parametrize("op", ["softmax", "log_softmax", "exp", "tanh", "relu"])
def test_elementwise_and_normalizing_ops_match_fd(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    p = parameter(rng.standard_normal((4, 5)))
    weights = constant(rng.standard_normal((4, 5)))
    if op in ("tanh", "relu"):
        # the activations exist only inside the fused layer; p is its input
        w = parameter(rng.standard_normal((5, 5)))
        b = parameter(rng.standard_normal(5))
        params = [p, w, b]
        forward = lambda: affine(p, w, b, op)
    else:
        params = [p]
        forward = p.softmax if op == "softmax" else (lambda: getattr(ops, op)(p))

    check_gradients(lambda: (forward() * weights).sum(), params)


def test_log_and_div_match_fd():
    rng = np.random.default_rng(7)
    p = parameter(rng.random((3, 4)) + 0.5)
    q = parameter(rng.random((3, 4)) + 0.5)
    check_gradients(lambda: (ops.log(p) * q + ops.div(p, q)).sum(), [p, q])


def test_minimum_and_clip_match_fd():
    rng = np.random.default_rng(11)
    a = parameter(rng.standard_normal(12))
    b = parameter(rng.standard_normal(12))
    check_gradients(lambda: ops.minimum(a, b).sum(), [a, b])
    check_gradients(lambda: ops.clip(a, -0.5, 0.5).sum(), [a])


def test_gather_and_take_match_fd():
    rng = np.random.default_rng(13)
    p = parameter(rng.standard_normal((6, 4)))
    idx = np.array([0, 3, 3, 1, 2, 0])
    check_gradients(lambda: ops.gather(p, idx).square().sum(), [p])
    take_idx = np.array([0, 2, 2, 5])
    check_gradients(lambda: ops.take(p, take_idx, axis=0).square().sum(), [p])


def test_broadcast_add_and_mul_match_fd():
    rng = np.random.default_rng(17)
    mat = parameter(rng.standard_normal((5, 3)))
    row = parameter(rng.standard_normal(3))
    col = parameter(rng.standard_normal((5, 1)))
    check_gradients(lambda: ((mat + row) * col).sum(), [mat, row, col])


def test_matmul_vector_cases_match_fd():
    # a 1-D input: the weight gradient takes the outer-product branch
    rng = np.random.default_rng(19)
    m = parameter(rng.standard_normal((3, 4)))
    v = parameter(rng.standard_normal(4))
    b = parameter(rng.standard_normal(3))
    u = parameter(rng.standard_normal(3))
    for activation in ("tanh", "relu", "identity"):
        check_gradients(lambda: (affine(v, m, b, activation) * u).sum(), [m, v, b, u])


def test_affine_on_leading_axes_matches_fd():
    # a (2, 5, 4) input: the leading axes are rows, and the weight gradient sums over both
    rng = np.random.default_rng(29)
    x = parameter(rng.standard_normal((2, 5, 4)))
    w = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal(3))
    u = constant(rng.standard_normal((2, 5, 3)))
    for activation in ("tanh", "relu", "identity"):
        rows = affine(constant(x.data.reshape(10, 4)), w, b, activation).data
        assert np.array_equal(affine(x, w, b, activation).data, rows.reshape(2, 5, 3))
        check_gradients(lambda: (affine(x, w, b, activation) * u).sum(), [x, w, b])


def test_mean_and_reshape_match_fd():
    rng = np.random.default_rng(23)
    p = parameter(rng.standard_normal((2, 3, 4)))
    check_gradients(lambda: p.reshape((6, 4)).mean(axis=0).square().sum(), [p])
    check_gradients(lambda: p.mean().square(), [p])


def test_forward_is_deterministic_and_pure():
    rng = np.random.default_rng(3)
    p = parameter(rng.standard_normal((4, 4)))
    bias = parameter(np.zeros(4))
    x = constant(rng.standard_normal((2, 4)))
    before = p.data.copy()
    a = affine(x, p, bias, "tanh").softmax(axis=-1).data
    b = affine(x, p, bias, "tanh").softmax(axis=-1).data
    assert np.array_equal(a, b)
    assert np.array_equal(p.data, before) and p.grad is None


def test_relative_error_helper_on_known_mismatch():
    assert relative_error([np.array([1.0, 0.0])], [np.array([1.0, 0.0])]) == 0.0
    assert relative_error([np.array([1.1])], [np.array([1.0])]) == pytest.approx(0.1)


def test_finite_diff_oracle_on_quadratic():
    # d/dx of x^2 at x=3 is 6: the oracle itself must be trustworthy
    p = parameter(np.array([3.0]))
    (g,) = finite_diff_grads(lambda: float(p.data[0] ** 2), [p])
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_requires_grad_propagates_from_parents():
    p = parameter(np.ones(3))
    c = constant(np.ones(3))
    assert (p * c).requires_grad and (c + p).requires_grad
    assert not (c * 2.0).requires_grad
    assert not ops.exp(-c).sum().requires_grad


def test_constants_get_no_gradient():
    rng = np.random.default_rng(29)
    x = constant(rng.standard_normal((4, 3)))
    scale = constant(rng.standard_normal((4, 1)))
    w = parameter(rng.standard_normal((2, 3)))
    b = parameter(np.zeros(2))
    hidden = affine(x, w, b, "tanh") * scale
    loss = (hidden - constant(np.ones((4, 2)))).square().mean()
    loss.backward()
    assert x.grad is None and scale.grad is None
    assert w.grad is not None and b.grad is not None
    # inner nodes built only from constants are never visited either
    stack, constants = [loss], []
    while stack:
        node = stack.pop()
        if not node.requires_grad:
            constants.append(node)
        stack.extend(node._parents)
    assert len(constants) >= 4 and all(node.grad is None for node in constants)


def test_leaf_gradients_own_their_buffers():
    # add hands one gradient array to both inputs; clipping scales leaves in
    # place, so each leaf must hold its own copy
    a = parameter(np.array([1.0, 2.0]))
    b = parameter(np.array([3.0, 4.0]))
    (a + b).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad *= 0.5
    assert np.array_equal(b.grad, [1.0, 1.0])


@pytest.mark.parametrize("shape, axis", [((1, 5), -1), ((7, 5), -1), ((3, 4, 6), -1),
                                         ((3, 4, 6), 0), ((3, 1, 5), 1), ((200, 33), -1)])
def test_softmax_np_in_place_equals_the_out_of_place_softmax(shape, axis):
    # softmax_np exponentiates and normalizes in its own buffer; the same
    # operations in the same order, so byte for byte the out-of-place result
    x = 3.0 * np.random.default_rng(len(shape) + axis).standard_normal(shape)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    expected = e / e.sum(axis=axis, keepdims=True)
    got = softmax_np(x, axis)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert not np.shares_memory(got, x)
