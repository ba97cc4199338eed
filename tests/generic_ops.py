"""Generic autodiff ops that only the generic-op oracles compose: division,
exp, log, log_softmax, clip, minimum, take and gather, each a graph node of
`policyspace.autodiff` with its closed-form backward. The package's losses
are fused nodes and need none of them; the oracles (`helpers`, criterion 1)
rebuild those losses from these ops, and each op is checked against finite
differences on its own in `test_autodiff`."""

import numpy as np

from policyspace.autodiff import Tensor, _unbroadcast


def div(a: Tensor, b) -> Tensor:
    b = b if isinstance(b, Tensor) else Tensor(b)
    out = Tensor(a.data / b.data, parents=(a, b), op="div")

    def backward(g):
        a._accum(_unbroadcast(g / b.data, a.data.shape))
        b._accum(_unbroadcast(-g * a.data / b.data**2, b.data.shape))

    out._backward = backward
    return out


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    out = Tensor(e, parents=(x,), op="exp")
    out._backward = lambda g: x._accum(g * e)
    return out


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data), parents=(x,), op="log")
    out._backward = lambda g: x._accum(g / x.data)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    logp = shifted - lse
    out = Tensor(logp, parents=(x,), op="log_softmax")

    def backward(g):
        p = np.exp(logp)
        x._accum(g - p * g.sum(axis=axis, keepdims=True))

    out._backward = backward
    return out


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is 1 inside the interval, 0 outside."""
    out = Tensor(np.clip(x.data, lo, hi), parents=(x,), op="clip")
    mask = (x.data >= lo) & (x.data <= hi)
    out._backward = lambda g: x._accum(g * mask)
    return out


def minimum(a: Tensor, b: Tensor) -> Tensor:
    take_a = a.data <= b.data
    out = Tensor(np.where(take_a, a.data, b.data), parents=(a, b), op="minimum")

    def backward(g):
        a._accum(_unbroadcast(g * take_a, a.data.shape))
        b._accum(_unbroadcast(g * ~take_a, b.data.shape))

    out._backward = backward
    return out


def take(x: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows along `axis`; backward scatter-adds into the source."""
    idx = np.asarray(indices)
    out = Tensor(np.take(x.data, idx, axis=axis), parents=(x,), op="take")

    def backward(g):
        full = np.zeros_like(x.data)
        # scatter-add handles repeated indices correctly
        np.add.at(full, (slice(None),) * axis + (idx,), g)
        x._accum(full)

    out._backward = backward
    return out


def gather(x: Tensor, indices) -> Tensor:
    """Pick one column per row of a 2-D tensor: out[i] = x[i, indices[i]]."""
    idx = np.asarray(indices)
    rows = np.arange(x.data.shape[0])
    out = Tensor(x.data[rows, idx], parents=(x,), op="gather")

    def backward(g):
        full = np.zeros_like(x.data)
        np.add.at(full, (rows, idx), g)
        x._accum(full)

    out._backward = backward
    return out
