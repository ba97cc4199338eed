"""Reverse-mode automatic differentiation over numpy float64 arrays.

The engine supports a fixed vocabulary of array operations (the fused
dense layer ``affine``, add, elementwise mul, softmax, log, exp, reductions,
gather/take). ``generator.mix``, ``training.clipped_surrogate`` and
``diversity.diversity_loss`` are fused nodes built the way ``affine`` is: a
numpy body computes the value, a closure the closed-form backward. Graphs are
built eagerly; a node requires a gradient when one of its inputs does, and
``Tensor.backward()`` walks only those nodes, once, in reverse topological
order, accumulating exact gradients into every reachable parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum `grad` over axes that were broadcast to reach `grad.shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def softmax_np(x: Array, axis: int = -1) -> Array:
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)                    # in place, here and below: one buffer
    e /= e.sum(axis=axis, keepdims=True)
    return e


def affine_np(x: Array, weight: Array, bias: Array, activation: str) -> Array:
    """One dense layer, act(x @ weight.T + bias), with weight of shape (out, in);
    the leading axes of x broadcast, as rows of one matmul."""
    y = (x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x) @ weight.T
    y += bias                           # in place, here and below: one buffer
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    return y.reshape(x.shape[:-1] + y.shape[-1:]) if x.ndim > 2 else y


def activation_grad(g: Array, y: Array, activation: str) -> Array:
    """`g` times the derivative of `activation`, written in terms of its output `y`."""
    if activation == "tanh":
        d = y * y                       # (1 - y^2) * g in one buffer
        return np.multiply(np.subtract(1.0, d, out=d), g, out=d)
    if activation == "relu":
        return g * (y > 0.0)
    return g


class Tensor:
    """A float64 array plus the bookkeeping needed for one backward pass."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, parents=(), op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = None
        self.op = op

    # -- graph plumbing -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def _accum(self, grad: Array):
        """Add out of place, as inner nodes may share a buffer; a leaf copies,
        so it owns the buffer that `clip_grad_norm` scales in place."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad if self._parents else np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable parameter.

        `self` must hold a finite scalar; gradients of parameters that do
        not reach it are left untouched (exact zero contribution). Nodes
        that need no gradient are never visited; their `grad` stays None.
        """
        if self.data.size != 1:
            raise NumericError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise NumericError(f"non-finite loss from op {self.op!r}: {float(self.data)}")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other), op="add")

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, parents=(self,), op="neg")
        out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other), op="mul")

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data / other.data, parents=(self, other), op="div")

        def backward(g):
            self._accum(_unbroadcast(g / other.data, self.data.shape))
            other._accum(_unbroadcast(-g * self.data / other.data**2, other.data.shape))

        out._backward = backward
        return out

    def square(self):
        out = Tensor(self.data * self.data, parents=(self,), op="square")
        out._backward = lambda g: self._accum(2.0 * self.data * g)
        return out

    # -- nonlinearities ---------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, parents=(self,), op="exp")
        out._backward = lambda g: self._accum(g * e)
        return out

    def log(self):
        out = Tensor(np.log(self.data), parents=(self,), op="log")
        out._backward = lambda g: self._accum(g / self.data)
        return out

    def softmax(self, axis: int = -1):
        p = softmax_np(self.data, axis)
        out = Tensor(p, parents=(self,), op="softmax")

        def backward(g):
            dot = (g * p).sum(axis=axis, keepdims=True)
            self._accum(p * (g - dot))

        out._backward = backward
        return out

    def log_softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        logp = shifted - lse
        out = Tensor(logp, parents=(self,), op="log_softmax")

        def backward(g):
            p = np.exp(logp)
            self._accum(g - p * g.sum(axis=axis, keepdims=True))

        out._backward = backward
        return out

    # -- clipping and pairwise extrema -------------------------------------

    def clip(self, lo: float, hi: float):
        """Clamp to [lo, hi]; gradient is 1 inside the interval, 0 outside."""
        out = Tensor(np.clip(self.data, lo, hi), parents=(self,), op="clip")
        mask = (self.data >= lo) & (self.data <= hi)
        out._backward = lambda g: self._accum(g * mask)
        return out

    def minimum(self, other: "Tensor"):
        take_self = self.data <= other.data
        out = Tensor(np.where(take_self, self.data, other.data),
                     parents=(self, other), op="minimum")

        def backward(g):
            self._accum(_unbroadcast(g * take_self, self.data.shape))
            other._accum(_unbroadcast(g * ~take_self, other.data.shape))

        out._backward = backward
        return out

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), parents=(self,), op="sum")

        def backward(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape))
            else:
                self._accum(np.broadcast_to(np.expand_dims(g, axis), self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape), parents=(self,), op="reshape")
        out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

    def take(self, indices, axis: int = 0):
        """Select rows along `axis`; backward scatter-adds into the source."""
        idx = np.asarray(indices)
        out = Tensor(np.take(self.data, idx, axis=axis), parents=(self,), op="take")

        def backward(g):
            full = np.zeros_like(self.data)
            # scatter-add handles repeated indices correctly
            np.add.at(full, (slice(None),) * axis + (idx,), g)
            self._accum(full)

        out._backward = backward
        return out

    def gather(self, indices):
        """Pick one column per row of a 2-D tensor: out[i] = self[i, indices[i]]."""
        idx = np.asarray(indices)
        rows = np.arange(self.data.shape[0])
        out = Tensor(self.data[rows, idx], parents=(self,), op="gather")

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, (rows, idx), g)
            self._accum(full)

        out._backward = backward
        return out


def constant(x) -> Tensor:
    """Wrap an array as a non-trainable graph input."""
    return Tensor(x, requires_grad=False)


def parameter(x) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(x, requires_grad=True)


def affine(x: Tensor, weight: Tensor, bias: Tensor, activation: str) -> Tensor:
    """One graph node whose value is ``affine_np`` of its inputs' data."""
    xd, w = x.data, weight.data
    y = affine_np(xd, w, bias.data, activation)
    out = Tensor(y, parents=(x, weight, bias), op="affine")

    def backward(g):   # holds the array y, never `out`, so no node refers to itself
        g = activation_grad(g, y, activation)
        if g.ndim > 2:                  # the leading axes as rows, as in the forward
            g = g.reshape(-1, g.shape[-1])
        bias._accum(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            x._accum((g @ w).reshape(xd.shape))
        weight._accum(np.outer(xd, g).T if xd.ndim == 1 else (xd.reshape(len(g), -1).T @ g).T)

    out._backward = backward
    return out
