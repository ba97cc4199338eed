"""Optimizers: Adam (default) and plain SGD, plus global-norm gradient clipping.

A step first validates every gradient; a non-finite gradient rejects the
whole step before any parameter is touched. A step that would produce a
non-finite parameter is likewise an error.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NumericError


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    total = np.sqrt(total)
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return float(total)


class Adam:
    """Standard first/second-moment update; moments persist across steps. They
    live in one flat vector each, so a step is one elementwise update over all
    coordinates, bit-identical to stepping each tensor alone."""

    def __init__(self, params: list[Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._slices = [slice(a, b) for a, b in zip([0] + ends, ends)]   # one per parameter
        self.m = np.zeros(ends[-1] if ends else 0)
        self.v = np.zeros_like(self.m)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def _first_nonfinite(self, flat: np.ndarray) -> int:
        """The first parameter whose coordinates in `flat` are not all finite."""
        return next(i for i, s in enumerate(self._slices) if not np.isfinite(flat[s]).all())

    def step(self):
        g = np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                            for p in self.params])
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {self._first_nonfinite(g)}; "
                               f"step rejected")

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / bc1
        v_hat = self.v / bc2
        flat = np.concatenate([p.data.ravel() for p in self.params])
        flat = flat - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if not np.isfinite(flat).all():
            raise NumericError(f"non-finite parameter {self._first_nonfinite(flat)} after update")
        for p, s in zip(self.params, self._slices):
            p.data = flat[s].reshape(p.data.shape)

    # -- checkpoint support ------------------------------------------------

    def state_arrays(self) -> list[np.ndarray]:
        """One first-moment array per parameter, then one second-moment array each."""
        return [moment[s].reshape(p.data.shape)
                for moment in (self.m, self.v) for p, s in zip(self.params, self._slices)]

    def load_state(self, arrays: list[np.ndarray], t: int):
        n = len(self.params)
        if len(arrays) != 2 * n:
            raise NumericError(f"expected {2 * n} moment arrays, got {len(arrays)}")
        self.m, self.v = (np.concatenate([a.reshape(p.data.shape).astype(np.float64).ravel()
                                          for a, p in zip(part, self.params)])
                          for part in (arrays[:n], arrays[n:]))
        self.t = t


class SGD:
    """Plain gradient descent, available behind config for comparisons."""

    def __init__(self, params: list[Tensor], lr: float = 3e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient in parameter {i}; step rejected")
            p.data = p.data - self.lr * p.grad
            if not np.isfinite(p.data).all():
                raise NumericError(f"non-finite parameter {i} after update")
        self.t += 1

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def load_state(self, arrays: list[np.ndarray], t: int):
        self.t = t
