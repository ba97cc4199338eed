"""Small dense networks with a graph-building and a plain-numpy forward path.

Both paths run the exact same float64 operations in the same order, so
``forward_np`` (used in rollouts, where no gradients are needed) is
bit-identical to ``forward(...).data``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, constant
from .errors import ConfigError

ACTIVATIONS = ("tanh", "relu", "identity")


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class Layer:
    """One affine layer: y = act(x @ W.T + b), W is (out, in)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        if weight.shape[0] != bias.shape[0]:
            raise ConfigError(f"bias size {bias.shape[0]} != weight rows {weight.shape[0]}")
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)
        self.activation = activation

    @classmethod
    def create(cls, rng: np.random.Generator, in_dim: int, out_dim: int, activation: str) -> "Layer":
        return cls(glorot_uniform(rng, out_dim, in_dim), np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[0]

    def __call__(self, x: Tensor) -> Tensor:
        return self._affine(x)

    def _affine(self, x: Tensor) -> Tensor:
        y = x @ _transpose(self.weight) + self.bias
        if self.activation == "tanh":
            return y.tanh()
        if self.activation == "relu":
            return y.relu()
        return y

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight.data.T + self.bias.data
        if self.activation == "tanh":
            return np.tanh(y)
        if self.activation == "relu":
            return np.maximum(y, 0.0)
        return y

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


def _transpose(t: Tensor) -> Tensor:
    out = Tensor(t.data.T, parents=(t,), op="transpose")

    def backward(g):
        t._accum(g.T)

    out._backward = backward
    return out


class DenseNet:
    """A stack of affine layers with per-layer activations."""

    def __init__(self, layers: list[Layer]):
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ConfigError(f"layer dims mismatch: {a.out_dim} -> {b.in_dim}")
        self.layers = layers

    @classmethod
    def create(cls, rng: np.random.Generator, sizes: list[int], activations: list[str]) -> "DenseNet":
        """Build from layer sizes, e.g. sizes=[4, 32, 32, 6] with 3 activations."""
        if len(activations) != len(sizes) - 1:
            raise ConfigError("need one activation per layer")
        layers = [Layer.create(rng, sizes[i], sizes[i + 1], activations[i])
                  for i in range(len(sizes) - 1)]
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(self, x) -> Tensor:
        """Graph-building forward; `x` is an array or Tensor of shape (n,) or (batch, n)."""
        if not isinstance(x, Tensor):
            x = constant(x)
        if x.data.shape[-1] != self.in_dim:
            raise ConfigError(f"input size {x.data.shape[-1]} != expected {self.in_dim}")
        for layer in self.layers:
            x = layer._affine(x)
        return x

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward, bit-identical to ``forward(x).data``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_dim:
            raise ConfigError(f"input size {x.shape[-1]} != expected {self.in_dim}")
        for layer in self.layers:
            x = layer.forward_np(x)
        return x
