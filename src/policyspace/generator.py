"""The policy generator: a single parameter set mapping (observation, latent)
to an action distribution, so each latent selects one policy out of a family.

Latents live on the unit sphere (3-D by default) and are sampled once per
agent episode. Two latent integrations are provided:

* ``concat``: the latent is appended to the observation of a plain MLP.
* ``multiplicative``: a shared tanh layer feeds k parallel tanh branches;
  branch i is scaled by latent coordinate z_i, the scaled branches are
  summed, and a skip connection adds the shared representation back in
  before the logit head. Hidden parameter count stays within (k+1)*d^2
  plus biases.

Either model can learn to ignore the latent (zero the latent pathways),
recovering a standard single-policy architecture. The value network is
always a separate MLP on the concatenated (observation, latent) input;
sharing parameters with the policy tends to collapse the family because
the critic must see which latent it is scoring.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, constant, softmax_np
from .errors import ConfigError
from .nets import DenseNet, Layer

ARCHITECTURES = ("concat", "multiplicative")


def sample_latent(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Uniform point on the unit sphere in `dim` dimensions."""
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def sample_latents(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    return np.stack([sample_latent(rng, dim) for _ in range(count)])


class PolicyGenerator:
    """Latent-conditioned policy plus a separate latent-conditioned critic."""

    def __init__(self, obs_size: int, num_actions: int, rng: np.random.Generator,
                 architecture: str = "multiplicative", latent_dim: int = 3,
                 hidden_dim: int = 64, hidden_layers: int = 2,
                 policy_activation: str = "tanh", value_activation: str = "tanh"):
        if architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {architecture!r}")
        if min(obs_size, num_actions, latent_dim, hidden_dim) < 1 or hidden_layers < 0:
            raise ConfigError("generator sizes must be positive (hidden_layers >= 0)")
        self.obs_size = obs_size
        self.num_actions = num_actions
        self.architecture = architecture
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.hidden_layers = hidden_layers
        self.policy_activation = policy_activation
        self.value_activation = value_activation

        d, k = hidden_dim, latent_dim
        if architecture == "concat":
            sizes = [obs_size + k] + [d] * hidden_layers + [num_actions]
            acts = [policy_activation] * hidden_layers + ["identity"]
            self.policy_net = DenseNet.create(rng, sizes, acts)
            self.shared = None
            self.branches = None
            self.head = None
        else:
            self.policy_net = None
            self.shared = Layer.create(rng, obs_size, d, policy_activation)
            self.branches = [Layer.create(rng, d, d, policy_activation) for _ in range(k)]
            self.head = Layer.create(rng, d, num_actions, "identity")

        value_sizes = [obs_size + k] + [d] * hidden_layers + [1]
        value_acts = [value_activation] * hidden_layers + ["identity"]
        self.value_net = DenseNet.create(rng, value_sizes, value_acts)

    # -- parameter access --------------------------------------------------

    def _policy_layers(self) -> list[Layer]:
        if self.architecture == "concat":
            return self.policy_net.layers
        return [self.shared, *self.branches, self.head]

    def policy_parameters(self) -> list[Tensor]:
        return [p for layer in self._policy_layers() for p in layer.parameters()]

    def value_parameters(self) -> list[Tensor]:
        return self.value_net.parameters()

    def parameters(self) -> list[Tensor]:
        return self.policy_parameters() + self.value_parameters()

    @property
    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def hidden_parameter_count(self) -> tuple[int, int]:
        """(weight count, bias count) of hidden layers, logit head excluded."""
        hidden = self._policy_layers()[:-1]
        weights = sum(l.weight.data.size for l in hidden)
        biases = sum(l.bias.data.size for l in hidden)
        return weights, biases

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def set_flat(self, vec: np.ndarray):
        i = 0
        for p in self.parameters():
            n = p.data.size
            p.data = vec[i:i + n].reshape(p.data.shape).astype(np.float64).copy()
            i += n
        if i != vec.size:
            raise ConfigError(f"flat vector has {vec.size} values, generator needs {i}")

    # -- policy forward ------------------------------------------------------

    def _inputs(self, obs, z) -> tuple[np.ndarray, np.ndarray]:
        obs = np.asarray(obs, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        if obs.shape[-1] != self.obs_size:
            raise ConfigError(f"observation size {obs.shape[-1]} != expected {self.obs_size}")
        if z.shape[-1] != self.latent_dim:
            raise ConfigError(f"latent size {z.shape[-1]} != expected {self.latent_dim}")
        return obs, z

    def _logits(self, obs, z, wrap):
        """The one logits body; `wrap` makes graph inputs (`constant`) or arrays."""
        obs, z = self._inputs(obs, z)
        if self.architecture == "concat":
            return self.policy_net(wrap(np.concatenate([obs, z], axis=-1)))
        h0 = self.shared(wrap(obs))
        mixed = h0
        for i, branch in enumerate(self.branches):
            mixed = mixed + branch(h0) * z[..., i:i + 1]
        return self.head(mixed)

    def logits(self, obs: np.ndarray, z: np.ndarray) -> Tensor:
        """Graph-building logits for batched (obs, z) rows."""
        return self._logits(obs, z, constant)

    def logits_np(self, obs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Gradient-free logits, bit-identical to ``logits(...).data``."""
        return self._logits(obs, z, np.asarray)

    def action_probs(self, obs: np.ndarray, z: np.ndarray) -> Tensor:
        return self.logits(obs, z).softmax(axis=-1)

    def probs_np(self, obs: np.ndarray, z: np.ndarray) -> np.ndarray:
        return softmax_np(self.logits_np(obs, z))

    # -- value forward ---------------------------------------------------------

    def _value(self, obs, z, wrap):
        obs, z = self._inputs(obs, z)
        out = self.value_net(wrap(np.concatenate([obs, z], axis=-1)))
        return out.reshape(out.shape[:-1])

    def value(self, obs: np.ndarray, z: np.ndarray) -> Tensor:
        """State value conditioned on the latent; shape (batch,) or scalar."""
        return self._value(obs, z, constant)

    def value_np(self, obs: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self._value(obs, z, np.asarray)

    # -- rollout helper ----------------------------------------------------------

    def act(self, obs: np.ndarray, z: np.ndarray, rng: np.random.Generator):
        """Sample actions for a batch of rows; returns (actions, log_probs, values)."""
        probs = self.probs_np(obs, z)
        cdf = np.cumsum(probs, axis=-1)
        u = rng.random(probs.shape[:-1] + (1,)) * cdf[..., -1:]
        actions = (cdf < u).sum(axis=-1)
        rows = np.arange(probs.shape[0])
        log_probs = np.log(probs[rows, actions])
        values = self.value_np(obs, z)
        return actions, log_probs, values

    # -- serialization ------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "obs_size": self.obs_size,
            "num_actions": self.num_actions,
            "architecture": self.architecture,
            "latent_dim": self.latent_dim,
            "hidden_dim": self.hidden_dim,
            "hidden_layers": self.hidden_layers,
            "policy_activation": self.policy_activation,
            "value_activation": self.value_activation,
        }

    @classmethod
    def from_description(cls, desc: dict) -> "PolicyGenerator":
        return cls(rng=np.random.default_rng(0), **desc)
