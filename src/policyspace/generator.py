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

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _unbroadcast, activation_grad, affine_np, constant, softmax_np
from .envs.base import at_least, check_ranges, check_types, one_of, to_dict
from .errors import ConfigError
from .nets import ACTIVATIONS, DenseNet, Layer

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


def branch_outputs(x: np.ndarray, branches: list[Layer]) -> list[np.ndarray]:
    """Each branch's output on an array h0: the latent-free half of `mix`."""
    return [affine_np(x, b.weight.data, b.bias.data, b.activation) for b in branches]


def mix(h0, branches: list[Layer], z: np.ndarray, outs: list | None = None):
    """The multiplicative mix h0 + sum_i branch_i(h0) * z_i, given the `outs`
    of an array h0 if known; the leading axes of h0 and z broadcast, so an
    (m, 1, k) z mixes m latents into one (n, d) h0. For a `Tensor` h0 it is one
    graph node whose value is this same loop over arrays, and whose backward
    forms all k branches' gradients with stacked matmuls."""
    x = h0.data if isinstance(h0, Tensor) else h0
    outs = branch_outputs(x, branches) if outs is None else outs
    mixed = x + outs[0] * z[..., 0:1]
    for i in range(1, len(outs)):   # summed into the result in place
        mixed += outs[i] * z[..., i:i + 1]
    if not isinstance(h0, Tensor):
        return mixed
    stacked = np.concatenate([branch.weight.data for branch in branches])   # (k*d, d_in)
    out = Tensor(mixed, parents=(h0, *(p for b in branches for p in b.parameters())), op="mix")

    def backward(g):
        k, d = len(branches), mixed.shape[-1]
        rows = x.reshape(-1, x.shape[-1])
        extra = g.ndim - x.ndim             # leading axes of z that h0 lacks
        if extra and z.shape[extra:-1] == (1,) * (x.ndim - 1):
            # a latent grid, as in the diversity estimate: one matmul sums each
            # branch's output gradient g * z_i over the latents
            zr = z.reshape(-1, k)
            gz = np.moveaxis((zr.T @ g.reshape(len(zr), -1)).reshape((k,) + x.shape[:-1] + (d,)),
                             0, -2)
        else:   # each row's g * z_i, summed over any axis h0 was broadcast along
            gz = _unbroadcast(g[..., None, :] * z[..., :, None], x.shape[:-1] + (k, d))
        gp = activation_grad(gz, np.stack(outs, axis=-2), branches[0].activation)
        gp = gp.reshape(len(rows), k * d)   # row r: every branch's pre-activation gradient
        for branch, gw, gb in zip(branches, (gp.T @ rows).reshape(k, d, -1),
                                  gp.sum(axis=0).reshape(k, d)):
            branch.weight._accum(gw)
            branch.bias._accum(gb)
        grad = gp @ stacked
        grad += _unbroadcast(g, x.shape).reshape(grad.shape)    # the skip connection
        h0._accum(grad.reshape(x.shape))

    out._backward = backward
    return out


def _join(obs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (observation, latent) input rows, over the broadcast leading axes of both."""
    if obs.shape[:-1] != z.shape[:-1]:
        lead = np.broadcast_shapes(obs.shape[:-1], z.shape[:-1])
        obs, z = (np.broadcast_to(a, lead + a.shape[-1:]) for a in (obs, z))
    return np.concatenate([obs, z], axis=-1)


@dataclass
class GeneratorConfig:
    """The generator's shape: what a checkpoint records and `[model]` sets
    (with `[run]` architecture and the simulator's sizes)."""
    obs_size: int
    num_actions: int
    architecture: str = "multiplicative"
    latent_dim: int = 3
    hidden_dim: int = 64
    hidden_layers: int = 2
    policy_activation: str = "tanh"
    value_activation: str = "tanh"

    def validate(self):
        check_types(self)
        check_ranges(self, {
            "obs_size": at_least(1), "num_actions": at_least(1),
            "architecture": one_of(*ARCHITECTURES), "latent_dim": at_least(1),
            "hidden_dim": at_least(1), "hidden_layers": at_least(0),
            "policy_activation": one_of(*ACTIVATIONS), "value_activation": one_of(*ACTIVATIONS)})


class PolicyGenerator:
    """Latent-conditioned policy plus a separate latent-conditioned critic."""

    def __init__(self, obs_size: int, num_actions: int, rng: np.random.Generator, **shape):
        """`shape` sets the other `GeneratorConfig` fields by keyword; each
        field is also an attribute (`gen.latent_dim`)."""
        self.config = GeneratorConfig(obs_size, num_actions, **shape)
        self.config.validate()
        self.__dict__.update(to_dict(self.config))

        d, k = self.hidden_dim, self.latent_dim
        if self.architecture == "concat":
            sizes = [obs_size + k] + [d] * self.hidden_layers + [num_actions]
            acts = [self.policy_activation] * self.hidden_layers + ["identity"]
            self.policy_net = DenseNet.create(rng, sizes, acts)
        else:
            self.shared = Layer.create(rng, obs_size, d, self.policy_activation)
            self.branches = [Layer.create(rng, d, d, self.policy_activation) for _ in range(k)]
            self.head = Layer.create(rng, d, num_actions, "identity")

        value_sizes = [obs_size + k] + [d] * self.hidden_layers + [1]
        value_acts = [self.value_activation] * self.hidden_layers + ["identity"]
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

    def _obs(self, obs) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape[-1] != self.obs_size:
            raise ConfigError(f"observation size {obs.shape[-1]} != expected {self.obs_size}")
        return obs

    def _latent(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.latent_dim:
            raise ConfigError(f"latent size {z.shape[-1]} != expected {self.latent_dim}")
        return z

    def _features(self, obs, wrap) -> tuple:
        """The latent-free part of the policy forward: the observation (`concat`), or
        the shared layer's output and, unless building a graph, the k branch outputs."""
        if self.architecture == "concat":
            return obs, None
        h0 = self.shared(wrap(obs))
        return h0, (None if isinstance(h0, Tensor) else branch_outputs(h0, self.branches))

    def _head(self, features: tuple, z, wrap):
        """The latent part of the policy forward: the latent joins, then the
        logit layers."""
        x, outs = features
        if self.architecture == "concat":
            return self.policy_net(wrap(_join(x, z)))
        return self.head(mix(x, self.branches, z, outs))

    def _logits(self, obs, z, wrap):
        """The one logits body; `wrap` makes graph inputs (`constant`) or arrays."""
        return self._head(self._features(self._obs(obs), wrap), self._latent(z), wrap)

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

    def state_features(self, obs: np.ndarray) -> tuple:
        """The part of `probs_np` that does not depend on the latent; valid
        while the weights do not change."""
        return self._features(self._obs(obs), np.asarray)

    def probs_from_features(self, features: tuple, z: np.ndarray) -> np.ndarray:
        """``probs_np(obs, z)`` bit for bit, given ``state_features(obs)``."""
        return softmax_np(self._head(features, self._latent(z), np.asarray))

    def latent_terms(self, features: tuple) -> tuple | None:
        """The logits as an affine function of the latent, given
        ``state_features(obs)``: a base of shape (n, A) and a list of k parts
        of that shape, with ``logits_np(obs, z)`` equal to
        ``base + z_0 * parts[0] + ... + z_{k-1} * parts[k-1]``. The head is an
        identity layer after `mix`, so head(h0 + sum_i z_i o_i) is head(h0)
        plus sum_i z_i (o_i @ W.T). The two sides round differently, so they
        agree up to the last bits. None for `concat`, whose logits are not
        affine in z."""
        if self.architecture == "concat":
            return None
        h0, outs = features
        return self.head(h0), [out @ self.head.weight.data.T for out in outs]

    # -- value forward ---------------------------------------------------------

    def _value(self, obs, z, wrap):
        obs, z = self._obs(obs), self._latent(z)
        out = self.value_net(wrap(_join(obs, z)))
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
        return to_dict(self.config)

    @classmethod
    def from_description(cls, desc: dict) -> "PolicyGenerator":
        return cls(rng=np.random.default_rng(0), **desc)
