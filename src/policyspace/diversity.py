"""Behavioral diversity regularizer over a latent-conditioned policy family.

Two policies are considered distinct when their action distributions
differ at shared states. The regularizer is the mean, over sampled
latent pairs and states, of exp(-KL) between the smoothed action
distributions; it lives in (0, 1] and the trainer minimizes it. Smoothing
keeps the KL bounded when probability mass on some action approaches 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


@dataclass
class DiversityConfig:
    num_latents: int = 10          # latents sampled per estimate (m)
    num_states: int = 30           # states sampled from the rollout batch (n)
    smoothing: float = 0.05        # additive broadening constant (b)
    coef: float = 0.2              # weight of the diversity term (alpha)
    mode: str = "exp_neg_kl"       # "exp_neg_kl" (bounded, default) or "raw_kl" (ablation)

    def validate(self):
        if self.num_latents < 2:
            raise ConfigError("diversity needs at least 2 latents per estimate")
        if self.num_states < 1:
            raise ConfigError("diversity needs at least 1 state per estimate")
        if self.smoothing < 0.0:
            raise ConfigError("smoothing constant must be >= 0")
        if self.coef < 0.0:
            raise ConfigError("diversity coefficient must be >= 0")
        if self.mode not in ("exp_neg_kl", "raw_kl"):
            raise ConfigError(f"unknown diversity mode {self.mode!r}")


def _smooth_probs(probs: Tensor, b: float) -> Tensor:
    """Broaden each row to (p + b) / (1 + b*A), so no action has zero mass."""
    if b == 0.0:
        return probs
    num_actions = probs.data.shape[-1]
    return (probs + b) * (1.0 / (1.0 + b * num_actions))


def pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with i < j, each unordered pair counted once."""
    i, j = np.triu_indices(m, k=1)
    return i, j


def diversity_loss(action_probs: Tensor, num_latents: int, num_states: int,
                   smoothing: float, mode: str = "exp_neg_kl") -> Tensor:
    """Estimate the regularizer from a stacked probability tensor.

    `action_probs` has shape (num_latents * num_states, A): row l*num_states + s
    is the action distribution of latent l at state s. Default mode returns the
    mean over all ordered pairs of distinct latents and all states of exp(-KL)
    between the smoothed distributions, a value in (0, 1]. Both directions of
    each pair enter the average (KL is asymmetric), which makes the estimate
    invariant to permuting the latent list. Mode "raw_kl" returns the plain
    mean pairwise KL instead (unbounded above).
    """
    if num_latents < 2:
        raise ConfigError("diversity needs at least 2 latents per estimate")
    probs = _smooth_probs(action_probs, smoothing)
    num_actions = probs.data.shape[-1]
    grid = probs.reshape((num_latents, num_states, num_actions))
    left, right = pair_indices(num_latents)
    p = grid.take(left, axis=0)
    q = grid.take(right, axis=0)
    logp, logq = p.log(), q.log()
    kl_fwd = (p * (logp - logq)).sum(axis=-1)   # (pairs, num_states)
    kl_bwd = (q * (logq - logp)).sum(axis=-1)
    if mode == "raw_kl":
        return (kl_fwd.mean() + kl_bwd.mean()) * 0.5
    if mode != "exp_neg_kl":
        raise ConfigError(f"unknown diversity mode {mode!r}")
    return ((-kl_fwd).exp().mean() + (-kl_bwd).exp().mean()) * 0.5


def estimate_for_generator(gen, states: np.ndarray, latents: np.ndarray,
                           smoothing: float, mode: str = "exp_neg_kl") -> Tensor:
    """Run the generator on every (latent, state) pair and estimate the loss.

    Differentiable w.r.t. the generator's policy parameters.
    """
    m = latents.shape[0]
    n = states.shape[0]
    if m < 2:
        raise ConfigError("diversity needs at least 2 latents per estimate")
    obs_rep = np.repeat(states[None, :, :], m, axis=0).reshape(m * n, -1)
    z_rep = np.repeat(latents, n, axis=0)
    probs = gen.action_probs(obs_rep, z_rep)
    return diversity_loss(probs, m, n, smoothing, mode=mode)
