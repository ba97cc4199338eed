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
from .envs.base import at_least, check_ranges, check_types, one_of
from .errors import ConfigError


@dataclass
class DiversityConfig:
    num_latents: int = 10          # latents sampled per estimate (m)
    num_states: int = 30           # states sampled from the rollout batch (n)
    smoothing: float = 0.05        # additive broadening constant (b)
    coef: float = 0.2              # weight of the diversity term (alpha)
    mode: str = "exp_neg_kl"       # "exp_neg_kl" (bounded, default) or "raw_kl" (ablation)

    def validate(self):
        check_types(self)
        check_ranges(self, {"num_latents": at_least(2), "num_states": at_least(1),
                            "smoothing": at_least(0.0), "coef": at_least(0.0),
                            "mode": one_of("exp_neg_kl", "raw_kl")})


def smooth_np(probs: np.ndarray, b: float) -> np.ndarray:
    """Broaden each row to (p + b) / (1 + b*A), so no action has zero mass."""
    if b == 0.0:
        return probs
    return (probs + b) * (1.0 / (1.0 + b * probs.shape[-1]))


def diversity_loss(action_probs: Tensor, num_latents: int, num_states: int,
                   smoothing: float, mode: str = "exp_neg_kl") -> Tensor:
    """Estimate the regularizer from a stacked probability tensor, as one node.

    `action_probs` has shape (num_latents, num_states, A), or that flattened to
    (num_latents * num_states, A): row l*num_states + s is the action
    distribution of latent l at state s. Default mode returns the
    mean over all ordered pairs of distinct latents and all states of exp(-KL)
    between the smoothed distributions, a value in (0, 1]. Both directions of
    each pair enter the average (KL is asymmetric), which makes the estimate
    invariant to permuting the latent list. Mode "raw_kl" returns the plain
    mean pairwise KL instead (unbounded above). Every pair is scored at once
    on the (m, m, n) grid; the backward is closed-form.
    """
    if num_latents < 2:
        raise ConfigError("diversity needs at least 2 latents per estimate")
    if mode not in ("exp_neg_kl", "raw_kl"):
        raise ConfigError(f"unknown diversity mode {mode!r}")
    m, n = num_latents, num_states
    q = smooth_np(action_probs.data, smoothing).reshape(m, n, -1)
    logq = np.log(q)
    diff = logq[:, None] - logq[None, :]            # (m, m, n, A): log q_i - log q_j
    kl = np.einsum("isa,ijsa->ijs", q, diff)        # KL(q_i || q_j) at each state
    pairs = ~np.eye(m, dtype=bool)                  # ordered pairs of distinct latents
    terms = np.exp(-kl) if mode == "exp_neg_kl" else kl
    out = Tensor(terms[pairs].mean(), parents=(action_probs,), op="diversity")

    def backward(g):
        # w[i, j, s] = d out / d KL(q_i || q_j)
        w = (-terms if mode == "exp_neg_kl" else np.ones_like(kl)) * pairs[:, :, None]
        w *= g / (m * (m - 1) * n)
        dq = (np.einsum("ijs,ijsa->isa", w, diff) + w.sum(axis=1)[..., None]
              - np.einsum("ijs,isa->jsa", w, q) / q)
        scale = 1.0 / (1.0 + smoothing * q.shape[-1]) if smoothing != 0.0 else 1.0
        action_probs._accum((dq * scale).reshape(action_probs.data.shape))

    out._backward = backward
    return out


def estimate_for_generator(gen, states: np.ndarray, latents: np.ndarray,
                           smoothing: float, mode: str = "exp_neg_kl") -> Tensor:
    """Run the generator on the (latent, state) grid and estimate the loss.

    The forward broadcasts the (m, 1, k) latents against the n states, so each
    state's latent-free features are computed once. Differentiable w.r.t. the
    generator's policy parameters.
    """
    probs = gen.action_probs(states, latents[:, None])      # (m, n, A)
    return diversity_loss(probs, len(latents), len(states), smoothing, mode=mode)
