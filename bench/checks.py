"""Output checks for the benchmark's workloads.

Each check compares a workload's output with an independent computation or
a property the output must have; none compares with a stored copy of an
earlier output. A check raises `CheckFailed` with the reason.
"""

from __future__ import annotations

import math

import numpy as np

from policyspace.training import ppo_objective
from policyspace.diversity import estimate_for_generator


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# -- training -----------------------------------------------------------------


def forward_paths_identical(gen, obs: np.ndarray, latents: np.ndarray):
    """`logits_np` must be bit-identical to the graph forward `logits(...).data`."""
    plain = gen.logits_np(obs, latents)
    graph = gen.logits(obs, latents).data
    require(plain.shape == graph.shape and plain.tobytes() == graph.tobytes(),
            f"logits_np differs from logits(...).data on {len(obs)} batch rows "
            f"(max |diff| {np.max(np.abs(plain - graph)):.3e})")


def banked_steps(banked: int, batch_size: int, max_alive: int):
    """An iteration banks at least `batch_size` agent steps, and stops within
    one lockstep tick of it (fewer than `max_alive` steps past the budget)."""
    require(batch_size <= banked < batch_size + max_alive,
            f"iteration banked {banked} agent steps, expected "
            f"[{batch_size}, {batch_size + max_alive})")


def ppo_ranges(entropy: float, l_div: float, num_actions: int):
    """Mean policy entropy lies in (0, log A]; the exp(-KL) estimate in (0, 1]."""
    require(0.0 < entropy <= math.log(num_actions),
            f"entropy {entropy!r} outside (0, log {num_actions}]")
    require(0.0 < l_div <= 1.0, f"l_div {l_div!r} outside (0, 1]")


def training_loss(gen, rows: dict, cfg, div_states: np.ndarray, div_latents: np.ndarray):
    """The minibatch loss the trainer minimizes: -(PPO objective) + alpha * diversity."""
    objective, _ = ppo_objective(gen, rows["obs"], rows["latents"], rows["actions"],
                                 rows["log_probs_old"], rows["advantages"],
                                 rows["value_targets"], cfg.clip_epsilon,
                                 cfg.value_coef, cfg.entropy_coef)
    div = estimate_for_generator(gen, div_states, div_latents, cfg.diversity.smoothing,
                                 mode=cfg.diversity.mode)
    return -objective + cfg.alpha * div


def smooth_rows(gen, rows: dict, clip_epsilon: float, margin: float = 1e-4) -> dict:
    """Drop rows whose policy ratio sits within `margin` of a clip edge, where
    the clipped surrogate has a kink and finite differences do not apply."""
    logits = gen.logits_np(rows["obs"], rows["latents"])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    taken = logp[np.arange(len(logp)), rows["actions"]]
    ratio = np.exp(taken - rows["log_probs_old"])
    edge = np.minimum(np.abs(ratio - (1.0 - clip_epsilon)), np.abs(ratio - (1.0 + clip_epsilon)))
    keep = edge > margin
    return {key: value[keep] for key, value in rows.items()}


def gradients_match(loss_fn, gen, coords: np.ndarray, h: float = 1e-5, tol: float = 1e-4):
    """Backward gradients agree with central finite differences at `coords`
    of the flat parameter vector. `loss_fn()` rebuilds the loss each call."""
    params = gen.parameters()
    flat = gen.get_flat()
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = np.concatenate([(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
                               for p in params])[coords]

    def loss_at(i, delta):
        moved = flat.copy()
        moved[i] += delta
        gen.set_flat(moved)
        return float(loss_fn().data)

    try:
        numeric = np.array([(loss_at(i, h) - loss_at(i, -h)) / (2.0 * h) for i in coords])
    finally:
        gen.set_flat(flat)
    err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-6)
    require(err < tol, f"gradient mismatch at coordinates {coords.tolist()}: "
                       f"relative error {err:.3e} >= {tol}")


def checkpoint_roundtrip(gen, optimizer, loaded):
    """A saved and reloaded checkpoint holds bit-identical weights and moments."""
    require(loaded.generator.describe() == gen.describe(), "generator description changed")
    require(loaded.generator.get_flat().tobytes() == gen.get_flat().tobytes(),
            "reloaded weights differ from the saved generator")
    moments = optimizer.state_arrays() if optimizer is not None else []
    require(len(loaded.moments) == len(moments)
            and all(a.tobytes() == b.tobytes() for a, b in zip(loaded.moments, moments)),
            "reloaded optimizer moments differ")
    step = optimizer.t if optimizer is not None else 0
    require(loaded.header.get("optimizer_step", 0) == step, "optimizer step changed")


# -- adaptation ------------------------------------------------------------------


def adapt_result(result, generations: int, max_score: float):
    """One trace row per generation; a unit-norm best latent; every score in
    [0, max_score]; and a best score inside that latent's own traced scores."""
    trace = result.trace
    require([row["generation"] for row in trace] == list(range(1, generations + 1)),
            f"trace has {len(trace)} rows, expected one per generation ({generations})")
    norm = float(np.linalg.norm(result.best_latent))
    require(abs(norm - 1.0) < 1e-12, f"best latent has norm {norm!r}")
    scores = [row["score"] for row in trace]
    require(all(0.0 <= s <= max_score for s in scores),
            f"score outside [0, {max_score}]: min {min(scores)!r}, max {max(scores)!r}")
    best = [float(v) for v in result.best_latent]
    own = [row["score"] for row in trace if row["latent"] == best]
    require(bool(own), "best latent never appears in the trace")
    require(min(own) <= result.best_score <= max(own),
            f"best_score {result.best_score!r} outside its traced scores "
            f"[{min(own)!r}, {max(own)!r}]")


# -- evaluation --------------------------------------------------------------------


def gauntlet(results: dict, kinds, games: int):
    """Every bot was played, and wins + losses + draws == games for each."""
    require(sorted(results) == sorted(kinds),
            f"gauntlet covered {sorted(results)}, expected {sorted(kinds)}")
    for kind, row in results.items():
        s = row["score"]
        require(s.wins + s.losses + s.draws == games,
                f"{kind}: {s.wins}W+{s.losses}L+{s.draws}D != {games} games")
        require(abs(float(np.linalg.norm(row["latent"])) - 1.0) < 1e-12,
                f"{kind}: selected latent is not on the unit sphere")


# -- all workloads -------------------------------------------------------------------


def same_outputs(untraced: list, traced: list):
    """The untraced and traced runs of one seed end with identical outputs."""
    require(len(untraced) == len(traced),
            f"{len(untraced)} untraced vs {len(traced)} traced operations")
    for i, (a, b) in enumerate(zip(untraced, traced)):
        require(a == b, f"operation {i}: traced output differs from untraced output")
