"""Shared test helpers: central finite differences and a plain-numpy diversity
estimate (oracles independent of autodiff), generic-op compositions of the
fused loss nodes, and a random-action episode logger."""

import numpy as np

import generic_ops as ops


def finite_diff_grads(f, params, h=1e-5):
    """Central-difference gradient of the scalar function `f()` w.r.t. each
    parameter Tensor, perturbing raw arrays in place. `f` must rebuild its
    computation from the current parameter values on every call."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    """||a - n|| / max(||n||, eps) over the concatenated gradient vectors."""
    a = np.concatenate([np.ravel(x) for x in analytic])
    n = np.concatenate([np.ravel(x) for x in numeric])
    denom = max(np.linalg.norm(n), 1e-12)
    return np.linalg.norm(a - n) / denom


def check_gradients(loss_fn, params, h=1e-5, tol=1e-4):
    """Assert analytic gradients (via backward) match finite differences."""
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = finite_diff_grads(lambda: float(loss_fn().data), params, h=h)
    err = relative_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: relative error {err:.3e} >= {tol}"
    return err


def diversity_oracle(grid, b, mode="exp_neg_kl"):
    """Plain loops over a (latents, states, actions) grid of distributions:
    the mean over ordered distinct latent pairs and states of exp(-KL), or of
    the KL itself for mode "raw_kl", between distributions smoothed to
    (p + b) / (1 + b*A)."""
    grid = np.asarray(grid, dtype=np.float64)
    m, n, num_actions = grid.shape
    total, count = 0.0, 0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            for s in range(n):
                p = (grid[i, s] + b) / (1.0 + b * num_actions)
                q = (grid[j, s] + b) / (1.0 + b * num_actions)
                kl = np.sum(p * (np.log(p) - np.log(q)))
                total += kl if mode == "raw_kl" else np.exp(-kl)
                count += 1
    return total / count


# -- generic-op oracles for the fused graph nodes ----------------------------------
# Each composes generic engine ops (those of `generic_ops` among them), every one
# checked against finite differences on its own, so its value and gradients
# check a fused node's closed form.


def ppo_surrogate_generic(logits, actions, log_probs_old, advantages, clip_epsilon,
                          entropy_coef):
    """Mean clipped surrogate + entropy_coef * mean entropy over a logits Tensor,
    from log_softmax, gather, clip and minimum; returns (total, surrogate, entropy)."""
    from policyspace.autodiff import constant

    log_all = ops.log_softmax(logits, axis=-1)
    ratio = ops.exp(ops.gather(log_all, actions) - constant(log_probs_old))
    adv = constant(advantages)
    surrogate = ops.minimum(
        ratio * adv, ops.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * adv).mean()
    entropy = -(ops.exp(log_all) * log_all).sum(axis=-1).mean()
    return surrogate + entropy_coef * entropy, surrogate, entropy


def diversity_loss_generic(action_probs, num_latents, num_states, smoothing,
                           mode="exp_neg_kl"):
    """The diversity estimate from `take` over unordered latent pairs (i < j),
    scoring both KL directions of each pair."""
    probs = action_probs
    if smoothing != 0.0:
        probs = (probs + smoothing) * (1.0 / (1.0 + smoothing * probs.data.shape[-1]))
    grid = probs.reshape((num_latents, num_states, probs.data.shape[-1]))
    left, right = np.triu_indices(num_latents, k=1)
    p, q = ops.take(grid, left, axis=0), ops.take(grid, right, axis=0)
    logp, logq = ops.log(p), ops.log(q)
    kl_fwd = (p * (logp - logq)).sum(axis=-1)
    kl_bwd = (q * (logq - logp)).sum(axis=-1)
    if mode == "raw_kl":
        return (kl_fwd.mean() + kl_bwd.mean()) * 0.5
    return (ops.exp(-kl_fwd).mean() + ops.exp(-kl_bwd).mean()) * 0.5


def mix_generic(h0, branches, z):
    """The multiplicative mix as a loop of per-branch layer nodes, each scaled by
    a constant latent slice."""
    mixed = h0
    for i, branch in enumerate(branches):
        mixed = mixed + branch(h0) * z[..., i:i + 1]
    return mixed


def rewrite_checkpoint_header(path, edit):
    """Apply `edit(header_dict)` to a checkpoint file's header in place and
    re-seal it with a valid checksum, so only the header's content is bad."""
    import hashlib
    import json

    blob = open(path, "rb").read()
    header_len = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = blob[8 + header_len:-32]
    with open(path, "wb") as fh:
        fh.write(blob[:4] + len(header_bytes).to_bytes(4, "little") + header_bytes
                 + payload + hashlib.sha256(header_bytes + payload).digest())


def random_episode(env, seed, policy_rng):
    """Play one episode of uniformly random actions from `reset(seed)` and
    return the ReplayWriter that logged it."""
    from policyspace.replay import ReplayWriter

    env.reset(seed=seed)
    writer = ReplayWriter(env)
    while not env.finished:
        actions = {a: int(policy_rng.integers(env.num_actions)) for a in env.living_agents()}
        tick = env.tick
        _, rewards, dones = env.step(actions)
        writer.record_step(tick, actions, rewards, dones)
    return writer


def soccer_moves_oracle(rows, cols, pos, possession, actions, order):
    """One soccer tick's two moves by the rules written out, independent of
    `MarkovSoccer`'s move table: in `order`, each mover steps by its action's
    delta; a carrier stepping off its attacking edge through a goal-row cell
    scores and ends the tick, a step off the pitch stays put, and a step into
    the opponent's cell stays put and switches possession. Returns the new
    (pos, possession, result)."""
    deltas = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1), 4: (0, 0)}
    goal_rows = (rows // 2 - 1, rows // 2)
    goal_col = {"left": cols, "right": -1}
    other = {"left": "right", "right": "left"}
    pos = dict(pos)
    for side in order:
        if actions[side] == 4:
            continue
        (r, c), (dr, dc) = pos[side], deltas[actions[side]]
        nr, nc = r + dr, c + dc
        if possession == side and nr in goal_rows and nc == goal_col[side]:
            return pos, possession, side
        if not (0 <= nr < rows and 0 <= nc < cols):
            continue
        if (nr, nc) == pos[other[side]]:
            possession = other[side] if possession == side else side
            continue
        pos[side] = (nr, nc)
    return pos, possession, None
