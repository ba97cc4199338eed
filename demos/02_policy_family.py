"""A single network that is a whole family of policies.

Latents live on the 3-D unit sphere, are drawn once per agent episode, and
select one behavior out of the family. This script shows both latent
integrations, how far apart two family members' action distributions are,
and the diversity loss that training pushes down.

Run: python demos/02_policy_family.py
"""

import numpy as np

from policyspace import PolicyGenerator, estimate_for_generator, sample_latent, sample_latents


def kl(p, q):
    """KL(p || q) between two categorical distributions."""
    return float(np.sum(p * (np.log(p) - np.log(q))))


def smooth(p, b):
    """The estimator's smoothing: every action gets at least b / (1 + b*A)."""
    return (p + b) / (1.0 + b * len(p))


rng = np.random.default_rng(7)

print("== latents live on the unit sphere ==")
z1, z2 = sample_latent(rng), sample_latent(rng)
print(f"z1 = {np.round(z1, 3)}, |z1| = {np.linalg.norm(z1):.9f}")
print(f"z2 = {np.round(z2, 3)}, |z2| = {np.linalg.norm(z2):.9f}")

print("\n== two integrations of the latent ==")
obs = rng.random((1, 5))
for arch in ("concat", "multiplicative"):
    gen = PolicyGenerator(5, 4, np.random.default_rng(1), architecture=arch,
                          hidden_dim=16)
    p1 = gen.probs_np(obs, z1[None])[0]
    p2 = gen.probs_np(obs, z2[None])[0]
    print(f"{arch:>14s}: same observation, two latents -> "
          f"p1={np.round(p1, 3)} p2={np.round(p2, 3)} KL={kl(p1, p2):.4f}")

print("\n== smoothing bounds the KL ==")
# without smoothing, KL blows up wherever the second policy puts zero mass
sharp = np.array([1.0, 0.0, 0.0, 0.0])
flat = np.array([0.25, 0.25, 0.25, 0.25])
for b in (0.0, 0.05, 0.2):
    with np.errstate(divide="ignore"):
        value = kl(smooth(flat, b), smooth(sharp, b))
    shown = "unbounded" if not np.isfinite(value) else f"{value:.4f}"
    print(f"b = {b:4.2f}: KL(flat || sharp) = {shown}")

print("\n== the family-wide diversity loss ==")
gen = PolicyGenerator(5, 4, np.random.default_rng(2), architecture="multiplicative",
                      hidden_dim=16)
states = rng.random((30, 5))
latents = sample_latents(rng, 10)
value = estimate_for_generator(gen, states, latents, smoothing=0.05)
print(f"mean exp(-KL) over latent pairs and states: {float(value.data):.4f}")
print("(1.0 would mean all family members act identically; training minimizes it)")
