"""Adapting without touching a single weight: search the latent sphere.

First on a synthetic objective with a known optimum, then picking the best
family member of a briefly-trained navigator for a specific corner.

Run: python demos/06_latent_search.py
"""

import numpy as np

from policyspace import DiversityConfig, PolicyGenerator, SearchConfig, Trainer, TrainerConfig
from policyspace.envs import MultiGoal
from policyspace.generator import sample_latent
from policyspace.latent_search import optimize_latents, run_episode

print("== synthetic: maximize alignment with a hidden direction ==")
target = sample_latent(np.random.default_rng(42))
result = optimize_latents(lambda z: float(z @ target), np.random.default_rng(0),
                          SearchConfig(generations=300))
print(f"hidden direction: {np.round(target, 3)}")
print(f"found after 300 evaluations: {np.round(result.best_latent, 3)} "
      f"(alignment {result.best_score:.4f}, optimum 1.0)")
kinds = {}
for row in result.trace:
    kinds[row["action"]] = kinds.get(row["action"], 0) + 1
print(f"evaluation mix: {kinds}")

print("\n== pick the family member that reaches the top-right corner ==")
gen = PolicyGenerator(2, 5, np.random.default_rng(1), architecture="multiplicative",
                      hidden_dim=32)
cfg = TrainerConfig(batch_size=1000, minibatch_size=250, sgd_iters=6, num_envs=16,
                    diversity=DiversityConfig(coef=0.5))
trainer = Trainer(gen, MultiGoal, cfg, seed=2)
for _ in range(100):
    trainer.train_iteration()
print("trained a small family for 100 iterations")

search_rng = np.random.default_rng(3)

def closeness_to_top_right(z):
    env = MultiGoal()
    obs = env.reset(int(search_rng.integers(2 ** 62)))
    run_episode(gen, env, obs, {"agent_0": z}, search_rng)
    return -float(np.linalg.norm(env.position - np.array([1.0, 1.0])))

flat_before = gen.get_flat()
result = optimize_latents(closeness_to_top_right, np.random.default_rng(4),
                          SearchConfig(generations=60, episodes_per_latent=1))
print(f"best latent {np.round(result.best_latent, 3)} ends "
      f"{-result.best_score:.3f} away from the (1,1) corner")
print(f"weights untouched by the search: {np.array_equal(flat_before, gen.get_flat())}")
