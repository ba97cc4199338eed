"""Train a small policy family on the four-corner navigation toy and watch
the population split up: with the diversity term on, different latents
commit to different corners; without it, everyone crowds one or two.

Takes about a minute. Run: python demos/03_multigoal_diversity.py
"""

import numpy as np

from policyspace import DiversityConfig, PolicyGenerator, Trainer, TrainerConfig, sample_latents
from policyspace.envs import MultiGoal
from policyspace.latent_search import run_episode


def goal_coverage(gen, n_latents=32, seed=0):
    rng = np.random.default_rng(seed)
    hits = {}
    for z in sample_latents(rng, n_latents):
        env = MultiGoal()
        obs = env.reset(int(rng.integers(2 ** 62)))
        run_episode(gen, env, obs, {"agent_0": z}, rng)
        idx, dist = env.nearest_goal()
        if dist <= env.config.capture_radius:
            hits.setdefault(idx, 0)
            hits[idx] += 1
    return hits


def train(alpha, iters=120, seed=0):
    gen = PolicyGenerator(2, 5, np.random.default_rng(seed),
                          architecture="multiplicative", hidden_dim=32)
    cfg = TrainerConfig(batch_size=1000, minibatch_size=250, sgd_iters=6, num_envs=16,
                        method="adap" if alpha > 0 else "vanilla",
                        diversity=DiversityConfig(coef=alpha), entropy_coef=0.05)
    trainer = Trainer(gen, MultiGoal, cfg, seed=seed + 1)
    for i in range(iters):
        m = trainer.train_iteration()
        if (i + 1) % 40 == 0:
            print(f"  iter {i + 1:3d}: reward {m['mean_episode_reward']:7.2f}  "
                  f"diversity loss {m['l_div']:.3f}")
    return gen


corners = {0: "(0,0)", 1: "(0,1)", 2: "(1,0)", 3: "(1,1)"}
for alpha, label in ((0.5, "with diversity pressure (alpha=0.5)"),
                     (0.0, "plain PPO (alpha=0)")):
    print(f"== {label} ==")
    gen = train(alpha)
    hits = goal_coverage(gen)
    reached = ", ".join(f"{corners[k]}x{v}" for k, v in sorted(hits.items()))
    print(f"  32 sampled latents reached {len(hits)} distinct corners: {reached}\n")
