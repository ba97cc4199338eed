"""Adaptation by searching the latent sphere with frozen generator weights.

A generation-based stochastic search: the first three quarters of the
generations explore (fresh uniform latents or mutations of a top-10
member, 50/50), the rest exploit (re-score a top-10 member into its
running mean, or prune the weakest of the top 10 and re-score it from
scratch, 50/50). Every generation evaluates exactly one candidate by its
mean return over a fixed number of episodes, so the episode budget is
generations * episodes_per_latent. Scoring never touches the generator's
parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .envs.base import at_least, between, check_ranges, check_types
from .generator import sample_latent

TRACE_ACTIONS = ("sample", "mutate", "replicate", "prune")


def mutate(z: np.ndarray, rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    """Perturb each coordinate by Unif[-scale, scale], renormalized to the sphere."""
    while True:
        moved = z + rng.uniform(-scale, scale, size=z.shape)
        norm = np.linalg.norm(moved)
        if norm > 1e-12:
            return moved / norm


# SearchConfig field -> its legal range
SEARCH_RANGES = {
    "generations": at_least(1), "episodes_per_latent": at_least(1), "top_k": at_least(1),
    "explore_fraction": between(0.0, 1.0), "mutation_scale": at_least(0.0),
    "max_best": at_least(1),
}


@dataclass
class SearchConfig:
    generations: int = 100
    episodes_per_latent: int = 1
    top_k: int = 10
    explore_fraction: float = 0.75
    mutation_scale: float = 0.1
    max_best: int = 100

    def validate(self):
        check_types(self)
        check_ranges(self, SEARCH_RANGES)


@dataclass
class Candidate:
    latent: np.ndarray
    score: float
    evals: int
    order: int


@dataclass
class SearchResult:
    best_latent: np.ndarray
    best_score: float
    best: list[Candidate]
    trace: list[dict] = field(repr=False)
    evaluations: int = 0


def optimize_latents(score_fn, rng: np.random.Generator,
                     config: SearchConfig | None = None, latent_dim: int = 3) -> SearchResult:
    """Run the search; `score_fn(z) -> float` already averages its episodes.

    Returns the best latent found, the (descending) candidate list, and a
    trace row per evaluation.
    """
    cfg = config or SearchConfig()
    cfg.validate()
    best: list[Candidate] = []
    trace: list[dict] = []
    order = 0

    def resort():
        best.sort(key=lambda c: (-c.score, c.order))
        del best[cfg.max_best:]

    def top_index() -> int:
        return int(rng.integers(min(cfg.top_k, len(best))))

    for generation in range(1, cfg.generations + 1):
        r = rng.random()
        exploring = (generation <= cfg.explore_fraction * cfg.generations
                     or len(best) <= cfg.top_k)
        if exploring:
            if r <= 0.5 or len(best) <= cfg.top_k:
                action = "sample"
                z = sample_latent(rng, latent_dim)
            else:
                action = "mutate"
                z = mutate(best[top_index()].latent, rng, cfg.mutation_scale)
            score = float(score_fn(z))
            best.append(Candidate(z, score, 1, order))
            order += 1
        elif r <= 0.5:
            action = "replicate"
            member = best[top_index()]
            z = member.latent
            score = float(score_fn(z))
            member.score = (member.score * member.evals + score) / (member.evals + 1)
            member.evals += 1
        else:
            action = "prune"
            stale = best.pop(min(cfg.top_k, len(best)) - 1)
            z = stale.latent
            score = float(score_fn(z))
            best.append(Candidate(z, score, 1, order))
            order += 1
        resort()
        trace.append({
            "generation": generation,
            "latent": [float(v) for v in z],
            "score": score,
            "action": action,
            "best_score": best[0].score,
        })

    return SearchResult(best_latent=best[0].latent.copy(), best_score=best[0].score,
                        best=best, trace=trace, evaluations=cfg.generations)


def run_episode(gen, env, obs: dict, latents: dict, rng: np.random.Generator) -> dict:
    """Play `env` from `obs` (what its `reset` returned) to the end, each agent
    acting under its own entry of `latents`; returns each agent's return."""
    returns = {a: 0.0 for a in obs}
    while not env.finished:
        agents = env.living_agents()
        obs_mat = np.asarray([obs[a] for a in agents])
        z_mat = np.asarray([latents[a] for a in agents])
        actions, _, _ = gen.act(obs_mat, z_mat, rng)
        obs, rewards, _ = env.step({a: int(x) for a, x in zip(agents, actions)})
        for a, r in rewards.items():
            returns[a] += r
    return returns


def play_episodes(gen, env, episodes: int, rng: np.random.Generator, latent=None):
    """Yield the per-agent returns of `episodes` episodes of `env`, each reset
    with a seed from `rng`, while `env` holds the episode's final state. All
    agents share `latent`, or if it is None each draws its own after the reset,
    in sorted agent order."""
    for _ in range(episodes):
        obs = env.reset(int(rng.integers(2 ** 62)))
        latents = {a: sample_latent(rng, gen.latent_dim) if latent is None else latent
                   for a in sorted(obs)}
        yield run_episode(gen, env, obs, latents, rng)


def episode_score_fn(gen, env_factory, episodes_per_latent: int, rng: np.random.Generator):
    """Score a latent by mean per-agent episode return, all agents sharing it,
    on one environment from `env_factory`."""
    env = env_factory()

    def score(z: np.ndarray) -> float:
        episodes = play_episodes(gen, env, episodes_per_latent, rng, z)
        return float(np.mean([r for returns in episodes for r in returns.values()]))

    return score


def save_trace(path, trace: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = len(trace[0]["latent"]) if trace else 0
        writer.writerow(["generation", *[f"z{i}" for i in range(dim)], "score", "action"])
        for row in trace:
            writer.writerow([row["generation"], *[repr(v) for v in row["latent"]],
                             repr(row["score"]), row["action"]])

