"""Adaptation by searching the latent sphere with frozen generator weights.

A generation-based stochastic search: the first three quarters of the
generations explore (fresh uniform latents or mutations of a top-10
member, 50/50), the rest exploit (re-score a top-10 member into its
running mean, or prune the weakest of the top 10 and re-score it from
scratch, 50/50); these settings are the module constants below. Every
generation evaluates exactly one candidate by its mean return over a fixed
number of episodes, so the episode budget is
generations * episodes_per_latent. Scoring never touches the generator's
parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .envs.base import at_least, check_ranges, check_types
from .generator import sample_latent
from .training import RolloutState, Trajectory

TRACE_ACTIONS = ("sample", "mutate", "replicate", "prune")

TOP_K = 10                 # the top list that "mutate", "replicate" and "prune" draw from
EXPLORE_FRACTION = 0.75    # the share of generations that explore
MUTATION_SCALE = 0.1       # "mutate"'s per-coordinate step
MAX_BEST = 100             # candidates kept, best first


def mutate(z: np.ndarray, rng: np.random.Generator,
           scale: float = MUTATION_SCALE) -> np.ndarray:
    """Perturb each coordinate by Unif[-scale, scale], renormalized to the sphere."""
    while True:
        moved = z + rng.uniform(-scale, scale, size=z.shape)
        norm = np.linalg.norm(moved)
        if norm > 1e-12:
            return moved / norm


# SearchConfig field -> its legal range
SEARCH_RANGES = {"generations": at_least(1), "episodes_per_latent": at_least(1)}


@dataclass
class SearchConfig:
    generations: int = 100
    episodes_per_latent: int = 1

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
    trace: list[dict] = field(repr=False)
    evaluations: int = 0


def optimize_latents(score_fn, rng: np.random.Generator,
                     config: SearchConfig | None = None, latent_dim: int = 3) -> SearchResult:
    """Run the search; `score_fn(z) -> float` already averages its episodes.

    Returns the best latent found, its score, and a trace row per evaluation.
    """
    cfg = config or SearchConfig()
    cfg.validate()
    best: list[Candidate] = []
    trace: list[dict] = []
    order = 0

    def resort():
        best.sort(key=lambda c: (-c.score, c.order))
        del best[MAX_BEST:]

    def top_index() -> int:
        return int(rng.integers(min(TOP_K, len(best))))

    for generation in range(1, cfg.generations + 1):
        r = rng.random()
        exploring = (generation <= EXPLORE_FRACTION * cfg.generations
                     or len(best) <= TOP_K)
        if exploring:
            if r <= 0.5 or len(best) <= TOP_K:
                action = "sample"
                z = sample_latent(rng, latent_dim)
            else:
                action = "mutate"
                z = mutate(best[top_index()].latent, rng)
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
            stale = best.pop(min(TOP_K, len(best)) - 1)
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
                        trace=trace, evaluations=cfg.generations)


def run_episode(gen, env, obs: dict, latents: dict, rng: np.random.Generator) -> dict:
    """Play `env` from `obs` (what its `reset` returned) to the end, each agent
    acting under its own entry of `latents`, as a one-environment
    `RolloutState` ticked until the episode ends; returns each agent's return."""
    episodes = {a: Trajectory(latents[a]) for a in obs}
    state = RolloutState([env])
    state.obs[0], state.episodes[0] = obs, dict(episodes)
    while not env.finished:
        state.tick(gen, rng)
    return {a: traj.episode_return for a, traj in episodes.items()}


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

