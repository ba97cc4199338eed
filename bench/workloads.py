"""The benchmark's four workloads: set-up, one operation, and output checks.

Every workload goes through the public calls the `policyspace` CLI makes
(`train`, `adapt`, `eval bots`), and builds its inputs from the seed alone.
Module functions are called through their modules so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import checks
import policyspace.checkpoint as checkpoint
import policyspace.evaluation as evaluation
import policyspace.latent_search as latent_search
import policyspace.training as training
from policyspace import config
from policyspace.envs import BOT_KINDS, Bot, Farmworld, build_ablation
from policyspace.latent_search import SearchConfig

SAMPLE_ROWS = 64          # batch rows kept per iteration for the forward-path check
GRADIENT_COORDS = 6       # flat parameter coordinates checked by finite differences
ADAPT_ABLATION = "wall_barrier"
ADAPT_GENERATIONS = 100   # the `adapt` CLI default
GAUNTLET_GAMES = 200      # games per bot after each bot's latent search
GAUNTLET_SEARCH = SearchConfig(generations=10, episodes_per_latent=10)  # `eval` CLI defaults
# `adapt` and `eval` take a checkpoint and a --seed that does not change it: the
# workload seed drives the search and the games, and the checkpoint stays fixed,
# which also keeps the work per operation within a few percent across seeds
CHECKPOINT_SEED = 0


def seeded_checkpoint(env_name: str, path: str):
    """Resolve the CLI config, build a generator seeded with CHECKPOINT_SEED,
    save it, and load it back."""
    resolved = config.resolve_config({"run": {"env": env_name, "seed": CHECKPOINT_SEED}})
    gen = config.build_generator(resolved, np.random.default_rng(CHECKPOINT_SEED))
    checkpoint.save_checkpoint(path, gen, env_name=env_name, env_config=resolved["env"])
    return gen, checkpoint.load_checkpoint(path)


class Workload:
    """One kind of operation. `op` returns (raw output, agent steps);
    `fingerprint` reduces the output to a value compared with ==; the
    `check_*` methods raise `checks.CheckFailed`."""

    latency_name = "op_s"

    def start(self):
        """Before the first set-up."""

    def stop(self):
        """After the last operation."""

    def check_end(self, state, seed: int, out_dir: str):
        """After the last operation of the plain run."""


# -- training ---------------------------------------------------------------------


class BatchSample:
    """Keeps a fixed, evenly spaced sample of rows from each assembled batch.

    It wraps `training.assemble_batch` while installed; it draws no random
    numbers, so the trainer's results are unchanged.
    """

    FIELDS = ("obs", "latents", "actions", "log_probs_old", "advantages", "value_targets")

    def __init__(self):
        self.rows: dict | None = None
        self._original = None

    def install(self):
        self._original = original = training.assemble_batch

        def assemble_batch(*args, **kwargs):
            batch = original(*args, **kwargs)
            idx = np.linspace(0, len(batch) - 1, SAMPLE_ROWS).astype(np.int64)
            self.rows = {f: getattr(batch, f)[idx].copy() for f in self.FIELDS}
            return batch

        training.assemble_batch = assemble_batch

    def remove(self):
        training.assemble_batch = self._original


@dataclass
class TrainState:
    resolved: dict
    trainer: training.Trainer
    loaded: checkpoint.LoadedCheckpoint
    max_alive: int
    rows: dict | None = None


class TrainWorkload(Workload):
    """`Trainer.train_iteration` at one environment's reference config."""

    latency_name = "iteration_s"

    def __init__(self, env_name: str, overrides: dict):
        self.env_name = env_name
        self.overrides = overrides
        self.sample = BatchSample()

    def start(self):
        self.sample.install()

    def stop(self):
        self.sample.remove()

    def setup(self, seed: int, out_dir: str) -> TrainState:
        resolved = config.resolve_config({**self.overrides,
                                          "run": {"env": self.env_name, "seed": seed}})
        gen = config.build_generator(resolved, np.random.default_rng(seed))
        factory = config.build_environment_factory(self.env_name, resolved["env"])
        trainer = training.Trainer(gen, factory, config.build_trainer_config(resolved), seed=seed)
        path = os.path.join(out_dir, f"{self.env_name}-train.ckpt")
        checkpoint.save_checkpoint(path, gen, trainer.opt, step=trainer.iteration,
                                   env_name=self.env_name, env_config=resolved["env"])
        max_alive = sum(len(env.agent_ids) for env in trainer.rollouts.envs)
        return TrainState(resolved, trainer, checkpoint.load_checkpoint(path), max_alive)

    def check_setup(self, state: TrainState):
        checks.checkpoint_roundtrip(state.trainer.gen, state.trainer.opt, state.loaded)

    def op(self, state: TrainState):
        """One iteration; returns (its metrics, agent steps banked)."""
        before = state.trainer.agent_steps
        metrics = state.trainer.train_iteration()
        return metrics, state.trainer.agent_steps - before

    def fingerprint(self, state: TrainState, metrics: dict):
        out = {k: v for k, v in metrics.items() if k != "wall_seconds"}
        out["weights"] = state.trainer.gen.get_flat().tobytes()
        return out

    def check_op(self, state: TrainState, metrics: dict, steps: int):
        trainer = state.trainer
        state.rows = self.sample.rows
        checks.forward_paths_identical(trainer.gen, state.rows["obs"], state.rows["latents"])
        checks.banked_steps(steps, trainer.config.batch_size, state.max_alive)
        checks.ppo_ranges(metrics["entropy"], metrics["l_div"], trainer.gen.num_actions)

    def check_end(self, state: TrainState, seed: int, out_dir: str):
        trainer = state.trainer
        gen, cfg = trainer.gen, trainer.config
        rng = np.random.default_rng([seed, 1])
        rows = checks.smooth_rows(gen, state.rows, cfg.clip_epsilon)
        div_states = rows["obs"][:cfg.diversity.num_states]
        div_latents = np.stack([v / np.linalg.norm(v) for v in
                                rng.standard_normal((cfg.diversity.num_latents, gen.latent_dim))])
        coords = rng.choice(gen.get_flat().size, size=GRADIENT_COORDS, replace=False)
        checks.gradients_match(lambda: checks.training_loss(gen, rows, cfg, div_states, div_latents),
                               gen, coords)
        path = os.path.join(out_dir, f"{self.env_name}-trained.ckpt")
        checkpoint.save_checkpoint(path, gen, trainer.opt, step=trainer.iteration,
                                   env_name=self.env_name, env_config=state.resolved["env"])
        checks.checkpoint_roundtrip(gen, trainer.opt, checkpoint.load_checkpoint(path))


# -- adaptation -------------------------------------------------------------------


class CountingFarmworld(Farmworld):
    """Farmworld that tallies agent steps (one per living agent per tick)."""

    def __init__(self, cfg, tally: list):
        super().__init__(cfg)
        self.tally = tally

    def step(self, actions):
        self.tally[0] += len(actions)
        return super().step(actions)


@dataclass
class AdaptState:
    gen: object
    loaded: checkpoint.LoadedCheckpoint
    factory: object
    rng: np.random.Generator
    tally: list
    max_episode_timesteps: int


class AdaptWorkload(Workload):
    """`adapt` of a seeded farmworld checkpoint to a held-out ablation."""

    latency_name = "adapt_s"

    def setup(self, seed: int, out_dir: str) -> AdaptState:
        path = os.path.join(out_dir, "farmworld.ckpt")
        gen, loaded = seeded_checkpoint("farmworld", path)
        ablation = build_ablation(ADAPT_ABLATION)
        tally = [0]
        factory = lambda: CountingFarmworld(ablation, tally)
        return AdaptState(gen, loaded, factory, np.random.default_rng(seed), tally,
                          factory().max_episode_timesteps)

    def check_setup(self, state: AdaptState):
        checks.checkpoint_roundtrip(state.gen, None, state.loaded)

    def op(self, state: AdaptState):
        gen = state.loaded.generator
        before = state.tally[0]
        score = latent_search.episode_score_fn(gen, state.factory, 1, state.rng)
        result = latent_search.optimize_latents(
            score, state.rng, SearchConfig(generations=ADAPT_GENERATIONS), latent_dim=gen.latent_dim)
        return result, state.tally[0] - before

    def fingerprint(self, state: AdaptState, result):
        return (result.trace, result.best_latent.tobytes(), result.best_score)

    def check_op(self, state: AdaptState, result, steps: int):
        # Farmworld pays 0.1 per living tick and nothing else
        checks.adapt_result(result, ADAPT_GENERATIONS, 0.1 * state.max_episode_timesteps)


# -- evaluation -----------------------------------------------------------------------


@dataclass(frozen=True)
class CountingBot(Bot):
    """A scripted bot that tallies its moves: one per soccer tick."""

    tally: list = field(default_factory=lambda: [0], compare=False)

    def action(self, env, rng):
        self.tally[0] += 1
        return super().action(env, rng)


@dataclass
class EvalState:
    gen: object
    loaded: checkpoint.LoadedCheckpoint
    bots: list
    rng: np.random.Generator
    tally: list


class EvalWorkload(Workload):
    """`eval bots` for one seed: a latent search per bot, then a series of games."""

    latency_name = "eval_s"

    def setup(self, seed: int, out_dir: str) -> EvalState:
        path = os.path.join(out_dir, "soccer.ckpt")
        gen, loaded = seeded_checkpoint("soccer", path)
        tally = [0]
        bots = [CountingBot(kind, tally) for kind in BOT_KINDS]
        return EvalState(gen, loaded, bots, np.random.default_rng(seed), tally)

    def check_setup(self, state: EvalState):
        checks.checkpoint_roundtrip(state.gen, None, state.loaded)

    def op(self, state: EvalState):
        before = state.tally[0]
        results = evaluation.bot_gauntlet(state.loaded.generator, state.bots,
                                          games=GAUNTLET_GAMES, search=GAUNTLET_SEARCH,
                                          rng=state.rng)
        # both players act on every tick: the bot and the generator's latent
        return results, 2 * (state.tally[0] - before)

    def fingerprint(self, state: EvalState, results: dict):
        return {kind: (row["score"].wins, row["score"].losses, row["score"].draws,
                       row["latent"].tobytes()) for kind, row in results.items()}

    def check_op(self, state: EvalState, results: dict, steps: int):
        checks.gauntlet(results, BOT_KINDS, GAUNTLET_GAMES)


WORKLOADS = {
    # train-farmworld and adapt-farmworld run by hand; they are left out of
    # BENCHMARK.json because they are not steady enough (see README.md)
    "train-farmworld": lambda: TrainWorkload("farmworld", {}),
    # the soccer config of acceptance criterion 6
    "train-soccer": lambda: TrainWorkload("soccer", {
        "trainer": {"batch_size": 2000, "minibatch_size": 500, "sgd_iters": 10,
                    "discount": 0.9, "gae_lambda": 0.95, "entropy_coef": 0.05},
        "diversity": {"coef": 0.2},
        "model": {"hidden_dim": 32},
    }),
    "adapt-farmworld": AdaptWorkload,
    "eval-bots": EvalWorkload,
}
