"""Command line: train / adapt / eval / replay.

Exit codes: 0 ok, 2 configuration error, 3 numeric fault, 4 integrity
failure. Run directories live under $POLICYSPACE_RUNS (default ./runs) and
always contain exactly one manifest.json; re-running a manifest reproduces
the metrics CSV bit-exactly (wall_seconds aside).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (build_environment_factory, build_generator,
                     build_trainer_config, load_run_spec, write_manifest)
from .envs import ABLATION_NAMES, BOT_KINDS, Bot, make_config, make_env
from .errors import ConfigError, IntegrityError, NumericError
from .evaluation import (ablation_sweep, bot_gauntlet, round_robin_matrix,
                         specialization_eval, write_results_csv)
from .latent_search import SearchConfig, episode_score_fn, optimize_latents, save_trace
from .replay import read_replay, replay_episode
from .training import Trainer

METRICS_COLUMNS = ("iteration", "agent_steps", "mean_episode_reward", "l_div",
                   "entropy", "value_loss", "wall_seconds")


def runs_root() -> str:
    return os.environ.get("POLICYSPACE_RUNS", "runs")


# -- train ----------------------------------------------------------------------


def cmd_train(args) -> int:
    resolved = load_run_spec(args.config)
    if args.epochs is not None:
        resolved["run"]["epochs"] = args.epochs
    run = resolved["run"]
    name = run["run_name"] or f"{run['env']}-{run['method']}-seed{run['seed']}"
    run_dir = args.run_dir or os.path.join(runs_root(), name)
    os.makedirs(run_dir, exist_ok=True)

    write_manifest(os.path.join(run_dir, "manifest.json"), resolved)
    rng = np.random.default_rng(run["seed"])
    gen = build_generator(resolved, rng)
    trainer_cfg = build_trainer_config(resolved)
    factory = build_environment_factory(run["env"], resolved["env"])
    trainer = Trainer(gen, factory, trainer_cfg, seed=run["seed"])

    def checkpoint(path):
        save_checkpoint(path, gen, trainer.opt, step=trainer.iteration,
                        env_name=run["env"], env_config=resolved["env"],
                        extra={"method": run["method"], "seed": run["seed"]})

    metrics_path = os.path.join(run_dir, "metrics.csv")
    final_path = os.path.join(run_dir, "checkpoint.ckpt")
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for epoch in range(run["epochs"]):
            try:
                m = trainer.train_iteration()
            except NumericError:
                checkpoint(final_path)   # weights were rolled back; preserve them
                raise
            writer.writerow([m["iteration"], m["agent_steps"],
                             repr(m["mean_episode_reward"]), repr(m["l_div"]),
                             repr(m["entropy"]), repr(m["value_loss"]),
                             f"{m['wall_seconds']:.3f}"])
            fh.flush()
            if run["checkpoint_every"] and (epoch + 1) % run["checkpoint_every"] == 0:
                checkpoint(os.path.join(run_dir, f"checkpoint_{epoch + 1:06d}.ckpt"))
            if args.verbose:
                print(f"iter {m['iteration']}: reward={m['mean_episode_reward']:.3f} "
                      f"l_div={m['l_div']:.3f} entropy={m['entropy']:.3f}")
    checkpoint(final_path)
    print(run_dir)
    return 0


def check_output_file(path: str):
    """Refuse an output file path before any work is done for it: a
    directory, or a path in a directory that does not exist."""
    if os.path.isdir(path):
        raise ConfigError(f"output file {path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"output file {path!r} is in {folder!r}, which is not a directory")


# -- adapt -----------------------------------------------------------------------


def cmd_adapt(args) -> int:
    if args.trace_out:
        check_output_file(args.trace_out)
    loaded = load_checkpoint(args.checkpoint)
    gen = loaded.generator
    env_name = args.env or loaded.env_name
    if env_name == "soccer":
        raise ConfigError("adapt scores a latent by its mean return over all agents, "
                          "which is always 0 in soccer (one side's +1 is the other's "
                          "-1); use `policyspace eval bots` to search soccer latents")
    # the checkpoint's simulator config serves its own env; another name gets defaults
    config = loaded.env_config if env_name == loaded.env_name else {}
    factory = build_environment_factory(env_name, config)
    rng = np.random.default_rng(args.seed)
    score = episode_score_fn(gen, factory, args.episodes_per_latent, rng)
    search = SearchConfig(generations=args.generations,
                          episodes_per_latent=args.episodes_per_latent)
    result = optimize_latents(score, rng, search, latent_dim=gen.latent_dim)
    if args.trace_out:
        save_trace(args.trace_out, result.trace)
    print("best_latent " + " ".join(f"{v:+.6f}" for v in result.best_latent))
    print(f"best_score {result.best_score:.6f}")
    print(f"evaluations {result.evaluations}")
    return 0


# -- eval ------------------------------------------------------------------------


PROTOCOL_ENVS = {"specialization": "farmworld", "ablations": "farmworld",
                 "bots": "soccer", "round_robin": "soccer"}


def _method(loaded, default: str) -> str:
    return loaded.header.get("extra", {}).get("method", default)


def _specialization(loaded, search, args, rng) -> dict:
    factory = build_environment_factory(
        "farmworld", {**loaded.env_config, "enforced_specialization": True})
    out = specialization_eval(loaded.generator, factory, episodes=args.episodes, rng=rng)
    return {metric: float(value) for metric, value in out.items()}


def _ablations(loaded, search, args, rng) -> dict:
    names = ["training", *ABLATION_NAMES[1:]]     # "none" is the training config
    out = {}
    for row in ablation_sweep(loaded.generator, names, search, rng):
        out[f"health_{row['ablation']}"] = row["post_search_health"]
        out[f"initial_{row['ablation']}"] = row["initial_health"]
    return out


def _bots(loaded, search, args, rng) -> dict:
    results = bot_gauntlet(loaded.generator, [Bot(kind) for kind in BOT_KINDS],
                           games=args.games, search=search, rng=rng,
                           base=make_config("soccer", loaded.env_config))
    return {f"wins_minus_losses_{kind}": float(row["score"].score)
            for kind, row in results.items()}


# protocol -> {metric: value} of one checkpoint and seed
CHECKPOINT_PROTOCOLS = {"specialization": _specialization, "ablations": _ablations,
                        "bots": _bots}


def _round_robin(checkpoints, search, args) -> list[dict]:
    if len(checkpoints) < 2:
        raise ConfigError("round_robin needs at least two checkpoints")
    (first, loaded), *others = checkpoints
    config = make_config("soccer", loaded.env_config)
    for path, other in others:
        if make_config("soccer", other.env_config) != config:
            raise ConfigError(f"round_robin needs one soccer config, but {first} and "
                              f"{path} were trained on different ones")
    generators = {f"{i}:{_method(loaded, os.path.basename(path))}": loaded.generator
                  for i, (path, loaded) in enumerate(checkpoints)}
    names, matrix = round_robin_matrix(generators, search, np.random.default_rng(args.seed),
                                       games=args.games, config=config)
    print("round robin (wins - losses, row vs column):")
    print("  " + " ".join(f"{n:>16s}" for n in names))
    for i, a in enumerate(names):
        print(f"{a:>16s} " + " ".join(f"{matrix[i, j]:+16.0f}" for j in range(len(names))))
    return [{"method": a, "seed": 0, "metric": f"wins_minus_losses_vs_{b}",
             "value": float(matrix[i, j])}
            for i, a in enumerate(names) for j, b in enumerate(names)]


def cmd_eval(args) -> int:
    for flag in ("games", "seeds", "episodes"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be positive, got {getattr(args, flag)}")
    out_path = args.out or f"results_{args.protocol}.csv"
    check_output_file(out_path)
    checkpoints = [(path, load_checkpoint(path)) for path in args.checkpoints]
    needed = PROTOCOL_ENVS[args.protocol]
    for path, loaded in checkpoints:
        if loaded.env_name != needed:
            raise ConfigError(f"protocol {args.protocol!r} needs a {needed} checkpoint, "
                              f"but {path} was trained on {loaded.env_name!r}")
    search = SearchConfig(generations=args.generations,
                          episodes_per_latent=args.episodes_per_latent)
    if args.protocol == "round_robin":
        rows = _round_robin(checkpoints, search, args)
    else:
        protocol = CHECKPOINT_PROTOCOLS[args.protocol]
        rows = [{"method": _method(loaded, path), "seed": seed, "metric": metric, "value": value}
                for path, loaded in checkpoints for seed in range(args.seeds)
                for metric, value in protocol(loaded, search, args,
                                              np.random.default_rng(args.seed + seed)).items()]

    write_results_csv(out_path, rows)
    for row in rows:
        print(f"{row['method']} seed={row['seed']} {row['metric']}={row['value']}")
    print(out_path)
    return 0


# -- replay ---------------------------------------------------------------------


def cmd_replay(args) -> int:
    header, records = read_replay(args.log)
    if not records:
        return 0
    env = make_env(header["env"], header.get("config", {}))

    def on_tick(env, tick):
        print(f"--- tick {tick} ---")
        print(env.render())

    replay_episode(env, header, records, on_tick=on_tick if not args.quiet else None)
    return 0


# -- entry ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyspace",
        description="Train a latent-conditioned policy family, adapt it by "
                    "latent search, and evaluate it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train from a config or manifest")
    p_train.add_argument("config", help="INI config or manifest.json")
    p_train.add_argument("--run-dir", default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_adapt = sub.add_parser("adapt", help="latent-search a frozen checkpoint")
    p_adapt.add_argument("checkpoint")
    p_adapt.add_argument("--env", default=None,
                         help="environment or ablation name (default: training env)")
    p_adapt.add_argument("--generations", type=int, default=100)
    p_adapt.add_argument("--episodes-per-latent", type=int, default=1)
    p_adapt.add_argument("--seed", type=int, default=0)
    p_adapt.add_argument("--trace-out", default=None)
    p_adapt.set_defaults(func=cmd_adapt)

    p_eval = sub.add_parser("eval", help="run an evaluation protocol")
    p_eval.add_argument("protocol", choices=sorted(PROTOCOL_ENVS))
    p_eval.add_argument("checkpoints", nargs="+")
    p_eval.add_argument("--games", type=int, default=1000)
    p_eval.add_argument("--seeds", type=int, default=3)
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument("--generations", type=int, default=10)
    p_eval.add_argument("--episodes-per-latent", type=int, default=10)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_replay = sub.add_parser("replay", help="render a logged episode")
    p_replay.add_argument("log")
    p_replay.add_argument("--quiet", action="store_true",
                          help="verify the log without rendering")
    p_replay.set_defaults(func=cmd_replay)
    return parser


# a path that names the wrong thing: a missing file, or a file where a
# directory goes or the reverse
PATH_ERRORS = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 4
    except PATH_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
