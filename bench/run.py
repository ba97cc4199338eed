"""Benchmark of policyspace training, adaptation and the bot gauntlet.

    python3 bench/run.py --workload train-soccer --seed 1 --seconds 55 --trace 0

Runs one workload (see README.md) in this process for `--seconds` seconds of
whole operations, checks every operation's output, and prints the metrics
by name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are the end-to-end ones, with operation times calibrated by a fixed
reference loop run after each operation (see `reference_loop`). With
`--trace 1` the same seed is run twice, once plain and once traced, and the
metrics are the per-layer ones. Spans and checkpoints are written under
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
REFERENCE_SHARE = 0.2       # reference-loop time after each operation, as a share of its time
REFERENCE_NOMINAL_S = 0.01  # the reference loop's median time on an unloaded machine
REFERENCE_SHAPES = ((8, 16), (32, 32), (128, 48), (500, 64))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-farmworld", "train-soccer", "adapt-farmworld", "eval-bots"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> str:
    """Run BLAS on one thread and import the program from ./src.

    One thread is within the core count on any machine; at two, OpenBLAS's
    second thread spins through training and makes iterations slower.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import policyspace.cli  # every module the CLI verbs use
    if not policyspace.cli.__file__.startswith(src + os.sep):
        raise SystemExit(f"policyspace was imported from {policyspace.cli.__file__}, not {src}")
    return src


def import_times(src: str, repeats: int) -> list:
    """Seconds to import numpy and the program, each time in a fresh interpreter."""
    code = ("import time; start = time.perf_counter(); import policyspace.cli; "
            "print(time.perf_counter() - start)")
    env = {**os.environ, "PYTHONPATH": src}
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                                 capture_output=True, text=True).stdout)
            for _ in range(repeats)]


def set_up(workload, seed: int, repeats: int):
    """Set the workload up `repeats` times; returns the last state and the times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        state = workload.setup(seed, OUT_DIR)
        times.append(time.perf_counter() - start)
    return state, times


def reference_loop() -> float:
    """Seconds for a fixed piece of numpy and Python work that uses nothing of
    the program: small matrix products, tanh and softmax rows, a dict tally.

    The shared machine's speed drifts by up to 2x over minutes, and a run
    cannot outlast the drift. Timed between operations, this loop slows down
    with them, so an operation time divided by the loop's median time, in
    the same run, is steady from one run to the next.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for rows, cols in REFERENCE_SHAPES:
        x = rng.standard_normal((rows, cols))
        w = rng.standard_normal((cols, cols)) / np.sqrt(cols)
        for _ in range(12):
            h = np.tanh(x @ w)
            p = np.exp(h - h.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            x = h - h.mean(axis=0) + 0.1 * p
    tally = {}
    for i in range(3000):
        key = (i * 7919) % 1013
        tally[key] = tally.get(key, 0) + i
    return time.perf_counter() - start


def run_ops(workload, state, seconds: float | None = None, count: int | None = None,
            tracer=None, errors: list | None = None, reference: list | None = None):
    """Run whole operations until `seconds` have passed or `count` are done.

    Returns one (seconds, agent steps, output fingerprint) per operation, or
    None for one that raised. With an `errors` list, each output is checked
    after its operation, outside its timing. With a `reference` list, the
    reference loop runs after each operation for REFERENCE_SHARE of its time,
    and the median of those loop times is appended there.
    """
    records = []
    deadline = time.perf_counter() + seconds if seconds is not None else None

    def more() -> bool:
        if count is not None:
            return len(records) < count
        return not records or time.perf_counter() < deadline

    while more():
        scope = tracer.operation() if tracer else contextlib.nullcontext()
        try:
            with scope:
                start = time.perf_counter()
                raw, steps = workload.op(state)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # counted in `failed`; the run goes on
            print(f"operation {len(records)} failed: {exc!r}", file=sys.stderr)
            records.append(None)
            continue
        if reference is not None:
            loops = []
            while sum(loops) < REFERENCE_SHARE * elapsed:
                loops.append(reference_loop())
            reference.append(statistics.median(loops))
        if errors is not None:
            record_check(errors, f"operation {len(records)}", workload.check_op, state, raw, steps)
        records.append((elapsed, steps, workload.fingerprint(state, raw)))
    return records


def end_to_end(workload, args, import_s: list, setup_times: list, records: list,
               reference: list) -> dict:
    """The end-to-end metrics. Each operation's time is calibrated: divided
    by the reference loop's median time right after it, over
    REFERENCE_NOMINAL_S. It then reads as on a machine where the loop takes
    REFERENCE_NOMINAL_S."""
    done = [r for r in records if r is not None]
    slowdowns = [loop_s / REFERENCE_NOMINAL_S for loop_s in reference]
    calibrated = [t / k for (t, _, _), k in zip(done, slowdowns)]
    steps = sum(s for _, s, _ in done)
    setup_s = statistics.median(import_s) + statistics.median(setup_times)
    wall_op_s = statistics.median(t for t, _, _ in done)
    wall_rate = steps / sum(t for t, _, _ in done)
    op_s = statistics.median(calibrated)
    rate = steps / sum(calibrated)
    slowdown = statistics.median(slowdowns)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: {len(records)} operations, "
          f"{len(records) - len(done)} failed")
    print(f"setup_s {setup_s:.4f} s (medians of {len(import_s)} imports "
          f"and {len(setup_times)} set-ups)")
    print(f"reference loop {slowdown:.3f} x nominal (median over operations)")
    print(f"{workload.latency_name} {op_s:.4f} s (op_s: median of {len(done)} operations, "
          f"{wall_op_s:.4f} s wall)")
    print(f"agent_steps_per_s {rate:.1f} 1/s ({wall_rate:.1f} 1/s wall)")
    print(f"peak_rss_mb {peak_mb:.1f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": op_s, "unit": "s"},
        "agent_steps_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer(tracer, plain: list, traced: list) -> dict:
    """Per-layer figures per operation (`_s`, counts) or per call (`_us`, `_ms`).

    Times are self times. They add up, with `trace.unattributed_s` (time in no
    layer span), to `trace.op_s`; minus `trace.overhead_s` that is the plain
    run's operation time.
    """
    n = len(traced)
    ops = tracer.totals("op")
    setup = tracer.totals("setup")

    def calls(name, table=ops):
        return table.get(name, (0, 0.0))[0]

    def seconds(name, table=ops):
        return table.get(name, (0, 0.0))[1]

    def per_call(name, scale, table=ops):
        return seconds(name, table) / calls(name, table) * scale if calls(name, table) else 0.0

    plain_s = sum(r[0] for r in plain if r)
    traced_s = sum(r[0] for r in traced if r)
    figures = {
        "training.collect_rollouts_s": (seconds("training.collect_rollouts") / n, "s"),
        "training.assemble_batch_s": (seconds("training.assemble_batch") / n, "s"),
        "training.ppo_objective_s": (seconds("training.ppo_objective") / n, "s"),
        "training.minibatch_updates": (calls("optim.adam_step") / n, "count"),
        "autodiff.backward_s": (seconds("autodiff.backward") / n, "s"),
        "autodiff.nodes": (tracer.op_tensors / n, "count"),
        "diversity.estimate_s": (seconds("diversity.estimate") / n, "s"),
        "optim.adam_step_s": (seconds("optim.adam_step") / n, "s"),
        "optim.clip_s": (seconds("optim.clip") / n, "s"),
        "generator.act_us": (per_call("generator.act", 1e6), "us"),
        "generator.act_calls": (calls("generator.act") / n, "count"),
        "generator.rows_per_act": (tracer.op_act_rows / calls("generator.act")
                                   if calls("generator.act") else 0.0, "count"),
        "generator.probs_np_us": (per_call("generator.probs_np", 1e6), "us"),
        "generator.probs_np_calls": (calls("generator.probs_np") / n, "count"),
        "evaluation.play_game_ms": (per_call("evaluation.play_game", 1e3), "ms"),
        "evaluation.games": (calls("evaluation.play_game") / n, "count"),
        "envs.step_us": (per_call("envs.step", 1e6), "us"),
        "envs.step_calls": (calls("envs.step") / n, "count"),
        "latent_search.overhead_s": (seconds("latent_search.optimize") / n, "s"),
        "latent_search.score_calls": (calls("latent_search.score") / n, "count"),
        "checkpoint.save_ms": (per_call("checkpoint.save", 1e3, setup), "ms"),
        "checkpoint.load_ms": (per_call("checkpoint.load", 1e3, setup), "ms"),
        "checkpoint.bytes": (float(statistics.median(tracer.checkpoint_bytes)), "bytes"),
        "trace.op_s": (traced_s / n, "s"),
        "trace.unattributed_s": (seconds("op") / n, "s"),
        "trace.overhead_s": ((traced_s - plain_s) / n, "s"),
    }
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def record_check(errors: list, where: str, check, *args):
    """Run one output check; a failure is recorded, and the run goes on."""
    import checks
    try:
        check(*args)
    except checks.CheckFailed as exc:
        errors.append(f"{where}: {exc}")


def traced_run(workload, seed: int, count: int):
    """Set up again and run `count` operations with the tracer installed."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.open("setup")
        try:
            state = workload.setup(seed, OUT_DIR)
        finally:
            tracer.close(span)
        records = run_ops(workload, state, count=count, tracer=tracer)
    finally:
        tracer.remove()
    return tracer, records


def main(argv=None) -> int:
    args = parse_args(argv)
    src = import_program()
    import checks
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    errors: list[str] = []
    import_s = [] if args.trace else import_times(src, SETUP_REPEATS)
    workload.start()
    try:
        state, setup_times = set_up(workload, args.seed, 1 if args.trace else SETUP_REPEATS)
        record_check(errors, "set-up", workload.check_setup, state)
        # a traced run spends half its time untraced, then repeats those operations traced
        seconds = args.seconds / 2 if args.trace else args.seconds
        reference = None
        if not args.trace:
            for _ in range(3):  # warm-up, untimed
                reference_loop()
            reference = []
        records = run_ops(workload, state, seconds=seconds, errors=errors, reference=reference)
        record_check(errors, "end of run", workload.check_end, state, args.seed, OUT_DIR)

        if not args.trace:
            metrics = end_to_end(workload, args, import_s, setup_times, records, reference)
        else:
            tracer, traced = traced_run(workload, args.seed, len(records))
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
            outputs = lambda recs: [r[2] if r else None for r in recs]
            record_check(errors, "traced run", checks.same_outputs, outputs(records), outputs(traced))
            metrics = per_layer(tracer, records, traced)
    finally:
        workload.stop()

    for message in errors:
        print(f"CHECK FAILED: {message}")
    failed = sum(r is None for r in records)
    print(json.dumps({"correct": not errors, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
