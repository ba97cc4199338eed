"""Every function and method in `src/policyspace` is reached from the command
line or a demo, or is named in `ALLOWED` with the reason it stays.

A subprocess runs this file as a script: it sets `sys.setprofile` before
importing `policyspace`, runs every CLI verb at tiny sizes and demos 01, 02,
04, 05 and 07, and prints the code objects it entered. The test compares
them with every `def` in the package's source, so code that only tests
reach fails here; it belongs in the tests. Lambdas and comprehensions are
exempt.
"""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "policyspace"
DEMOS = ("01", "02", "04", "05", "07")

# qualified name -> why it stays although no CLI verb or demo enters it
ALLOWED = {
    "envs/base.py:Environment._do_reset": "abstract hook; each simulator overrides it",
    "envs/base.py:Environment._do_step": "abstract hook; farmworld and multigoal override it",
    "envs/base.py:Environment.living_agents": "abstract hook; each simulator overrides it",
    "envs/base.py:Environment.render": "abstract hook; each simulator overrides it",
    "envs/base.py:type_name": "names the type in a config error's message",
    "optim.py:Adam._first_nonfinite": "names the parameter in a numeric fault's message",
    "training.py:Trainer._restore": "rolls the weights back after a numeric fault",
    "checkpoint.py:LoadedCheckpoint.restore_optimizer":
        "reads back the optimizer moments every checkpoint stores",
    "optim.py:Adam.load_state": "restore_optimizer's reader of Adam's moments",
    "optim.py:SGD.load_state": "restore_optimizer's reader of SGD's step count",
}

TRAIN_INI = """\
[run]
env = {env}
method = {method}
architecture = {architecture}
seed = 1
epochs = 1
checkpoint_every = 1

[trainer]
batch_size = 24
minibatch_size = 12
sgd_iters = 1
num_envs = 2
discriminator_epochs = 1
{trainer}
[diversity]
num_states = 4
num_latents = 3

[model]
hidden_dim = 4

[env]
max_episode_timesteps = 6
"""


def defined_functions() -> dict:
    """(file, first line) -> 'module path:qualified name' of every def in the
    package; the first line is the one its code object starts on, which for
    a decorated def is its first decorator's."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{module}:{prefix}{child.name}"
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def test_every_function_is_reached_by_a_cli_verb_or_a_demo(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    entered = {tuple(site) for site in json.loads(done.stdout.splitlines()[-1])}
    functions = defined_functions()
    assert set(ALLOWED) <= set(functions.values()), "an ALLOWED name is not defined"
    unreached = sorted(name for site, name in functions.items()
                       if site not in entered and name not in ALLOWED)
    assert not unreached, f"never entered by a CLI verb or a demo: {unreached}"


# -- the traced run ---------------------------------------------------------------


def trace_every_verb(work: Path) -> set:
    entered = set()
    package = str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run_every_verb(work)
        for demo in DEMOS:
            (path,) = (ROOT / "demos").glob(f"{demo}_*.py")
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.setprofile(None)
    return entered


def run_every_verb(work: Path):
    import numpy as np

    from policyspace.cli import main
    from policyspace.envs import ABLATION_NAMES, make_env
    from policyspace.replay import ReplayWriter

    def cli(*argv):
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"policyspace {' '.join(map(str, argv))} exited {code}")

    def train(name, env, method="adap", architecture="multiplicative", trainer=""):
        config = work / f"{name}.ini"
        config.write_text(TRAIN_INI.format(env=env, method=method, architecture=architecture,
                                           trainer=trainer))
        cli("train", config, "--run-dir", work / name)
        return work / name / "checkpoint.ckpt"

    checkpoints = {}
    for env in ("multigoal", "farmworld", "soccer"):
        for architecture in ("multiplicative", "concat"):
            for method in ("adap", "vanilla", "diayn_star"):
                name = f"{env}-{architecture}-{method}"
                checkpoints[name] = train(name, env, method, architecture)
    train("sgd", "multigoal", trainer="optimizer = sgd")
    cli("train", work / "multigoal-multiplicative-adap" / "manifest.json",
        "--run-dir", work / "again")
    os.environ["POLICYSPACE_RUNS"] = str(work / "runs")
    train_ini = work / "multigoal-multiplicative-vanilla.ini"
    cli("train", train_ini, "--epochs", "1", "--verbose")

    fast = ("--generations", "1", "--episodes-per-latent", "1")
    farm = checkpoints["farmworld-multiplicative-adap"]
    cli("adapt", farm, *fast, "--trace-out", work / "trace.csv")
    cli("adapt", farm, "--env", ABLATION_NAMES[1], *fast)
    games = ("--games", "2", "--seeds", "1", *fast)
    cli("eval", "specialization", farm, "--episodes", "1", *games)
    cli("eval", "ablations", farm, *games)
    for soccer in (checkpoints["soccer-multiplicative-adap"], checkpoints["soccer-concat-adap"]):
        cli("eval", "bots", soccer, *games, "--out", work / "bots.csv")
        cli("eval", "round_robin", soccer, soccer, *games, "--out", work / "rr.csv")

    rng = np.random.default_rng(0)
    for name in ("multigoal", "farmworld", "soccer"):
        env = make_env(name, {"max_episode_timesteps": 5})
        env.reset(1)
        writer = ReplayWriter(env)
        while not env.finished:
            tick = env.tick
            actions = {a: int(rng.integers(env.num_actions)) for a in env.living_agents()}
            writer.record_step(tick, actions, *env.step(actions)[1:])
        writer.save(work / f"{name}.jsonl")
        cli("replay", work / f"{name}.jsonl")


if __name__ == "__main__":
    print(json.dumps(sorted(trace_every_verb(Path(sys.argv[1])))))
