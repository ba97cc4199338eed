import builtins
import csv
import json
import platform

import numpy as np
import pytest

from helpers import random_episode, rewrite_checkpoint_header
from policyspace.checkpoint import save_checkpoint
from policyspace.cli import build_parser, main
from policyspace.config import (SCHEMA, load_run_spec, parse_config, resolve_config,
                                write_manifest)
from policyspace.envs import ENVIRONMENTS, MarkovSoccer, MultiGoal, MultiGoalConfig, make_env
from policyspace.envs.base import field_types
from policyspace.errors import ConfigError
from policyspace.generator import PolicyGenerator
from policyspace.latent_search import TRACE_ACTIONS


TINY_MULTIGOAL = """
[run]
env = multigoal
method = adap
seed = 3
epochs = 2
checkpoint_every = 0

[trainer]
batch_size = 40
minibatch_size = 20
sgd_iters = 1
num_envs = 2

[diversity]
num_states = 10

[model]
hidden_dim = 8

[env]
max_episode_timesteps = 10
"""


TINY_FARMWORLD = TINY_MULTIGOAL.replace("env = multigoal", "env = farmworld")
TINY_SOCCER = TINY_MULTIGOAL.replace("env = multigoal", "env = soccer")


def write_config(tmp_path, text=TINY_MULTIGOAL, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_metrics(run_dir):
    with open(run_dir / "metrics.csv", newline="") as fh:
        return list(csv.reader(fh))


# -- config resolution ------------------------------------------------------------


def test_vanilla_method_zeroes_the_diversity_coefficient(tmp_path):
    path = write_config(tmp_path, TINY_MULTIGOAL.replace("method = adap",
                                                         "method = vanilla"))
    resolved = load_run_spec(path)
    assert resolved["diversity"]["coef"] == 0.0


def test_env_default_tables():
    farm = resolve_config({"run": {"env": "farmworld"}})
    assert farm["run"]["epochs"] == 10000
    assert farm["trainer"]["batch_size"] == 8000
    assert farm["trainer"]["minibatch_size"] == 8000
    assert farm["model"]["hidden_dim"] == 64
    assert farm["diversity"]["coef"] == 0.2
    assert farm["trainer"]["discount"] == 0.99
    assert farm["trainer"]["gae_lambda"] == 1.0

    soccer = resolve_config({"run": {"env": "soccer"}})
    assert soccer["trainer"]["discount"] == 0.9
    assert soccer["trainer"]["gae_lambda"] == 0.95

    multigoal = resolve_config({"run": {"env": "multigoal"}})
    assert multigoal["diversity"]["coef"] == 0.5
    assert multigoal["model"]["hidden_dim"] == 32
    assert multigoal["trainer"]["learning_rate"] == 3e-4
    assert multigoal["trainer"]["grad_clip"] == 0.5
    assert multigoal["trainer"]["entropy_coef"] == 0.05


def test_missing_env_field_is_named(tmp_path):
    path = write_config(tmp_path, "[run]\nmethod = adap\n")
    with pytest.raises(ConfigError, match="env"):
        load_run_spec(path)


def test_unknown_field_is_named(tmp_path):
    path = write_config(tmp_path, "[run]\nenv = multigoal\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        load_run_spec(path)


def test_bad_type_is_reported(tmp_path):
    path = write_config(tmp_path, "[run]\nenv = multigoal\nseed = lots\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(path.read_text(), path)


def test_a_run_spec_is_opened_once_and_read_with_any_line_ends(tmp_path, monkeypatch):
    ini = write_config(tmp_path)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, load_run_spec(ini))
    for ends in ("\r\n", "\r"):
        other = write_config(tmp_path, TINY_MULTIGOAL.replace("\n", ends), f"ends{len(ends)}.ini")
        assert load_run_spec(other) == load_run_spec(ini)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for path in (ini, manifest):
        load_run_spec(path)
    assert opened == [str(ini), str(manifest)]


def test_manifest_contains_resolved_simulator_numerics(tmp_path):
    path = write_config(tmp_path)
    rc = main(["train", str(path), "--run-dir", str(tmp_path / "run")])
    assert rc == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["env"]["max_episode_timesteps"] == 10
    assert manifest["config"]["trainer"]["learning_rate"] == 3e-4
    assert manifest["seed"] == 3
    assert manifest["env"] == "multigoal"


def test_manifest_records_the_software_stack(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    path = write_config(tmp_path)
    assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 0
    software = json.loads((tmp_path / "run" / "manifest.json").read_text())["software"]
    assert software["python"] == platform.python_version()
    assert software["numpy"] == np.__version__
    assert set(software["blas"]) == {"name", "version"}
    assert software["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
    assert software["platform"] == platform.platform()


# -- train ----------------------------------------------------------------------


def test_train_writes_manifest_metrics_and_checkpoint(tmp_path):
    path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", str(path), "--run-dir", str(run_dir)]) == 0
    rows = read_metrics(run_dir)
    assert rows[0] == ["iteration", "agent_steps", "mean_episode_reward", "l_div",
                       "entropy", "value_loss", "wall_seconds"]
    assert len(rows) == 3  # header + 2 epochs
    assert (run_dir / "checkpoint.ckpt").exists()
    assert (run_dir / "manifest.json").exists()


def test_rerunning_a_manifest_reproduces_metrics_bit_exactly(tmp_path):
    path = write_config(tmp_path)
    dir_a, dir_b, dir_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["train", str(path), "--run-dir", str(dir_a)]) == 0
    assert main(["train", str(path), "--run-dir", str(dir_b)]) == 0
    assert main(["train", str(dir_a / "manifest.json"), "--run-dir", str(dir_c)]) == 0

    def stripped(run_dir):
        return [row[:-1] for row in read_metrics(run_dir)]  # wall_seconds varies

    assert stripped(dir_a) == stripped(dir_b) == stripped(dir_c)
    assert (dir_a / "checkpoint.ckpt").read_bytes() == (dir_c / "checkpoint.ckpt").read_bytes()


def test_train_rejects_bad_config_with_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "[run]\nmethod = adap\n")
    assert main(["train", str(path)]) == 2
    assert "env" in capsys.readouterr().err


def test_train_missing_file_exit_2(tmp_path):
    assert main(["train", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize("verb", [["train"], ["adapt"], ["eval", "bots"], ["replay"]],
                         ids=["train", "adapt", "eval", "replay"])
def test_a_directory_input_path_exits_2(tmp_path, capsys, verb):
    # an input that is not a readable file is a configuration error, as a
    # missing file is
    assert main([*verb, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Is a directory" in err


@pytest.mark.parametrize("verb", ["train", "adapt", "eval"])
def test_an_output_path_of_the_wrong_kind_exits_2(tmp_path, capsys, verb):
    # a run directory that is a file, or a trace or results file that is a
    # directory, is a configuration error, not a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {"train": ["train", str(write_config(tmp_path)), "--run-dir", str(taken)],
            "adapt": ["adapt", str(multigoal_checkpoint(tmp_path)), "--generations", "2",
                      "--trace-out", str(tmp_path)],
            "eval": ["eval", "specialization", str(farmworld_checkpoint(tmp_path)),
                     "--episodes", "1", "--seeds", "1", "--out", str(tmp_path)]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


TINY_RUNS = {"multigoal": TINY_MULTIGOAL, "farmworld": TINY_FARMWORLD, "soccer": TINY_SOCCER}
INF, NAN = float("inf"), float("nan")
REGION, LAYOUT_2X2 = [0, 0, 99, 99], {"width": 2, "height": 2, "agents": [[0, 0]],
                                      "chickens": [], "towers": [], "fences": []}
# a map of the default 10x10 farmworld with a fence on the first agent's cell
OVERLAPPING_LAYOUT = {"width": 10, "height": 10, "agents": [[0, c] for c in range(10)],
                      "chickens": [[1, c] for c in range(10)],
                      "towers": [[2, c] for c in range(10)], "fences": [[0, 0]]}
# a 1x3 farmworld whose `fence_cells` puts a fence under the layout's agent
FENCE_UNDER_LAYOUT = {"width": 3, "height": 1, "num_agents": 1, "num_chickens": 0,
                      "num_towers": 0, "fence_cells": [[0, 0]],
                      "layout": {"width": 3, "height": 1, "agents": [[0, 0]], "chickens": [],
                                 "towers": [], "fences": [[0, 2]]}}
# env -> field -> a value of the wrong type, then out-of-range values
ENV_FIELD_FAULTS = {
    "multigoal": {
        "max_episode_timesteps": [2.7, 0, -3], "capture_radius": ["x", 0.6],
        "step_size": ["x", 0.0], "start_jitter": ["x", 0.6],
    },
    "farmworld": {
        "width": ["x", 0], "height": [2.5, 0], "num_agents": ["x", 0],
        "num_chickens": ["x", -1], "num_towers": ["x", -1],
        "agent_max_health": ["x", 0.0], "agent_start_health": ["abc", 11.0, 0],
        "health_decay": ["x", -0.1], "agent_attack_damage": ["x", -1.0],
        "agent_food_yield": ["x", INF], "chicken_yield": ["x", -INF], "tower_yield": ["x", INF],
        "chicken_max_health": ["x", 0], "chicken_move_probability": ["x", 7],
        "tower_attacks": ["x", 0], "haystack_mines": ["x", 0], "respawn_time": ["x", -1],
        "max_episode_timesteps": ["x", 0], "enforced_specialization": [3],
        "ablation": [3, "gravity"], "agent_region": ["abc", REGION],
        "food_region": ["1,x", REGION], "chicken_region": [[0, 0, 3], REGION],
        "tower_region": ["abc", [5, 5, 2, 2]],
        "fence_cells": ["abc", [[99, 99]], [[0, 0], [0, 0]]],
        "layout": ["abc", LAYOUT_2X2, OVERLAPPING_LAYOUT],
    },
    "soccer": {
        "rows": ["x", 1], "cols": ["x", 1], "draw_prob": ["x", 1.5],
        "max_episode_timesteps": ["x", 0], "start_left": ["x", [9, 9]],
        "start_right": [[1, 3, 1], [1, 5]], "initial_possession": [3, "up"],
    },
}
ENV_FIELD_ROWS = [(env, field, value) for env, fields in ENV_FIELD_FAULTS.items()
                  for field, values in fields.items() for value in values]


def test_every_env_field_has_a_fault_row():
    for env, fields in ENV_FIELD_FAULTS.items():
        assert set(fields) == set(field_types(ENVIRONMENTS[env].config_class))


# section -> field -> a value of the wrong type, then out-of-range values
SPEC_FIELD_FAULTS = {
    "run": {
        "env": [3, "cartpole"], "method": [3, "greedy"], "seed": ["x", -1], "epochs": [2.5, -1],
        "checkpoint_every": ["x", -1], "architecture": [3, "lstm"], "run_name": [3],
    },
    "trainer": {
        "batch_size": ["x", 0], "minibatch_size": ["x", 0], "sgd_iters": ["x", 0],
        "clip_epsilon": ["x", 0.0, 1.0, NAN], "entropy_coef": ["x", -0.1, NAN],
        "value_coef": ["x", -1.0, INF], "discount": ["x", 5.0, -0.1, NAN],
        "gae_lambda": ["x", 3.0, NAN], "learning_rate": ["x", -1.0, 0.0, INF, NAN],
        "grad_clip": ["x", -1.0, 0.0, INF], "optimizer": [3, "rmsprop"],
        "resample_diversity_each_epoch": ["x"], "normalize_advantages": ["x"],
        "num_envs": ["x", 0], "intrinsic_coef": ["x", -1.0, NAN],
        "discriminator_epochs": ["x", -2, 0],
    },
    "diversity": {
        "num_latents": ["x", 1], "num_states": ["x", 0], "smoothing": ["x", -0.1, NAN, INF],
        "coef": ["x", -1.0, NAN, INF], "mode": [3, "l2"],
    },
    "model": {
        "latent_dim": ["x", 0], "hidden_dim": ["x", 0, -1], "hidden_layers": ["x", -1],
        "policy_activation": [3, "sigmoid"], "value_activation": [3, "sigmoid"],
    },
}
SPEC_FIELD_ROWS = [(section, field, value) for section, fields in SPEC_FIELD_FAULTS.items()
                   for field, values in fields.items() for value in values]


def test_every_run_spec_field_has_a_fault_row():
    assert {section: set(fields) for section, fields in SPEC_FIELD_FAULTS.items()} == \
        {section: set(fields) for section, fields in SCHEMA.items()}


def ini_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def ini_with(section, field, value) -> str:
    """TINY_MULTIGOAL with `field = value` in `section`, in place of any value it had."""
    lines = [line for line in TINY_MULTIGOAL.splitlines() if not line.startswith(f"{field} =")]
    at = lines.index(f"[{section}]") + 1
    return "\n".join(lines[:at] + [f"{field} = {ini_value(value)}"] + lines[at:]) + "\n"


# an INI value is text, so a text field cannot hold a value of another type
@pytest.mark.parametrize("section, field, value", [
    (section, field, value) for section, field, value in SPEC_FIELD_ROWS
    if SCHEMA[section][field] is not str or isinstance(value, str)])
def test_train_rejects_a_bad_ini_field_before_making_the_run_dir(tmp_path, capsys, section,
                                                                 field, value):
    path = write_config(tmp_path, ini_with(section, field, value))
    assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


MALFORMED_INI = {
    "no section header": "env = multigoal\n",
    "duplicate section": "[run]\nenv = multigoal\n[run]\nseed = 1\n",
    "duplicate key": "[run]\nenv = multigoal\nenv = soccer\n",
    "bad interpolation": "[run]\nenv = multigoal\nrun_name = 100%\n",
    "zero hidden_dim": TINY_MULTIGOAL.replace("hidden_dim = 8", "hidden_dim = 0"),
    "negative hidden_dim": TINY_MULTIGOAL.replace("hidden_dim = 8", "hidden_dim = -1"),
    "zero latent_dim": TINY_MULTIGOAL.replace("[model]", "[model]\nlatent_dim = 0"),
    "negative hidden_layers": TINY_MULTIGOAL.replace("[model]", "[model]\nhidden_layers = -1"),
    "negative seed": TINY_MULTIGOAL.replace("seed = 3", "seed = -1"),
    "negative epochs": TINY_MULTIGOAL.replace("epochs = 2", "epochs = -1"),
    "negative checkpoint_every": TINY_MULTIGOAL.replace("checkpoint_every = 0",
                                                        "checkpoint_every = -1"),
    "zero num_envs": TINY_MULTIGOAL.replace("num_envs = 2", "num_envs = 0"),
    "unparseable env value": TINY_MULTIGOAL.replace("max_episode_timesteps = 10",
                                                    "max_episode_timesteps = ten"),
    "not text": "\xff\xfe[run]\n",
    "negative num_chickens": TINY_FARMWORLD.replace("[env]", "[env]\nnum_chickens = -1"),
    "negative num_towers": TINY_FARMWORLD.replace("[env]", "[env]\nnum_towers = -1"),
    "negative start_jitter": TINY_MULTIGOAL.replace("[env]", "[env]\nstart_jitter = -1"),
    "soccer text max_episode_timesteps": TINY_SOCCER.replace("max_episode_timesteps = 10",
                                                             "max_episode_timesteps = x"),
    "soccer zero max_episode_timesteps": TINY_SOCCER.replace("max_episode_timesteps = 10",
                                                             "max_episode_timesteps = 0"),
    "soccer text start cell": TINY_SOCCER.replace("[env]", "[env]\nstart_left = 9,9"),
    "soccer start cell with a text part": TINY_SOCCER.replace("[env]", "[env]\nstart_left = 1,x"),
    "soccer pitch of 110 cells": TINY_SOCCER.replace("[env]", "[env]\nrows = 11\ncols = 10"),
    "farmworld region with three corners": TINY_FARMWORLD.replace("[env]",
                                                                  "[env]\nagent_region = 0,0,6"),
    "farmworld region off the grid": TINY_FARMWORLD.replace("[env]",
                                                            "[env]\nfood_region = 0,0,99,99"),
    "farmworld empty region": TINY_FARMWORLD.replace("[env]", "[env]\ntower_region = 5,5,2,2"),
    "farmworld region with a text part": TINY_FARMWORLD.replace("[env]",
                                                                "[env]\nchicken_region = 0,x,3,3"),
    "farmworld fence as one pair": TINY_FARMWORLD.replace("[env]", "[env]\nfence_cells = 1,2"),
    "farmworld text fence": TINY_FARMWORLD.replace("[env]", "[env]\nfence_cells = abc"),
}
MALFORMED_INI.update({   # INI values are flat: no dict and no list of lists
    f"{env} {field} = {ini_value(value)}": TINY_RUNS[env].replace(
        "max_episode_timesteps = 10", f"{field} = {ini_value(value)}")
    for env, field, value in ENV_FIELD_ROWS
    if not isinstance(value, dict) and not (isinstance(value, list) and isinstance(value[0], list))})


@pytest.mark.parametrize("text", MALFORMED_INI.values(), ids=MALFORMED_INI.keys())
def test_train_rejects_malformed_ini_with_exit_2(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    path.write_bytes(text.encode("latin-1"))
    assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_ini_start_cell_trains_from_that_cell(tmp_path):
    path = write_config(tmp_path, TINY_SOCCER.replace("[env]", "[env]\nstart_left = 1,2"))
    assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["env"]["start_left"] == [1, 2]
    env = make_env("soccer", manifest["config"]["env"])
    env.reset(seed=0)
    assert env.pos["left"] == (1, 2)


def test_ini_farmworld_region_parses_as_a_tuple(tmp_path):
    path = write_config(tmp_path, TINY_FARMWORLD.replace("[env]", "[env]\nagent_region = 0,0,3,3"))
    assert parse_config(path.read_text(), path)["env"]["agent_region"] == (0, 0, 3, 3)
    assert load_run_spec(path)["env"]["agent_region"] == [0, 0, 3, 3]


def test_train_rejects_an_off_pitch_start_cell_in_a_manifest_with_exit_2(tmp_path, capsys):
    resolved = load_run_spec(write_config(tmp_path, TINY_SOCCER))
    resolved["env"]["start_left"] = [9, 9]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": resolved, "seed": 3, "env": "soccer"}))
    assert main(["train", str(manifest), "--run-dir", str(tmp_path / "run")]) == 2
    assert "start_left (9, 9) is not a cell" in capsys.readouterr().err


MANIFEST_FAULTS = {
    "missing field": (lambda c: c["run"].pop("run_name"), "run_name"),
    "unknown field": (lambda c: c["trainer"].update(warp_speed=9), "warp_speed"),
    "missing section": (lambda c: c.pop("model"), "model"),
    "unknown section": (lambda c: c.update(physics={}), "physics"),
    "mistyped field": (lambda c: c["trainer"].update(batch_size="40"), "batch_size"),
    "unknown method": (lambda c: c["run"].update(method="greedy"), "method"),
}


def env_edit(env, **fields):
    def edit(config):
        config["run"]["env"] = env
        config["env"] = {**make_env(env).config_dict(), **fields}
    return edit


MANIFEST_FAULTS.update({f"{env} {field} {value!r}": (env_edit(env, **{field: value}), field)
                        for env, field, value in ENV_FIELD_ROWS})
MANIFEST_FAULTS["farmworld fence under a layout agent"] = (
    env_edit("farmworld", **FENCE_UNDER_LAYOUT), "fence_cells")


def spec_edit(section, field, value):
    return lambda config: config[section].update({field: value})


MANIFEST_FAULTS.update({f"[{section}] {field} {value!r}": (spec_edit(section, field, value), field)
                        for section, field, value in SPEC_FIELD_ROWS})


def vanilla_with_a_nan_coef(config):
    """`vanilla` zeroes the diversity coefficient, but only a legal one."""
    config["run"]["method"] = "vanilla"
    config["diversity"]["coef"] = NAN


MANIFEST_FAULTS["vanilla with a NaN coef"] = (vanilla_with_a_nan_coef, "coef")


@pytest.mark.parametrize("edit, field", MANIFEST_FAULTS.values(), ids=MANIFEST_FAULTS.keys())
def test_train_rejects_malformed_manifest_with_exit_2(tmp_path, capsys, edit, field):
    resolved = load_run_spec(write_config(tmp_path))
    edit(resolved)
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, resolved)
    assert main(["train", str(manifest), "--run-dir", str(tmp_path / "run")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_rejects_unparseable_manifest_with_exit_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"config": ')
    assert main(["train", str(manifest)]) == 2


def test_an_integer_for_a_float_env_field_runs_the_float_game(tmp_path):
    # an int start health once made an int health array that truncated the decay
    runs = {}
    for value in ("5", "5.0"):
        text = TINY_FARMWORLD.replace("[env]", f"[env]\nagent_start_health = {value}")
        run_dir = tmp_path / value
        assert main(["train", str(write_config(tmp_path, text)), "--run-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        runs[value] = (json.dumps(manifest["config"]["env"], sort_keys=True),
                       [row[:-1] for row in read_metrics(run_dir)])
    assert runs["5"] == runs["5.0"]
    assert json.loads(runs["5"][0])["agent_start_health"] == 5.0


@pytest.mark.parametrize("section, key, value", [("trainer", "learning_rate", 1),
                                                 ("diversity", "smoothing", 0)])
def test_an_integer_for_a_float_field_in_a_manifest_runs_as_a_float(tmp_path, section, key,
                                                                    value):
    resolved = load_run_spec(write_config(tmp_path))
    runs = []
    for spelling in (value, float(value)):
        resolved[section][key] = spelling
        manifest = tmp_path / f"{spelling!r}.json"
        write_manifest(manifest, resolved)
        run_dir = tmp_path / f"run-{spelling!r}"
        assert main(["train", str(manifest), "--run-dir", str(run_dir)]) == 0
        recorded = json.loads((run_dir / "manifest.json").read_text())["config"][section][key]
        runs.append((repr(recorded), [row[:-1] for row in read_metrics(run_dir)]))
    assert runs[0] == runs[1]
    assert runs[0][0] == repr(float(value))


# -- adapt -----------------------------------------------------------------------


def multigoal_checkpoint(tmp_path, seed=0):
    gen = PolicyGenerator(2, 5, np.random.default_rng(seed), hidden_dim=8)
    path = tmp_path / "gen.ckpt"
    save_checkpoint(path, gen, None, step=0, env_name="multigoal",
                    env_config={"name": "multigoal", "max_episode_timesteps": 10})
    return path


def test_adapt_defaults_to_100_episode_budget():
    parser = build_parser()
    args = parser.parse_args(["adapt", "x.ckpt"])
    assert args.generations == 100
    assert args.episodes_per_latent == 1


def test_adapt_prints_unit_latent_and_writes_trace(tmp_path, capsys):
    ckpt = multigoal_checkpoint(tmp_path)
    trace = tmp_path / "trace.csv"
    rc = main(["adapt", str(ckpt), "--generations", "5", "--seed", "7",
               "--trace-out", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("best_latent")][0]
    z = np.array([float(v) for v in line.split()[1:]])
    assert abs(np.linalg.norm(z) - 1.0) < 1e-6
    assert trace.exists()
    assert len(trace.read_text().splitlines()) == 6  # header + 5 generations


def test_adapt_traces_every_latent_coordinate(tmp_path, capsys):
    config = write_config(tmp_path, TINY_MULTIGOAL.replace(
        "[model]", "[model]\nlatent_dim = 2").replace("epochs = 2", "epochs = 1"))
    assert main(["train", str(config), "--run-dir", str(tmp_path / "run")]) == 0
    trace = tmp_path / "trace.csv"
    rc = main(["adapt", str(tmp_path / "run" / "checkpoint.ckpt"), "--generations", "3",
               "--trace-out", str(trace)])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("best_latent")][0]
    assert len(line.split()) == 3
    with open(trace, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["generation", "z0", "z1", "score", "action"]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    for row in rows:
        latent = np.array([float(row[1]), float(row[2])])
        assert np.linalg.norm(latent) == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(float(row[3])) and row[4] in TRACE_ACTIONS


def test_adapt_identical_seeds_identical_traces(tmp_path):
    ckpt = multigoal_checkpoint(tmp_path)
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["adapt", str(ckpt), "--generations", "5", "--seed", "9", "--trace-out", str(t1)])
    main(["adapt", str(ckpt), "--generations", "5", "--seed", "9", "--trace-out", str(t2)])
    assert t1.read_text() == t2.read_text()


def test_adapt_refuses_corrupt_checkpoint(tmp_path, capsys):
    ckpt = multigoal_checkpoint(tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[-40] ^= 0x01
    ckpt.write_bytes(bytes(blob))
    assert main(["adapt", str(ckpt), "--generations", "2"]) == 4


@pytest.mark.parametrize("env_flag", [[], ["--env", "soccer"]], ids=["checkpoint", "flag"])
def test_adapt_refuses_soccer_with_exit_2(tmp_path, capsys, env_flag):
    # soccer pays +1 to one side and -1 to the other, so the mean over all
    # agents that adapt maximizes is 0 for every latent
    ckpt = soccer_checkpoint(tmp_path) if not env_flag else multigoal_checkpoint(tmp_path)
    assert main(["adapt", str(ckpt), "--generations", "2", *env_flag]) == 2
    assert "eval bots" in capsys.readouterr().err


# -- eval ------------------------------------------------------------------------


def soccer_checkpoint(tmp_path, seed=0, name="soccer.ckpt", method="adap", **env):
    """A soccer generator saved with `env` as its [env] section."""
    size = make_env("soccer", env).observation_size
    gen = PolicyGenerator(size, 5, np.random.default_rng(seed), hidden_dim=8)
    path = tmp_path / name
    save_checkpoint(path, gen, None, step=0, env_name="soccer",
                    env_config={"name": "soccer", **env}, extra={"method": method, "seed": seed})
    return path


def farmworld_checkpoint(tmp_path, seed=0, name="farm.ckpt"):
    gen = PolicyGenerator(53, 6, np.random.default_rng(seed), hidden_dim=8)
    path = tmp_path / name
    cfg = {"name": "farmworld", "width": 5, "height": 5, "num_agents": 2,
           "num_chickens": 2, "num_towers": 2, "max_episode_timesteps": 20}
    save_checkpoint(path, gen, None, step=0, env_name="farmworld",
                    env_config=cfg, extra={"method": "adap", "seed": seed})
    return path


@pytest.mark.parametrize("where", ["a directory", "in a missing directory"])
@pytest.mark.parametrize("verb", ["adapt", "eval ablations", "eval bots", "eval round_robin"])
def test_an_output_path_is_refused_before_any_search(tmp_path, capsys, monkeypatch, verb, where):
    # the trace or results file is checked before the search or protocol
    # runs, not when it is written at the end
    import policyspace.cli as cli
    import policyspace.evaluation as evaluation

    def refuse(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(cli, "optimize_latents", refuse)
    monkeypatch.setattr(evaluation, "optimize_latents", refuse)
    out = str(tmp_path if where == "a directory" else tmp_path / "missing" / "out.csv")
    fast = ["--seeds", "1", "--generations", "1", "--episodes-per-latent", "1", "--out", out]
    soccer = str(soccer_checkpoint(tmp_path))
    argv = {"adapt": ["adapt", str(farmworld_checkpoint(tmp_path)), "--generations", "2",
                      "--trace-out", out],
            "eval ablations": ["eval", "ablations", str(farmworld_checkpoint(tmp_path)), *fast],
            "eval bots": ["eval", "bots", soccer, *fast],
            "eval round_robin": ["eval", "round_robin", soccer, soccer, *fast]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output file") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


HEADER_FAULTS = {
    "generator missing": lambda h: h.pop("generator"),
    "weight_count malformed": lambda h: h.update(weight_count="many"),
    "moment_shapes malformed": lambda h: h.update(moment_shapes=[["x"]]),
    "env_config text max_episode_timesteps":
        lambda h: h["env_config"].update(max_episode_timesteps="x"),
    "env_config zero max_episode_timesteps":
        lambda h: h["env_config"].update(max_episode_timesteps=0),
    "env_config unknown key": lambda h: h["env_config"].update(warp_speed=9),
    "env_config overlapping farmworld layout":
        lambda h: h.update(env="farmworld", env_config={"layout": OVERLAPPING_LAYOUT}),
    "env_config farmworld fence under a layout agent":
        lambda h: h.update(env="farmworld", env_config=FENCE_UNDER_LAYOUT),
    "env_config soccer pitch of 110 cells":
        lambda h: h.update(env="soccer", env_config={"rows": 11, "cols": 10}),
}


@pytest.mark.parametrize("edit", HEADER_FAULTS.values(), ids=HEADER_FAULTS.keys())
@pytest.mark.parametrize("verb, make_checkpoint", [
    (["adapt"], multigoal_checkpoint),
    (["eval", "bots"], soccer_checkpoint),
], ids=["adapt", "eval"])
def test_malformed_checkpoint_header_exit_4(tmp_path, capsys, verb, make_checkpoint, edit):
    ckpt = make_checkpoint(tmp_path)
    rewrite_checkpoint_header(ckpt, edit)
    assert main([*verb, str(ckpt), "--generations", "1"]) == 4
    assert "header field" in capsys.readouterr().err


def test_eval_seeds_default_to_three():
    parser = build_parser()
    args = parser.parse_args(["eval", "bots", "x.ckpt"])
    assert args.seeds == 3


@pytest.mark.parametrize("protocol, flag, value", [
    ("bots", "--games", "-5"), ("bots", "--games", "0"),
    ("specialization", "--seeds", "0"), ("specialization", "--episodes", "0"),
    ("ablations", "--seeds", "-1"),
])
def test_eval_rejects_non_positive_counts_with_exit_2(tmp_path, capsys, protocol, flag, value):
    ckpt = soccer_checkpoint(tmp_path) if protocol == "bots" else farmworld_checkpoint(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["eval", protocol, str(ckpt), flag, value, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_eval_protocol_env_mismatch_is_config_error(tmp_path):
    farm = farmworld_checkpoint(tmp_path)
    assert main(["eval", "bots", str(farm)]) == 2


def test_eval_bots_emits_six_rows_per_seed(tmp_path, capsys):
    ckpt = soccer_checkpoint(tmp_path)
    out = tmp_path / "bots.csv"
    rc = main(["eval", "bots", str(ckpt), "--games", "4", "--seeds", "1",
               "--generations", "1", "--episodes-per-latent", "1",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    kinds = {r["metric"].removeprefix("wins_minus_losses_") for r in rows}
    assert kinds == {"straight", "oscillate0", "oscillate1", "stand",
                     "rule_based", "random"}


def test_eval_round_robin_four_checkpoints_emit_antisymmetric_matrix(tmp_path, capsys):
    paths = [soccer_checkpoint(tmp_path, seed=i, name=f"g{i}.ckpt",
                               method=f"m{i}") for i in range(4)]
    out = tmp_path / "rr.csv"
    rc = main(["eval", "round_robin", *map(str, paths), "--games", "4",
               "--generations", "1", "--episodes-per-latent", "1",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    values = {}
    for r in rows:
        target = r["metric"].removeprefix("wins_minus_losses_vs_")
        values[(r["method"], target)] = float(r["value"])
    methods = sorted({m for m, _ in values})
    assert len(methods) == 4
    for a in methods:
        for b in methods:
            assert values[(a, b)] == -values[(b, a)]


def test_eval_plays_on_the_checkpoints_soccer_config(tmp_path):
    # a six-row pitch makes 61-wide observations; the default pitch 41
    six = [soccer_checkpoint(tmp_path, seed=i, name=f"six{i}.ckpt", rows=6) for i in range(2)]
    common = ["--games", "4", "--seeds", "1", "--generations", "1",
              "--episodes-per-latent", "1", "--out", str(tmp_path / "out.csv")]
    assert main(["eval", "bots", str(six[0]), *common]) == 0
    with open(tmp_path / "out.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 6
    assert main(["eval", "round_robin", *map(str, six), *common]) == 0
    # a game that is drawn at its first tick scores 0 against every bot
    drawn = soccer_checkpoint(tmp_path, name="drawn.ckpt", draw_prob=1.0)
    assert main(["eval", "bots", str(drawn), *common[:-2], "--games", "20",
                 "--out", str(tmp_path / "drawn.csv")]) == 0
    with open(tmp_path / "drawn.csv", newline="") as fh:
        assert {float(row["value"]) for row in csv.DictReader(fh)} == {0.0}


def test_eval_bots_on_a_small_pitch_where_a_bot_starts_on_the_learners_cell(tmp_path):
    # four bots start on (0, 1), this checkpoint's start_right
    ckpt = soccer_checkpoint(tmp_path, rows=2, start_left=[1, 0], start_right=[0, 1])
    assert main(["eval", "bots", str(ckpt), "--games", "4", "--seeds", "1", "--generations", "1",
                 "--episodes-per-latent", "1", "--out", str(tmp_path / "bots.csv")]) == 0


def test_eval_round_robin_refuses_differing_soccer_configs_with_exit_2(tmp_path, capsys):
    paths = [soccer_checkpoint(tmp_path, name="default.ckpt"),
             soccer_checkpoint(tmp_path, name="drawn.ckpt", draw_prob=0.5)]
    assert main(["eval", "round_robin", *map(str, paths), "--games", "1",
                 "--generations", "1", "--episodes-per-latent", "1",
                 "--out", str(tmp_path / "rr.csv")]) == 2
    err = capsys.readouterr().err
    assert all(str(path) in err for path in paths)
    assert not (tmp_path / "rr.csv").exists()


def test_eval_specialization_writes_metrics(tmp_path):
    ckpt = farmworld_checkpoint(tmp_path)
    out = tmp_path / "spec.csv"
    rc = main(["eval", "specialization", str(ckpt), "--seeds", "1",
               "--episodes", "1", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        metrics = {r["metric"] for r in csv.DictReader(fh)}
    assert metrics == {"mean_specialization", "mean_episode_reward", "blunders"}


# -- replay ----------------------------------------------------------------------


def logged_episode(tmp_path):
    writer = random_episode(MultiGoal(MultiGoalConfig(max_episode_timesteps=5)), 3, np.random.default_rng(0))
    path = tmp_path / "episode.jsonl"
    writer.save(path)
    return path


def test_replay_renders_each_tick(tmp_path, capsys):
    path = logged_episode(tmp_path)
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("--- tick") == 5
    assert "G" in out  # goals are drawn


def test_replay_empty_log_succeeds_silently(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["replay", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_replay_corrupt_log_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"env": "multigoal", "seed": 1, "config": {}}\nnot json\n')
    assert main(["replay", str(path)]) == 4
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", [1, 2, 3])
@pytest.mark.parametrize("garbage", [b"\xff\xfe", bytes(range(128, 256))],
                         ids=["byte order mark", "random bytes"])
def test_replay_log_that_is_not_utf8_exit_4(tmp_path, capsys, garbage, line):
    lines = logged_episode(tmp_path).read_bytes().splitlines(keepends=True)
    lines[line - 1] = garbage + lines[line - 1]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(lines))
    assert main(["replay", str(path)]) == 4
    err = capsys.readouterr().err
    assert f"line {line}: not UTF-8" in err and "Traceback" not in err


REPLAY_HEADER = {"env": "multigoal", "seed": 1, "config": {"max_episode_timesteps": 5}}
REPLAY_RECORD = {"tick": 0, "agent_id": "agent_0", "action": 1, "reward": -0.4, "done": False}
MALFORMED_REPLAYS = {
    "numeric header": ("5", REPLAY_RECORD, 1),
    "string header": ('"multigoal"', REPLAY_RECORD, 1),
    "record not an object": (REPLAY_HEADER, 7, 2),
    "string seed": ({**REPLAY_HEADER, "seed": "x"}, REPLAY_RECORD, 1),
    "negative seed": ({**REPLAY_HEADER, "seed": -1}, REPLAY_RECORD, 1),
    "list config": ({**REPLAY_HEADER, "config": [1]}, REPLAY_RECORD, 1),
    "text max_episode_timesteps": ({**REPLAY_HEADER, "config": {"max_episode_timesteps": "x"}},
                                   REPLAY_RECORD, 1),
    "unknown config key": ({**REPLAY_HEADER, "config": {"warp_speed": 9}}, REPLAY_RECORD, 1),
    "farmworld text layout": ({**REPLAY_HEADER, "env": "farmworld", "config": {"layout": "abc"}},
                              REPLAY_RECORD, 1),
    "farmworld text start health": ({**REPLAY_HEADER, "env": "farmworld",
                                     "config": {"agent_start_health": "abc"}}, REPLAY_RECORD, 1),
    "farmworld overlapping layout": ({**REPLAY_HEADER, "env": "farmworld",
                                      "config": {"layout": OVERLAPPING_LAYOUT}}, REPLAY_RECORD, 1),
    "farmworld fence under a layout agent": ({**REPLAY_HEADER, "env": "farmworld",
                                              "config": FENCE_UNDER_LAYOUT}, REPLAY_RECORD, 1),
    "soccer pitch of 110 cells": ({**REPLAY_HEADER, "env": "soccer",
                                   "config": {"rows": 11, "cols": 10}}, REPLAY_RECORD, 1),
    "unknown env": ({"env": "cartpole", "seed": 1, "config": {}}, REPLAY_RECORD, 1),
    "ablation env": ({**REPLAY_HEADER, "env": "far_corner", "config": {}}, REPLAY_RECORD, 1),
    "string action": (REPLAY_HEADER, {**REPLAY_RECORD, "action": "a"}, 2),
    "list tick": (REPLAY_HEADER, {**REPLAY_RECORD, "tick": [0]}, 2),
    "string reward": (REPLAY_HEADER, {**REPLAY_RECORD, "reward": "x"}, 2),
    "numeric done": (REPLAY_HEADER, {**REPLAY_RECORD, "done": 1}, 2),
}


@pytest.mark.parametrize("header, record, line", MALFORMED_REPLAYS.values(),
                         ids=MALFORMED_REPLAYS.keys())
def test_replay_malformed_log_exit_4(tmp_path, capsys, header, record, line):
    path = tmp_path / "bad.jsonl"
    lines = [h if isinstance(h, str) else json.dumps(h) for h in (header, record)]
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 4
    assert f"line {line}" in capsys.readouterr().err


def test_replay_tampered_reward_exit_4(tmp_path):
    path = logged_episode(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["reward"] += 0.5
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path), "--quiet"]) == 4


def test_replay_config_edited_under_its_hash_exit_4(tmp_path, capsys):
    writer = random_episode(MarkovSoccer(), 4, np.random.default_rng(2))
    writer.header["config"]["draw_prob"] = 0.5
    log = tmp_path / "soccer.jsonl"
    writer.save(log)
    assert main(["replay", str(log), "--quiet"]) == 4
    assert "config_hash" in capsys.readouterr().err


def past_the_end(records):
    last = records[-1]["tick"] + 1
    return records + [{**rec, "tick": last} for rec in records[-2:]]


# a seeded soccer log, edited: name -> (edit of its records, words in the error)
TAMPERED_REPLAYS = {
    "record past the end": (past_the_end, "finished episode"),
    "action 9": (lambda records: [{**records[0], "action": 9}, *records[1:]], "illegal action 9"),
    "missing agent": (lambda records: records[1:], "one action per living agent"),
    "every done flipped": (lambda records: [{**rec, "done": not rec["done"]} for rec in records],
                           "recomputed done"),
    "ticks renumbered": (lambda records: [{**rec, "tick": 2 * rec["tick"]} for rec in records],
                         "tick 2 where the environment is at tick 1"),
    "agent logged twice": (lambda records: [records[0], *records], "twice at tick 0"),
    "cut short": (lambda records: records[:4], "stops at tick 2 before the episode ends"),
}


@pytest.mark.parametrize("edit, words", TAMPERED_REPLAYS.values(), ids=TAMPERED_REPLAYS.keys())
def test_replay_tampered_soccer_log_exit_4(tmp_path, capsys, edit, words):
    writer = random_episode(MarkovSoccer(), 3, np.random.default_rng(4))
    assert len(writer.records) >= 6   # at least three ticks
    log = tmp_path / "soccer.jsonl"
    writer.save(log)
    assert main(["replay", str(log), "--quiet"]) == 0
    writer.records = edit(writer.records)
    writer.save(log)
    assert main(["replay", str(log), "--quiet"]) == 4
    assert words in capsys.readouterr().err


def test_replay_farmworld_episode_via_cli(tmp_path, capsys):
    from policyspace.envs.farmworld import Farmworld, FarmworldConfig
    cfg = FarmworldConfig(width=4, height=4, num_agents=2, num_chickens=1,
                          num_towers=1, max_episode_timesteps=4)
    writer = random_episode(Farmworld(cfg), 11, np.random.default_rng(1))
    log = tmp_path / "farm.jsonl"
    writer.save(log)
    assert main(["replay", str(log)]) == 0
    out = capsys.readouterr().out
    assert "tick" in out and "A" in out
