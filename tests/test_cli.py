import csv
import json

import numpy as np
import pytest

from helpers import random_episode, rewrite_checkpoint_header
from policyspace.checkpoint import save_checkpoint
from policyspace.cli import build_parser, main
from policyspace.config import load_config_file, resolve_config, write_manifest
from policyspace.envs import MultiGoal
from policyspace.errors import ConfigError
from policyspace.generator import PolicyGenerator
from policyspace.latent_search import load_trace


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
    resolved = resolve_config(load_config_file(path))
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
        resolve_config(load_config_file(path))


def test_unknown_field_is_named(tmp_path):
    path = write_config(tmp_path, "[run]\nenv = multigoal\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        resolve_config(load_config_file(path))


def test_bad_type_is_reported(tmp_path):
    path = write_config(tmp_path, "[run]\nenv = multigoal\nseed = lots\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config_file(path)


def test_manifest_contains_resolved_simulator_numerics(tmp_path):
    path = write_config(tmp_path)
    rc = main(["train", str(path), "--run-dir", str(tmp_path / "run")])
    assert rc == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["env"]["max_episode_timesteps"] == 10
    assert manifest["config"]["trainer"]["learning_rate"] == 3e-4
    assert manifest["seed"] == 3
    assert manifest["env"] == "multigoal"


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
}


@pytest.mark.parametrize("text", MALFORMED_INI.values(), ids=MALFORMED_INI.keys())
def test_train_rejects_malformed_ini_with_exit_2(tmp_path, capsys, text):
    path = tmp_path / "run.ini"
    path.write_bytes(text.encode("latin-1"))
    assert main(["train", str(path), "--run-dir", str(tmp_path / "run")]) == 2
    assert "configuration error" in capsys.readouterr().err


MANIFEST_FAULTS = {
    "missing field": (lambda c: c["run"].pop("run_name"), "run_name"),
    "unknown field": (lambda c: c["trainer"].update(warp_speed=9), "warp_speed"),
    "missing section": (lambda c: c.pop("model"), "model"),
    "unknown section": (lambda c: c.update(physics={}), "physics"),
    "mistyped field": (lambda c: c["trainer"].update(batch_size="40"), "batch_size"),
    "unknown method": (lambda c: c["run"].update(method="greedy"), "method"),
}


@pytest.mark.parametrize("edit, field", MANIFEST_FAULTS.values(), ids=MANIFEST_FAULTS.keys())
def test_train_rejects_malformed_manifest_with_exit_2(tmp_path, capsys, edit, field):
    resolved = resolve_config(load_config_file(write_config(tmp_path)))
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
    lines = trace.read_text().splitlines()
    assert lines[0] == "generation,z0,z1,score,action"
    rows = load_trace(trace)
    assert len(rows) == 3
    for row, text in zip(rows, lines[1:]):
        fields = text.split(",")
        assert row["latent"] == [float(fields[1]), float(fields[2])]
        assert row["score"] == float(fields[3]) and row["action"] == fields[4]


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


def soccer_checkpoint(tmp_path, seed=0, name="soccer.ckpt", method="adap"):
    gen = PolicyGenerator(41, 5, np.random.default_rng(seed), hidden_dim=8)
    path = tmp_path / name
    save_checkpoint(path, gen, None, step=0, env_name="soccer",
                    env_config={"name": "soccer"}, extra={"method": method, "seed": seed})
    return path


def farmworld_checkpoint(tmp_path, seed=0, name="farm.ckpt"):
    gen = PolicyGenerator(53, 6, np.random.default_rng(seed), hidden_dim=8)
    path = tmp_path / name
    cfg = {"name": "farmworld", "width": 5, "height": 5, "num_agents": 2,
           "num_chickens": 2, "num_towers": 2, "max_episode_timesteps": 20}
    save_checkpoint(path, gen, None, step=0, env_name="farmworld",
                    env_config=cfg, extra={"method": "adap", "seed": seed})
    return path


HEADER_FAULTS = {
    "generator missing": lambda h: h.pop("generator"),
    "weight_count malformed": lambda h: h.update(weight_count="many"),
    "moment_shapes malformed": lambda h: h.update(moment_shapes=[["x"]]),
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
    writer = random_episode(MultiGoal(max_episode_timesteps=5), 3, np.random.default_rng(0))
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


REPLAY_HEADER = {"env": "multigoal", "seed": 1, "config": {"max_episode_timesteps": 5}}
REPLAY_RECORD = {"tick": 0, "agent_id": "agent_0", "action": 1, "reward": -0.4, "done": False}
MALFORMED_REPLAYS = {
    "numeric header": ("5", REPLAY_RECORD, 1),
    "string header": ('"multigoal"', REPLAY_RECORD, 1),
    "record not an object": (REPLAY_HEADER, 7, 2),
    "string seed": ({**REPLAY_HEADER, "seed": "x"}, REPLAY_RECORD, 1),
    "negative seed": ({**REPLAY_HEADER, "seed": -1}, REPLAY_RECORD, 1),
    "list config": ({**REPLAY_HEADER, "config": [1]}, REPLAY_RECORD, 1),
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
