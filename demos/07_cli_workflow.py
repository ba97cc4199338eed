"""The whole command-line workflow in one script: write a config, train,
inspect the run directory, adapt the checkpoint by latent search, and
replay a logged episode.

Run: python demos/07_cli_workflow.py
"""

import json
import os
import tempfile

import numpy as np

from policyspace.cli import main
from policyspace.envs import MultiGoal, MultiGoalConfig
from policyspace.replay import ReplayWriter

CONFIG = """\
[run]
env = multigoal
method = adap
seed = 1
epochs = 5
checkpoint_every = 0

[trainer]
batch_size = 500
minibatch_size = 125
sgd_iters = 4
num_envs = 8

[model]
hidden_dim = 16
"""

work = tempfile.mkdtemp(prefix="policyspace-demo-")
config_path = os.path.join(work, "run.ini")
with open(config_path, "w") as fh:
    fh.write(CONFIG)

print(f"== train (5 tiny iterations) ==")
run_dir = os.path.join(work, "run")
code = main(["train", config_path, "--run-dir", run_dir])
print(f"exit code {code}; run directory holds: {sorted(os.listdir(run_dir))}")
manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
print(f"manifest snapshot: env={manifest['env']} seed={manifest['seed']} "
      f"lr={manifest['config']['trainer']['learning_rate']}")

print("\n== adapt the frozen checkpoint ==")
ckpt = os.path.join(run_dir, "checkpoint.ckpt")
trace = os.path.join(work, "trace.csv")
main(["adapt", ckpt, "--generations", "20", "--seed", "5", "--trace-out", trace])
print(f"search trace rows: {len(open(trace).readlines()) - 1}")

print("\n== record and replay an episode ==")
env = MultiGoal(MultiGoalConfig(max_episode_timesteps=3))
env.reset(seed=9)
writer = ReplayWriter(env)
rng = np.random.default_rng(0)
while not env.finished:
    actions = {a: int(rng.integers(5)) for a in env.living_agents()}
    tick = env.tick
    _, rewards, dones = env.step(actions)
    writer.record_step(tick, actions, rewards, dones)
log = os.path.join(work, "episode.jsonl")
writer.save(log)
main(["replay", log])
print(f"\nartifacts left in {work}")
