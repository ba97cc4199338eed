"""Each output check accepts a right output and rejects a deliberately wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np
import pytest

import checks
from policyspace.autodiff import Tensor
from policyspace.checkpoint import load_checkpoint, save_checkpoint
from policyspace.diversity import DiversityConfig
from policyspace.evaluation import MatchScore
from policyspace.generator import PolicyGenerator, sample_latents
from policyspace.latent_search import SearchConfig, optimize_latents
from policyspace.optim import Adam
from policyspace.training import TrainerConfig

OBS, ACTIONS = 5, 4


@pytest.fixture
def gen():
    return PolicyGenerator(OBS, ACTIONS, np.random.default_rng(0), hidden_dim=8)


@pytest.fixture
def rows(gen):
    rng = np.random.default_rng(1)
    n = 40
    obs = rng.standard_normal((n, OBS))
    latents = sample_latents(rng, n)
    actions, log_probs, _ = gen.act(obs, latents, rng)
    return {"obs": obs, "latents": latents, "actions": actions,
            # perturbed old log-probs put the ratios away from 1, on both sides of the clip
            "log_probs_old": log_probs + rng.uniform(-0.5, 0.5, n),
            "advantages": rng.standard_normal(n), "value_targets": rng.standard_normal(n)}


def test_forward_paths(gen, rows):
    checks.forward_paths_identical(gen, rows["obs"], rows["latents"])

    class OneUlpOff(PolicyGenerator):
        def logits_np(self, obs, z):
            out = super().logits_np(obs, z)
            out[0, 0] = np.nextafter(out[0, 0], np.inf)
            return out

    wrong = OneUlpOff(OBS, ACTIONS, np.random.default_rng(0), hidden_dim=8)
    with pytest.raises(checks.CheckFailed):
        checks.forward_paths_identical(wrong, rows["obs"], rows["latents"])


def test_gradients(gen, rows):
    cfg = TrainerConfig(diversity=DiversityConfig(num_latents=4, num_states=6, coef=0.2))
    kept = checks.smooth_rows(gen, rows, cfg.clip_epsilon)
    div_latents = sample_latents(np.random.default_rng(2), 4)
    loss = lambda: checks.training_loss(gen, kept, cfg, kept["obs"][:6], div_latents)
    coords = np.random.default_rng(3).choice(gen.get_flat().size, size=6, replace=False)
    checks.gradients_match(loss, gen, coords)

    def wrong_backward():
        """The same loss, doubled, with a backward that passes the gradient once."""
        x = loss()
        out = Tensor(2.0 * x.data, parents=(x,), op="double")
        out._backward = lambda g: x._accum(g)
        return out

    with pytest.raises(checks.CheckFailed):
        checks.gradients_match(wrong_backward, gen, coords)


def test_smooth_rows_drop_clip_edges(gen, rows):
    edge = dict(rows)
    logits = gen.logits_np(rows["obs"], rows["latents"])
    logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    taken = logp[np.arange(len(logp)), rows["actions"]]
    edge["log_probs_old"] = taken - np.log(1.2)    # every ratio exactly at 1 + 0.2
    edge["log_probs_old"][0] = taken[0]            # ratio 1, inside the clip range
    assert len(checks.smooth_rows(gen, edge, 0.2)["actions"]) == 1


def test_banked_steps():
    checks.banked_steps(8000, 8000, 80)
    checks.banked_steps(8079, 8000, 80)
    for wrong in (7999, 8080):
        with pytest.raises(checks.CheckFailed):
            checks.banked_steps(wrong, 8000, 80)


def test_ppo_ranges():
    checks.ppo_ranges(1.0, 0.5, ACTIONS)
    checks.ppo_ranges(np.log(ACTIONS), 1.0, ACTIONS)
    for entropy, l_div in ((0.0, 0.5), (np.log(ACTIONS) + 1e-9, 0.5), (1.0, 0.0), (1.0, 1.5)):
        with pytest.raises(checks.CheckFailed):
            checks.ppo_ranges(entropy, l_div, ACTIONS)


def test_checkpoint_roundtrip(gen, tmp_path):
    opt = Adam(gen.parameters())
    for p in gen.parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    path = str(tmp_path / "g.ckpt")
    save_checkpoint(path, gen, opt)
    checks.checkpoint_roundtrip(gen, opt, load_checkpoint(path))

    flipped = load_checkpoint(path)
    flat = flipped.generator.get_flat()
    flat[3] = np.nextafter(flat[3], np.inf)
    flipped.generator.set_flat(flat)
    with pytest.raises(checks.CheckFailed):
        checks.checkpoint_roundtrip(gen, opt, flipped)

    moved = load_checkpoint(path)
    moved.moments[0] = moved.moments[0] + 1.0
    with pytest.raises(checks.CheckFailed):
        checks.checkpoint_roundtrip(gen, opt, moved)


def search():
    """A 40-generation search whose scores lie in [0, 20], as Farmworld's do."""
    return optimize_latents(lambda z: 10.0 * (1.0 + float(z[2])),
                            np.random.default_rng(4), SearchConfig(generations=40))


def test_adapt_result():
    checks.adapt_result(search(), 40, 20.0)
    wrong = [
        lambda r: r.trace.pop(),                                     # a generation missing
        lambda r: setattr(r, "best_latent", r.best_latent * 1.001),  # off the sphere
        lambda r: r.trace[5].update(score=-0.1),                     # below the reward range
        lambda r: r.trace[5].update(score=20.5),                     # above it
        lambda r: setattr(r, "best_score", r.best_score + 1.0),      # not that latent's score
    ]
    for spoil in wrong:
        result = search()
        spoil(result)
        with pytest.raises(checks.CheckFailed):
            checks.adapt_result(result, 40, 20.0)


def test_gauntlet():
    z = np.array([1.0, 0.0, 0.0])
    results = {"straight": {"score": MatchScore(3, 5, 2), "latent": z},
               "random": {"score": MatchScore(0, 0, 10), "latent": z}}
    checks.gauntlet(results, ("straight", "random"), 10)
    with pytest.raises(checks.CheckFailed):
        checks.gauntlet(results, ("straight", "random"), 11)
    with pytest.raises(checks.CheckFailed):
        checks.gauntlet(results, ("straight", "random", "stand"), 10)
    results["random"]["score"].draws = 9
    with pytest.raises(checks.CheckFailed):
        checks.gauntlet(results, ("straight", "random"), 10)


def test_same_outputs():
    checks.same_outputs([{"w": b"\x00"}, (1, 2.0)], [{"w": b"\x00"}, (1, 2.0)])
    with pytest.raises(checks.CheckFailed):
        checks.same_outputs([{"w": b"\x00"}], [{"w": b"\x01"}])
    with pytest.raises(checks.CheckFailed):
        checks.same_outputs([(1, 2.0)], [(1, 2.0), (1, 2.0)])
