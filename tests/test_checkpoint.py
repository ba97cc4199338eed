import numpy as np
import pytest

from helpers import rewrite_checkpoint_header
from policyspace.checkpoint import load_checkpoint, save_checkpoint
from policyspace.errors import IntegrityError
from policyspace.generator import PolicyGenerator, sample_latents
from policyspace.optim import Adam


def make_gen(seed, arch="multiplicative"):
    return PolicyGenerator(5, 4, np.random.default_rng(seed), architecture=arch,
                           hidden_dim=8)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("arch", ["concat", "multiplicative"])
def test_round_trip_is_bit_exact(tmp_path, seed, arch):
    gen = make_gen(seed, arch)
    opt = Adam(gen.parameters(), lr=1e-3)
    # take a few optimizer steps so the moments are nontrivial
    rng = np.random.default_rng(seed + 50)
    for _ in range(3):
        for p in gen.parameters():
            p.grad = rng.standard_normal(p.data.shape)
        opt.step()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, opt, step=17, env_name="multigoal",
                    env_config={"name": "multigoal"})
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.generator.get_flat(), gen.get_flat())
    assert loaded.step == 17
    assert loaded.env_name == "multigoal"
    for a, b in zip(loaded.moments, opt.state_arrays()):
        assert np.array_equal(a, b)

    opt2 = Adam(loaded.generator.parameters(), lr=1e-3)
    loaded.restore_optimizer(opt2)
    assert opt2.t == opt.t
    # save again: the two files must be byte-identical
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded.generator, opt2, step=17, env_name="multigoal",
                    env_config={"name": "multigoal"})
    assert path.read_bytes() == path2.read_bytes()


def test_training_resumes_bit_exactly_after_save_and_load(tmp_path):
    gen = make_gen(7)
    opt = Adam(gen.parameters(), lr=1e-3)
    rng = np.random.default_rng(70)

    def step(generator, optimizer, grads):
        for p, g in zip(generator.parameters(), grads):
            p.grad = g.copy()
        optimizer.step()

    for _ in range(3):
        step(gen, opt, [rng.standard_normal(p.data.shape) for p in gen.parameters()])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, opt, step=3, env_name="multigoal")
    loaded = load_checkpoint(path)
    # the moments keep the per-parameter layout: m then v, one array per weight
    assert loaded.header["moment_shapes"] == 2 * loaded.header["layer_shapes"]
    resumed = Adam(loaded.generator.parameters(), lr=1e-3)
    loaded.restore_optimizer(resumed)
    for _ in range(2):
        grads = [rng.standard_normal(p.data.shape) for p in gen.parameters()]
        step(gen, opt, grads)
        step(loaded.generator, resumed, grads)
    assert loaded.generator.get_flat().tobytes() == gen.get_flat().tobytes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(resumed.state_arrays(), opt.state_arrays()))


def test_checksum_mismatch_refuses_to_load(tmp_path):
    gen = make_gen(1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, None, step=0, env_name="multigoal")
    blob = bytearray(path.read_bytes())
    blob[-40] ^= 0x01  # flip a payload bit
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        load_checkpoint(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    gen = make_gen(2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, None)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_loaded_generator_behaves_identically(tmp_path):
    gen = make_gen(3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, None)
    loaded = load_checkpoint(path).generator
    rng = np.random.default_rng(4)
    obs = rng.random((6, 5))
    z = sample_latents(rng, 6)
    assert np.array_equal(gen.probs_np(obs, z), loaded.probs_np(obs, z))
    assert np.array_equal(gen.value_np(obs, z), loaded.value_np(obs, z))


def test_checkpoint_without_optimizer(tmp_path):
    gen = make_gen(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, gen, None, step=3)
    loaded = load_checkpoint(path)
    assert loaded.moments == []
    assert loaded.step == 3


# a valid checksum over a header that save_checkpoint would never write
MALFORMED_HEADERS = {
    "generator missing": lambda h: h.pop("generator"),
    "generator not an object": lambda h: h.update(generator="multiplicative"),
    "generator field missing": lambda h: h["generator"].pop("hidden_dim"),
    "generator field unknown": lambda h: h["generator"].update(dropout=0.5),
    "generator field mistyped": lambda h: h["generator"].update(hidden_dim="8"),
    "unknown architecture": lambda h: h["generator"].update(architecture="lstm"),
    "weight_count missing": lambda h: h.pop("weight_count"),
    "weight_count mistyped": lambda h: h.update(weight_count="100"),
    "weight_count negative": lambda h: h.update(weight_count=-1),
    "weight_count wrong": lambda h: h.update(weight_count=h["weight_count"] - 1),
    "moment_shapes missing": lambda h: h.pop("moment_shapes"),
    "moment_shapes not a list": lambda h: h.update(moment_shapes=7),
    "moment_shape negative": lambda h: h.update(moment_shapes=[[-2]]),
    "moment_shapes beyond the payload": lambda h: h.update(moment_shapes=[[3]]),
    "env_config not an object": lambda h: h.update(env_config=["soccer"]),
}


@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_with_valid_checksum_is_an_integrity_error(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_gen(6), None)
    rewrite_checkpoint_header(path, edit)
    with pytest.raises(IntegrityError, match=r"header field '\w+'|payload size"):
        load_checkpoint(path)
