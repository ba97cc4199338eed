"""Binary checkpoints: generator weights, optimizer moments, step counter.

Layout: magic, little-endian u32 header length, canonical-JSON header
(format version, architecture tag, latent/hidden dims, layer shapes, env
name and config, trainer step), float64 little-endian payload (weights in
declared parameter order, then optimizer moment arrays), and a SHA-256
checksum over header+payload. Loading verifies the checksum and refuses
corrupt files; save/load round-trips are bit-identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .envs import ENVIRONMENTS, make_config
from .envs.base import field_types, type_rule
from .errors import ConfigError, IntegrityError, open_input
from .generator import GeneratorConfig, PolicyGenerator

MAGIC = b"PSPC"
FORMAT_VERSION = 1


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_shapes(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(shape, list) and all(map(_is_count, shape)) for shape in value)


_is_text, _is_object = type_rule(str), type_rule(dict)

# the header fields that loading and its callers read; `generator` is a
# GeneratorConfig, whose validate() runs when the generator is built
HEADER_FIELDS = {
    "generator": lambda v: _is_object(v) and set(v) == set(field_types(GeneratorConfig)),
    "weight_count": _is_count,
    "moment_shapes": _is_shapes,
    "optimizer_step": _is_count,
    "step": _is_count,
    "env": _is_text,
    "env_config": _is_object,
    "extra": _is_object,
}


def save_checkpoint(path, gen: PolicyGenerator, optimizer=None, step: int = 0,
                    env_name: str = "", env_config: dict | None = None,
                    extra: dict | None = None):
    weights = gen.get_flat()
    moments = optimizer.state_arrays() if optimizer is not None else []
    header = {
        "format_version": FORMAT_VERSION,
        "generator": gen.describe(),
        "layer_shapes": [list(p.data.shape) for p in gen.parameters()],
        "weight_count": int(weights.size),
        "moment_shapes": [list(m.shape) for m in moments],
        "optimizer_step": int(optimizer.t) if optimizer is not None else 0,
        "step": int(step),
        "env": env_name,
        "env_config": env_config or {},
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = weights.astype("<f8").tobytes()
    for m in moments:
        payload += m.astype("<f8").ravel().tobytes()
    digest = hashlib.sha256(header_bytes + payload).digest()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        fh.write(payload)
        fh.write(digest)


class LoadedCheckpoint:
    def __init__(self, header: dict, generator: PolicyGenerator, moments: list, step: int):
        self.header = header
        self.generator = generator
        self.moments = moments
        self.step = step

    @property
    def env_name(self) -> str:
        return self.header["env"]

    @property
    def env_config(self) -> dict:
        return self.header["env_config"]

    def restore_optimizer(self, optimizer):
        if self.moments:
            optimizer.load_state(self.moments, self.header["optimizer_step"])


def load_checkpoint(path) -> LoadedCheckpoint:
    with open_input(path) as fh:
        blob = fh.read()
    if blob[:4] != MAGIC or len(blob) < 40:
        raise IntegrityError(f"{path}: not a checkpoint file")
    header_len = int.from_bytes(blob[4:8], "little")
    header_bytes = blob[8:8 + header_len]
    payload = blob[8 + header_len:-32]
    digest = blob[-32:]
    if hashlib.sha256(header_bytes + payload).digest() != digest:
        raise IntegrityError(f"{path}: checksum mismatch, refusing to load")
    header = _read_header(path, header_bytes)
    try:
        gen = PolicyGenerator.from_description(header["generator"])
    except ConfigError as exc:
        raise IntegrityError(f"{path}: header field 'generator': {exc}") from exc
    n = header["weight_count"]
    if n != gen.parameter_count:
        raise IntegrityError(f"{path}: header field 'weight_count' is {n}, but the "
                             f"generator has {gen.parameter_count} weights")
    sizes = [int(np.prod(shape)) if shape else 1 for shape in header["moment_shapes"]]
    if len(payload) != 8 * (n + sum(sizes)):
        raise IntegrityError(f"{path}: payload size mismatch")
    flat = np.frombuffer(payload, dtype="<f8")
    gen.set_flat(flat[:n].astype(np.float64))
    moments = []
    offset = n
    for shape, size in zip(header["moment_shapes"], sizes):
        moments.append(flat[offset:offset + size].reshape(shape).astype(np.float64).copy())
        offset += size
    return LoadedCheckpoint(header, gen, moments, header["step"])


def _read_header(path, header_bytes: bytes) -> dict:
    """Parse a header; check HEADER_FIELDS and the named simulator's `env_config`."""
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise IntegrityError(f"{path}: header is not JSON") from exc
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise IntegrityError(f"{path}: unsupported format version "
                             f"{header.get('format_version')!r}")
    for field, valid in HEADER_FIELDS.items():
        if field not in header:
            raise IntegrityError(f"{path}: header field {field!r} is missing")
        if not valid(header[field]):
            raise IntegrityError(f"{path}: header field {field!r} is malformed: "
                                 f"{header[field]!r}")
    if header["env"] in ENVIRONMENTS:
        try:
            make_config(header["env"], header["env_config"])
        except ConfigError as exc:
            raise IntegrityError(f"{path}: header field 'env_config': {exc}") from exc
    return header
