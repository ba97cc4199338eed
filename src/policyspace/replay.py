"""Episode replay logs: JSON-lines, one header then one record per agent-step.

Header: {"env": name, "seed": seed, "config_hash": hex, "config": {...}}
Step:   {"tick": t, "agent_id": a, "action": n, "reward": r, "done": bool}

Replaying a log rebuilds the environment from (config, seed), checks the
config against its hash, feeds the logged actions back in, and must
reproduce the logged ticks, dones and rewards, the rewards bit-exactly, and
end where the episode ends.
"""

from __future__ import annotations

import hashlib
import json

from .envs import ENVIRONMENTS, make_config
from .envs.base import type_name, type_rule
from .errors import ConfigError, IntegrityError, open_input


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class ReplayWriter:
    """Accumulates one episode's records; write them with ``save``."""

    def __init__(self, env):
        self.header = {
            "env": env.name,
            "seed": env.seed,
            "config_hash": config_hash(env.config_dict()),
            "config": env.config_dict(),
        }
        self.records = []

    def record(self, tick: int, agent_id: str, action: int, reward: float, done: bool):
        self.records.append({
            "tick": int(tick),
            "agent_id": str(agent_id),
            "action": int(action),
            "reward": float(reward),
            "done": bool(done),
        })

    def record_step(self, tick: int, actions: dict, rewards: dict, dones: dict):
        for agent_id in sorted(actions):
            self.record(tick, agent_id, actions[agent_id], rewards[agent_id], dones[agent_id])

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


# field -> type, checked by the config type rule (bool is not an int)
HEADER_TYPES = {"env": str, "seed": int, "config": dict}
RECORD_TYPES = {"tick": int, "agent_id": str, "action": int, "reward": float, "done": bool}


def _checked(obj, types: dict, required, lineno: int) -> dict:
    where = f"corrupt replay line {lineno}"
    if not isinstance(obj, dict):
        raise IntegrityError(f"{where}: not a JSON object")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise IntegrityError(f"{where}: missing {missing}")
    for key, typ in types.items():
        if key in obj and not type_rule(typ)(obj[key]):
            raise IntegrityError(f"{where}: field {key!r} is {obj[key]!r}, not {type_name(typ)}")
    return obj


def read_replay(path) -> tuple[dict, list[dict]]:
    """Parse a replay log; a corrupt or mistyped line aborts with its number."""
    header = None
    records = []
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as exc:
                raise IntegrityError(f"corrupt replay line {lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IntegrityError(f"corrupt replay line {lineno}: {exc}") from exc
            if header is None:
                header = _checked(obj, HEADER_TYPES, ("env", "seed"), lineno)
                if header["seed"] < 0:
                    raise IntegrityError(f"corrupt replay line {lineno}: negative seed")
                if header["env"] not in ENVIRONMENTS:
                    raise IntegrityError(f"corrupt replay line {lineno}: env {header['env']!r} "
                                         f"is not one of {sorted(ENVIRONMENTS)}")
                try:
                    make_config(header["env"], header.get("config", {}))
                except ConfigError as exc:
                    raise IntegrityError(f"corrupt replay line {lineno}: "
                                         f"config: {exc}") from exc
            else:
                records.append(_checked(obj, RECORD_TYPES, RECORD_TYPES, lineno))
    return header or {}, records


def group_by_tick(records: list[dict]) -> list[tuple[int, dict]]:
    """Records as (tick, agent -> record), by tick; one agent logged twice at
    one tick is a tampered log."""
    ticks: dict[int, dict] = {}
    for rec in records:
        agents = ticks.setdefault(rec["tick"], {})
        if rec["agent_id"] in agents:
            raise IntegrityError(f"replay logs agent {rec['agent_id']} twice at tick {rec['tick']}")
        agents[rec["agent_id"]] = rec
    return sorted(ticks.items())


def replay_episode(env, header: dict, records: list[dict], on_tick=None) -> int:
    """Drive `env` through a logged episode, checking each logged tick, reward
    and done against the recomputed ones; rewards bit-exactly. A step the
    environment refuses (an illegal action, a missing agent, a record past
    the episode's end) is a tampered log too, and so is a log whose records
    stop before the episode ends: all raise IntegrityError.

    `on_tick(env, tick)` is called after each step (rendering hook).
    Returns the number of ticks replayed.
    """
    if header.get("env") != env.name:
        raise ConfigError(f"log is for env {header.get('env')!r}, not {env.name!r}")
    if "config_hash" in header and header["config_hash"] != config_hash(env.config_dict()):
        raise IntegrityError(f"replay config_hash {header['config_hash']!r} does not match "
                             f"the environment's config {config_hash(env.config_dict())!r}")
    env.reset(header["seed"])
    for tick, agent_records in group_by_tick(records):
        if tick != env.tick:
            raise IntegrityError(f"replay logs tick {tick} where the environment "
                                 f"is at tick {env.tick}")
        actions = {a: rec["action"] for a, rec in agent_records.items()}
        try:
            _, rewards, dones = env.step(actions)
        except ConfigError as exc:
            raise IntegrityError(f"replay refused at tick {tick}: {exc}") from exc
        for agent_id, rec in agent_records.items():
            for key, recomputed in (("reward", rewards[agent_id]), ("done", dones[agent_id])):
                if recomputed != rec[key]:
                    raise IntegrityError(
                        f"replay diverged at tick {tick}, agent {agent_id}: "
                        f"recomputed {key} {recomputed!r} != logged {rec[key]!r}")
        if on_tick is not None:
            on_tick(env, tick)
    if records and not env.finished:
        raise IntegrityError(f"replay stops at tick {env.tick} before the episode ends")
    return env.tick   # each logged tick was checked against it
