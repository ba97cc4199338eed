import json

import numpy as np
import pytest

from policyspace.envs import (ABLATION_NAMES, Farmworld, FarmworldConfig, MultiGoal,
                              MultiGoalConfig, make_config, make_env)
from policyspace.envs.multigoal import CORNERS
from policyspace.errors import ConfigError, IntegrityError
from policyspace.replay import read_replay, replay_episode

from helpers import random_episode


def test_reset_same_seed_gives_identical_observations():
    env = MultiGoal()
    a = env.reset(seed=7)["agent_0"]
    b = env.reset(seed=7)["agent_0"]
    assert np.array_equal(a, b)
    c = env.reset(seed=8)["agent_0"]
    assert not np.array_equal(a, c)


def test_goals_are_the_four_unit_square_corners():
    env = MultiGoal()
    corners = {tuple(g) for g in env.goals}
    assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_roster_matches_config():
    env = MultiGoal()
    env.reset(seed=0)
    assert env.agent_ids == ("agent_0",)
    assert env.living_agents() == ["agent_0"]


def test_reward_is_negative_distance_to_nearest_goal():
    env = MultiGoal(MultiGoalConfig(start_jitter=0.0))
    env.reset(seed=0)
    _, rewards, _ = env.step({"agent_0": 4})  # stay at the center
    expected = -float(np.linalg.norm(CORNERS - env.position, axis=1).min())
    assert rewards["agent_0"] == expected


def test_reaching_a_goal_ends_the_episode():
    env = MultiGoal(MultiGoalConfig(start_jitter=0.0))
    env.reset(seed=0)
    env.position = np.array([0.08, 0.0])  # one step left of the (0,0) goal zone
    _, _, dones = env.step({"agent_0": 3})
    assert dones["agent_0"]
    assert env.finished


def test_done_after_max_episode_timesteps():
    env = MultiGoal(MultiGoalConfig(max_episode_timesteps=5, start_jitter=0.0))
    env.reset(seed=0)
    for _ in range(4):
        _, _, dones = env.step({"agent_0": 4})
        assert not dones["agent_0"]
    _, _, dones = env.step({"agent_0": 4})
    assert dones["agent_0"]


def test_illegal_action_is_rejected_not_clamped():
    env = MultiGoal()
    env.reset(seed=0)
    with pytest.raises(ConfigError):
        env.step({"agent_0": 5})
    with pytest.raises(ConfigError):
        env.step({"agent_0": -1})


def test_stepping_a_finished_environment_raises():
    env = MultiGoal(MultiGoalConfig(max_episode_timesteps=1))
    env.reset(seed=0)
    env.step({"agent_0": 4})
    with pytest.raises(ConfigError):
        env.step({"agent_0": 4})


def test_wrong_agent_set_raises():
    env = MultiGoal()
    env.reset(seed=0)
    with pytest.raises(ConfigError):
        env.step({"someone_else": 0})


# -- the step contract, for every simulator ------------------------------------------


def started(name):
    env = make_env(name)
    env.reset(seed=0)
    return env


def finished(name):
    env = started(name)
    while not env.finished:
        env.step({agent: 0 for agent in env.living_agents()})
    return env


def step_faults(env):
    """(actions, the exact ConfigError message) for each malformed step."""
    living = env.living_agents()
    first, rest = living[0], living[1:]
    good = {agent: 0 for agent in living}
    need = f"{env.name}: need exactly one action per living agent ({sorted(living)}), got "
    return {
        "missing agent": (dict.fromkeys(rest, 0), need + str(sorted(rest))),
        "unknown agent": ({**good, "ghost": 0}, need + str(sorted([*living, "ghost"]))),
        "action -1": ({**good, first: -1}, f"{env.name}: illegal action -1 for {first}"),
        "action num_actions": ({**good, first: env.num_actions},
                               f"{env.name}: illegal action {env.num_actions} for {first}"),
        # an id is legal only if it is in range(num_actions): none is truncated
        "action 2.7": ({**good, first: 2.7}, f"{env.name}: illegal action 2.7 for {first}"),
        "action '3'": ({**good, first: "3"}, f"{env.name}: illegal action '3' for {first}"),
        "action None": ({**good, first: None}, f"{env.name}: illegal action None for {first}"),
        # a bool or a float equal to an id is not one
        "action True": ({**good, first: True}, f"{env.name}: illegal action True for {first}"),
        "action 2.0": ({**good, first: 2.0}, f"{env.name}: illegal action 2.0 for {first}"),
        "action np.float64(1)": ({**good, first: np.float64(1)},
                                 f"{env.name}: illegal action {np.float64(1)!r} for {first}"),
    }


@pytest.mark.parametrize("name", ["multigoal", "farmworld", "soccer"])
@pytest.mark.parametrize("fault", ["missing agent", "unknown agent", "action -1",
                                   "action num_actions", "action 2.7", "action '3'",
                                   "action None", "action True", "action 2.0",
                                   "action np.float64(1)"])
def test_step_rejects_a_malformed_action_set(name, fault):
    env = started(name)
    actions, message = step_faults(env)[fault]
    with pytest.raises(ConfigError) as caught:
        env.step(actions)
    assert str(caught.value) == message
    assert env.tick == 0 and not env.finished


@pytest.mark.parametrize("name", ["multigoal", "farmworld", "soccer"])
def test_step_accepts_a_numpy_integer_action_as_its_int(name):
    by_numpy, by_int = started(name), started(name)
    first = by_numpy.living_agents()[0]
    actions = {agent: 0 for agent in by_numpy.living_agents()}
    obs_numpy, rewards_numpy, dones_numpy = by_numpy.step({**actions, first: np.int64(2)})
    obs_int, rewards_int, dones_int = by_int.step({**actions, first: 2})
    assert by_numpy.tick == by_int.tick == 1
    assert (rewards_numpy, dones_numpy) == (rewards_int, dones_int)
    assert obs_numpy.keys() == obs_int.keys()
    for agent in obs_int:
        assert np.array_equal(obs_numpy[agent], obs_int[agent])


@pytest.mark.parametrize("name", ["multigoal", "farmworld", "soccer"])
def test_step_after_the_finish_raises(name):
    env = finished(name)
    with pytest.raises(ConfigError) as caught:
        env.step({agent: 0 for agent in env.agent_ids})
    assert str(caught.value) == f"{env.name}: step() on a finished episode"


def test_positions_stay_in_unit_square():
    env = MultiGoal(MultiGoalConfig(start_jitter=0.0))
    env.reset(seed=3)
    for _ in range(40):
        if env.finished:
            break
        env.step({"agent_0": 3})  # push left past the wall
        assert 0.0 <= env.position[0] <= 1.0


def test_make_env_registry():
    assert make_env("multigoal").name == "multigoal"
    assert make_env("farmworld").name == "farmworld"
    assert make_env("soccer").name == "soccer"
    assert make_env("far_corner").config.width == 18
    with pytest.raises(ConfigError):
        make_env("cartpole")


@pytest.mark.parametrize("name", ["multigoal", "farmworld", "soccer", *ABLATION_NAMES[1:]])
def test_config_dict_round_trips_through_make_env(name):
    env = make_env(name)
    again = make_env(env.name, json.loads(json.dumps(env.config_dict())))
    assert again.config == env.config
    assert again.config_dict() == env.config_dict()


def test_make_config_makes_json_values_exact():
    cfg = make_config("farmworld", {"name": "farmworld", "agent_start_health": 5,
                                    "agent_region": [0, 0, 3, 3], "fence_cells": [[4, 4]]})
    assert type(cfg.agent_start_health) is float
    assert cfg.agent_region == (0, 0, 3, 3) and cfg.fence_cells == ((4, 4),)
    with pytest.raises(ConfigError, match="warp_speed"):
        make_config("soccer", {"warp_speed": 1})
    with pytest.raises(ConfigError, match="named 'farmworld'"):
        make_config("soccer", {"name": "farmworld"})


def test_an_integer_start_health_still_makes_float_health():
    env = Farmworld(FarmworldConfig(agent_start_health=5, width=4, height=4, num_agents=2,
                                    num_chickens=0, num_towers=0))
    env.reset(seed=0)
    assert env.agent_health.dtype == np.float64


# -- replay logs ------------------------------------------------------------


def test_replay_reproduces_rewards_bit_exactly(tmp_path):
    env = MultiGoal()
    writer = random_episode(env, seed=11, policy_rng=np.random.default_rng(5))
    path = tmp_path / "episode.jsonl"
    writer.save(path)
    header, records = read_replay(path)
    ticks = replay_episode(MultiGoal(), header, records)
    assert ticks == len({r["tick"] for r in records})


def test_replay_detects_tampered_reward(tmp_path):
    env = MultiGoal()
    writer = random_episode(env, seed=11, policy_rng=np.random.default_rng(5))
    writer.records[3]["reward"] += 1e-12
    path = tmp_path / "episode.jsonl"
    writer.save(path)
    header, records = read_replay(path)
    with pytest.raises(IntegrityError, match="diverged"):
        replay_episode(MultiGoal(), header, records)


def test_corrupt_replay_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"env": "multigoal", "seed": 1, "config_hash": "x", "config": {}}\n'
                    "this is not json\n")
    with pytest.raises(IntegrityError, match="line 2"):
        read_replay(path)


def test_missing_step_fields_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"env": "multigoal", "seed": 1, "config_hash": "x", "config": {}}\n'
                    '{"tick": 0, "agent_id": "agent_0"}\n')
    with pytest.raises(IntegrityError, match="line 2"):
        read_replay(path)


def test_empty_replay_is_fine(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    header, records = read_replay(path)
    assert header == {} and records == []


def test_replay_on_wrong_env_raises(tmp_path):
    env = MultiGoal()
    writer = random_episode(env, seed=2, policy_rng=np.random.default_rng(0))
    path = tmp_path / "episode.jsonl"
    writer.save(path)
    header, records = read_replay(path)
    from policyspace.envs import MarkovSoccer
    with pytest.raises(ConfigError):
        replay_episode(MarkovSoccer(), header, records)


def test_header_contains_env_seed_and_config_hash(tmp_path):
    env = MultiGoal()
    writer = random_episode(env, seed=9, policy_rng=np.random.default_rng(1))
    path = tmp_path / "episode.jsonl"
    writer.save(path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["env"] == "multigoal"
    assert header["seed"] == 9
    assert isinstance(header["config_hash"], str)
