import hashlib

import numpy as np
import pytest

from policyspace.envs.farmworld import (ABLATION_NAMES, CHICKEN, TOWER, VIEW_OFFSETS,
                                        Farmworld, FarmworldConfig, build_ablation,
                                        config_from_map, parse_map)
from policyspace.errors import ConfigError

UP, DOWN, RIGHT, LEFT, ATTACK, MINE = range(6)


def single_agent_env(map_text, **overrides):
    env = Farmworld(config_from_map(map_text, **overrides))
    env.reset(seed=0)
    return env


def step_all(env, action):
    acts = {a: action for a in env.living_agents()}
    return env.step(acts)


def test_living_agents_earn_exactly_point_one_per_tick():
    env = single_agent_env("A.\n..")
    _, rewards, _ = step_all(env, UP)
    assert rewards["agent_0"] == 0.1


def test_fences_shrug_off_attacks():
    env = single_agent_env("Af")
    step_all(env, RIGHT)   # blocked by the fence, but now facing it
    assert tuple(env.agent_pos[0]) == (0, 0)
    step_all(env, ATTACK)
    assert env.kind_grid[0, 1] == 4  # fence still there


def test_chicken_harvest_rule_trace():
    # one-hit chicken: face it, strike, collect the yield, timer starts
    env = single_agent_env("Ac.", chicken_max_health=1, chicken_move_probability=0.0)
    step_all(env, RIGHT)   # turn east (move blocked by the chicken)
    health_before = env.agent_health[0]
    step_all(env, ATTACK)
    assert not env.chicken_alive[0]
    assert env.chicken_timer[0] > 0
    assert env.kind_grid[0, 1] == 0
    expected = min(10.0, health_before + 3.0) - 0.1
    assert env.agent_health[0] == expected


def test_chicken_takes_max_health_hits():
    env = single_agent_env("Ac.", chicken_max_health=2, chicken_move_probability=0.0)
    step_all(env, RIGHT)
    step_all(env, ATTACK)
    assert env.chicken_alive[0]
    assert env.chicken_hits[0] == 1
    step_all(env, ATTACK)
    assert not env.chicken_alive[0]


def test_tower_becomes_haystack_then_mines_out():
    env = single_agent_env("At", tower_attacks=2, haystack_mines=2)
    step_all(env, RIGHT)
    step_all(env, ATTACK)
    assert not env.tower_hay[0]
    step_all(env, ATTACK)
    assert env.tower_hay[0]
    assert env.kind_grid[0, 1] == TOWER
    step_all(env, ATTACK)          # attacks no longer do anything
    assert env.tower_hay[0] and env.mine_left[0] == 2
    health_before = env.agent_health[0]
    step_all(env, MINE)
    step_all(env, MINE)
    assert not env.tower_alive[0]
    expected = min(10.0, (health_before - 0.1) + 5.0) - 0.1
    assert env.agent_health[0] == expected


def test_mining_a_standing_tower_does_nothing():
    env = single_agent_env("At")
    step_all(env, RIGHT)
    step_all(env, MINE)
    assert env.tower_left[0] == 2 and not env.tower_hay[0]


def test_health_decays_every_tick_and_starving_agent_dies():
    env = single_agent_env("A.", agent_start_health=0.25, health_decay=0.1)
    step_all(env, UP)
    assert env.agent_health[0] == pytest.approx(0.15)
    step_all(env, UP)
    _, rewards, dones = step_all(env, UP)
    assert dones["agent_0"] and rewards["agent_0"] == 0.0
    assert not env.agent_alive[0]
    assert env.finished  # sole agent gone ends the episode


def test_surviving_agents_carry_on_after_a_death():
    env = single_agent_env("A.A", agent_start_health=0.1)
    env.agent_health[1] = 5.0
    _, _, dones = step_all(env, UP)
    assert dones["agent_0"] and not dones["agent_1"]
    assert env.living_agents() == ["agent_1"]
    obs, rewards, dones = env.step({"agent_1": UP})
    assert rewards["agent_1"] == 0.1


def test_agents_block_each_other_and_can_fight():
    env = single_agent_env("AA", agent_attack_damage=1.0)
    first = env.agent_health[1]
    env.step({"agent_0": RIGHT, "agent_1": UP})   # move blocked by the other agent
    assert tuple(env.agent_pos[0]) == (0, 0)
    env.step({"agent_0": ATTACK, "agent_1": UP})
    # decay, then damage, then decay, in the simulator's exact order
    assert env.agent_health[1] == ((first - 0.1) - 1.0) - 0.1


def test_movement_blocked_by_border():
    env = single_agent_env("A.")
    step_all(env, UP)
    assert tuple(env.agent_pos[0]) == (0, 0)
    assert env.agent_orient[0] == 0


# -- enforced specialization ---------------------------------------------------


def locked_env():
    env = single_agent_env("cAt", enforced_specialization=True,
                           chicken_max_health=1, tower_attacks=1, haystack_mines=1,
                           chicken_move_probability=0.0)
    return env


def test_first_harvest_locks_the_agent():
    env = locked_env()
    assert env.agent_locked[0] == 0
    step_all(env, LEFT)
    step_all(env, ATTACK)
    assert env.agent_locked[0] == CHICKEN
    assert env.blunders[0] == 0


def test_locked_agent_gains_nothing_from_the_other_kind():
    env = locked_env()
    step_all(env, LEFT)
    step_all(env, ATTACK)      # locked into chickens now
    step_all(env, RIGHT)
    step_all(env, ATTACK)      # tower -> haystack
    before = env.agent_health[0]
    step_all(env, MINE)        # completes the wrong-kind harvest
    assert env.agent_health[0] == before - 0.1  # only decay, no yield
    assert env.blunders[0] == 1


def test_rule_disabled_always_allows_gains():
    env = single_agent_env("cAt", enforced_specialization=False,
                           chicken_max_health=1, tower_attacks=1, haystack_mines=1,
                           chicken_move_probability=0.0)
    step_all(env, LEFT)
    step_all(env, ATTACK)
    before = env.agent_health[0]
    step_all(env, RIGHT)
    step_all(env, ATTACK)
    step_all(env, MINE)
    assert env.agent_health[0] > before
    assert env.blunders[0] == 0
    assert env.agent_locked[0] == 0


def test_locked_state_never_reaches_observations():
    env = locked_env()
    obs_a = env._observations()["agent_0"].copy()
    env.agent_locked[0] = TOWER
    obs_b = env._observations()["agent_0"]
    assert np.array_equal(obs_a, obs_b)


# -- observations ------------------------------------------------------------


def test_observation_is_13_cells_plus_own_health():
    env = single_agent_env("A.\n..")
    obs = env._observations()["agent_0"]
    assert obs.shape == (53,)
    assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
    assert obs[-1] == env.agent_health[0] / 10.0


def test_cells_beyond_l1_radius_two_do_not_influence_observation():
    env = single_agent_env("A.....\n......\n......\n......\n......\n......")
    before = env._observations()["agent_0"].copy()
    env._set_cell(5, 5, TOWER, 1.0, 0, False)   # far corner, L1 distance 10
    after = env._observations()["agent_0"]
    assert np.array_equal(before, after)
    env._set_cell(0, 2, TOWER, 1.0, 0, False)   # L1 distance 2: visible
    assert not np.array_equal(before, env._observations()["agent_0"])


def test_border_cells_encode_type_one():
    env = single_agent_env("A.\n..")
    obs = env._observations()["agent_0"]
    cell_feats = obs[:-1].reshape(13, 4)
    offsets = VIEW_OFFSETS
    outside = [(dr, dc) for dr, dc in offsets
               if not (0 <= dr < 2 and 0 <= dc < 2)]  # agent sits at (0, 0)
    n_border = sum(np.array_equal(f, [1.0, 0.0, 0.0, 0.0]) for f in cell_feats)
    assert n_border == len(outside)


def test_observation_scan_order_is_fixed():
    env = single_agent_env("..c..\n.....\nc.A.t\n.....\n..t..", chicken_move_probability=0.0)
    obs = env._observations()["agent_0"]
    cells = obs[:-1].reshape(13, 4)
    # offsets are sorted by (dr, dc); the west chicken is offset (0, -2) = index 4
    west = list(map(tuple, VIEW_OFFSETS)).index((0, -2))
    east = list(map(tuple, VIEW_OFFSETS)).index((0, 2))
    assert cells[west][0] == pytest.approx(CHICKEN / 5.0)
    assert cells[east][0] == pytest.approx(TOWER / 5.0)


def test_at_most_one_unit_per_cell_random_rollout():
    env = Farmworld(FarmworldConfig(width=6, height=6, num_agents=3,
                                    num_chickens=4, num_towers=3, respawn_time=2))
    env.reset(seed=5)
    rng = np.random.default_rng(0)
    for _ in range(60):
        if env.finished:
            break
        env.step({a: int(rng.integers(6)) for a in env.living_agents()})
        occupied = [tuple(env.agent_pos[i]) for i in np.flatnonzero(env.agent_alive)]
        occupied += [tuple(env.chicken_pos[i]) for i in np.flatnonzero(env.chicken_alive)]
        occupied += [tuple(env.tower_pos[i]) for i in np.flatnonzero(env.tower_alive)]
        occupied += [tuple(c) for c in env.config.fence_cells]
        assert len(occupied) == len(set(occupied))


def test_replay_determinism_for_farmworld():
    cfg = FarmworldConfig(width=6, height=6, num_agents=2, num_chickens=3, num_towers=2)
    rng = np.random.default_rng(9)
    env = Farmworld(cfg)
    env.reset(seed=123)
    actions_log, rewards_log = [], []
    for _ in range(50):
        if env.finished:
            break
        acts = {a: int(rng.integers(6)) for a in env.living_agents()}
        _, rewards, _ = env.step(acts)
        actions_log.append(acts)
        rewards_log.append(rewards)
    env2 = Farmworld(cfg)
    env2.reset(seed=123)
    for acts, rewards in zip(actions_log, rewards_log):
        _, replayed, _ = env2.step(acts)
        assert replayed == rewards


PINNED_MAP = """
A..f..c
.t.f.A.
...f..t
c......
.A.ff.c
"""
PINNED_CONFIGS = {
    **{name: build_ablation(name) for name in ABLATION_NAMES},
    "specialization": FarmworldConfig(width=6, height=6, num_agents=4, num_chickens=4,
                                      num_towers=3, enforced_specialization=True,
                                      agent_food_yield=0.5, tower_attacks=1, haystack_mines=1,
                                      chicken_max_health=1, respawn_time=3),
    "map": config_from_map(PINNED_MAP, respawn_time=4, chicken_move_probability=0.5,
                           max_episode_timesteps=40),
    # one-hit food on a crowded grid: chickens and towers respawn on the same ticks
    "crowded": FarmworldConfig(width=5, height=5, num_agents=6, num_chickens=4, num_towers=4,
                               chicken_max_health=1, tower_attacks=1, haystack_mines=1,
                               respawn_time=3, agent_start_health=10.0,
                               max_episode_timesteps=60),
}


def seeded_episodes_digest(configs, seeds=(0, 1)) -> str:
    """sha256 over random-action episodes: every tick's observations, rewards
    and dones, then each episode's specialization counts, health and render."""
    digest = hashlib.sha256()
    for name, cfg in configs.items():
        for seed in seeds:
            env = Farmworld(cfg)
            obs = env.reset(seed=seed)
            rng = np.random.default_rng(seed + 100)
            while True:
                for agent in sorted(obs):
                    digest.update(agent.encode() + obs[agent].tobytes())
                if env.finished:
                    break
                obs, rewards, dones = env.step(
                    {a: int(rng.integers(6)) for a in env.living_agents()})
                digest.update(repr(sorted(rewards.items())).encode())
                digest.update(repr(sorted(dones.items())).encode())
            digest.update(f"{name} {env.specialization_counts()} "
                          f"{env.mean_final_health()!r}\n{env.render()}".encode())
    return digest.hexdigest()


def test_seeded_episodes_are_pinned():
    # recorded before the cell features became one array: every random draw
    # and every observed byte of these streams must stay the same
    assert seeded_episodes_digest(PINNED_CONFIGS) == (
        "7a7979d636faac8d760b9d43ac4cb7db68cfee91842554471a42cd0480f231c7")


# -- maps and ablations ---------------------------------------------------------


def test_parse_map_round_trip():
    layout = parse_map("A.c\n.ft\n")
    assert layout["width"] == 3 and layout["height"] == 2
    assert layout["agents"] == [[0, 0]]
    assert layout["chickens"] == [[0, 2]]
    assert layout["fences"] == [[1, 1]]
    assert layout["towers"] == [[1, 2]]


def test_parse_map_rejects_bad_chars_and_ragged_rows():
    with pytest.raises(ConfigError):
        parse_map("A?\n..")
    with pytest.raises(ConfigError):
        parse_map("A.\n...")
    with pytest.raises(ConfigError):
        parse_map("")


def test_training_config_matches_reference():
    cfg = build_ablation("training")
    assert (cfg.width, cfg.height) == (10, 10)
    assert (cfg.num_agents, cfg.num_chickens, cfg.num_towers) == (10, 10, 10)


def test_far_corner_geometry():
    cfg = build_ablation("far_corner")
    assert cfg.width == 18 and cfg.height == 18
    assert cfg.agent_region == (0, 0, 6, 6)
    assert cfg.food_region == (12, 12, 18, 18)
    env = Farmworld(cfg)
    env.reset(seed=1)
    assert np.all(env.agent_pos < 6)
    assert np.all(env.chicken_pos[env.chicken_alive] >= 12)
    assert np.all(env.tower_pos[env.tower_alive] >= 12)


def test_wall_barrier_has_a_gap_at_the_top():
    cfg = build_ablation("wall_barrier")
    walls = set(cfg.fence_cells)
    assert (0, 5) not in walls
    assert all((r, 5) in walls for r in range(1, 10))


def test_speed_and_patience_are_tiny_single_agent_maps():
    speed = build_ablation("speed")
    patience = build_ablation("patience")
    for cfg in (speed, patience):
        assert (cfg.width, cfg.height) == (2, 2)
        assert cfg.num_agents == 1 and cfg.num_towers == 1
    assert speed.tower_yield < patience.tower_yield
    assert speed.respawn_time < patience.respawn_time


def test_poison_chickens_flips_only_the_chicken_yield():
    cfg = build_ablation("poison_chickens")
    base = build_ablation("training")
    assert cfg.chicken_yield == -base.chicken_yield
    assert cfg.tower_yield == base.tower_yield


def test_unknown_ablation_rejected():
    with pytest.raises(ConfigError):
        build_ablation("gravity")


def test_poisoned_chicken_drains_health():
    env = single_agent_env("Ac", chicken_max_health=1, chicken_move_probability=0.0,
                           chicken_yield=-3.0)
    step_all(env, RIGHT)
    before = env.agent_health[0]
    step_all(env, ATTACK)
    assert env.agent_health[0] == before - 3.0 - 0.1


def test_config_fits_grid_validation():
    with pytest.raises(ConfigError):
        FarmworldConfig(width=2, height=2, num_agents=3, num_chickens=3, num_towers=0).validate()


def test_per_kind_spawn_regions():
    cfg = FarmworldConfig(width=6, height=6, num_agents=1, num_chickens=3,
                          num_towers=3, chicken_region=(0, 0, 6, 3),
                          tower_region=(0, 3, 6, 6), respawn_time=0,
                          chicken_move_probability=0.0)
    env = Farmworld(cfg)
    env.reset(seed=4)
    assert np.all(env.chicken_pos[:, 1] < 3)
    assert np.all(env.tower_pos[:, 1] >= 3)
    # respawns stay inside their region too
    env.chicken_alive[0] = False
    env.chicken_timer[0] = 0
    r, c = env.chicken_pos[0]
    env._clear_cell(r, c)
    env.step({"agent_0": UP})
    assert env.chicken_alive[0]
    assert env.chicken_pos[0][1] < 3
