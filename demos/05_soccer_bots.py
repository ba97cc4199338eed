"""Markov soccer: the pitch, the bump-steal rule, side-invariant views, one
game, and the scripted opponent lineup, whose series of 300 games each are
played together as arrays of boards (`MarkovSoccer.play_lockstep`).

Run: python demos/05_soccer_bots.py
"""

import numpy as np

from policyspace.envs import Bot, MarkovSoccer, SoccerConfig, bot_match_config
from policyspace.envs.soccer import BOT_KINDS
from policyspace.evaluation import RandomPolicy, play_game, play_series

print("== the pitch ==")
env = MarkovSoccer(SoccerConfig(initial_possession="left"))
env.reset(seed=5)
print(env.render())
print("(L/R are the players, * marks the ball carrier, | the goal mouths)")

print("\n== bumping the carrier steals the ball ==")
env = MarkovSoccer(SoccerConfig(draw_prob=0.0, initial_possession="right",
                                start_left=(1, 1), start_right=(1, 2)))
env.reset(seed=0)
print(f"before: possession={env.possession}")
env.step({"left": 3, "right": 4})   # left walks into the carrier, right stands
print(f"after the bump: possession={env.possession}, positions unchanged: {env.pos}")

print("\n== both sides see a board on which they attack rightwards ==")
env.reset(seed=0)
left_view = env.observe("left")
right_view = env.observe("right")
print(f"observation size {left_view.size} "
      f"(own cell one-hot + opponent cell one-hot + possession flag)")
print(f"possession flag: left sees {left_view[-1]:.0f}, right sees {right_view[-1]:.0f}")

print("\n== one game between two random movers ==")
env = MarkovSoccer()
result = play_game(env, RandomPolicy(), RandomPolicy(), seed=3, rng=np.random.default_rng(3))
print(env.render())
print(f"result after {env.tick} ticks: {result}")

print("\n== the scripted lineup, each series played in lockstep ==")
rng = np.random.default_rng(1)
for kind in BOT_KINDS:
    bot = Bot(kind)
    config = bot_match_config(bot)
    series = play_series(MarkovSoccer(config), bot, RandomPolicy(), 300, rng,
                         perspective="left")
    print(f"{kind:>12s} ({bot.role:>7s}) vs a random mover over 300 games: "
          f"{series.wins}W {series.losses}L {series.draws}D")
