"""Evaluation protocols: niche specialization, ablation adaptation sweeps,
scripted-bot gauntlets, and generator-vs-generator round robins.

Scores between policy families follow a two-pass selection: first pick the
opponent-side latent that does best against the *whole* family of the other
generator, then pick the reply latent that best exploits that fixed choice,
and only then play the scored series. Soccer series are reported as
wins - losses over the configured number of games.

Games and episodes reuse their environment: the games of a bot's search
and series, or of a round-robin pair, are played on the one `MarkovSoccer`
built for them, and `play_episodes` resets the one environment of its call.

A soccer player is anything with an `act(env, side, rng)` method: a
`LatentPolicy`, a `RandomPolicy`, or a scripted `Bot`, which plays the left
side. A search's batches of a few games are played one by one
(`play_seeded_games`), each a `MarkovSoccer.reset_pair` with its own seed and
one `MarkovSoccer.play`; a scored series is played in lockstep
(`play_series`). The pitch draws its uniforms from its own generator,
seeded by the game's seed (see `envs.soccer`), and the players from another.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import softmax_np
from .envs import Bot, MarkovSoccer, SoccerConfig, bot_match_config, build_ablation
from .envs.farmworld import Farmworld
from .errors import ConfigError
from .generator import PolicyGenerator, sample_latents
from .latent_search import SearchConfig, episode_score_fn, optimize_latents, play_episodes


def specialization(record: dict) -> float:
    """1 minus the normalized binary entropy of an agent's attack mix.

    `record` carries `chicken_attacks` and `tower_attacks`; an agent that
    never attacked either resource scores 0 (no evidence of a niche).
    """
    chicken = record["chicken_attacks"]
    tower = record["tower_attacks"]
    if chicken < 0 or tower < 0:
        raise ConfigError("attack counts must be non-negative")
    total = chicken + tower
    if total == 0:
        return 0.0
    p = tower / total
    if p == 0.0 or p == 1.0:
        return 1.0
    entropy = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    return float(1.0 - entropy)


# -- soccer matches ------------------------------------------------------------


class BoardFeatures:
    """One generator's latent-free forward on the boards of one pitch: every
    board's at once, computed at the first `probs`. The policies of one
    search share one; the gauntlet and round-robin functions keep one per
    generator for the length of one call. The first use fixes the pitch's
    `board_count`, and a later environment with another count is refused:
    its board indices number other boards.

    What is kept is the latent's terms (`PolicyGenerator.latent_terms`): a
    multiplicative generator's logits are affine in the latent, a base plus
    one part per latent coordinate, so `probs` under a latent is
    softmax(base + z_0 * part_0 + z_1 * part_1 + ...) over the kept boards,
    summed in that order: arithmetic on (boards, actions) arrays, with no
    pass through the hidden layers. A `concat` generator's logits are not
    affine in the latent, so its observation rows are kept, and `probs` is
    `probs_np` of them."""

    def __init__(self, gen: PolicyGenerator):
        self.gen = gen
        self.board_count = None
        self._table = None

    def probs(self, env: MarkovSoccer, latent: np.ndarray) -> np.ndarray:
        """The action distributions under `latent` of every board of `env`'s
        pitch. The first call computes what is kept; terms are kept in
        column-major order, so that a fill's sums and reductions over each
        board's few actions run along contiguous columns."""
        if env.board_count != self.board_count:
            if self.board_count is not None:
                raise ConfigError(f"board features of a {self.board_count}-board pitch "
                                  f"cannot serve a {env.board_count}-board pitch")
            self.board_count = env.board_count
        if self._table is None:
            obs = env.board_observations()
            terms = self.gen.latent_terms(obs)
            if terms is None:
                self._table = obs, None
            else:
                base, parts = terms
                self._table = None, (np.asfortranarray(base),
                                     [np.asfortranarray(part) for part in parts])
        obs, terms = self._table
        if terms is None:
            return self.gen.probs_np(obs, latent[None])
        base, parts = terms
        logits = base + latent[0] * parts[0]
        for i in range(1, len(parts)):
            logits += latent[i] * parts[i]
        return softmax_np(logits)


class LatentPolicy:
    """A generator frozen at one latent, acting from side-invariant observations.

    A soccer observation is a function of `MarkovSoccer.board_index`, so the
    policy keeps each board's action distribution, as a row of its cumulative
    sums (a list), for its own lifetime; a row is made on its board's first
    visit. The first act fills every board at once (`features.probs`, 800
    boards on the 4x5 pitch) and keeps their cumulative sums as one array,
    which later rows are read from: a 10-game search
    policy visits only some of the boards. A lockstep series reads that
    array directly (`act_boards`) and makes no rows. A fill is the affine
    sum of the latent's terms (see `BoardFeatures`), or `probs_np` for
    `concat`. An action is drawn by `PolicyGenerator.act`'s rule (see
    `act`). Rows of the affine sum or of a batched forward can differ from a
    one-row forward in the last bits, so an action can differ from an
    uncached sampler's only when a uniform falls between two adjacent
    doubles.
    The generator's weights and the latent must not change while the policy
    or its `features` is alive, and the environments it plays on must share
    one pitch size, as those of one gauntlet or round robin do: they come
    from one soccer config.
    """

    def __init__(self, gen: PolicyGenerator, latent: np.ndarray,
                 features: BoardFeatures | None = None):
        self.gen = gen
        self.latent = np.asarray(latent, dtype=np.float64)
        self.features = BoardFeatures(gen) if features is None else features
        self._cdfs: dict = {}   # board index -> cumulative probs as a list, per board seen
        self._table = None      # after a whole-pitch fill: every board's cumulative sums

    def act(self, env: MarkovSoccer, side: str, rng: np.random.Generator) -> int:
        index = env.board_index(side)
        try:
            cumulative = self._cdfs[index]
        except KeyError:
            cumulative = self._cdfs[index] = self._cumulative(env)[index].tolist()
        # PolicyGenerator.act's rule, (cdf < u * cdf[-1]).sum(), by bisection
        return bisect.bisect_left(cumulative, rng.random() * cumulative[-1])

    def act_boards(self, env: MarkovSoccer, side: str, boards: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """One action per board of `boards` (`board_index(side)` numbers), all
        drawn at once from the whole-pitch table by `act`'s rule, with one
        uniform per board from `rng.random(len(boards))`: a lockstep series'
        players."""
        cumulative = self._cumulative(env)[boards]
        return (cumulative < rng.random(len(boards))[:, None] * cumulative[:, -1:]).sum(axis=1)

    def _cumulative(self, env: MarkovSoccer) -> np.ndarray:
        """Every board's cumulative sums, filled at the first call."""
        if self._table is None:
            probs = self.features.probs(env, self.latent)
            for action in range(1, probs.shape[1]):   # np.cumsum(probs, axis=1), in place
                probs[:, action] += probs[:, action - 1]
            self._table = probs
        return self._table


class RandomPolicy:
    def act(self, env: MarkovSoccer, side: str, rng: np.random.Generator) -> int:
        return int(rng.integers(env.num_actions))

    def act_boards(self, env: MarkovSoccer, side: str, boards: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        return rng.integers(env.num_actions, size=len(boards))


@dataclass
class MatchScore:
    wins: int = 0
    losses: int = 0
    draws: int = 0

    def add(self, result: str, side: str):
        """Count one game's `result` ("left", "right" or "draw") for `side`."""
        if result == side:
            self.wins += 1
        elif result == "draw":
            self.draws += 1
        else:
            self.losses += 1

    @property
    def games(self) -> int:
        return self.wins + self.losses + self.draws

    @property
    def score(self) -> int:
        return self.wins - self.losses

    @property
    def mean(self) -> float:
        """Wins - losses per game: a latent's search score."""
        return self.score / self.games


def play_game(env: MarkovSoccer, left, right, seed: int,
              rng: np.random.Generator) -> str:
    """One game on `env`, reset with `seed`; returns "left", "right", or "draw".
    `MarkovSoccer.play` runs the game: each tick the left policy acts, then
    the right, then the rules play both actions."""
    env.reset_pair(seed)
    return env.play(left, right, rng)


def play_games(env: MarkovSoccer, games, side: str) -> MatchScore:
    """Play each `(left, right, seed, rng)` of `games` on `env`; scored for `side`."""
    score = MatchScore()
    for left, right, seed, rng in games:
        score.add(play_game(env, left, right, seed, rng), side)
    return score


def play_seeded_games(env: MarkovSoccer, left, right, games: int,
                      rng: np.random.Generator, perspective: str = "right") -> MatchScore:
    """Games one after another, scored from `perspective`'s side, each seeded
    by a draw from `rng`, which the policies also draw from: a search's
    batches."""
    return play_games(env, ((left, right, int(rng.integers(2 ** 62)), rng)
                            for _ in range(games)), perspective)


def play_series(env: MarkovSoccer, left, right, games: int,
                rng: np.random.Generator, perspective: str = "right") -> MatchScore:
    """A series of games scored from `perspective`'s side, played in lockstep
    (`MarkovSoccer.play_lockstep`) on a child generator seeded by one draw
    from `rng`."""
    score = MatchScore()
    child = np.random.default_rng(int(rng.integers(2 ** 62)))
    for result in env.play_lockstep(left, right, games, child):
        score.add(result, perspective)
    return score


# -- bot gauntlet ---------------------------------------------------------------


def bot_gauntlet(gen: PolicyGenerator, bots: list[Bot], games: int, search: SearchConfig,
                 rng: np.random.Generator, base: SoccerConfig | None = None) -> dict:
    """Per-bot wins-losses over `games` games of the family member that a
    latent search picks against the bot. Each bot's search and series are
    played on one environment built from `bot_match_config` and `base`, and
    every policy of the call shares one `BoardFeatures`."""
    results, features = {}, BoardFeatures(gen)
    for bot in bots:
        env = MarkovSoccer(bot_match_config(bot, base))

        def score(z: np.ndarray) -> float:
            return play_seeded_games(env, bot, LatentPolicy(gen, z, features),
                                     search.episodes_per_latent, rng).mean

        latent = optimize_latents(score, rng, search, latent_dim=gen.latent_dim).best_latent
        series = play_series(env, bot, LatentPolicy(gen, latent, features), games, rng)
        results[bot.kind] = {"score": series, "latent": latent}
    return results


# -- round robin -------------------------------------------------------------------


def players_rng(seed: int) -> np.random.Generator:
    """The players' generator of a game reset with `seed`: a child of
    `SeedSequence(seed)`, independent of the pitch's `default_rng(seed)`."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def round_robin_pair(gen_one: PolicyGenerator, gen_two: PolicyGenerator,
                     search: SearchConfig, rng: np.random.Generator,
                     games: int = 1000, family_panel: int = 32,
                     config: SoccerConfig | None = None) -> tuple[MatchScore, dict]:
    """Score gen_one against gen_two (wins - losses for gen_one).

    gen_one plays left. Pass 1 selects gen_two's latent against a fixed
    panel of gen_one's family; pass 2 selects gen_one's best response to
    that fixed opponent. Within a pass every candidate plays the same games:
    each has its own seed s, and its players draw from `players_rng(s)`.
    Every game is played on one environment built from `config`.
    """
    env = MarkovSoccer(config)
    panel = sample_latents(rng, family_panel, gen_one.latent_dim)
    panel_seeds = rng.integers(2 ** 62, size=search.episodes_per_latent).tolist()
    panel_order = rng.integers(len(panel), size=search.episodes_per_latent)
    features_one, features_two = BoardFeatures(gen_one), BoardFeatures(gen_two)
    panel_policies = [LatentPolicy(gen_one, z, features_one) for z in panel]

    def score_two(z: np.ndarray) -> float:
        policy = LatentPolicy(gen_two, z, features_two)
        return play_games(env, ((panel_policies[k], policy, s, players_rng(s))
                                for k, s in zip(panel_order, panel_seeds)), "right").mean

    pass_one = optimize_latents(score_two, rng, search, latent_dim=gen_two.latent_dim)
    z_two = pass_one.best_latent
    fixed_opponent = LatentPolicy(gen_two, z_two, features_two)

    reply_seeds = rng.integers(2 ** 62, size=search.episodes_per_latent).tolist()

    def score_one(z: np.ndarray) -> float:
        policy = LatentPolicy(gen_one, z, features_one)
        return play_games(env, ((policy, fixed_opponent, s, players_rng(s))
                                for s in reply_seeds), "left").mean

    pass_two = optimize_latents(score_one, rng, search, latent_dim=gen_one.latent_dim)
    z_one = pass_two.best_latent

    series = play_series(env, LatentPolicy(gen_one, z_one, features_one), fixed_opponent,
                         games, rng, perspective="left")
    return series, {"latent_one": z_one, "latent_two": z_two}


def round_robin_matrix(generators: dict, search: SearchConfig,
                       rng: np.random.Generator, games: int = 1000,
                       config: SoccerConfig | None = None) -> tuple[list, np.ndarray]:
    """All-pairs tournament; each unordered pair is played once, so the
    returned wins-losses matrix is antisymmetric by construction."""
    names = list(generators)
    matrix = np.zeros((len(names), len(names)))
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j <= i:
                continue
            series, _ = round_robin_pair(generators[a], generators[b], search,
                                         rng, games=games, config=config)
            matrix[i, j] = series.score
            matrix[j, i] = -series.score
    return names, matrix


# -- farmworld protocols -------------------------------------------------------------


def evaluate_final_health(gen: PolicyGenerator, env_factory, latent: np.ndarray,
                          episodes: int, rng: np.random.Generator) -> float:
    """Mean final agent health over episodes, every agent running `latent`."""
    env = env_factory()
    return float(np.mean([env.mean_final_health()
                          for _ in play_episodes(gen, env, episodes, rng, latent)]))


def ablation_sweep(gen: PolicyGenerator, ablations: list[str],
                   search: SearchConfig, rng: np.random.Generator,
                   eval_episodes: int = 5) -> list[dict]:
    """Latent-search each ablated environment, then report post-search health."""
    rows = []
    for name in ablations:
        cfg = build_ablation(name)
        factory = lambda c=cfg: Farmworld(c)
        score = episode_score_fn(gen, factory, search.episodes_per_latent, rng)
        result = optimize_latents(score, rng, search, latent_dim=gen.latent_dim)
        health = evaluate_final_health(gen, factory, result.best_latent,
                                       eval_episodes, rng)
        rows.append({
            "ablation": name,
            "post_search_health": health,
            "initial_health": cfg.agent_start_health,
            "best_latent": result.best_latent,
            "search_score": result.best_score,
        })
    return rows


def specialization_eval(gen: PolicyGenerator, env_factory, episodes: int,
                        rng: np.random.Generator) -> dict:
    """Mean per-agent specialization and mean episode reward over episodes in
    which every agent draws its own latent, and the blunder total."""
    env = env_factory()
    specs, returns, blunders = [], [], 0
    for episode in play_episodes(gen, env, episodes, rng):
        records = env.specialization_counts()
        specs.extend(specialization(records[a]) for a in sorted(records))
        returns.extend(episode[a] for a in sorted(episode))
        blunders += sum(record["blunders"] for record in records.values())
    return {
        "mean_specialization": float(np.mean(specs)),
        "mean_episode_reward": float(np.mean(returns)),
        "blunders": blunders,
    }


# -- results files ---------------------------------------------------------------


def write_results_csv(path, rows: list[dict]):
    """One row per (method, seed, metric, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "seed", "metric", "value"])
        for row in rows:
            writer.writerow([row["method"], row["seed"], row["metric"], repr(row["value"])])
