"""On-policy training of the policy generator.

Each iteration collects a fixed budget of *agent steps* from parallel
environment instances (every agent episode gets a latent sampled once and
held fixed), computes GAE advantages, then runs several epochs of
minibatch updates maximizing

    clipped surrogate - c_v * value loss + c_e * entropy - alpha * diversity

with Adam and global-norm gradient clipping. With ``alpha = 0`` this is
plain PPO; the ``vanilla`` method is exactly that. The ``diayn_star``
baseline instead shapes rewards with the batch-centered error of a
discriminator that regresses each state's episode latent.

A numeric fault anywhere in the update phase rolls the weights and
optimizer back to the start of the iteration, so no partial update is
ever committed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, constant
from .diversity import DiversityConfig, estimate_for_generator
from .envs.base import POSITIVE, at_least, between, check_ranges, check_types, one_of
from .errors import NumericError
from .generator import PolicyGenerator, sample_latent, sample_latents
from .nets import DenseNet
from .optim import SGD, Adam, clip_grad_norm

METHODS = ("adap", "vanilla", "diayn_star")
# TrainerConfig field -> its legal range
TRAINER_RANGES = {
    "batch_size": at_least(1), "minibatch_size": at_least(1), "sgd_iters": at_least(1),
    "num_envs": at_least(1), "discriminator_epochs": at_least(1),
    "clip_epsilon": ("in (0, 1)", lambda value: 0.0 < value < 1.0),
    "entropy_coef": at_least(0.0), "value_coef": at_least(0.0), "intrinsic_coef": at_least(0.0),
    "discount": between(0.0, 1.0), "gae_lambda": between(0.0, 1.0),
    "learning_rate": POSITIVE, "grad_clip": POSITIVE,
    "optimizer": one_of("adam", "sgd"), "method": one_of(*METHODS),
}


@dataclass
class TrainerConfig:
    batch_size: int = 4000          # in agent steps, not environment steps
    minibatch_size: int = 400
    sgd_iters: int = 10
    clip_epsilon: float = 0.2
    entropy_coef: float = 0.05
    value_coef: float = 0.5
    discount: float = 0.99
    gae_lambda: float = 1.0
    learning_rate: float = 3e-4
    grad_clip: float = 0.5
    optimizer: str = "adam"
    method: str = "adap"
    diversity: DiversityConfig = field(default_factory=DiversityConfig)
    resample_diversity_each_epoch: bool = False
    normalize_advantages: bool = True
    num_envs: int = 8
    intrinsic_coef: float = 0.05       # diayn_star reward scale
    discriminator_epochs: int = 3

    def validate(self):
        check_types(self)
        check_ranges(self, TRAINER_RANGES)
        self.diversity.validate()

    @property
    def alpha(self) -> float:
        return 0.0 if self.method == "vanilla" else self.diversity.coef


@dataclass(slots=True)
class Trajectory:
    """One agent episode, or one segment of it cut at a batch boundary.

    While the episode runs its rows are appended as lists; `close` turns
    them into arrays once, when the episode ends or the boundary cuts the
    segment. `episode_return` runs over the whole episode, across segments.
    """
    latent: np.ndarray
    obs: list = field(default_factory=list)        # (T, obs_size) once closed
    actions: list = field(default_factory=list)    # (T,)
    log_probs: list = field(default_factory=list)  # (T,) under the weights that generated them
    rewards: list = field(default_factory=list)    # (T,)
    values: list = field(default_factory=list)     # (T,)
    episode_return: float = 0.0
    terminal: bool = False    # True if the episode actually ended
    bootstrap: float = 0.0    # value estimate past the last step (0 at terminal)

    def __len__(self):
        return len(self.actions)

    def close(self, terminal: bool, bootstrap: float = 0.0) -> Trajectory:
        self.obs, self.log_probs = np.asarray(self.obs), np.asarray(self.log_probs)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards, self.values = np.asarray(self.rewards), np.asarray(self.values)
        self.terminal, self.bootstrap = terminal, bootstrap
        return self


def compute_gae(rewards: np.ndarray, values: np.ndarray, bootstrap: float,
                discount: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets for one trajectory."""
    T = len(rewards)
    adv = np.zeros(T)
    next_value = bootstrap
    running = 0.0
    for t in range(T - 1, -1, -1):
        delta = rewards[t] + discount * next_value - values[t]
        running = delta + discount * lam * running
        adv[t] = running
        next_value = values[t]
    return adv, adv + values


@dataclass
class RolloutBatch:
    obs: np.ndarray
    latents: np.ndarray
    actions: np.ndarray
    log_probs_old: np.ndarray
    advantages: np.ndarray
    value_targets: np.ndarray

    def __len__(self):
        return len(self.actions)


def assemble_batch(trajectories: list[Trajectory], discount: float, lam: float,
                   normalize_advantages: bool) -> RolloutBatch:
    advantages, targets = [], []
    for traj in trajectories:
        adv, tgt = compute_gae(traj.rewards, traj.values, traj.bootstrap, discount, lam)
        advantages.append(adv)
        targets.append(tgt)
    adv = np.concatenate(advantages)
    if normalize_advantages and len(adv) > 1:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    return RolloutBatch(
        obs=np.concatenate([t.obs for t in trajectories]),
        latents=np.concatenate([np.repeat(t.latent[None], len(t), axis=0)
                                for t in trajectories]),
        actions=np.concatenate([t.actions for t in trajectories]),
        log_probs_old=np.concatenate([t.log_probs for t in trajectories]),
        advantages=adv,
        value_targets=np.concatenate(targets),
    )


class RolloutState:
    """Environments, each one's latest observations, and the episodes in flight.

    `episodes[i]` maps each living agent of env `i` to its open `Trajectory`.
    The state persists across training iterations so episodes continue where
    the previous batch cut them off: the batch boundary closes the recorded *segment* (with a
    bootstrap value), never the episode itself, and the trajectory that
    replaces it keeps the agent's latent and running return.
    """

    def __init__(self, envs: list):
        self.envs = envs
        self.obs: list[dict] = [{} for _ in envs]
        self.episodes: list[dict] = [{} for _ in envs]

    def tick(self, gen: PolicyGenerator, rng: np.random.Generator) -> tuple[int, list[Trajectory]]:
        """Every living agent of every environment acts in one `gen.act` call,
        then each environment steps once; each agent's row and reward go into
        its trajectory. Returns the agent steps taken and the trajectories of
        the episodes that ended, closed, in env and then agent order. A
        finished environment stays finished until its caller restarts it."""
        rows = [(i, agent, self.episodes[i][agent])
                for i, env in enumerate(self.envs) for agent in env.living_agents()]
        rows_obs = [self.obs[i][agent] for i, agent, _ in rows]
        actions, log_probs, values = gen.act(np.asarray(rows_obs),
                                             np.asarray([traj.latent for _, _, traj in rows]), rng)
        per_env_actions: list[dict] = [{} for _ in self.envs]
        for (i, agent, traj), obs, action, log_prob, value in zip(
                rows, rows_obs, actions.tolist(), log_probs.tolist(), values.tolist()):
            per_env_actions[i][agent] = action
            traj.obs.append(obs)
            traj.actions.append(action)
            traj.log_probs.append(log_prob)
            traj.values.append(value)

        ended = []
        for i, env in enumerate(self.envs):
            self.obs[i], rewards, dones = env.step(per_env_actions[i])
            episodes = self.episodes[i]
            for agent, reward in rewards.items():
                traj = episodes[agent]
                traj.rewards.append(float(reward))
                traj.episode_return += float(reward)
                if dones[agent]:
                    ended.append(episodes.pop(agent).close(terminal=True))
        return len(rows), ended


def collect_rollouts(gen: PolicyGenerator, state: RolloutState, steps: int,
                     rng: np.random.Generator) -> tuple[list[Trajectory], list[float]]:
    """Tick the in-flight episodes until `steps` agent steps are banked.

    Each episode start draws a fresh seed and fresh per-agent latents from
    `rng`. Returns the trajectory segments plus the full returns of every
    agent episode that ended during this batch.
    """
    envs = state.envs
    segments: list[Trajectory] = []

    collected = 0
    while True:
        for i, env in enumerate(envs):
            if env.finished:    # so is a new environment, before its first reset
                state.obs[i] = env.reset(int(rng.integers(2 ** 62)))
                state.episodes[i] = {a: Trajectory(sample_latent(rng, gen.latent_dim))
                                     for a in sorted(state.obs[i])}
        if collected >= steps:
            break
        taken, ended = state.tick(gen, rng)
        collected += taken
        segments += ended

    # the batch boundary cuts open segments; the episodes live on
    leftovers = [(i, agent, traj) for i, episodes in enumerate(state.episodes)
                 for agent, traj in episodes.items() if traj.actions]
    if leftovers:
        obs_mat = np.asarray([state.obs[i][agent] for i, agent, _ in leftovers])
        z_mat = np.asarray([traj.latent for _, _, traj in leftovers])
        tail_values = gen.value_np(obs_mat, z_mat)
        for (i, agent, traj), v in zip(leftovers, tail_values):
            segments.append(traj.close(terminal=False, bootstrap=float(v)))
            state.episodes[i][agent] = Trajectory(traj.latent, episode_return=traj.episode_return)
    return segments, [traj.episode_return for traj in segments if traj.terminal]


# -- losses ------------------------------------------------------------------


def clipped_surrogate(logits: Tensor, actions, log_probs_old, advantages,
                      clip_epsilon: float, entropy_coef: float):
    """One node over the logits: the mean clipped surrogate plus `entropy_coef`
    times the mean entropy. Returns (node, surrogate, entropy)."""
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    rows = np.arange(len(x))
    ratio = np.exp(logp[rows, actions] - log_probs_old)
    if not np.isfinite(ratio).all():
        bad = int(np.flatnonzero(~np.isfinite(ratio))[0])
        raise NumericError(f"non-finite policy ratio at batch sample {bad}")
    clipped_ratio = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    raw, clipped = ratio * advantages, clipped_ratio * advantages
    surrogate = np.minimum(raw, clipped).mean()
    neg_entropy = (p * logp).sum(axis=-1)
    entropy = -neg_entropy.mean()
    out = Tensor(surrogate + entropy_coef * entropy, parents=(logits,), op="ppo")
    # d surrogate / d log p(a_i) is ratio_i * A_i / n, and 0 where the minimum is
    # the clipped term and the ratio lies outside the clip range
    d_taken = raw * ((raw <= clipped) | (clipped_ratio == ratio)) / len(x)

    def backward(g):
        grad = -p * d_taken[:, None]
        grad[rows, actions] += d_taken
        # d entropy_i / d logits = -p * (log p + entropy_i)
        grad -= (entropy_coef / len(x)) * p * (logp - neg_entropy[:, None])
        logits._accum(g * grad)

    out._backward = backward
    return out, float(surrogate), float(entropy)


def ppo_objective(gen: PolicyGenerator, obs, latents, actions, log_probs_old,
                  advantages, value_targets, clip_epsilon: float,
                  value_coef: float, entropy_coef: float):
    """The maximized PPO composite: surrogate - c_v * L_V + c_e * entropy.

    Returns (objective Tensor, metrics dict of floats).
    """
    policy, surrogate, entropy = clipped_surrogate(
        gen.logits(obs, latents), actions, log_probs_old, advantages, clip_epsilon, entropy_coef)
    value_loss = (gen.value(obs, latents) - constant(value_targets)).square().mean()
    metrics = {"surrogate": surrogate, "value_loss": float(value_loss.data), "entropy": entropy}
    return policy - value_coef * value_loss, metrics


# -- latent-regression baseline ------------------------------------------------


class Discriminator:
    """Maps an observation to a predicted episode latent (squared-error regression)."""

    def __init__(self, obs_size: int, latent_dim: int, rng: np.random.Generator,
                 hidden_dim: int = 64, lr: float = 3e-4):
        self.net = DenseNet.create(rng, [obs_size, hidden_dim, hidden_dim, latent_dim],
                                   ["relu", "relu", "identity"])
        self.opt = Adam(self.net.parameters(), lr=lr)

    def predict(self, obs: np.ndarray) -> np.ndarray:
        return self.net.forward_np(obs)

    def regression_loss(self, obs: np.ndarray, latents: np.ndarray) -> Tensor:
        pred = self.net.forward(obs)
        return (pred - constant(latents)).square().sum(axis=-1).mean()

    def train_batch(self, obs: np.ndarray, latents: np.ndarray, epochs: int) -> float:
        last = 0.0
        for _ in range(epochs):
            self.opt.zero_grad()
            loss = self.regression_loss(obs, latents)
            loss.backward()
            self.opt.step()
            last = float(loss.data)
        return last


def centered_intrinsic_errors(squared_errors: np.ndarray, intrinsic_coef: float) -> np.ndarray:
    """Batch-centered intrinsic reward: err_t = -coef * se_t - mean(raw errs)."""
    raw = -intrinsic_coef * squared_errors
    return raw - raw.mean()


def shape_rewards_with_discriminator(trajectories: list[Trajectory], disc: Discriminator,
                                     intrinsic_coef: float, epochs: int) -> float:
    """The diayn_star pass over one batch: train `disc` on its states and
    episode latents for `epochs`, then add the centered error of its
    predictions to every reward, in place. Returns the last training loss."""
    obs = np.concatenate([t.obs for t in trajectories])
    latents = np.concatenate([np.repeat(t.latent[None], len(t), axis=0) for t in trajectories])
    loss = disc.train_batch(obs, latents, epochs)
    se = ((disc.predict(obs) - latents) ** 2).sum(axis=-1)
    errs = centered_intrinsic_errors(se, intrinsic_coef)
    i = 0
    for traj in trajectories:
        traj.rewards = traj.rewards + errs[i:i + len(traj)]
        i += len(traj)
    return loss


# -- the trainer --------------------------------------------------------------


class Trainer:
    """Owns one generator, its optimizer state, and the rollout environments."""

    def __init__(self, gen: PolicyGenerator, env_factory, config: TrainerConfig, seed: int):
        config.validate()
        self.gen = gen
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.rollouts = RolloutState([env_factory() for _ in range(config.num_envs)])
        opt_cls = Adam if config.optimizer == "adam" else SGD
        self.opt = opt_cls(gen.parameters(), lr=config.learning_rate)
        self.iteration = 0
        self.agent_steps = 0
        self.recent_returns: list[float] = []   # last 100 finished episodes
        self.discriminator = None
        if config.method == "diayn_star":
            self.discriminator = Discriminator(gen.obs_size, gen.latent_dim,
                                               np.random.default_rng(seed + 1),
                                               hidden_dim=gen.hidden_dim,
                                               lr=config.learning_rate)

    def _snapshot(self):
        return (self.gen.get_flat(),
                [m.copy() for m in self.opt.state_arrays()], self.opt.t)

    def _restore(self, snap):
        flat, moments, t = snap
        self.gen.set_flat(flat)
        self.opt.load_state(moments, t)

    def train_iteration(self) -> dict:
        cfg = self.config
        start = time.perf_counter()
        trajectories, finished = collect_rollouts(self.gen, self.rollouts,
                                                  cfg.batch_size, self.rng)
        self.recent_returns = (self.recent_returns + finished)[-100:]

        discriminator_loss = 0.0
        if cfg.method == "diayn_star":
            discriminator_loss = shape_rewards_with_discriminator(
                trajectories, self.discriminator, cfg.intrinsic_coef, cfg.discriminator_epochs)

        batch = assemble_batch(trajectories, cfg.discount, cfg.gae_lambda,
                               cfg.normalize_advantages)
        self.agent_steps += len(batch)

        snap = self._snapshot()
        try:
            metrics = self._update(batch)
        except NumericError:
            self._restore(snap)
            raise
        self.iteration += 1
        metrics.update({
            "iteration": self.iteration,
            "agent_steps": self.agent_steps,
            # running mean over the last 100 finished agent episodes; falls
            # back to the reward sums of this batch's segments before the
            # first one finishes
            "mean_episode_reward": (float(np.mean(self.recent_returns))
                                    if self.recent_returns
                                    else float(np.mean([t.rewards.sum() for t in trajectories]))),
            "episodes": len(finished),
            "discriminator_loss": discriminator_loss,
            "wall_seconds": time.perf_counter() - start,
        })
        return metrics

    def _sample_diversity_inputs(self, batch: RolloutBatch):
        div = self.config.diversity
        latents = sample_latents(self.rng, div.num_latents, self.gen.latent_dim)
        count = min(div.num_states, len(batch))
        idx = self.rng.choice(len(batch), size=count, replace=False)
        return latents, batch.obs[idx]

    def _update(self, batch: RolloutBatch) -> dict:
        """Run `sgd_iters` epochs of minibatch updates. The diversity inputs
        are sampled at epoch 0, and again at each epoch when
        `resample_diversity_each_epoch` is set."""
        cfg = self.config
        alpha = cfg.alpha
        n = len(batch)
        last = {"surrogate": 0.0, "value_loss": 0.0, "entropy": 0.0}
        l_div_value = 0.0
        params = self.gen.parameters()
        for epoch in range(cfg.sgd_iters):
            if alpha > 0.0 and (epoch == 0 or cfg.resample_diversity_each_epoch):
                div_latents, div_states = self._sample_diversity_inputs(batch)
            order = self.rng.permutation(n)
            for lo in range(0, n, cfg.minibatch_size):
                idx = order[lo:lo + cfg.minibatch_size]
                objective, parts = ppo_objective(
                    self.gen, batch.obs[idx], batch.latents[idx], batch.actions[idx],
                    batch.log_probs_old[idx], batch.advantages[idx],
                    batch.value_targets[idx], cfg.clip_epsilon, cfg.value_coef,
                    cfg.entropy_coef)
                loss = -objective
                if alpha > 0.0:
                    div = estimate_for_generator(self.gen, div_states, div_latents,
                                                 cfg.diversity.smoothing,
                                                 mode=cfg.diversity.mode)
                    l_div_value = float(div.data)
                    if cfg.diversity.mode == "raw_kl":
                        loss = loss - alpha * div   # maximize plain KL (ablation)
                    else:
                        loss = loss + alpha * div   # minimize exp(-KL)
                self.opt.zero_grad()
                loss.backward()
                clip_grad_norm(params, cfg.grad_clip)
                self.opt.step()
                last = parts
                # free this minibatch's graph before the next one is built
                objective = loss = div = None
        return {"l_div": l_div_value, **last}
