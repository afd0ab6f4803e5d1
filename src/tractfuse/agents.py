"""Off-policy actor-critic training (TD3, SAC, DDPG) on the tracking MDP.

Actors are 3-hidden-layer ReLU MLPs mapping the 334-d state to a
tanh-bounded 3-d action; critics map (state, action) to a scalar. SAC uses
a state-independent learned log-std. Q-value queries take the minimum over
a bundle's critics (single critic for DDPG).

`RlHyper` holds the four per-policy values the config sets (lr, sigma,
gamma, alpha); the target-net rate `TAU`, TD3's `POLICY_DELAY` and its
`TARGET_NOISE_CLIP` are module constants. `PolicyBundle.params()` names
every tensor of a bundle once, by its CKP1 name and in checkpoint order,
and `save`/`load` go through it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import nn
from .autodiff import Tensor, concat, exp, frozen, log, minimum, tanh
from .env import ACTION_DIM, BatchTracker, STATE_DIM, jittered_seeds, peak_hints

ALGOS = ("td3", "sac", "ddpg")
LOG_2PI = float(np.log(2.0 * np.pi))
TAU = 0.005  # Polyak rate of the target nets
POLICY_DELAY = 2  # TD3: critic updates per actor update
TARGET_NOISE_CLIP = 0.5  # TD3: bound on the target-action smoothing noise
EVAL_EPISODES = 256  # episodes of `mean_step_reward`


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class RlHyper:
    lr: float
    sigma: float
    gamma: float
    alpha: float = 0.0


# Tuned per-policy hyperparameters used throughout the pipeline.
DEFAULT_HYPER = {
    "td3": RlHyper(lr=8.56e-6, sigma=0.334, gamma=0.776),
    "sac": RlHyper(lr=3.7e-5, sigma=0.4, gamma=0.89, alpha=0.076),
    "ddpg": RlHyper(lr=8.56e-6, sigma=0.35, gamma=0.5),
}


@dataclass(frozen=True)
class RlSchedule:
    batches: int = 50
    episodes_per_batch: int = 128
    grad_steps_per_batch: int = 100
    batch_size: int = 4096
    replay_capacity: int = 200_000


class ReplayBuffer:
    """Fixed-capacity ring buffer of (s, a, r, s', done) transitions."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.s = np.zeros((capacity, STATE_DIM), dtype=np.float32)
        self.a = np.zeros((capacity, ACTION_DIM), dtype=np.float32)
        self.r = np.zeros(capacity, dtype=np.float32)
        self.s2 = np.zeros((capacity, STATE_DIM), dtype=np.float32)
        self.d = np.zeros(capacity, dtype=np.float32)
        self.idx = 0
        self.size = 0

    def add_batch(self, s, a, r, s2, d):
        n = len(r)
        pos = (self.idx + np.arange(n)) % self.capacity
        self.s[pos] = s
        self.a[pos] = a
        self.r[pos] = r
        self.s2[pos] = s2
        self.d[pos] = d
        self.idx = (self.idx + n) % self.capacity
        self.size = min(self.size + n, self.capacity)

    def sample(self, batch_size, rng):
        """Uniform sample without replacement within the batch."""
        n = min(batch_size, self.size)
        pick = rng.choice(self.size, size=n, replace=False)
        return self.s[pick], self.a[pick], self.r[pick], self.s2[pick], self.d[pick]


class PolicyBundle:
    """One trained policy: actor, critic(s), target copies, hyperparameters."""

    def __init__(self, algo, hyper=None, hidden=1024, seed=0):
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm '{algo}', expected one of {ALGOS}")
        self.algo = algo
        self.hyper = hyper if hyper is not None else DEFAULT_HYPER[algo]
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        self.actor = nn.Mlp(STATE_DIM, ACTION_DIM, hidden=hidden, rng=rng)
        n_critics = 1 if algo == "ddpg" else 2
        self.critics = [nn.Mlp(STATE_DIM + ACTION_DIM, 1, hidden=hidden, rng=rng)
                        for _ in range(n_critics)]
        if algo == "sac":
            self.log_std = nn.parameter(np.full(ACTION_DIM, np.log(self.hyper.sigma)))
        else:
            self.log_std = None
        self.target_actor = copy.deepcopy(self.actor)
        self.target_critics = copy.deepcopy(self.critics)

    def soft_update(self):
        """Polyak-average every target array in place:
        `dst = (1 - TAU)*dst + TAU*src`."""
        pairs = list(zip(self.target_actor.layers, self.actor.layers))
        for tc, c in zip(self.target_critics, self.critics):
            pairs.extend(zip(tc.layers, c.layers))
        for dst, src in pairs:
            for d, s in ((dst.w.data, src.w.data), (dst.b.data, src.b.data)):
                np.multiply(1 - TAU, d, out=d)
                np.add(d, TAU * s, out=d)

    # -- action selection -----------------------------------------------------

    def act(self, states, mode="deterministic", rng=None):
        """Actions in [-1,1]^3 for a batch of states."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float32))
        if states.shape[1] != STATE_DIM:
            raise ValueError(f"expected state width {STATE_DIM}, got {states.shape[1]}")
        raw = self.actor.infer(states)
        if mode == "deterministic":
            return np.tanh(raw)
        if rng is None:
            raise ValueError("explore mode needs an rng")
        if self.algo == "sac":
            std = np.exp(self.log_std.data)
            return np.tanh(raw + std * rng.standard_normal(raw.shape))
        noise = rng.normal(0.0, self.hyper.sigma, size=raw.shape)
        return np.clip(np.tanh(raw) + noise, -1.0, 1.0)

    def q_value(self, states, actions):
        """Min over critics of Q(s, a); conservative twin-critic estimate."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float32))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float32))
        x = np.concatenate([states, actions], axis=1)
        qs = [c.infer(x)[:, 0] for c in self.critics]
        return np.min(qs, axis=0)

    # -- parameter access -----------------------------------------------------

    def actor_params(self):
        p = self.actor.params("actor.")
        if self.log_std is not None:
            p["actor.log_std"] = self.log_std
        return p

    def critic_params(self):
        out = {}
        for i, c in enumerate(self.critics):
            out.update(c.params(f"critic{i}."))
        return out

    def params(self):
        """Every tensor by its CKP1 name, in checkpoint order: actor,
        `actor.log_std` (SAC), critics, target critics, target actor."""
        out = {**self.actor_params(), **self.critic_params()}
        for i, c in enumerate(self.target_critics):
            out.update(c.params(f"target_critic{i}."))
        out.update(self.target_actor.params("target_actor."))
        return out

    def save(self, path):
        nn.save_checkpoint(path, {k: v.data for k, v in self.params().items()},
                           meta={"algo": self.algo, "hidden": str(self.hidden)})

    @classmethod
    def load(cls, path, hyper=None):
        tensors, meta = nn.load_checkpoint(path)
        algo = meta["algo"]
        hidden = int(meta["hidden"])
        bundle = cls(algo, hyper=hyper, hidden=hidden, seed=0)
        nn.assign_params(bundle.params(), tensors)
        return bundle


def _sac_sample(bundle, states_t, rng):
    """Reparameterized tanh-Gaussian sample; returns (action, logp) tensors."""
    raw = bundle.actor(states_t)
    std = exp(bundle.log_std)
    eps = rng.standard_normal(raw.shape).astype(np.float32)
    u = raw + std * eps
    a = tanh(u)
    diff = (u - raw) / std
    logp_gauss = (diff * diff * -0.5 - bundle.log_std - 0.5 * LOG_2PI).sum(axis=-1)
    squash = log(1.0 - a * a + 1e-6).sum(axis=-1)
    return a, logp_gauss - squash


def sac_log_prob(mean, log_std, action):
    """Log-density of a tanh-squashed Gaussian at `action` (numpy, elementwise)."""
    a = np.clip(np.asarray(action, dtype=np.float64), -1 + 1e-9, 1 - 1e-9)
    u = np.arctanh(a)
    std = np.exp(log_std)
    lp = -0.5 * ((u - mean) / std) ** 2 - log_std - 0.5 * LOG_2PI
    return lp - np.log(1.0 - a * a + 1e-6)


def sample_seeds(phantom, bundle_name, n, rng):
    """Uniform random seeds inside the bundle mask, plus +-peak hints."""
    mask = phantom.mask_for(bundle_name).values
    voxels = np.argwhere(mask > 0)
    seeds = np.zeros((n, 3))
    filled = 0
    while filled < n:
        pick = voxels[rng.integers(0, len(voxels), size=n - filled)]
        kept = jittered_seeds(mask, pick, 1, rng)
        seeds[filled:filled + len(kept)] = kept
        filled += len(kept)
    hints, has_peak = peak_hints(phantom, seeds)
    hints[has_peak] *= np.where(rng.random(has_peak.sum()) < 0.5, 1.0, -1.0)[:, None]
    return seeds, hints


def _check_finite(value, what):
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {what} ({value}); training aborted")


def update_critics(bundle, opt, batch, rng):
    """One TD step of every critic of `bundle` on `batch`; returns the loss."""
    s, a, r, s2, d = batch
    h = bundle.hyper
    # target actions and TD targets (no tape needed)
    if bundle.algo == "ddpg":
        a2 = np.tanh(bundle.target_actor.infer(s2))
        extra = 0.0
    elif bundle.algo == "td3":
        a2 = np.tanh(bundle.target_actor.infer(s2))
        noise = np.clip(rng.normal(0.0, h.sigma, size=a2.shape),
                        -TARGET_NOISE_CLIP, TARGET_NOISE_CLIP)
        a2 = np.clip(a2 + noise, -1.0, 1.0)
        extra = 0.0
    else:  # sac
        raw = bundle.actor.infer(s2)
        std = np.exp(bundle.log_std.data)
        u = raw + std * rng.standard_normal(raw.shape)
        a2 = np.tanh(u)
        lp = sac_log_prob(raw, bundle.log_std.data, a2).sum(axis=-1)
        extra = -h.alpha * lp
    x2 = np.concatenate([s2, a2], axis=1).astype(np.float32)
    q2 = np.min([c.infer(x2)[:, 0] for c in bundle.target_critics], axis=0)
    y = r + h.gamma * (1.0 - d) * (q2 + extra)

    xt = Tensor(np.concatenate([s, a], axis=1))
    yt = Tensor(y.astype(np.float32)[:, None])
    loss_total = 0.0
    losses = []
    for c in bundle.critics:
        q = c(xt)
        err = q - yt
        losses.append((err * err).mean())
    loss = losses[0] if len(losses) == 1 else losses[0] + losses[1]
    _check_finite(float(loss.data), "critic loss")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def _update_actor(bundle, opt, batch, rng):
    s, _, _, _, _ = batch
    st = Tensor(s)
    # only actor parameters step, so the critics stay off the tape
    with frozen(bundle.critic_params().values()):
        if bundle.algo == "sac":
            a, logp = _sac_sample(bundle, st, rng)
            x = concat([st, a], axis=1)
            q = minimum(bundle.critics[0](x), bundle.critics[1](x))
            loss = (bundle.hyper.alpha * logp - q[:, 0]).mean()
        else:
            a = tanh(bundle.actor(st))
            x = concat([st, a], axis=1)
            loss = -(bundle.critics[0](x)[:, 0]).mean()
    _check_finite(float(loss.data), "actor loss")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.data)


def uniform_actions(states, rng):
    """One uniform random action in [-1,1]^3 per state row; a draw too short
    to have a direction becomes +x."""
    acts = rng.uniform(-1.0, 1.0, size=(len(states), ACTION_DIM))
    acts[np.linalg.norm(acts, axis=1) < 1e-6] = [1.0, 0.0, 0.0]
    return acts


def rollout(act, tracker, seeds, hints, buffer=None):
    """Run a batch of episodes with the actor `act(states) -> actions`;
    optionally store transitions. Returns (total_reward, total_steps)."""
    total_r, total_steps = 0.0, 0

    def observe(live, states, acts, rewards, done, next_states):
        nonlocal total_r, total_steps
        if buffer is not None:
            buffer.add_batch(states[live], acts[live], rewards[live], next_states[live],
                             done[live])
        total_r += rewards[live].sum()
        total_steps += len(live)

    tracker.run(seeds, hints, act, observe)
    return total_r, total_steps


def mean_step_reward(phantom, bundle_name, env_cfg, seed, bundle=None):
    """Mean per-step reward over `EVAL_EPISODES` episodes of the deterministic
    `bundle`, or of uniform-random actions without one (the learning-signal
    oracle). The seeds, then any random actions, are drawn from one rng."""
    rng = np.random.default_rng(seed)
    tracker = BatchTracker(phantom, bundle_name, env_cfg)
    seeds, hints = sample_seeds(phantom, bundle_name, EVAL_EPISODES, rng)
    act = partial(uniform_actions, rng=rng) if bundle is None else bundle.act
    total_r, total_steps = rollout(act, tracker, seeds, hints)
    return total_r / max(total_steps, 1)


def train_policy(bundle, phantom, bundle_names, env_cfg, schedule, seed=0):
    """Train one policy across the given bundles; returns a training log."""
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(schedule.replay_capacity)
    actor_opt = nn.AdamW(bundle.actor_params(), lr=bundle.hyper.lr)
    critic_opt = nn.AdamW(bundle.critic_params(), lr=bundle.hyper.lr)
    trackers = {b: BatchTracker(phantom, b, env_cfg) for b in bundle_names}
    log = {"batch_mean_episode_reward": [], "critic_loss": [], "actor_loss": [],
           "grad_steps_per_batch": schedule.grad_steps_per_batch}

    update_count = 0
    for batch_i in range(schedule.batches):
        act = (partial(uniform_actions, rng=rng) if batch_i == 0
               else partial(bundle.act, mode="explore", rng=rng))
        batch_r, batch_eps = 0.0, 0
        for b in bundle_names:
            seeds, hints = sample_seeds(phantom, b, schedule.episodes_per_batch, rng)
            total_r, _ = rollout(act, trackers[b], seeds, hints, buffer=buffer)
            batch_r += total_r
            batch_eps += schedule.episodes_per_batch
        log["batch_mean_episode_reward"].append(batch_r / batch_eps)

        for _ in range(schedule.grad_steps_per_batch):
            sample = buffer.sample(schedule.batch_size, rng)
            closs = update_critics(bundle, critic_opt, sample, rng)
            update_count += 1
            delay = POLICY_DELAY if bundle.algo == "td3" else 1
            if update_count % delay == 0:
                aloss = _update_actor(bundle, actor_opt, sample, rng)
                bundle.soft_update()
                log["actor_loss"].append(aloss)
            log["critic_loss"].append(closs)
    return log
