"""FusionNet: a return-to-go-conditioned causal sequence model fusing the
three RL policies, trained with a five-step angular loss and refined by
multi-critic policy fine-tuning (MCPFT).

Token layout per timestep: (rtg, state, action). The action for timestep t
is predicted from the transformer output at the state token, so it can see
rtg_<=t, s_<=t and a_<t but never a_t.

`FusionModel.predict_actions` is the one forward pass, for training and
inference alike. `act` runs it under `autodiff.no_grad`, where the tape
records nothing and `nn.GptBlockStack.__call__`, the one tape-off switch,
sends the transformer through the numpy `infer` of each layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agents, nn
from .autodiff import Tensor, arccos_clamped, concat, frozen, minimum, no_grad, sqrt, tanh
from .env import ACTION_DIM, BatchTracker, STATE_DIM


class FusionError(RuntimeError):
    pass


@dataclass(frozen=True)
class FusionConfig:
    context: int = 40       # timesteps; token window is 3x this
    width: int = 128
    n_blocks: int = 4
    dropout: float = 0.1


@dataclass(frozen=True)
class TrainSchedule:
    iterations: int = 30
    updates_per_iter: int = 10_000
    batch_size: int = 128
    lr: float = 1e-4
    warmup: int = 10_000


@dataclass(frozen=True)
class McpftSchedule:
    iterations: int = 25
    batch_size: int = 512
    actor_updates_per_iter: int = 1000
    critic_updates_per_iter: int = 1
    lr: float = 1e-4
    rollout_episodes: int = 32
    rtg0: float = 300.0


class FusionModel:
    """Return-to-go transformer policy; `seed=None` builds zero weights
    without random draws, for `load` to fill."""

    def __init__(self, config, seed=0):
        self.config = config
        c = self.config
        rng = None if seed is None else np.random.default_rng(seed)
        self.embed_rtg = nn.Linear(1, c.width, rng, init="gpt")
        self.embed_state = nn.Linear(STATE_DIM, c.width, rng, init="gpt")
        self.embed_action = nn.Linear(ACTION_DIM, c.width, rng, init="gpt")
        self.gpt = nn.GptBlockStack(width=c.width, n_blocks=c.n_blocks,
                                    n_tokens=3 * c.context, p_drop=c.dropout, rng=rng)
        self.head = nn.Linear(c.width, ACTION_DIM, rng, init="gpt")

    # -- parameter groups -----------------------------------------------------

    def params(self):
        out = {}
        out.update(self.embed_rtg.params("emb_rtg"))
        out.update(self.embed_state.params("emb_state"))
        out.update(self.embed_action.params("emb_action"))
        out.update(self.gpt.params("gpt."))
        out.update(self.head.params("head"))
        return out

    def final_layer_params(self):
        """The finetuning surface: last transformer block, final norm, head."""
        last = len(self.gpt.blocks) - 1
        out = self.gpt.blocks[last].params(f"gpt.blk{last}")
        out.update(self.gpt.ln_f.params("gpt.ln_f"))
        out.update(self.head.params("head"))
        return out

    def frozen_params(self):
        keep = set(self.final_layer_params())
        return {k: v for k, v in self.params().items() if k not in keep}

    def save(self, path, stage):
        nn.save_checkpoint(path, {k: v.data for k, v in self.params().items()},
                           meta={"stage": stage,
                                 "context": str(self.config.context),
                                 "width": str(self.config.width),
                                 "n_blocks": str(self.config.n_blocks),
                                 "dropout": repr(self.config.dropout)})

    @classmethod
    def load(cls, path):
        tensors, meta = nn.load_checkpoint(path)
        cfg = FusionConfig(context=int(meta["context"]), width=int(meta["width"]),
                           n_blocks=int(meta["n_blocks"]), dropout=float(meta["dropout"]))
        model = cls(cfg, seed=None)
        nn.assign_params(model.params(), tensors)
        return model, meta.get("stage", "")

    # -- forward --------------------------------------------------------------

    def predict_actions(self, rtg, states, actions, pad_mask=None, training=False, rng=None):
        """Unit action predictions for every timestep of a token window.

        rtg: (B,T); states: (B,T,334); actions: (B,T,3) recorded actions
        (teacher forcing; causality keeps a_t hidden from its own prediction).
        pad_mask: (B,T) with 1 = real timestep. Returns a (B,T,3) tensor.
        Training needs `rng` for the dropout draws. Under `no_grad` the
        embeddings and head record nothing, and the transformer runs its
        numpy path (`GptBlockStack.__call__` decides), with the same bits.
        """
        rtg = np.asarray(rtg, dtype=np.float32)
        b, t = rtg.shape
        if t > self.config.context:
            raise FusionError(f"window of {t} timesteps exceeds context {self.config.context}")
        if t < 1:
            raise FusionError("empty window")
        states = np.asarray(states, dtype=np.float32)
        actions = np.asarray(actions, dtype=np.float32)
        tok_mask = None
        if pad_mask is not None:
            tok_mask = np.repeat(np.asarray(pad_mask), 3, axis=1)
        e_r = self.embed_rtg(Tensor(rtg[..., None]))
        e_s = self.embed_state(Tensor(states))
        e_a = self.embed_action(Tensor(actions))
        # interleave to (B, 3T, width)
        tok = concat([e_r.reshape(b, t, 1, -1), e_s.reshape(b, t, 1, -1),
                      e_a.reshape(b, t, 1, -1)], axis=2).reshape(b, 3 * t, -1)
        out = self.gpt(tok, training=training, rng=rng, pad_mask=tok_mask)
        state_tok = out.reshape(b, t, 3, -1)[:, :, 1, :]
        raw = tanh(self.head(state_tok))
        norm = sqrt((raw * raw).sum(axis=-1, keepdims=True) + 1e-8)
        return raw / norm

    def act(self, rtg, states, actions, pad_mask=None):
        """Numpy action for the latest timestep of each window (inference)."""
        with no_grad():
            pred = self.predict_actions(rtg, states, actions, pad_mask=pad_mask)
        return pred.data[:, -1, :].astype(np.float64)


def loss_dist_cos(predicted, target, valid=None):
    """Five-step angular loss: sum over centers t in [2, T-3] (0-based) and
    offsets -2..2 of arccos(a . a_hat), averaged over the batch.

    predicted: (B,T,3) tensor; target: (B,T,3) array; valid: (B,T) 0/1 mask —
    a center counts only if all five offsets are real timesteps.
    """
    target = np.asarray(target, dtype=predicted.dtype.type)
    b, t = target.shape[0], target.shape[1]
    if t < 5:
        raise FusionError(f"angular loss needs at least 5 timesteps, got {t}")
    dots = (predicted * Tensor(target)).sum(axis=-1)  # (B,T)
    ang = arccos_clamped(dots)
    if valid is None:
        valid = np.ones((b, t), dtype=target.dtype)
    else:
        valid = np.asarray(valid, dtype=target.dtype)
    total = None
    center_ok = np.ones((b, t - 4), dtype=target.dtype)
    for i in range(5):
        center_ok = center_ok * valid[:, i:t - 4 + i]
    for i in range(5):
        term = (ang[:, i:t - 4 + i] * center_ok).sum(axis=1)
        total = term if total is None else total + term
    return total.mean()


# -- window sampling ----------------------------------------------------------

def sample_windows(records, context, batch_size, rng):
    """Random 40-step-style windows, left-padded at episode starts.

    Returns (rtg, states, actions, valid) numpy arrays of shape
    (B,C[,...]) with valid marking real timesteps.
    """
    b, c = batch_size, context
    rtg = np.zeros((b, c), dtype=np.float32)
    states = np.zeros((b, c, STATE_DIM), dtype=np.float32)
    actions = np.zeros((b, c, ACTION_DIM), dtype=np.float32)
    valid = np.zeros((b, c), dtype=np.float32)
    for i in range(b):
        r = records[rng.integers(0, len(records))]
        t_len = r.length
        end = int(rng.integers(1, t_len + 1))
        start = max(0, end - c)
        n = end - start
        rtg[i, c - n:] = r.rtg[start:end]
        states[i, c - n:] = r.states[start:end]
        actions[i, c - n:] = r.actions[start:end]
        valid[i, c - n:] = 1.0
    return rtg, states, actions, valid


def _supervised_stage(model, records, schedule, trainable, seed, stage_name):
    if not records:
        raise FusionError(f"{stage_name}: empty dataset")
    rng = np.random.default_rng(seed)
    opt = nn.AdamW(trainable, lr=schedule.lr, warmup=schedule.warmup)
    log = {"iteration_loss": [], "stage": stage_name}
    c = model.config.context
    fixed = [p for k, p in model.params().items() if k not in trainable]
    with frozen(fixed):
        for _ in range(schedule.iterations):
            losses = []
            for _ in range(schedule.updates_per_iter):
                rtg, s, a, valid = sample_windows(records, c, schedule.batch_size, rng)
                pred = model.predict_actions(rtg, s, a, pad_mask=valid, training=True, rng=rng)
                loss = loss_dist_cos(pred, a, valid)
                losses.append(opt.minimize(loss, f"{stage_name} loss"))
            log["iteration_loss"].append(float(np.mean(losses)) if losses else float("nan"))
    return log


def pretrain(model, records, schedule, seed=0):
    """Train all parameters on mixed-bundle trajectories."""
    return _supervised_stage(model, records, schedule, model.params(), seed, "pretrain")


def finetune(model, records, schedule, seed=0):
    """Train only the final block / final norm / action head on one bundle."""
    return _supervised_stage(model, records, schedule, model.final_layer_params(),
                             seed, "finetune")


# -- fused-policy tracking (rolling window) -----------------------------------

class FusionTracker:
    """Rolling-window driver: tracks episodes in the env with the fusion
    policy, conditioning on a decaying return-to-go (floored at zero). Each
    row's last `context` timesteps sit in a ring of slots, so a step writes
    one slot and shifts nothing.

    `FusionModel.act` gives a row the same bytes in any batch (every product
    is a per-window 3-D matmul), so the chunk size only bounds the memory of
    one call."""

    CHUNK = 64

    def __init__(self, model, phantom, bundle_name, env_cfg, rtg0):
        self.model = model
        self.tracker = BatchTracker(phantom, bundle_name, env_cfg)
        self.rtg0 = rtg0
        self.context = model.config.context

    def run(self, seeds, hints=None, buffer=None):
        """Track all seeds to termination and return the streamlines; with a
        `ReplayBuffer`, also store every transition in it."""
        c = self.context
        n = len(seeds)
        r_buf = np.zeros((n, c), dtype=np.float32)
        s_buf = np.zeros((n, c, STATE_DIM), dtype=np.float32)
        a_buf = np.zeros((n, c, ACTION_DIM), dtype=np.float32)
        valid = np.zeros((n, c), dtype=np.float32)
        rtg = np.full(n, self.rtg0, dtype=np.float64)
        k = -1  # timestep of the current `act` call

        def act(states):
            nonlocal k
            k += 1
            act_idx = np.nonzero(self.tracker.active)[0]
            # the active rows step in lockstep, so each has taken k steps:
            # timestep k goes to ring slot k % c, and slots (k+1 ... k+c) % c
            # read oldest to newest; before the ring fills, the unwritten
            # slots come first as left padding
            slot = k % c
            r_buf[act_idx, slot] = rtg[act_idx]
            s_buf[act_idx, slot] = states[act_idx]
            a_buf[act_idx, slot] = 0.0
            valid[act_idx, slot] = 1.0
            order = (np.arange(k + 1, k + c + 1) % c)[None, :]

            actions = np.zeros((n, ACTION_DIM))
            for lo in range(0, len(act_idx), self.CHUNK):
                rows = act_idx[lo:lo + self.CHUNK, None]
                actions[rows[:, 0]] = self.model.act(
                    r_buf[rows, order], s_buf[rows, order], a_buf[rows, order],
                    pad_mask=valid[rows, order])
            return actions

        def observe(live, states, actions, rewards, done, next_states):
            a_buf[live, k % c] = actions[live]
            if buffer is not None:
                buffer.add_batch(states[live], actions[live], rewards[live],
                                 next_states[live], done[live])
            rtg[live] = np.maximum(rtg[live] - rewards[live], 0.0)

        return self.tracker.run(seeds, hints, act, observe)


# -- MCPFT --------------------------------------------------------------------

def mcpft_actor_loss(model, policies, rtg, s, a, valid, training=False, rng=None):
    """Composite loss: angular term plus -sum_t Q_k(s_t, a_hat_t) per critic.

    The critics are frozen while the loss is built, so `backward` on it
    reaches only the fusion model's parameters."""
    pred = model.predict_actions(rtg, s, a, pad_mask=valid, training=training, rng=rng)
    sup = loss_dist_cos(pred, a, valid)
    b, t = rtg.shape
    total = sup
    flat_pred = pred.reshape(b * t, ACTION_DIM)
    s_const = Tensor(np.asarray(s, dtype=np.float32).reshape(b * t, STATE_DIM))
    x = concat([s_const, flat_pred], axis=1)
    w = np.asarray(valid, dtype=np.float32).reshape(b * t)
    critic_params = [p for bundle in policies.values() for p in bundle.critic_params().values()]
    with frozen(critic_params):
        for bundle in policies.values():
            qs = [c(x)[:, 0] for c in bundle.critics]
            q = qs[0] if len(qs) == 1 else minimum(qs[0], qs[1])
            critic_term = -((q * w).reshape(b, t).sum(axis=1)).mean()
            total = total + critic_term
    return total, sup


def mcpft(model, policies, records, phantom, bundle_name, env_cfg, schedule, seed=0):
    """Multi-critic fine-tuning: many delayed actor updates per iteration,
    then exactly one TD step per critic on freshly re-rolled transitions."""
    if not records:
        raise FusionError("mcpft: empty dataset")
    rng = np.random.default_rng(seed)
    actor_opt = nn.AdamW(model.params(), lr=schedule.lr)
    critic_opts = {name: nn.AdamW(p.critic_params(), lr=p.hyper.lr)
                   for name, p in policies.items()}
    c = model.config.context
    log = {"actor_updates": [], "critic_updates": {n: [] for n in policies},
           "actor_loss": [], "supervised_loss": []}

    for _ in range(schedule.iterations):
        n_actor = 0
        for _ in range(schedule.actor_updates_per_iter):
            rtg, s, a, valid = sample_windows(records, c, schedule.batch_size, rng)
            loss, sup = mcpft_actor_loss(model, policies, rtg, s, a, valid,
                                         training=True, rng=rng)
            log["actor_loss"].append(actor_opt.minimize(loss, "mcpft actor loss"))
            n_actor += 1
            log["supervised_loss"].append(float(sup.data))
        log["actor_updates"].append(n_actor)

        if schedule.critic_updates_per_iter > 0:
            runner = FusionTracker(model, phantom, bundle_name, env_cfg,
                                   rtg0=schedule.rtg0)
            seeds, hints = agents.sample_seeds(phantom, bundle_name,
                                               schedule.rollout_episodes, rng)
            # room for every step of every episode, so the buffer never wraps
            buffer = agents.ReplayBuffer(len(seeds) * env_cfg.max_steps)
            runner.run(seeds, hints, buffer=buffer)
            for name, bundle in policies.items():
                n_critic = 0
                for _ in range(schedule.critic_updates_per_iter):
                    agents.update_critics(bundle, critic_opts[name],
                                          buffer.sample(schedule.batch_size, rng), rng)
                    n_critic += 1
                log["critic_updates"][name].append(n_critic)
        else:
            for name in policies:
                log["critic_updates"][name].append(0)
    return log
