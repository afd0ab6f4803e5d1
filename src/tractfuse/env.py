"""Tracking MDP: 334-d state construction, alignment reward, and episode
termination. An episode ends at the step cap (`max_steps`), on leaving the
mask (`left_mask`), on a turn sharper than `max_angle_deg` (`sharp_angle`),
or on a zero-norm action (`no_direction`), which takes no step.

State layout: 45 SH coefficients at the current position and its 6 axis
neighbors (315), last 4 tracking directions newest-first (12, zero-padded),
and the interpolated mask value at the same 7 positions (7).

`BatchTracker` is the only episode API. It steps many episodes in lockstep
with numpy (a single episode is a one-row batch), and `BatchTracker.run` is
the one episode driver: every rollout (RL training, EDS harvesting,
whole-bundle tracking, fusion tracking) goes through it, and it returns one
streamline per seed, so bound to an actor's `act` it is a half-tracker for
`trackeval.track`. `reward` is the one
alignment formula, and `BatchTracker.step` pays every reward through it.
Every actor is a callable `act(states) -> actions`, and every recorded
transition goes into an `agents.ReplayBuffer`. Every seeder draws its seeds
with `jittered_seeds` and its direction hints with `peak_hints`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phantom import sample_field

STATE_DIM = 334
ACTION_DIM = 3
N_HISTORY = 4

REASON_NONE = "none"
REASON_MAX_STEPS = "max_steps"
REASON_LEFT_MASK = "left_mask"
REASON_SHARP_ANGLE = "sharp_angle"
REASON_NO_DIRECTION = "no_direction"


class EnvError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnvConfig:
    step_size: float = 0.5
    max_steps: int = 530
    max_angle_deg: float = 60.0
    neighbor_offset: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.step_size <= 1.0):
            raise ValueError(f"step_size must be in (0, 1], got {self.step_size}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


_OFFSET_SIGNS = np.array([
    [0, 0, 0],
    [1, 0, 0], [-1, 0, 0],
    [0, 1, 0], [0, -1, 0],
    [0, 0, 1], [0, 0, -1],
], dtype=np.float64)


def build_states(phantom, mask_values, positions, histories, neighbor_offset=1.0):
    """334-d states for a batch: positions (N,3), histories (N,4,3) newest-first."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    probe = pos[:, None, :] + neighbor_offset * _OFFSET_SIGNS[None, :, :]
    flat = probe.reshape(-1, 3)
    sh_feat = sample_field(phantom.sh, flat).reshape(n, 7 * 45)
    mask_feat = sample_field(mask_values, flat).reshape(n, 7)
    dir_feat = np.asarray(histories, dtype=np.float64).reshape(n, 3 * N_HISTORY)
    return np.concatenate([sh_feat, dir_feat, mask_feat], axis=1).astype(np.float32)


def reward(actions, prev_dirs, has_prev, peak_counts, peak_dirs):
    """Alignment reward per row, |max_i p_i . a| * (a . u_prev), on unit
    actions (N,3). Row n's peaks are the first `peak_counts[n]` of
    `peak_dirs[n]` (N,K,3); a row without peaks gets 0. The u factor is 1
    where `has_prev` is False, else the dot with the unit `prev_dirs` row."""
    dots = np.abs(np.einsum("nkj,nj->nk", np.asarray(peak_dirs, dtype=np.float64), actions))
    dots = np.where(np.arange(dots.shape[1])[None, :] < peak_counts[:, None], dots, -np.inf)
    align = np.where(peak_counts > 0, dots.max(axis=1), 0.0)
    return align * np.where(has_prev, np.einsum("nj,nj->n", actions, prev_dirs), 1.0)


def jittered_seeds(mask, voxels, per_voxel, rng):
    """`per_voxel` uniform jitters of each voxel center, drawn voxel-major,
    keeping those whose interpolated mask value is at least 0.5."""
    cand = np.repeat(voxels, per_voxel, axis=0) + rng.uniform(
        -0.5, 0.5, size=(len(voxels) * per_voxel, 3))
    return cand[sample_field(mask, cand) >= 0.5]


def peak_hints(phantom, seeds):
    """First fODF peak at each seed (zero where there is none), and a mask of
    the seeds that have one."""
    hints = np.zeros((len(seeds), 3))
    has_peak = np.zeros(len(seeds), dtype=bool)
    for i, s in enumerate(seeds):
        pk = phantom.peaks_at(s)
        if len(pk):
            hints[i] = pk[0]
            has_peak[i] = True
    return hints, has_peak


class BatchTracker:
    """Lockstep batch of tracking episodes over one phantom bundle."""

    def __init__(self, phantom, bundle_name, config):
        self.phantom = phantom
        self.config = config
        self.mask = phantom.mask_for(bundle_name).values
        self.bundle_name = bundle_name
        self._cos_limit = np.cos(np.deg2rad(config.max_angle_deg))
        self.n = 0

    def reset(self, seeds, dir_hints=None):
        """Start episodes at `seeds` (N,3); optional unit hints enter the
        direction history so policies can be steered at the seed."""
        seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
        mask_vals = sample_field(self.mask, seeds)
        if np.any(mask_vals < 0.5):
            bad = np.argmax(mask_vals < 0.5)
            raise EnvError(f"seed {seeds[bad]} lies outside the '{self.bundle_name}' mask")
        n = seeds.shape[0]
        self.n = n
        self.pos = seeds.copy()
        self.history = np.zeros((n, N_HISTORY, 3))
        self.prev_dir = np.zeros((n, 3))
        self.has_prev = np.zeros(n, dtype=bool)
        if dir_hints is not None:
            hints = np.atleast_2d(np.asarray(dir_hints, dtype=np.float64))
            norms = np.linalg.norm(hints, axis=1, keepdims=True)
            ok = norms[:, 0] > 0
            self.history[ok, 0] = hints[ok] / norms[ok]
        self.steps = np.zeros(n, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)
        self.reasons = np.array([REASON_NONE] * n, dtype=object)
        self.points = np.zeros((n, self.config.max_steps + 1, 3), dtype=np.float32)
        self.points[:, 0] = seeds
        return build_states(self.phantom, self.mask, self.pos, self.history,
                            self.config.neighbor_offset)

    def step(self, actions):
        """Advance every active episode one step.

        Returns (rewards, done) over the full batch; inactive episodes
        report reward 0, and each row's terminal reason is in `reasons`.
        Only the active rows are computed: a finished row's action is never
        read. An active row whose action is zero ends as `no_direction` with
        reward 0, without moving or adding a point. `stepped` then indexes
        the rows that moved.
        """
        if not self.active.any():
            raise EnvError("step on a batch with no active episodes")
        live = np.nonzero(self.active)[0]
        acts = np.asarray(actions, dtype=np.float64)[live]
        if not np.isfinite(acts).all():
            raise EnvError("non-finite action on an active episode")
        norms = np.linalg.norm(acts, axis=1, keepdims=True)
        stuck = live[norms[:, 0] == 0]
        if len(stuck):
            moving = norms[:, 0] > 0
            live, acts, norms = live[moving], acts[moving], norms[moving]
            self.reasons[stuck] = REASON_NO_DIRECTION
            self.active[stuck] = False
        self.stepped = live
        a = acts / norms

        pos, prev, has_prev = self.pos[live], self.prev_dir[live], self.has_prev[live]
        idx = np.clip(np.rint(pos).astype(int), 0, np.asarray(self.phantom.grid.dims) - 1)
        rewards = np.zeros(self.n)
        rewards[live] = reward(a, prev, has_prev,
                               self.phantom.peak_counts[idx[:, 0], idx[:, 1], idx[:, 2]],
                               self.phantom.peak_dirs[idx[:, 0], idx[:, 1], idx[:, 2]])
        cos_ang = np.einsum("nj,nj->n", a, prev)

        done_angle = has_prev & (cos_ang < self._cos_limit)
        new_pos = pos + self.config.step_size * a
        done_mask = ~done_angle & (sample_field(self.mask, new_pos) < 0.5)
        new_steps = self.steps[live] + 1
        done_steps = ~done_angle & ~done_mask & (new_steps >= self.config.max_steps)

        self.pos[live] = new_pos
        self.steps[live] = new_steps
        self.points[live, new_steps] = new_pos.astype(np.float32)
        self.history[live] = np.roll(self.history[live], 1, axis=1)
        self.history[live, 0] = a
        self.prev_dir[live] = a
        self.has_prev[live] = True

        self.reasons[live[done_angle]] = REASON_SHARP_ANGLE
        self.reasons[live[done_mask]] = REASON_LEFT_MASK
        self.reasons[live[done_steps]] = REASON_MAX_STEPS
        ended = live[done_angle | done_mask | done_steps]
        self.active[ended] = False
        done = np.zeros(self.n, dtype=bool)
        done[ended] = True
        done[stuck] = True
        return rewards, done

    def run(self, seeds, hints, act, observe=None):
        """Roll episodes from `seeds` until every one has ended.

        Each step calls `act(states)` on the full batch, steps, and then
        `observe(live, states, actions, rewards, done, next_states)`, where
        `live` indexes the rows that took the step: a row whose zero action
        ended it took none, so it is not a transition. Only the live rows'
        states are rebuilt: the position and history of any other row did
        not change, so its state stays the same. Returns `streamlines()`.
        """
        states = self.reset(seeds, hints)
        while self.active.any():
            actions = act(states)
            rewards, done = self.step(actions)
            live = self.stepped
            next_states = states.copy()
            next_states[live] = build_states(self.phantom, self.mask, self.pos[live],
                                             self.history[live], self.config.neighbor_offset)
            if observe is not None:
                observe(live, states, actions, rewards, done, next_states)
            states = next_states
        return self.streamlines()

    def streamlines(self):
        """Emitted streamlines so far, one (steps+1, 3) array per episode."""
        return [self.points[i, : self.steps[i] + 1].copy() for i in range(self.n)]

