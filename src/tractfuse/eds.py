"""Episodic data selection: harvest trajectories from the trained policies,
apply length / within-policy (MDF) / across-policy (normalized-Q) selection,
and assemble pretraining and finetuning datasets.

Selection follows a two-path scheme: the pretraining path ranks policies on
unfiltered (length-screened only) trajectories; the finetuning path ranks on
MDF-filtered, tract-specific trajectories.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .agents import ALGOS
from .env import ACTION_DIM, BatchTracker, STATE_DIM, jittered_seeds, peak_hints
from .geometry import build_reference_set, min_mdf_to_refs

EDS_MAGIC = b"EDS1"
MIN_TRANSITIONS = 47
MDF_THRESHOLD_MM = 5.0
POLICY_IDS = {name: i for i, name in enumerate(ALGOS)}  # ALGOS order breaks ties


class EdsError(RuntimeError):
    pass


class EdsFormatError(EdsError, binio.FormatError):
    """A corrupt or truncated EDS1 file."""


@dataclass
class TrajectoryRecord:
    states: np.ndarray      # (T, 334) float32
    actions: np.ndarray     # (T, 3) float32, unit vectors
    rewards: np.ndarray     # (T,) float32
    rtg: np.ndarray         # (T,) float32
    policy_id: str
    streamline: np.ndarray  # (T+1, 3) float32
    bundle_name: str

    def __post_init__(self):
        t = len(self.rewards)
        if t < 1 or len(self.states) != t or len(self.actions) != t or len(self.rtg) != t:
            raise EdsError("trajectory sequences must share length T >= 1")
        if len(self.streamline) != t + 1:
            raise EdsError("streamline must have T+1 points")

    @property
    def length(self):
        return len(self.rewards)


@dataclass
class EdsDatasets:
    pretrain: list = field(default_factory=list)
    finetune: dict = field(default_factory=dict)  # bundle_name -> records


@dataclass(frozen=True)
class HarvestSpec:
    window: int = 4          # cubic sub-window edge, in voxels
    seeds_per_voxel: int = 4
    min_transitions: int = MIN_TRANSITIONS
    mdf_threshold_mm: float = MDF_THRESHOLD_MM
    reference_count: int = 15


def compute_rtg(rewards):
    """Undiscounted return-to-go: suffix sums of the reward sequence."""
    r = np.asarray(rewards, dtype=np.float64)
    return np.cumsum(r[::-1])[::-1].astype(np.float32)


def _track_records(policy, policy_name, phantom, bundle_name, env_cfg, seeds, hints):
    """Deterministic rollout of one policy from a seed batch, fully recorded.

    Episodes step in lockstep, so observe call k holds step k of exactly the
    rows whose episode takes more than k steps. Only those rows are kept, and
    each record gathers its own rows after the run, so memory follows the
    steps taken, not `env_cfg.max_steps`.
    """
    tracker = BatchTracker(phantom, bundle_name, env_cfg)
    rows, states, actions, rewards = [], [], [], []

    def observe(live, s, a, r, done, next_states):
        acts = a[live]
        rows.append(live)
        states.append(s[live])
        actions.append((acts / np.linalg.norm(acts, axis=1, keepdims=True)).astype(np.float32))
        rewards.append(r[live].astype(np.float32))

    streamlines = tracker.run(seeds, hints, policy.act, observe)
    # a stable sort by row turns the step-major captures row-major; row i's
    # steps are then order[ends[i] - steps[i]:ends[i]]
    order = np.argsort(np.concatenate(rows), kind="stable")
    ends = np.cumsum(tracker.steps)
    states, actions, rewards = (np.concatenate(c) for c in (states, actions, rewards))
    records = []
    for i in range(len(seeds)):
        t = int(tracker.steps[i])
        if t < 1:
            continue
        idx = order[ends[i] - t:ends[i]]
        rew = rewards[idx]
        records.append(TrajectoryRecord(
            states=states[idx], actions=actions[idx], rewards=rew,
            rtg=compute_rtg(rew), policy_id=policy_name,
            streamline=streamlines[i], bundle_name=bundle_name))
    return records


def harvest(policies, phantom, bundle_name, origin, spec, env_cfg, rng):
    """Track every policy deterministically from one shared seed batch, seeded
    from the in-mask voxels of one contiguous sub-window at `origin`.

    policies: mapping name -> PolicyBundle. Returns records grouped by policy.
    """
    mask = phantom.mask_for(bundle_name).values
    o, w = np.asarray(origin), spec.window
    voxels = np.argwhere(mask[o[0]:o[0] + w, o[1]:o[1] + w, o[2]:o[2] + w] > 0) + o
    if len(voxels) == 0:
        raise EdsError(f"mask window at {tuple(origin)} contains no voxels")
    seeds = jittered_seeds(mask, voxels, spec.seeds_per_voxel, rng)
    if len(seeds) == 0:
        raise EdsError(f"no valid seeds in window at {tuple(origin)}")
    signs = np.where(rng.random(len(seeds)) < 0.5, 1.0, -1.0)
    hints, has_peak = peak_hints(phantom, seeds)
    hints[has_peak] *= signs[has_peak, None]
    return {name: _track_records(p, name, phantom, bundle_name, env_cfg, seeds, hints)
            for name, p in policies.items()}


def length_filter(records, min_transitions=MIN_TRANSITIONS):
    """Drop trajectories with fewer transitions than the floor."""
    return [r for r in records if r.length >= min_transitions]


def within_policy_filter(records, refs, threshold_mm=MDF_THRESHOLD_MM, voxel_size=1.0):
    """Keep records whose streamline is within threshold MDF of any reference."""
    if not refs:
        raise EdsError("within-policy filter needs a nonempty reference set")
    keep = min_mdf_to_refs([r.streamline for r in records], refs, voxel_size) <= threshold_mm
    return [r for r, ok in zip(records, keep) if ok]


def trajectory_q_score(policy, record):
    """Mean critic value over a trajectory's (state, action) pairs."""
    return float(policy.q_value(record.states, record.actions).mean())


def min_max_normalize(x):
    """`(x - min) / (max - min)` in x's dtype; a constant batch (range below
    1e-12) maps to 0.5 everywhere."""
    lo, hi = x.min(), x.max()
    if hi - lo < 1e-12:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def across_policy_select(records_by_policy, policies):
    """Pick one policy per harvest batch by max mean min-max-normalized Q.

    Returns (selected records, winning policy name or None). Policies with no
    surviving records are excluded; all-excluded yields an empty selection.
    """
    mean_scores = {}
    for name in ALGOS:
        recs = records_by_policy.get(name, [])
        if not recs:
            continue
        raw = np.array([trajectory_q_score(policies[name], r) for r in recs])
        mean_scores[name] = min_max_normalize(raw).mean()
    if not mean_scores:
        warnings.warn("across-policy selection: no policy has surviving records")
        return [], None
    winner = max(ALGOS, key=lambda n: (mean_scores.get(n, -np.inf), -POLICY_IDS[n]))
    return list(records_by_policy[winner]), winner


def _sweep_origins(mask, window):
    dims = mask.shape
    origins = []
    for ox in range(0, dims[0], window):
        for oy in range(0, dims[1], window):
            for oz in range(0, dims[2], window):
                if mask[ox:ox + window, oy:oy + window, oz:oz + window].any():
                    origins.append((ox, oy, oz))
    return origins


def build_datasets(phantom, policies, env_cfg, spec, pretrain_target, finetune_target, seed=0):
    """Sweep harvest windows over every bundle and assemble both datasets."""
    rng = np.random.default_rng(seed)
    voxel_size = phantom.grid.voxel_size
    datasets = EdsDatasets()

    for mask_obj in phantom.masks:
        bundle = mask_obj.bundle_name
        gt = phantom.bundles.get(bundle)
        if not gt:
            raise EdsError(f"phantom has no ground-truth streamlines for '{bundle}'")
        refs = build_reference_set(gt, count=spec.reference_count, voxel_size=voxel_size)
        datasets.finetune.setdefault(bundle, [])
        for origin in _sweep_origins(mask_obj.values, spec.window):
            grouped = harvest(policies, phantom, bundle, origin, spec, env_cfg, rng)
            long_enough = {n: length_filter(rs, spec.min_transitions)
                           for n, rs in grouped.items()}
            if any(long_enough.values()):
                pre_sel, _ = across_policy_select(long_enough, policies)
                datasets.pretrain.extend(pre_sel)
            mdf_ok = {n: within_policy_filter(rs, refs, spec.mdf_threshold_mm, voxel_size)
                      for n, rs in long_enough.items() if rs}
            if any(mdf_ok.values()):
                fin_sel, _ = across_policy_select(mdf_ok, policies)
                datasets.finetune[bundle].extend(fin_sel)

    datasets.pretrain = _downsample(datasets.pretrain, pretrain_target, rng, "pretrain")
    for bundle in datasets.finetune:
        datasets.finetune[bundle] = _downsample(
            datasets.finetune[bundle], finetune_target, rng, f"finetune[{bundle}]")
    return datasets


def _downsample(records, target, rng, label):
    if len(records) <= target:
        if len(records) < target:
            warnings.warn(f"{label}: only {len(records)} records for target {target}")
        return records
    pick = rng.choice(len(records), size=target, replace=False)
    return [records[i] for i in sorted(pick)]


# -- EDS1 serialization -------------------------------------------------------

def save_records(records, path):
    with open(path, "wb") as f:
        f.write(EDS_MAGIC)
        f.write(struct.pack("<I", len(records)))
        for r in records:
            f.write(struct.pack("<B", POLICY_IDS[r.policy_id]))
            f.write(binio.pack_str(r.bundle_name))
            f.write(struct.pack("<I", r.length))
            for arr in (r.states, r.actions, r.rewards, r.rtg, r.streamline):
                f.write(arr.astype("<f4").tobytes())


def load_records(path):
    r = binio.Reader(path, EDS_MAGIC, EdsFormatError)
    (count,) = r.unpack("I", "record count")
    out = []
    for _ in range(count):
        (pid,) = r.unpack("B", "policy id")
        if pid >= len(ALGOS):
            r.fail(f"unknown policy id {pid}")
        bundle = r.string("bundle name")
        (t,) = r.unpack("I", "record length")
        if t < 1:
            r.fail("empty record")
        states = r.array("<f4", (t, STATE_DIM), "states")
        actions = r.array("<f4", (t, ACTION_DIM), "actions")
        rewards = r.array("<f4", (t,), "rewards")
        rtg = r.array("<f4", (t,), "rtg")
        streamline = r.array("<f4", (t + 1, 3), "streamline")
        out.append(TrajectoryRecord(states=states, actions=actions, rewards=rewards,
                                    rtg=rtg, policy_id=ALGOS[pid],
                                    streamline=streamline, bundle_name=bundle))
    r.end()
    return out
