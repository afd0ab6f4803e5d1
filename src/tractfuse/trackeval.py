"""Inference-time tracking and bundle evaluation.

Tracking seeds every mask voxel, runs two half-episodes per seed with
opposite initial direction hints (+/- the nearest fODF peak) and merges
them at the seed. Candidate bundles are post-filtered by MDF distance to
the reference set, voxelized, and scored with Dice / overlap / overreach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eds import min_max_normalize
from .env import BatchTracker, jittered_seeds, peak_hints
from .fusion import FusionTracker
from .geometry import MDF_POINTS, min_mdf_to_refs


class TrackEvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrackConfig:
    seeds_per_voxel: int = 7
    rtg0: float = 300.0
    post_filter_threshold_mm: float = 5.0

    def __post_init__(self):
        if self.seeds_per_voxel < 1:
            raise ValueError(f"seeds_per_voxel must be >= 1, got {self.seeds_per_voxel}")
        if self.rtg0 <= 0:
            raise ValueError(f"rtg0 must be positive, got {self.rtg0}")


@dataclass
class BundleScore:
    dice: float
    ol: float
    or_: float


class AvgEnsemble:
    """Normalized mean of the three policies' deterministic actions."""

    def __init__(self, policies):
        self.policies = dict(policies)

    def act(self, states):
        acts = np.mean([p.act(states) for p in self.policies.values()], axis=0)
        norm = np.linalg.norm(acts, axis=1, keepdims=True)
        return np.divide(acts, norm, out=acts.copy(), where=norm > 0)


class MaxQEnsemble:
    """Per step, the candidate action with the highest min-max-normalized
    own-critic Q-value across the three policies (batch-wise normalization
    with `eds.min_max_normalize`, as in dataset selection)."""

    def __init__(self, policies):
        self.policies = dict(policies)

    def act(self, states):
        states = np.atleast_2d(states)
        cands, scores = [], []
        for p in self.policies.values():
            a = p.act(states)
            scores.append(min_max_normalize(p.q_value(states, a)))
            cands.append(a)
        pick = np.argmax(scores, axis=0)
        out = np.stack(cands, axis=0)[pick, np.arange(states.shape[0])]
        return out


def seed_positions(phantom, bundle_name, seeds_per_voxel, rng):
    """seeds_per_voxel uniform samples per in-mask voxel, with peak hints."""
    mask = phantom.mask_for(bundle_name).values
    seeds = jittered_seeds(mask, np.argwhere(mask > 0), seeds_per_voxel, rng)
    if len(seeds) == 0:
        raise TrackEvalError(f"no valid seeds in bundle '{bundle_name}'")
    hints, _ = peak_hints(phantom, seeds)
    return seeds, hints


def _merge_bidirectional(forward, backward):
    """Join the reversed backward half to the forward half at the seed."""
    out = []
    for f, b in zip(forward, backward):
        out.append(np.concatenate([b[::-1][:-1], f], axis=0))
    return out


def track_policy(actor, phantom, bundle_name, cfg, env_cfg, seed=0):
    """Bidirectional tracking with a single policy or a decision ensemble."""
    rng = np.random.default_rng(seed)
    seeds, hints = seed_positions(phantom, bundle_name, cfg.seeds_per_voxel, rng)
    tracker = BatchTracker(phantom, bundle_name, env_cfg)
    tracker.run(seeds, hints, actor.act)
    fwd = tracker.streamlines()
    tracker.run(seeds, -hints, actor.act)
    return _merge_bidirectional(fwd, tracker.streamlines())


def track_fusion(model, phantom, bundle_name, cfg, env_cfg, seed=0):
    """Bidirectional tracking with the fusion policy, rtg-conditioned."""
    rng = np.random.default_rng(seed)
    seeds, hints = seed_positions(phantom, bundle_name, cfg.seeds_per_voxel, rng)
    runner = FusionTracker(model, phantom, bundle_name, env_cfg, rtg0=cfg.rtg0)
    fwd = runner.run(seeds, hints)
    bwd = runner.run(seeds, -hints)
    return _merge_bidirectional(fwd, bwd)


def post_filter(streamlines, refs, threshold_mm, voxel_size=1.0):
    """Keep streamlines within threshold MDF (mm) of any reference."""
    if not np.isfinite(threshold_mm):
        return list(streamlines)
    return [s for s in streamlines
            if min_mdf_to_refs(s, refs, voxel_size, k=MDF_POINTS) <= threshold_mm]


VOXELIZE_SUB_STEP = 0.25  # voxels between samples along a segment


def voxelize(streamlines, grid):
    """Binary mask of voxels touched by any streamline segment (segments
    sub-sampled every `VOXELIZE_SUB_STEP` voxel)."""
    mask = np.zeros(grid.dims, dtype=np.uint8)
    dims = np.asarray(grid.dims)
    for s in streamlines:
        pts = np.asarray(s, dtype=np.float64)
        samples = [pts]
        seg = pts[1:] - pts[:-1]
        seg_len = np.linalg.norm(seg, axis=1)
        for i in np.nonzero(seg_len > VOXELIZE_SUB_STEP)[0]:
            n = int(np.ceil(seg_len[i] / VOXELIZE_SUB_STEP))
            t = np.linspace(0.0, 1.0, n + 1)[1:-1, None]
            samples.append(pts[i] + t * seg[i])
        all_pts = np.concatenate(samples, axis=0)
        idx = np.rint(all_pts).astype(int)
        ok = np.all((idx >= 0) & (idx < dims), axis=1)
        idx = idx[ok]
        mask[idx[:, 0], idx[:, 1], idx[:, 2]] = 1
    return mask


def score(candidate_mask, gt_mask):
    """Dice / overlap / overreach of a candidate mask against ground truth."""
    c = np.asarray(candidate_mask) > 0
    g = np.asarray(gt_mask) > 0
    if c.shape != g.shape:
        raise TrackEvalError(f"mask shapes differ: {c.shape} vs {g.shape}")
    n_g = int(g.sum())
    if n_g == 0:
        raise TrackEvalError("ground-truth mask is empty")
    inter = int((c & g).sum())
    n_c = int(c.sum())
    dice = 2.0 * inter / (n_c + n_g) if (n_c + n_g) else 0.0
    ol = inter / n_g
    or_ = int((c & ~g).sum()) / n_g
    return BundleScore(dice=dice, ol=ol, or_=or_)


def format_score_line(bundle, algo, s):
    return f"{bundle}\t{algo}\t{s.dice:.4f}\t{s.ol:.4f}\t{s.or_:.4f}"


def write_scores(path, rows):
    """rows: iterable of (bundle, algo, BundleScore); tab-separated output."""
    with open(path, "w") as f:
        for bundle, algo, s in rows:
            f.write(format_score_line(bundle, algo, s) + "\n")


def read_scores(path):
    out = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            bundle, algo, dice, ol, or_ = line.rstrip("\n").split("\t")
            out.append((bundle, algo, BundleScore(float(dice), float(ol), float(or_))))
    return out
