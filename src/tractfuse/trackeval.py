"""Inference-time tracking and bundle evaluation.

`track` is the one bidirectional tracker for every actor (the three
policies, the `avg` and `maxq` ensembles and the fusion model): it seeds
every mask voxel, runs two half-episodes per seed through the actor's
`run(seeds, hints)` with opposite initial direction hints (+/- the nearest
fODF peak) and merges them at the seed. Candidate bundles are post-filtered
by MDF distance to the reference set, voxelized, and scored with Dice /
overlap / overreach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eds import min_max_normalize
from .env import jittered_seeds, peak_hints
from .geometry import min_mdf_to_refs


class TrackEvalError(RuntimeError):
    pass


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


def track(run, phantom, bundle_name, seeds_per_voxel, seed=0):
    """Bidirectional tracking with any actor: `run(seeds, hints)` tracks one
    half from every seed and returns one streamline per seed."""
    rng = np.random.default_rng(seed)
    seeds, hints = seed_positions(phantom, bundle_name, seeds_per_voxel, rng)
    fwd = run(seeds, hints)
    return _merge_bidirectional(fwd, run(seeds, -hints))


def post_filter(streamlines, refs, threshold_mm, voxel_size=1.0):
    """Keep streamlines within threshold MDF (mm) of any reference. A
    streamline without extent (one point, or all points equal) is dropped;
    one pass over the points of all of them finds the steps that move."""
    if len(streamlines):
        row = np.repeat(np.arange(len(streamlines)), [len(s) for s in streamlines])
        pts = np.concatenate(streamlines)
        moves = (row[1:] == row[:-1]) & np.any(pts[1:] != pts[:-1], axis=1)
        extent = np.bincount(row[1:][moves], minlength=len(streamlines)) > 0
        streamlines = [s for s, ok in zip(streamlines, extent) if ok]
    if not np.isfinite(threshold_mm):
        return streamlines
    keep = min_mdf_to_refs(streamlines, refs, voxel_size) <= threshold_mm
    return [s for s, ok in zip(streamlines, keep) if ok]


VOXELIZE_SUB_STEP = 0.25  # voxels between samples along a segment


def voxelize(streamlines, grid):
    """Binary mask of voxels touched by any streamline segment (segments
    sub-sampled every `VOXELIZE_SUB_STEP` voxel). All segments of all
    streamlines are sampled in one pass: a segment longer than the sub-step
    is cut into `n = ceil(length / VOXELIZE_SUB_STEP)` pieces, and its inner
    sample k is `start + (k * (1.0 / n)) * segment`, the bits of
    `np.linspace(0, 1, n + 1)[k]`."""
    mask = np.zeros(grid.dims, dtype=np.uint8)
    if len(streamlines) == 0:
        return mask
    pts = np.concatenate(streamlines, dtype=np.float64)
    row = np.repeat(np.arange(len(streamlines)), [len(s) for s in streamlines])
    seg = pts[1:] - pts[:-1]
    seg_len = np.linalg.norm(seg, axis=1)
    cut = np.nonzero((row[1:] == row[:-1]) & (seg_len > VOXELIZE_SUB_STEP))[0]
    pieces = np.ceil(seg_len[cut] / VOXELIZE_SUB_STEP).astype(int)
    of = np.repeat(np.arange(len(cut)), pieces - 1)    # segment of each inner sample
    k = np.arange(len(of)) - (np.cumsum(pieces - 1) - (pieces - 1))[of] + 1
    t = k * (1.0 / pieces[of])
    idx = np.rint(np.concatenate([pts, pts[cut[of]] + t[:, None] * seg[cut[of]]])).astype(int)
    idx = idx[np.all((idx >= 0) & (idx < np.asarray(grid.dims)), axis=1)]
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


def write_scores(path, rows):
    """rows: iterable of (bundle, algo, BundleScore); tab-separated output."""
    with open(path, "w") as f:
        for bundle, algo, s in rows:
            f.write(f"{bundle}\t{algo}\t{s.dice:.4f}\t{s.ol:.4f}\t{s.or_:.4f}\n")


def read_scores(path):
    out = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            bundle, algo, dice, ol, or_ = line.rstrip("\n").split("\t")
            out.append((bundle, algo, BundleScore(float(dice), float(ol), float(or_))))
    return out
