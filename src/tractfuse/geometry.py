"""Streamline geometry: arc-length resampling, MDF distance, farthest
sampling of reference sets, and the STL1 binary serialization."""

from __future__ import annotations

import struct

import numpy as np

from . import binio

STL_MAGIC = b"STL1"
MDF_POINTS = 20  # canonical resampling for MDF comparisons
REFERENCE_COUNT = 15


class GeometryError(ValueError):
    pass


class StreamlineFormatError(GeometryError, binio.FormatError):
    """A corrupt or truncated STL1 file."""


def resample(streamline, k):
    """Resample to k points equally spaced by arc length; endpoints kept."""
    if k < 2:
        raise GeometryError(f"resample needs k >= 2, got {k}")
    pts = np.asarray(streamline, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 3:
        raise GeometryError(f"streamline must be (n>=2, 3), got {pts.shape}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    if arc[-1] <= 0:
        raise GeometryError("zero-length streamline cannot be resampled")
    s = np.linspace(0.0, arc[-1], k)
    out = np.stack([np.interp(s, arc, pts[:, i]) for i in range(3)], axis=1)
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def mdf(a, b, voxel_size=1.0):
    """Mean direct-flip distance in mm between equally resampled streamlines."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise GeometryError(f"mdf needs equal point counts, got {a.shape} vs {b.shape}")
    direct = np.linalg.norm(a - b, axis=1).mean()
    flipped = np.linalg.norm(a - b[::-1], axis=1).mean()
    return min(direct, flipped) * voxel_size


def _pairwise_mdf(resampled, voxel_size):
    n = len(resampled)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = mdf(resampled[i], resampled[j], voxel_size)
    return d


def farthest_sample(pool, n, start_index=None, voxel_size=1.0, k=MDF_POINTS):
    """Greedy max-min MDF selection of n streamlines from the pool.

    Returns (selected resampled streamlines, selected indices) in selection
    order. Default start: the pool element closest to the pool medoid, making
    the output deterministic. Ties break toward the lowest index.
    """
    if n > len(pool):
        raise GeometryError(f"cannot sample {n} from pool of {len(pool)}")
    res = [resample(s, k) for s in pool]
    dists = _pairwise_mdf(res, voxel_size)
    if start_index is None:
        medoid = int(np.argmin(dists.sum(axis=1)))
        start_index = medoid
    chosen = [start_index]
    remaining = [i for i in range(len(pool)) if i != start_index]
    while len(chosen) < n:
        best, best_score = None, -1.0
        for i in remaining:
            score = min(dists[i, j] for j in chosen)
            if score > best_score + 1e-12:
                best, best_score = i, score
        chosen.append(best)
        remaining.remove(best)
    return [res[i] for i in chosen], chosen


def min_mdf_to_refs(streamline, refs, voxel_size=1.0, k=MDF_POINTS):
    """Minimum MDF (mm) from a streamline to a list of resampled references."""
    s = resample(streamline, k)
    r = np.stack([np.asarray(ref, dtype=np.float64) for ref in refs])
    if r.shape[1:] != s.shape:
        raise GeometryError(f"mdf needs equal point counts, got {s.shape} vs {r.shape[1:]}")
    direct = np.linalg.norm(s - r, axis=2).mean(axis=1)
    flipped = np.linalg.norm(s - r[:, ::-1], axis=2).mean(axis=1)
    return np.minimum(direct, flipped).min() * voxel_size


# -- STL1 serialization -------------------------------------------------------

def save_streamlines(streamlines, path, voxel_size=1.0):
    """Write STL1: magic, f32 voxel_size, u32 count, then per-streamline
    u32 npoints + npoints x 3 f32, little-endian, voxel coordinates."""
    with open(path, "wb") as f:
        f.write(STL_MAGIC)
        f.write(struct.pack("<fI", voxel_size, len(streamlines)))
        for s in streamlines:
            pts = np.asarray(s, dtype="<f4")
            f.write(struct.pack("<I", pts.shape[0]))
            f.write(pts.tobytes())


def load_streamlines(path):
    """Read an STL1 file; returns (list of (n,3) float32 arrays, voxel_size)."""
    r = binio.Reader(path, STL_MAGIC, StreamlineFormatError)
    voxel_size, count = r.unpack("fI", "header")
    out = []
    for _ in range(count):
        (npts,) = r.unpack("I", "point count")
        out.append(r.array("<f4", (npts, 3), "points"))
    r.end()
    return out, float(voxel_size)


def build_reference_set(gt_streamlines, count=REFERENCE_COUNT, voxel_size=1.0, k=MDF_POINTS):
    """Reference streamlines for one bundle via farthest sampling of ground
    truth; a `count` above the pool size takes the whole pool."""
    refs, _ = farthest_sample(gt_streamlines, min(count, len(gt_streamlines)),
                              voxel_size=voxel_size, k=k)
    return refs
