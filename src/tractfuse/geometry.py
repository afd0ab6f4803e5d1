"""Streamline geometry: arc-length resampling, MDF distance, farthest
sampling of reference sets, and the STL1 binary serialization.

`resample` takes a whole list of streamlines and resamples it in one numpy
pass, with the bits of `np.interp` on each streamline alone;
`min_mdf_to_refs` and `farthest_sample` call it once."""

from __future__ import annotations

import struct

import numpy as np

from . import binio

STL_MAGIC = b"STL1"
MDF_POINTS = 20  # canonical resampling for MDF comparisons


class GeometryError(ValueError):
    pass


class StreamlineFormatError(GeometryError, binio.FormatError):
    """A corrupt or truncated STL1 file."""


def resample(streamlines, k):
    """Resample streamlines to k points each, equally spaced by arc length,
    endpoints kept: a sequence of N `(n>=2, 3)` streamlines gives `(N,k,3)`,
    and one `(n,3)` array gives `(k,3)`.

    One numpy pass over all of them gives the bits of `np.interp(np.linspace(0,
    arc[-1], k), arc, coords)` per streamline: each arc length is a sequential
    cumsum of its own segments (a zero-padded row), sample q is
    `q * (arc[-1] / (k - 1))` with the last one `arc[-1]` itself, and the
    segment search finds the last arc entry <= the sample, which repeated
    points make a run of equal entries. A sample on an arc entry, or on the
    last point, takes that point."""
    if isinstance(streamlines, np.ndarray) and streamlines.ndim == 2:
        return resample([streamlines], k)[0]
    if k < 2:
        raise GeometryError(f"resample needs k >= 2, got {k}")
    shapes = [np.shape(s) for s in streamlines]
    for shape in shapes:
        if len(shape) != 2 or shape[0] < 2 or shape[1] != 3:
            raise GeometryError(f"streamline must be (n>=2, 3), got {shape}")
    if not shapes:
        return np.zeros((0, k, 3))
    n = np.array([shape[0] for shape in shapes])
    pts = np.concatenate(streamlines, dtype=np.float64)
    row = np.repeat(np.arange(len(n)), n)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)[row[1:] == row[:-1]]
    # arc[i, m]: arc length at point m of streamline i; a row past its end
    # repeats its total
    width = int(n.max())
    arc = np.zeros((len(n), width))
    arc[:, 1:][np.arange(1, width) < n[:, None]] = seg
    np.cumsum(arc, axis=1, out=arc)
    total = arc[:, -1]
    if np.any(total <= 0):
        raise GeometryError("zero-length streamline cannot be resampled")
    s = np.arange(k) * (total / (k - 1))[:, None]
    s[:, -1] = total
    rows = np.arange(len(n))[:, None]
    j = np.zeros(s.shape, dtype=np.intp)
    step = 1 << (width - 1).bit_length()
    while step:  # largest j with arc[j] <= s, by halving steps
        cand = np.minimum(j + step, width - 1)
        j = np.where(arc[rows, cand] <= s, cand, j)
        step >>= 1
    j = np.minimum(j, n[:, None] - 1)
    a0, a1 = arc[rows, j], arc[rows, np.minimum(j + 1, width - 1)]
    first = (np.cumsum(n) - n)[:, None]
    p0, p1 = pts[first + j], pts[np.minimum(first + j + 1, len(pts) - 1)]
    on_point = (j == n[:, None] - 1) | (a0 == s)
    slope = (p1 - p0) / np.where(on_point, 1.0, a1 - a0)[..., None]
    out = np.where(on_point[..., None], p0, slope * (s - a0)[..., None] + p0)
    out[:, 0] = pts[first[:, 0]]
    out[:, -1] = pts[first[:, 0] + n - 1]
    return out


def mdf(a, b, voxel_size=1.0):
    """Mean direct-flip distance in mm between equally resampled streamlines.
    `a` and `b` are `(..., k, 3)` and broadcast against each other, so one
    call measures a batch of pairs; the result has the broadcast batch shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-2:] != b.shape[-2:]:
        raise GeometryError(f"mdf needs equal point counts, got {a.shape} vs {b.shape}")
    direct = np.linalg.norm(a - b, axis=-1).mean(axis=-1)
    flipped = np.linalg.norm(a - b[..., ::-1, :], axis=-1).mean(axis=-1)
    return np.minimum(direct, flipped) * voxel_size


def farthest_sample(pool, n, start_index=None, voxel_size=1.0):
    """Greedy max-min MDF selection of n streamlines from the pool.

    Returns (selected resampled streamlines, selected indices) in selection
    order. Default start: the pool element closest to the pool medoid, making
    the output deterministic. Ties break toward the lowest index.
    """
    if n > len(pool):
        raise GeometryError(f"cannot sample {n} from pool of {len(pool)}")
    res = resample(pool, MDF_POINTS)
    dists = np.zeros((len(res), len(res)))
    for i in range(len(res) - 1):
        # mdf(res[i], res[j]) for j > i; the reversed order can differ in the last bit
        dists[i, i + 1:] = dists[i + 1:, i] = mdf(res[i], res[i + 1:], voxel_size)
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


def min_mdf_to_refs(streamlines, refs, voxel_size=1.0):
    """Minimum MDF (mm) from each streamline to a nonempty list of resampled
    references; an `(N,)` array for N streamlines."""
    if len(refs) == 0:
        raise GeometryError("min_mdf_to_refs needs a nonempty reference set")
    res = resample(streamlines, MDF_POINTS)
    best = np.full(len(res), np.inf)
    for ref in refs:
        np.minimum(best, mdf(res, ref, voxel_size), out=best)
    return best


# -- STL1 serialization -------------------------------------------------------

def save_streamlines(streamlines, path, voxel_size=1.0):
    """Write STL1: magic, f32 voxel_size, u32 count, then per-streamline
    u32 npoints + npoints x 3 f32, little-endian, voxel coordinates."""
    arrays = [np.asarray(s, dtype="<f4") for s in streamlines]
    if arrays and not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        raise GeometryError(f"streamlines hold non-finite points; not writing {path}")
    with open(path, "wb") as f:
        f.write(STL_MAGIC)
        f.write(struct.pack("<fI", voxel_size, len(streamlines)))
        for pts in arrays:
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


def build_reference_set(gt_streamlines, count, voxel_size=1.0):
    """Reference streamlines for one bundle via farthest sampling of ground
    truth; a `count` above the pool size takes the whole pool."""
    refs, _ = farthest_sample(gt_streamlines, min(count, len(gt_streamlines)),
                              voxel_size=voxel_size)
    return refs
