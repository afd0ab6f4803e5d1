"""Procedural diffusion phantoms: SH fields, fODF peaks, masks, ground truth.

The spherical-harmonic convention used throughout (and by the PHN1 file
format): real symmetric basis, even orders l in {0,2,4,6,8}, entries ordered
by l ascending then m from -l to l (45 coefficients). Peak-to-SH synthesis
is a delta projection with per-order apodization 1/(1 + l(l+1)/16) so lobes
stay smooth under trilinear interpolation. The basis is built from the
orthonormal associated Legendre functions (Condon-Shortley phase), computed
by the standard recurrences: up the diagonal P_m^m from P_0^0 = 1/(2 sqrt(pi)),
one step off it to P_{m+1}^m, then the three-term recurrence upward in l.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import binio

PHN_MAGIC = b"PHN1"
SH_ORDERS = (0, 2, 4, 6, 8)
N_SH = 45
MAX_PEAKS = 3
KINDS = ("straight-tube", "arc", "helix", "crossing-pair")
_MERGE_DOT = 0.985  # peaks closer than ~10 degrees collapse into one
GT_POINT_SPACING = 0.5  # voxels between ground-truth streamline points
_NEAREST_CHUNK = 2048  # voxels per block of the nearest-centerline-point search
# One voxel's PHN1 peak entry: u8 count, then MAX_PEAKS x 3 f32 directions.
_PEAK_RECORD = np.dtype([("count", "u1"), ("dirs", "<f4", (MAX_PEAKS, 3))])


class PhantomError(ValueError):
    pass


class PhantomFormatError(PhantomError, binio.FormatError):
    """A corrupt or truncated PHN1 file."""


@dataclass(frozen=True)
class VoxelGrid:
    dims: tuple
    voxel_size: float = 1.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 8 for d in self.dims):
            raise PhantomError(f"grid dims must be 3 values each >= 8, got {self.dims}")
        if self.voxel_size <= 0:
            raise PhantomError(f"voxel_size must be positive, got {self.voxel_size}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


@dataclass(frozen=True)
class BundleSpec:
    """One synthetic bundle: a tube around an analytic centerline."""

    name: str
    kind: str  # one of KINDS
    radius: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PhantomError(f"unknown bundle kind '{self.kind}'")
        if self.radius < 1.0:
            raise PhantomError(f"tube radius must be >= 1 voxel, got {self.radius}")


@dataclass(frozen=True)
class PhantomSpec:
    grid: VoxelGrid
    bundles: tuple
    rng_seed: int = 0
    n_gt_streamlines: int = 16

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(self.bundles))
        if not self.bundles:
            raise PhantomError("phantom needs at least one bundle")


@dataclass
class TractMask:
    bundle_name: str
    values: np.ndarray  # (X,Y,Z) uint8

    def __post_init__(self):
        if not self.values.any():
            raise PhantomError(f"mask for '{self.bundle_name}' has no voxels set")


@dataclass
class Phantom:
    grid: VoxelGrid
    sh: np.ndarray           # (X,Y,Z,45) float32
    peak_counts: np.ndarray  # (X,Y,Z) uint8
    peak_dirs: np.ndarray    # (X,Y,Z,3,3) float32
    masks: list = field(default_factory=list)
    bundles: dict = field(default_factory=dict)  # name -> list of (n,3) arrays

    def mask_for(self, bundle_name):
        for m in self.masks:
            if m.bundle_name == bundle_name:
                return m
        raise KeyError(f"no mask for bundle '{bundle_name}'")

    def peaks_at(self, position):
        """Nearest-voxel fODF peaks at a voxel-space position; (k,3) array."""
        idx = np.clip(np.rint(position).astype(int), 0, np.asarray(self.grid.dims) - 1)
        k = int(self.peak_counts[idx[0], idx[1], idx[2]])
        return self.peak_dirs[idx[0], idx[1], idx[2], :k]


# -- spherical harmonics ------------------------------------------------------

def _legendre(cos_t, sin_t):
    """Orthonormal associated Legendre functions with the Condon-Shortley
    phase, p[l][m] for 0 <= m <= l <= 8, so that Y_l^m = p[l][m] exp(i m phi)."""
    lmax = SH_ORDERS[-1]
    p = [[None] * (l + 1) for l in range(lmax + 1)]
    p[0][0] = np.full_like(cos_t, 1.0 / (2.0 * np.sqrt(np.pi)))
    for m in range(1, lmax + 1):
        p[m][m] = -np.sqrt((2 * m + 1) / (2 * m)) * sin_t * p[m - 1][m - 1]
    for m in range(lmax):
        p[m + 1][m] = np.sqrt(2 * m + 3) * cos_t * p[m][m]
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            p[l][m] = a * (cos_t * p[l - 1][m] - b * p[l - 2][m])
    return p


def sh_basis(dirs):
    """Real symmetric SH basis (orders 0..8 even) at unit directions.

    dirs: (..., 3). Returns (..., 45), ordered by l then m from -l to l.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    x, y, z = dirs[..., 0], dirs[..., 1], dirs[..., 2]
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    p = _legendre(np.cos(theta), np.sin(theta))
    cols = []
    for l in SH_ORDERS:
        for m in range(-l, l + 1):
            am = abs(m)
            ylm = p[l][am] * np.exp(1j * am * phi)
            if m < 0:
                col = np.sqrt(2.0) * (-1.0) ** am * ylm.imag
            elif m == 0:
                col = ylm.real
            else:
                col = np.sqrt(2.0) * (-1.0) ** am * ylm.real
            cols.append(col)
    return np.stack(cols, axis=-1)


def sh_apodization():
    """Per-coefficient smoothing weights 1/(1 + l(l+1)/16)."""
    w = []
    for l in SH_ORDERS:
        w.extend([1.0 / (1.0 + l * (l + 1) / 16.0)] * (2 * l + 1))
    return np.asarray(w)


def sh_project_peaks(peaks):
    """Project unit peak directions onto the apodized SH basis.

    peaks: (..., k, 3), one set of k peaks per leading index; a single (3,)
    direction is one peak. Returns (..., 45): the k apodized basis rows of
    each set summed in order, so a batched call gives the same bits as one
    call per set. A set holding a non-unit peak is normalized, with a warning.
    """
    peaks = np.atleast_2d(np.asarray(peaks, dtype=np.float64))
    if peaks.shape[-2] == 0:
        return np.zeros(peaks.shape[:-2] + (N_SH,))
    norms = np.linalg.norm(peaks, axis=-1)
    bad = np.any(np.abs(norms - 1.0) > 1e-6, axis=-1)
    if np.any(bad):
        warnings.warn("non-unit peak normalized before SH projection")
        peaks = np.where(bad[..., None, None], peaks / norms[..., None], peaks)
    return (sh_basis(peaks) * sh_apodization()).sum(axis=-2)


# -- field sampling -----------------------------------------------------------

def sample_field(values, positions):
    """Trilinear interpolation at voxel-space positions, zero outside the grid.

    values: (X,Y,Z) or (X,Y,Z,C); positions: (...,3). Integer coordinates are
    voxel centers. A corner outside the grid weighs zero, so a position half
    outside blends the in-grid corners with zero.
    """
    values = np.asarray(values)
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    squeeze = np.asarray(positions).ndim == 1
    dims = values.shape[:3]
    scalar = values.ndim == 3
    flat = values.reshape(dims[0] * dims[1] * dims[2], -1)
    nc = flat.shape[1]

    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    # Per axis: clipped flat-index term and in-grid-folded weight of the low
    # and high corner.
    strides = (dims[1] * dims[2], dims[2], 1)
    terms, weights = [], []
    for ax in range(3):
        b, f, d = base[..., ax], frac[..., ax], dims[ax]
        terms.append((np.clip(b, 0, d - 1) * strides[ax],
                      np.clip(b + 1, 0, d - 1) * strides[ax]))
        weights.append(((1.0 - f) * ((b >= 0) & (b < d)),
                        f * ((b >= -1) & (b < d - 1))))

    out = np.zeros(pos.shape[:-1] + (nc,), dtype=np.float64)
    g = np.empty(out.shape, dtype=flat.dtype)
    tmp = np.empty_like(out)
    for corner in range(8):
        ox, oy, oz = (corner >> 2) & 1, (corner >> 1) & 1, corner & 1
        idx = terms[0][ox] + terms[1][oy] + terms[2][oz]
        w = weights[0][ox] * weights[1][oy] * weights[2][oz]
        np.take(flat, idx, axis=0, out=g, mode="clip")
        np.multiply(w[..., None], g, out=tmp)
        out += tmp
    if scalar:
        out = out[..., 0]
    return out[0] if squeeze else out


# -- centerlines --------------------------------------------------------------

def _ring_radius(dims, spec):
    """An arc's or helix's ring radius: radius + 1.5 voxels in from the x and y faces."""
    r = min(dims[0], dims[1]) / 2 - (spec.radius + 0.5) - 1
    if r <= 0:
        raise PhantomError(f"the {spec.kind} of radius {spec.radius:g} has no room "
                           "for its ring in x and y")
    return r


def _tube_ends(spec, dims, axis):
    """A straight tube's ends: along `axis` through the grid center,
    radius + 0.5 voxels in from the faces."""
    margin = spec.radius + 0.5
    if dims[axis] - 1 - margin <= margin:
        raise PhantomError(f"the {spec.kind} of radius {spec.radius:g} has no room "
                           f"for its axis in {'xy'[axis]}")
    start, end = dims / 2, dims / 2
    start[axis], end[axis] = margin, dims[axis] - 1 - margin
    return start, end


def _centerline(spec, grid, axis):
    """Dense (points, tangents) samples of a bundle centerline, in voxels; a
    straight tube or one tube of a crossing pair runs along `axis`."""
    dims = np.asarray(grid.dims, dtype=np.float64)
    margin = spec.radius + 0.5
    if spec.kind in ("straight-tube", "crossing-pair"):
        start, end = _tube_ends(spec, dims, axis)
        n = max(8, int(np.linalg.norm(end - start) * 4))
        t = np.linspace(0.0, 1.0, n)[:, None]
        pts = start + t * (end - start)
        tans = np.tile((end - start) / np.linalg.norm(end - start), (n, 1))
    elif spec.kind == "arc":
        center = dims / 2
        r = _ring_radius(dims, spec)
        ang = np.linspace(0.0, np.pi, max(16, int(np.pi * r * 4)))
        pts = np.stack([center[0] + r * np.cos(ang),
                        center[1] + r * np.sin(ang),
                        np.full_like(ang, center[2])], axis=1)
        tans = np.stack([-np.sin(ang), np.cos(ang), np.zeros_like(ang)], axis=1)
    elif spec.kind == "helix":
        center = dims / 2
        r = _ring_radius(dims, spec)
        z_span = dims[2] - 2 * margin - 1
        if z_span <= 0:
            raise PhantomError(f"the helix of radius {spec.radius:g} has no room for its turn in z")
        ang = np.linspace(0.0, 2 * np.pi, max(32, int(8 * z_span)))  # one turn
        z = center[2] - z_span / 2 + z_span * ang / ang[-1]
        pts = np.stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang), z], axis=1)
        dz = z_span / ang[-1]
        tans = np.stack([-r * np.sin(ang), r * np.cos(ang), np.full_like(ang, dz)], axis=1)
        tans /= np.linalg.norm(tans, axis=1, keepdims=True)
    if np.any(pts < 0) or np.any(pts > dims - 1):
        raise PhantomError(f"bundle '{spec.name}' centerline leaves the grid")
    return pts, tans


def _expand_bundles(spec):
    """(bundle, axis) pairs: a crossing pair becomes two tubes, `<name>_a`
    along x and `<name>_b` along y; every other bundle keeps axis x."""
    for b in spec.bundles:
        if b.kind == "crossing-pair":
            yield replace(b, name=b.name + "_a"), 0
            yield replace(b, name=b.name + "_b"), 1
        else:
            yield b, 0


def check_fit(kind, dims, radius):
    """Raise PhantomError unless a `kind` bundle of `radius` voxels fits a
    grid of `dims`, by the centerline checks `generate_phantom` makes."""
    spec = PhantomSpec(grid=VoxelGrid(dims=dims), bundles=[BundleSpec(kind, kind, radius)])
    for b, axis in _expand_bundles(spec):
        _centerline(b, spec.grid, axis)


def _offset_streamline(pts, tans, radius_frac, angle, radius):
    """Centerline shifted sideways inside the tube, for ground-truth variety."""
    ref = np.array([0.12, 0.78, 0.61])
    n1 = np.cross(tans, ref)
    bad = np.linalg.norm(n1, axis=1) < 1e-6
    if bad.any():
        n1[bad] = np.cross(tans[bad], np.array([1.0, 0.0, 0.0]))
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    n2 = np.cross(tans, n1)
    r = radius_frac * radius
    return pts + r * (np.cos(angle) * n1 + np.sin(angle) * n2)


def _nearest_points(pts, centers):
    """Index of each center's nearest point, by squared distance summed over
    x, y, z in that order; the lowest index wins a tie."""
    nearest = np.empty(len(centers), dtype=np.intp)
    for lo in range(0, len(centers), _NEAREST_CHUNK):
        c = centers[lo:lo + _NEAREST_CHUNK, None, :]
        d2 = np.square(c[..., 0] - pts[:, 0])
        d2 += np.square(c[..., 1] - pts[:, 1])
        d2 += np.square(c[..., 2] - pts[:, 2])
        nearest[lo:lo + _NEAREST_CHUNK] = np.argmin(d2, axis=1)
    return nearest


def generate_phantom(spec):
    """Build a deterministic Phantom (SH field, peaks, masks, ground truth)."""
    rng = np.random.default_rng(spec.rng_seed)
    grid = spec.grid
    dims = grid.dims

    xs, ys, zs = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    centers = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3).astype(np.float64)

    peak_counts = np.zeros(dims, dtype=np.uint8)
    peak_dirs = np.zeros(dims + (MAX_PEAKS, 3), dtype=np.float32)
    masks = []
    gt = {}

    flat_counts = peak_counts.reshape(-1)
    flat_dirs = peak_dirs.reshape(-1, MAX_PEAKS, 3)

    for b, axis in _expand_bundles(spec):
        pts, tans = _centerline(b, grid, axis)
        nearest = _nearest_points(pts, centers)
        inside = np.linalg.norm(centers - pts[nearest], axis=1) <= b.radius
        mask = inside.reshape(dims).astype(np.uint8)
        masks.append(TractMask(bundle_name=b.name, values=mask))

        for vi in np.nonzero(inside)[0]:
            tan = tans[nearest[vi]]
            k = flat_counts[vi]
            dots = np.abs(flat_dirs[vi, :k] @ tan)
            if k > 0 and np.any(dots > _MERGE_DOT):
                continue
            if k < MAX_PEAKS:
                flat_dirs[vi, k] = tan
                flat_counts[vi] = k + 1

        # ground-truth streamlines: the centerline plus offset copies
        arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        n_pts = max(2, int(arc[-1] / GT_POINT_SPACING))
        s = np.linspace(0.0, arc[-1], n_pts)
        line = np.stack([np.interp(s, arc, pts[:, i]) for i in range(3)], axis=1)
        line_t = np.stack([np.interp(s, arc, tans[:, i]) for i in range(3)], axis=1)
        line_t /= np.linalg.norm(line_t, axis=1, keepdims=True)
        streams = [line.astype(np.float32)]
        for _ in range(spec.n_gt_streamlines - 1):
            frac = rng.uniform(0.15, 0.7)
            ang = rng.uniform(0.0, 2 * np.pi)
            sl = _offset_streamline(line, line_t, frac, ang, b.radius)
            streams.append(np.clip(sl, 0, np.asarray(dims) - 1).astype(np.float32))
        gt[b.name] = streams

    sh = np.zeros(dims + (N_SH,), dtype=np.float32)
    flat_sh = sh.reshape(-1, N_SH)
    for k in range(1, MAX_PEAKS + 1):  # one batched projection per peak count
        voxels = np.nonzero(flat_counts == k)[0]
        flat_sh[voxels] = sh_project_peaks(flat_dirs[voxels, :k]).astype(np.float32)

    return Phantom(grid=grid, sh=sh, peak_counts=peak_counts, peak_dirs=peak_dirs,
                   masks=masks, bundles=gt)


# -- PHN1 file format ---------------------------------------------------------

def save_phantom(phantom, path):
    """Write the PHN1 binary layout (little-endian, C voxel order)."""
    if not (np.isfinite(phantom.sh).all() and np.isfinite(phantom.peak_dirs).all()):
        raise PhantomError(f"phantom has non-finite SH or peak values; not writing {path}")
    with open(path, "wb") as f:
        f.write(PHN_MAGIC)
        f.write(struct.pack("<3IfI", *phantom.grid.dims, phantom.grid.voxel_size,
                            len(phantom.masks)))
        f.write(phantom.sh.astype("<f4").tobytes())
        peaks = np.zeros(phantom.grid.dims, dtype=_PEAK_RECORD)
        peaks["count"] = phantom.peak_counts
        peaks["dirs"] = phantom.peak_dirs
        f.write(peaks.tobytes())
        for mask in phantom.masks:
            f.write(mask.values.astype(np.uint8).tobytes())
            f.write(binio.pack_str(mask.bundle_name))


def load_phantom(path):
    r = binio.Reader(path, PHN_MAGIC, PhantomFormatError)
    *dims, voxel_size, n_bundles = r.unpack("3IfI", "header")
    dims = tuple(dims)
    sh = r.array("<f4", dims + (N_SH,), "SH coefficients")
    peaks = r.array(_PEAK_RECORD, dims, "peak table")
    masks = [(r.array(np.uint8, dims, "mask"), r.string("bundle name")) for _ in range(n_bundles)]
    r.end()
    too_many = peaks["count"] > MAX_PEAKS
    if too_many.any():
        voxel = tuple(int(i) for i in np.argwhere(too_many)[0])
        raise PhantomFormatError(f"voxel {voxel} has {peaks['count'][voxel]} peaks, more than "
                                 f"{MAX_PEAKS}, in {path}")
    try:
        grid = VoxelGrid(dims=dims, voxel_size=float(voxel_size))
        masks = [TractMask(bundle_name=name, values=values) for values, name in masks]
    except PhantomError as e:
        raise PhantomFormatError(f"{e} in {path}") from e
    return Phantom(grid=grid, sh=sh, peak_counts=peaks["count"].copy(),
                   peak_dirs=peaks["dirs"].astype(np.float32), masks=masks, bundles={})
