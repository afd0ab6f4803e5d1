"""Spherical-harmonic oracles (quadrature reconstruction, zonal structure,
antipodal symmetry), trilinear interpolation oracles, and phantom invariants."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import phantom as ph
from tractfuse.geometry import load_streamlines, save_streamlines
from tractfuse.phantom import (BundleSpec, PhantomError, PhantomSpec, VoxelGrid,
                               generate_phantom, load_phantom, sample_field,
                               save_phantom, sh_apodization, sh_basis,
                               sh_project_peaks)

RNG = np.random.default_rng(11)
# float32 `sh_project_peaks` output for fixed float32 peak sets, made with
# scipy 1.17.1's `sph_harm_y` basis: k = 1 holds the six axis peaks, then 700
# random sets; k = 2 holds the crossing's x/y pair, then 700; k = 3 holds 700.
SH_FIXTURE = Path(__file__).resolve().parent / "data" / "sh_project_peaks.npz"


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(n, rng=RNG):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- SH basis -----------------------------------------------------------------

def test_basis_shape_and_order_count():
    b = sh_basis(random_units(10))
    assert b.shape == (10, 45)
    assert sum(2 * l + 1 for l in ph.SH_ORDERS) == 45


def test_basis_antipodal_symmetry():
    d = random_units(50)
    np.testing.assert_allclose(sh_basis(d), sh_basis(-d), atol=1e-12)


def test_basis_l0_constant():
    b = sh_basis(random_units(20))
    np.testing.assert_allclose(b[:, 0], 1.0 / np.sqrt(4 * np.pi), atol=1e-12)


def test_basis_orthonormal_under_quadrature():
    """Independent oracle: numerical sphere integration of Y_i Y_j = delta_ij."""
    n_phi = 64
    cos_t, gl_w = np.polynomial.legendre.leggauss(24)  # exact to degree 47
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    cg, pg = np.meshgrid(cos_t, phi, indexing="ij")
    sg = np.sqrt(1.0 - cg ** 2)
    dirs = np.stack([sg * np.cos(pg), sg * np.sin(pg), cg], axis=-1).reshape(-1, 3)
    w = (np.broadcast_to(gl_w[:, None], cg.shape) * (2 * np.pi / n_phi)).reshape(-1)
    basis = sh_basis(dirs)
    gram = basis.T @ (basis * w[:, None])
    np.testing.assert_allclose(gram, np.eye(45), atol=1e-10)


def test_zonal_peak_uses_only_m0_terms():
    c = sh_project_peaks(np.array([[0.0, 0.0, 1.0]]))
    m0_idx, i = [], 0
    for l in ph.SH_ORDERS:
        m0_idx.append(i + l)  # m = 0 position within the order-l block
        i += 2 * l + 1
    non_m0 = np.delete(c, m0_idx)
    np.testing.assert_allclose(non_m0, 0.0, atol=1e-12)
    assert np.all(np.abs(c[m0_idx]) > 1e-6)


def test_apodization_values():
    w = sh_apodization()
    # first coefficient of each order block
    i = 0
    for l in ph.SH_ORDERS:
        np.testing.assert_allclose(w[i], 1.0 / (1.0 + l * (l + 1) / 16.0))
        i += 2 * l + 1


def test_projection_linearity():
    p1, p2 = random_units(2)
    both = sh_project_peaks(np.stack([p1, p2]))
    np.testing.assert_allclose(both, sh_project_peaks(p1) + sh_project_peaks(p2),
                               atol=1e-12)


def test_projection_peak_is_function_maximum():
    """The apodized delta reconstruction should peak at the peak direction."""
    peak = unit([0.3, -0.5, 0.81])
    coeffs = sh_project_peaks(peak)
    probes = np.concatenate([random_units(2000), peak[None, :]], axis=0)
    values = sh_basis(probes) @ coeffs
    assert np.argmax(values) == 2000


def test_projection_warns_on_non_unit_peak():
    with pytest.warns(UserWarning, match="non-unit"):
        a = sh_project_peaks(np.array([[0.0, 0.0, 2.0]]))
    np.testing.assert_allclose(a, sh_project_peaks(np.array([[0.0, 0.0, 1.0]])))


def test_projection_empty_is_zero():
    np.testing.assert_array_equal(sh_project_peaks(np.zeros((0, 3))), np.zeros(45))


def test_projection_matches_fixture_bytes():
    """The recurrence basis reproduces the stored projections bit for bit,
    including the ~5e-17 residue an x-axis peak leaves in odd-m terms."""
    fixture = np.load(SH_FIXTURE)
    axes = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    np.testing.assert_array_equal(fixture["peaks_k1"][:6, 0], axes)
    np.testing.assert_array_equal(fixture["peaks_k2"][0], [[1, 0, 0], [0, 1, 0]])
    assert 0 < np.abs(fixture["sh_k1"][0]).min(initial=1, where=fixture["sh_k1"][0] != 0) < 1e-16
    for k in (1, 2, 3):
        peaks, want = fixture[f"peaks_k{k}"], fixture[f"sh_k{k}"]
        assert peaks.dtype == want.dtype == np.float32 and peaks.shape[1] == k
        assert sh_project_peaks(peaks).astype(np.float32).tobytes() == want.tobytes()


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),  # axis peaks, signed zeros
                       st.floats(-1.0, 1.0, allow_nan=False))
_PEAK = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(lambda v: max(map(abs, v)) > 1e-3)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(0, ph.MAX_PEAKS), n=st.integers(1, 6))
def test_batched_projection_matches_per_voxel_calls(data, k, n):
    """One (n, k, 3) call gives the bytes of n stacked (k, 3) calls. Sets
    left non-unit take the normalizing path, and only those are rescaled."""
    sets = data.draw(st.lists(st.lists(_PEAK, min_size=k, max_size=k), min_size=n, max_size=n))
    peaks = np.array(sets, dtype=np.float64).reshape(n, k, 3)
    unit_sets = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    peaks[unit_sets] /= np.linalg.norm(peaks[unit_sets], axis=-1, keepdims=True)
    non_unit = np.any(np.abs(np.linalg.norm(peaks, axis=-1) - 1.0) > 1e-6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batched = sh_project_peaks(peaks)
        stacked = np.stack([sh_project_peaks(p) for p in peaks])
    assert any("non-unit" in str(w.message) for w in caught) == non_unit
    assert batched.shape == (n, 45)
    assert batched.tobytes() == stacked.tobytes()


# -- trilinear sampling -------------------------------------------------------

def test_sample_field_exact_on_affine_field():
    """Trilinear interpolation reproduces affine fields exactly (oracle)."""
    xs, ys, zs = np.meshgrid(*(np.arange(d) for d in (6, 5, 4)), indexing="ij")
    field = 0.5 + 1.25 * xs - 0.75 * ys + 2.0 * zs
    pos = RNG.uniform([0, 0, 0], [5, 4, 3], size=(40, 3))
    expect = 0.5 + 1.25 * pos[:, 0] - 0.75 * pos[:, 1] + 2.0 * pos[:, 2]
    np.testing.assert_allclose(sample_field(field, pos), expect, rtol=1e-12)


def test_sample_field_at_voxel_centers():
    field = RNG.normal(size=(4, 4, 4))
    idx = np.array([[1, 2, 3], [0, 0, 0], [3, 3, 3]], dtype=np.float64)
    got = sample_field(field, idx)
    np.testing.assert_allclose(got, [field[1, 2, 3], field[0, 0, 0], field[3, 3, 3]],
                               rtol=1e-12)


def test_sample_field_zero_outside():
    field = np.ones((4, 4, 4))
    assert sample_field(field, np.array([-2.0, 1.0, 1.0])) == 0.0
    assert sample_field(field, np.array([1.0, 1.0, 10.0])) == 0.0
    # half-in boundary position blends with zero
    v = sample_field(field, np.array([-0.5, 1.0, 1.0]))
    assert v == pytest.approx(0.5)


def test_sample_field_channels():
    field = RNG.normal(size=(4, 4, 4, 7))
    out = sample_field(field, np.array([[1.5, 1.5, 1.5]]))
    assert out.shape == (1, 7)
    expect = field[1:3, 1:3, 1:3].mean(axis=(0, 1, 2))
    np.testing.assert_allclose(out[0], expect, rtol=1e-12)


# Per-corner reference loop: the one-take kernel must give the same bits,
# including for corners outside the grid, which weigh zero.

def _ref_sample_field(values, positions):
    values = np.asarray(values)
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    squeeze = np.asarray(positions).ndim == 1
    dims = np.asarray(values.shape[:3])
    scalar = values.ndim == 3
    vals = values[..., None] if scalar else values
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    out = np.zeros(pos.shape[:-1] + (vals.shape[3],), dtype=np.float64)
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        idx = base + off
        inb = np.all((idx >= 0) & (idx < dims), axis=-1)
        w = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=-1)
        cidx = np.clip(idx, 0, dims - 1)
        contrib = vals[cidx[..., 0], cidx[..., 1], cidx[..., 2]].astype(np.float64)
        out += (w * inb)[..., None] * contrib
    if scalar:
        out = out[..., 0]
    return out[0] if squeeze else out


VOLUMES = {
    "mask_uint8": lambda rng, dims: (rng.random(dims) < 0.5).astype(np.uint8),
    "scalar_float64": lambda rng, dims: rng.normal(size=dims),
    "sh_float32": lambda rng, dims: rng.normal(size=dims + (ph.N_SH,)).astype(np.float32),
}


def _coordinate(d):
    return st.one_of(
        st.integers(-2, d + 1).map(float),           # voxel centers, grid faces, just outside
        st.floats(-1.0, float(d), allow_nan=False),  # inside and half outside
        st.floats(-1e6, 1e6, allow_nan=False))       # far outside


@pytest.mark.parametrize("volume", VOLUMES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_sample_field_matches_per_corner_loop(volume, seed, data):
    dims = data.draw(st.tuples(*[st.integers(1, 5)] * 3), label="dims")
    values = VOLUMES[volume](np.random.default_rng(seed), dims)
    point = st.tuples(*(_coordinate(d) for d in dims))
    points = np.array(data.draw(st.lists(point, min_size=1, max_size=16), label="points"))
    for pos in (points, points[0]):
        got, want = sample_field(values, pos), _ref_sample_field(values, pos)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# -- phantom generation -------------------------------------------------------

def test_straight_tube_structure(tube_phantom):
    mask = tube_phantom.mask_for("tube").values
    assert mask.sum() > 0
    inside = np.argwhere(mask > 0)
    for v in inside[:: max(1, len(inside) // 20)]:
        pk = tube_phantom.peaks_at(v)
        assert len(pk) == 1
        np.testing.assert_allclose(np.abs(pk[0] @ np.array([1.0, 0, 0])), 1.0,
                                   atol=1e-6)


def test_ground_truth_streamline_count(tube_phantom):
    assert len(tube_phantom.bundles["tube"]) == 16
    for s in tube_phantom.bundles["tube"]:
        assert s.shape[1] == 3 and len(s) >= 2


def test_crossing_pair_two_bundles(crossing_phantom):
    names = sorted(b.bundle_name for b in crossing_phantom.masks)
    assert names == ["pair_a", "pair_b"]
    ma = crossing_phantom.mask_for("pair_a").values
    mb = crossing_phantom.mask_for("pair_b").values
    overlap = np.argwhere((ma > 0) & (mb > 0))
    assert len(overlap) > 0
    # crossing voxels carry two distinct peaks
    counts = [len(crossing_phantom.peaks_at(v)) for v in overlap]
    assert max(counts) == 2


def test_sh_matches_projection_of_stored_peaks(tube_phantom, crossing_phantom):
    inside = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    v = inside[len(inside) // 2]
    pk = tube_phantom.peaks_at(v)
    expect = sh_project_peaks(pk).astype(np.float32)
    np.testing.assert_array_equal(tube_phantom.sh[v[0], v[1], v[2]], expect)
    # Every occupied voxel of every centerline kind, bit for bit, against one
    # unbatched call per voxel; empty voxels hold zeros.
    arc, helix = (generate_phantom(PhantomSpec(grid=VoxelGrid(dims=(24, 24, 12)),
                                               bundles=[BundleSpec(name="b", kind=kind, radius=1.5)],
                                               rng_seed=1))
                  for kind in ("arc", "helix"))
    assert {1, 2} <= set(np.unique(crossing_phantom.peak_counts))
    for p in (tube_phantom, crossing_phantom, arc, helix):
        occupied = np.argwhere(p.peak_counts > 0)
        want = np.stack([sh_project_peaks(p.peaks_at(v)).astype(np.float32) for v in occupied])
        assert p.sh[tuple(occupied.T)].tobytes() == want.tobytes()
        assert not p.sh[p.peak_counts == 0].any()


def test_generation_deterministic():
    spec = PhantomSpec(grid=VoxelGrid(dims=(16, 10, 10)),
                       bundles=[BundleSpec(name="t", kind="straight-tube", radius=2.0)],
                       rng_seed=5)
    a, b = generate_phantom(spec), generate_phantom(spec)
    np.testing.assert_array_equal(a.sh, b.sh)
    np.testing.assert_array_equal(a.peak_dirs, b.peak_dirs)
    for sa, sb in zip(a.bundles["t"], b.bundles["t"]):
        np.testing.assert_array_equal(sa, sb)


@pytest.mark.parametrize("kind", ["arc", "helix"])
def test_other_centerline_kinds(kind):
    spec = PhantomSpec(grid=VoxelGrid(dims=(24, 24, 12)),
                       bundles=[BundleSpec(name="b", kind=kind, radius=1.5)],
                       rng_seed=1)
    p = generate_phantom(spec)
    assert p.mask_for("b").values.sum() > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_pts=st.integers(1, 40), n_centers=st.integers(1, 60))
def test_nearest_points_match_per_voxel_loop(data, n_pts, n_centers):
    """The chunked search gives each center the index of the smallest squared
    distance (summed x, y, z), the lowest index on a tie, for any chunk size.
    Coordinates on a half-voxel lattice, with repeated points, make ties common."""
    point = st.tuples(*[st.integers(-8, 24).map(lambda v: v / 2)] * 3)
    pts = np.array(data.draw(st.lists(point, min_size=n_pts, max_size=n_pts)))
    centers = np.array(data.draw(st.lists(point, min_size=n_centers, max_size=n_centers)))
    want = []
    for c in centers:
        d2 = [(c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2 + (c[2] - p[2]) ** 2 for p in pts]
        want.append(d2.index(min(d2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ph, "_NEAREST_CHUNK", data.draw(st.integers(1, n_centers + 1)))
        assert ph._nearest_points(pts, centers).tolist() == want


@pytest.mark.parametrize("kind, dims, radius", [
    ("straight-tube", (8, 8, 8), 3.0),   # zero-length axis
    ("crossing-pair", (40, 8, 8), 3.0),  # the y tube has no room
    ("arc", (8, 8, 8), 2.5),             # zero ring radius
    ("helix", (9, 9, 8), 3.0),           # zero ring radius and z span
    ("helix", (16, 16, 8), 3.0),         # zero z span
])
def test_bundle_without_room_rejected(kind, dims, radius):
    """The message names the configured kind, a crossing pair's tubes too."""
    spec = PhantomSpec(grid=VoxelGrid(dims=dims),
                       bundles=[BundleSpec(name="b", kind=kind, radius=radius)])
    message = f"^the {kind} of radius {radius:g} has no room"
    with pytest.raises(PhantomError, match=message):
        ph.check_fit(kind, dims, radius)
    with pytest.raises(PhantomError, match=message):
        generate_phantom(spec)


def test_save_phantom_refuses_non_finite(tmp_path, tube_phantom):
    for field in ("sh", "peak_dirs"):
        bad = ph.Phantom(grid=tube_phantom.grid, sh=tube_phantom.sh.copy(),
                         peak_counts=tube_phantom.peak_counts,
                         peak_dirs=tube_phantom.peak_dirs.copy(), masks=tube_phantom.masks)
        getattr(bad, field).flat[7] = np.nan
        with pytest.raises(PhantomError, match="non-finite"):
            save_phantom(bad, tmp_path / "p.phn")
        assert not (tmp_path / "p.phn").exists()


def test_unknown_kind_rejected():
    with pytest.raises((PhantomError, ValueError)):
        BundleSpec(name="b", kind="zigzag", radius=2.0)


def test_radius_validation():
    with pytest.raises(ValueError):
        BundleSpec(name="b", kind="straight-tube", radius=0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        VoxelGrid(dims=(4, 12, 12))
    with pytest.raises(ValueError):
        VoxelGrid(dims=(12, 12, 12), voxel_size=0.0)


def test_phn_roundtrip(tmp_path, tube_phantom):
    path = tmp_path / "p.phn"
    save_phantom(tube_phantom, path)
    loaded = load_phantom(path)
    assert loaded.grid.dims == tube_phantom.grid.dims
    assert loaded.grid.voxel_size == tube_phantom.grid.voxel_size
    np.testing.assert_array_equal(loaded.sh, tube_phantom.sh)
    np.testing.assert_array_equal(loaded.peak_counts, tube_phantom.peak_counts)
    np.testing.assert_array_equal(loaded.peak_dirs, tube_phantom.peak_dirs)
    np.testing.assert_array_equal(loaded.mask_for("tube").values,
                                  tube_phantom.mask_for("tube").values)


def test_phn_bad_magic(tmp_path):
    path = tmp_path / "bad.phn"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(PhantomError, match="magic"):
        load_phantom(path)


def test_phn_save_then_load_byte_stable(tmp_path, tube_phantom):
    p1, p2 = tmp_path / "a.phn", tmp_path / "b.phn"
    save_phantom(tube_phantom, p1)
    save_phantom(load_phantom(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gt_streamlines_stay_in_grid(seed):
    spec = PhantomSpec(grid=VoxelGrid(dims=(16, 10, 10)),
                       bundles=[BundleSpec(name="t", kind="straight-tube", radius=2.0)],
                       rng_seed=seed)
    p = generate_phantom(spec)
    hi = np.asarray(spec.grid.dims) - 1
    for s in p.bundles["t"]:
        assert np.all(s >= 0) and np.all(s <= hi)
