"""Streamline geometry: resampling, MDF properties, farthest sampling vs an
exhaustive per-step oracle, and the streamline file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import geometry as geo
from tractfuse.geometry import (GeometryError, farthest_sample, mdf,
                                min_mdf_to_refs, resample)

RNG = np.random.default_rng(33)


def line(offset, n=12, length=10.0):
    x = np.linspace(0.0, length, n)
    pts = np.zeros((n, 3))
    pts[:, 0] = x
    pts[:, 1] = offset
    return pts


def random_streamline(rng, n=None):
    n = n or int(rng.integers(4, 30))
    steps = rng.normal(scale=0.5, size=(n - 1, 3))
    return np.concatenate([[np.zeros(3)], np.cumsum(steps, axis=0)]) + rng.normal(size=3)


# -- resample -----------------------------------------------------------------

def test_resample_listed_example():
    seg = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    out = resample(seg, 3)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0], atol=1e-12)


def test_resample_identity_on_uniform():
    s = line(0.0, n=9)
    np.testing.assert_allclose(resample(s, 9), s, atol=1e-6)


def test_resample_preserves_endpoints():
    s = random_streamline(RNG)
    out = resample(s, 20)
    np.testing.assert_allclose(out[0], s[0], atol=1e-12)
    np.testing.assert_allclose(out[-1], s[-1], atol=1e-9)


def test_resample_uniform_arclength_on_smooth_curve():
    t = np.linspace(0.0, np.pi / 2, 200)
    s = np.stack([np.cos(t) * 5, np.sin(t) * 5, t], axis=1)
    out = resample(s, 20)
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert seg.std() / seg.mean() < 1e-3


# -- MDF ----------------------------------------------------------------------

def test_mdf_identity_and_flip():
    s = random_streamline(RNG)
    assert mdf(resample(s, 20), resample(s, 20)) == pytest.approx(0.0, abs=1e-6)
    assert mdf(resample(s, 20), resample(s[::-1], 20)) == pytest.approx(0.0, abs=1e-6)


def test_mdf_parallel_offset():
    a = resample(line(0.0), 20)
    b = resample(line(3.0), 20)
    assert mdf(a, b) == pytest.approx(3.0, abs=1e-9)


def test_mdf_voxel_size_scales_to_mm():
    a = resample(line(0.0), 20)
    b = resample(line(2.0), 20)
    assert mdf(a, b, voxel_size=2.5) == pytest.approx(5.0, abs=1e-9)


def test_mdf_mismatched_k_rejected():
    with pytest.raises(GeometryError):
        mdf(resample(line(0.0), 20), resample(line(1.0), 10))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_mdf_symmetric_nonnegative_reversal_invariant(seed):
    rng = np.random.default_rng(seed)
    a = resample(random_streamline(rng), 20)
    b = resample(random_streamline(rng), 20)
    d = mdf(a, b)
    assert d >= 0.0
    assert mdf(b, a) == pytest.approx(d, abs=1e-9)
    assert mdf(a[::-1], b[::-1]) == pytest.approx(d, abs=1e-9)


# -- farthest sampling --------------------------------------------------------

def farthest_oracle(pool, n, start_index, voxel_size=1.0):
    """Brute-force greedy max-min selection (lowest-index tie-break)."""
    rs = [resample(s, 20) for s in pool]
    chosen = [start_index]
    while len(chosen) < n:
        best_i, best_d = None, -1.0
        for i in range(len(pool)):
            if i in chosen:
                continue
            d = min(mdf(rs[i], rs[j], voxel_size) for j in chosen)
            if d > best_d + 1e-12:
                best_i, best_d = i, d
        chosen.append(best_i)
    return chosen


def test_farthest_listed_example():
    pool = [line(0.0), line(1.0), line(10.0)]
    _, idx = farthest_sample(pool, 2, start_index=0)
    assert list(idx) == [0, 2]


def test_farthest_whole_pool():
    pool = [line(float(i)) for i in range(4)]
    sel, idx = farthest_sample(pool, 4, start_index=1)
    assert sorted(idx) == [0, 1, 2, 3]
    assert len(sel) == 4


def test_farthest_n_too_large():
    with pytest.raises(GeometryError):
        farthest_sample([line(0.0)], 2, start_index=0)


@pytest.mark.parametrize("pool_size,n,voxel_size",
                         [(10, 4, 1.0), (25, 8, 1.0), (50, 12, 1.0), (30, 9, 1.25)],
                         ids=["10-4", "25-8", "50-12", "30-9-voxel1.25"])
def test_farthest_matches_exhaustive_oracle(pool_size, n, voxel_size):
    rng = np.random.default_rng(pool_size)
    pool = [random_streamline(rng) for _ in range(pool_size)]
    _, idx = farthest_sample(pool, n, start_index=0, voxel_size=voxel_size)
    assert list(idx) == farthest_oracle(pool, n, 0, voxel_size)


def test_farthest_default_start_is_medoid_deterministic():
    rng = np.random.default_rng(5)
    pool = [random_streamline(rng) for _ in range(12)]
    _, i1 = farthest_sample(pool, 5)
    _, i2 = farthest_sample(pool, 5)
    assert list(i1) == list(i2)


def test_farthest_pool_order_invariant():
    rng = np.random.default_rng(9)
    pool = [random_streamline(rng) for _ in range(10)]
    _, idx = farthest_sample(pool, 4)
    perm = rng.permutation(10)
    _, idx_p = farthest_sample([pool[i] for i in perm], 4)
    assert sorted(perm[list(idx_p)]) == sorted(idx)


def test_min_mdf_to_refs():
    refs = [resample(line(0.0), 20), resample(line(5.0), 20)]
    got = min_mdf_to_refs([line(4.0), line(-1.0)], refs)
    np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-9)


def test_min_mdf_to_refs_rejects_empty_reference_set():
    with pytest.raises(GeometryError, match="nonempty"):
        min_mdf_to_refs([line(0.0)], [])


def walk_with_repeats(rng, n):
    """A random walk of n points in which about a third of the steps are
    zero-length (repeated points); at least one step moves."""
    steps = rng.normal(scale=0.5, size=(n - 1, 3))
    steps[rng.random(n - 1) < 0.3] = 0.0
    steps[rng.integers(n - 1)] += 1.0
    return np.concatenate([[np.zeros(3)], np.cumsum(steps, axis=0)]) + rng.normal(size=3)


def per_pair_min_mdf(streamline, refs, voxel_size):
    """One streamline against one reference at a time: min of the direct
    and flipped mean distances, least over the references, then in mm."""
    a = resample(streamline, 20)
    return min(min(np.linalg.norm(a - b, axis=1).mean(),
                   np.linalg.norm(a - b[::-1], axis=1).mean()) for b in refs) * voxel_size


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 12), st.integers(1, 15),
       st.sampled_from([0.7, 1.0, 1.25, 2.0]))
def test_min_mdf_to_refs_bytes_match_per_pair(seed, n_streamlines, n_refs, voxel_size):
    rng = np.random.default_rng(seed)
    streamlines = [walk_with_repeats(rng, int(rng.integers(2, 40))) for _ in range(n_streamlines)]
    refs = [resample(walk_with_repeats(rng, int(rng.integers(2, 40))), 20) for _ in range(n_refs)]
    got = min_mdf_to_refs(streamlines, refs, voxel_size)
    want = np.array([per_pair_min_mdf(s, refs, voxel_size) for s in streamlines])
    assert got.shape == (n_streamlines,)
    assert got.tobytes() == want.tobytes()


# -- STL1 file format ---------------------------------------------------------

def test_stl_roundtrip(tmp_path):
    streams = [random_streamline(RNG).astype(np.float32) for _ in range(5)]
    path = tmp_path / "s.stl"
    geo.save_streamlines(streams, path, voxel_size=0.8)
    loaded, vs = geo.load_streamlines(path)
    assert vs == pytest.approx(0.8)
    assert len(loaded) == 5
    for a, b in zip(streams, loaded):
        np.testing.assert_array_equal(a, b)


def test_stl_empty_set(tmp_path):
    path = tmp_path / "e.stl"
    geo.save_streamlines([], path, voxel_size=1.0)
    assert path.stat().st_size == 12  # magic + voxel_size + count
    loaded, _ = geo.load_streamlines(path)
    assert loaded == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stl_refuses_non_finite_points(tmp_path, bad):
    streams = [np.zeros((4, 3)), np.zeros((0, 3)), np.ones((3, 3))]
    streams[2][2, 1] = bad
    path = tmp_path / "n.stl"
    with pytest.raises(GeometryError, match="non-finite"):
        geo.save_streamlines(streams, path)
    assert not path.exists()


def test_stl_bad_magic(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(GeometryError, match="magic"):
        geo.load_streamlines(path)


def test_stl_truncation_names_offset(tmp_path):
    streams = [random_streamline(RNG).astype(np.float32)]
    path = tmp_path / "t.stl"
    geo.save_streamlines(streams, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(GeometryError, match="byte"):
        geo.load_streamlines(path)


def test_build_reference_set(tmp_path):
    pool = [line(float(i), n=30) for i in range(20)]
    refs = geo.build_reference_set(pool, count=6)
    assert len(refs) == 6
    for r in refs:
        assert len(r) == geo.MDF_POINTS


def test_build_reference_set_beyond_pool_takes_whole_pool():
    """Asking for more references than the pool holds returns every pool
    streamline once, as asking for exactly the pool size does."""
    pool = [line(float(i), n=30) for i in range(5)]
    whole = geo.build_reference_set(pool, count=len(pool))
    for count in (6, 15):
        refs = geo.build_reference_set(pool, count=count)
        assert [r.tobytes() for r in refs] == [r.tobytes() for r in whole]
    assert sorted(float(r[0, 1]) for r in whole) == [0.0, 1.0, 2.0, 3.0, 4.0]
