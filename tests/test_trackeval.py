"""Evaluation metrics (worked example + monotonicity properties), voxelizer,
post-filtering, and the decision ensembles."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import trackeval
from tractfuse.env import BatchTracker
from tractfuse.fusion import FusionConfig, FusionModel, FusionTracker
from tractfuse.geometry import resample
from tractfuse.phantom import VoxelGrid
from tractfuse.trackeval import (AvgEnsemble, MaxQEnsemble, TrackEvalError,
                                 post_filter, score, voxelize)

RNG = np.random.default_rng(77)


# -- scores -------------------------------------------------------------------

def masks_from_counts(n_g, n_inter, n_extra, shape=(10, 10, 4)):
    g = np.zeros(shape, dtype=np.uint8)
    c = np.zeros(shape, dtype=np.uint8)
    flat_g = g.reshape(-1)
    flat_c = c.reshape(-1)
    flat_g[:n_g] = 1
    flat_c[:n_inter] = 1          # overlap voxels
    flat_c[n_g:n_g + n_extra] = 1  # overreach voxels
    return c, g


def test_score_worked_example():
    """|G|=10, |C∩G|=6, |C\\G|=2 -> OL 0.6, OR 0.2, Dice 0.667."""
    c, g = masks_from_counts(10, 6, 2)
    s = score(c, g)
    assert s.ol == pytest.approx(0.6)
    assert s.or_ == pytest.approx(0.2)
    assert s.dice == pytest.approx(2 * 6 / (8 + 10))
    assert s.dice == pytest.approx(0.667, abs=5e-4)


def test_score_perfect_and_disjoint():
    c, g = masks_from_counts(10, 10, 0)
    s = score(c, g)
    assert (s.dice, s.ol, s.or_) == (1.0, 1.0, 0.0)
    c, g = masks_from_counts(10, 0, 5)
    s = score(c, g)
    assert s.dice == 0.0 and s.ol == 0.0 and s.or_ == 0.5


def test_score_empty_gt_rejected():
    with pytest.raises(TrackEvalError, match="empty"):
        score(np.ones((4, 4, 4)), np.zeros((4, 4, 4)))


def test_score_shape_mismatch_rejected():
    with pytest.raises(TrackEvalError, match="shape"):
        score(np.ones((4, 4, 4)), np.ones((5, 4, 4)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_score_monotonicity(seed):
    """Adding an out-of-G voxel raises OR, leaves OL; adding an in-G voxel
    raises OL, leaves OR."""
    rng = np.random.default_rng(seed)
    g = (rng.random((6, 6, 3)) < 0.4).astype(np.uint8)
    if g.sum() == 0:
        g[0, 0, 0] = 1
    c = ((rng.random((6, 6, 3)) < 0.3) & (g > 0)).astype(np.uint8)
    base = score(c, g)
    out_g = np.argwhere((g == 0) & (c == 0))
    if len(out_g):
        c2 = c.copy()
        c2[tuple(out_g[0])] = 1
        s2 = score(c2, g)
        assert s2.or_ > base.or_ and s2.ol == base.ol
    in_g = np.argwhere((g == 1) & (c == 0))
    if len(in_g):
        c3 = c.copy()
        c3[tuple(in_g[0])] = 1
        s3 = score(c3, g)
        assert s3.ol > base.ol and s3.or_ == base.or_ and s3.dice > base.dice


# -- voxelize -----------------------------------------------------------------

def test_voxelize_single_segment():
    grid = VoxelGrid(dims=(10, 8, 8))
    mask = voxelize([np.array([[1.0, 2.0, 2.0], [4.0, 2.0, 2.0]])], grid)
    expect = {(1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2)}
    assert {tuple(v) for v in np.argwhere(mask > 0)} == expect


def test_voxelize_subsamples_long_segments():
    """A long diagonal segment marks intermediate voxels, not just endpoints."""
    grid = VoxelGrid(dims=(10, 10, 8))
    mask = voxelize([np.array([[0.0, 0.0, 0.0], [7.0, 7.0, 0.0]])], grid)
    assert mask[3, 3, 0] or mask[3, 4, 0] or mask[4, 3, 0]
    assert mask.sum() >= 8


def test_voxelize_clips_out_of_grid():
    grid = VoxelGrid(dims=(8, 8, 8))
    mask = voxelize([np.array([[-5.0, 1.0, 1.0], [2.0, 1.0, 1.0]])], grid)
    assert mask[0, 1, 1] and mask[2, 1, 1]
    assert mask.sum() == 3


def test_voxelize_empty():
    grid = VoxelGrid(dims=(8, 8, 8))
    assert voxelize([], grid).sum() == 0


# -- post-filter --------------------------------------------------------------

def line(offset, n=20):
    pts = np.zeros((n, 3))
    pts[:, 0] = np.linspace(0, 10, n)
    pts[:, 1] = offset
    return pts


def test_post_filter_threshold():
    refs = [resample(line(0.0), 20)]
    keep = post_filter([line(1.0), line(9.0)], refs, threshold_mm=5.0)
    assert len(keep) == 1
    np.testing.assert_allclose(keep[0], line(1.0))


def test_post_filter_idempotent():
    refs = [resample(line(0.0), 20)]
    pool = [line(float(i)) for i in range(8)]
    once = post_filter(pool, refs, 5.0)
    twice = post_filter(once, refs, 5.0)
    assert len(once) == len(twice)
    assert all(a is b for a, b in zip(once, twice))


def test_post_filter_infinite_threshold_keeps_all():
    refs = [resample(line(0.0), 20)]
    pool = [line(float(i * 10)) for i in range(5)]
    assert len(post_filter(pool, refs, np.inf)) == 5


@pytest.mark.parametrize("threshold", [5.0, np.inf])
def test_post_filter_drops_streamlines_without_extent(threshold):
    refs = [resample(line(0.0), 20)]
    point, still = line(0.0)[:1], np.repeat(line(0.0)[3:4], 4, axis=0)
    keep = post_filter([point, line(1.0), still], refs, threshold)
    assert len(keep) == 1
    np.testing.assert_array_equal(keep[0], line(1.0))


# -- ensembles ----------------------------------------------------------------

class ConstPolicy:
    def __init__(self, direction, q):
        self.direction = np.asarray(direction, dtype=np.float64)
        self.q = q

    def act(self, states, mode="deterministic", rng=None):
        return np.tile(self.direction, (np.atleast_2d(states).shape[0], 1))

    def q_value(self, states, actions):
        n = np.atleast_2d(states).shape[0]
        # vary with the state so batch min-max normalization is non-degenerate
        return self.q + 0.01 * np.atleast_2d(states)[:, 0] + np.zeros(n)


def test_avg_ensemble_normalized_mean():
    policies = {"a": ConstPolicy([1, 0, 0], 0), "b": ConstPolicy([0, 1, 0], 0)}
    out = AvgEnsemble(policies).act(np.zeros((3, 5)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)
    np.testing.assert_allclose(out[:, 0], out[:, 1])


def test_maxq_ensemble_picks_higher_normalized_q():
    lo = ConstPolicy([1, 0, 0], q=0.0)
    hi = ConstPolicy([0, 0, 1], q=100.0)
    states = np.zeros((4, 5))
    states[:, 0] = [0.0, 1.0, 2.0, 3.0]
    out = MaxQEnsemble({"lo": lo, "hi": hi}).act(states)
    # normalized scores are identical profiles -> argmax takes the first
    # policy on ties, so exercise a real difference instead:
    lo2 = ConstPolicy([1, 0, 0], q=0.0)
    lo2.q_value = lambda s, a: np.array([0.0, 0.9, 0.8, 0.1])
    hi2 = ConstPolicy([0, 0, 1], q=0.0)
    hi2.q_value = lambda s, a: np.array([1.0, 0.1, 0.2, 0.9])
    out = MaxQEnsemble({"lo": lo2, "hi": hi2}).act(states)
    np.testing.assert_allclose(out[0], [0, 0, 1])
    np.testing.assert_allclose(out[1], [1, 0, 0])
    np.testing.assert_allclose(out[3], [0, 0, 1])


# -- config / io --------------------------------------------------------------

def test_track_rejects_zero_seeds_per_voxel(tube_phantom):
    def run(seeds, hints):
        raise AssertionError("tracked without seeds")
    with pytest.raises(TrackEvalError):
        trackeval.track(run, tube_phantom, "tube", seeds_per_voxel=0)


def test_scores_roundtrip(tmp_path):
    rows = [("tube", "td3", trackeval.BundleScore(0.5, 0.25, 0.125)),
            ("tube", "fusion", trackeval.BundleScore(0.9, 0.8, 0.1))]
    path = tmp_path / "scores.tsv"
    trackeval.write_scores(path, rows)
    loaded = trackeval.read_scores(path)
    assert [(b, a) for b, a, _ in loaded] == [(b, a) for b, a, _ in rows]
    for (_, _, sa), (_, _, sb) in zip(rows, loaded):
        assert sb.dice == pytest.approx(sa.dice, abs=1e-4)


def test_track_policy_bidirectional(tube_phantom, env_cfg, tiny_policies):
    run = functools.partial(BatchTracker(tube_phantom, "tube", env_cfg).run,
                            act=tiny_policies["td3"].act)
    streams = trackeval.track(run, tube_phantom, "tube", 1, seed=0)
    n_mask = int(tube_phantom.mask_for("tube").values.sum())
    assert 0 < len(streams) <= n_mask
    for s in streams:
        assert len(s) >= 1


@pytest.mark.parametrize("kind", ["policy", "fusion"])
def test_track_merges_both_halves_at_the_seed(tube_phantom, env_cfg, tiny_policies, kind):
    """One streamline per seed; the backward half, reversed, ends at the
    seed point where the forward half starts."""
    if kind == "fusion":
        model = FusionModel(FusionConfig(context=6, width=16, n_blocks=1, dropout=0.0), seed=0)
        inner = FusionTracker(model, tube_phantom, "tube", env_cfg, rtg0=10.0).run
    else:
        inner = functools.partial(BatchTracker(tube_phantom, "tube", env_cfg).run,
                                  act=tiny_policies["sac"].act)
    calls = []

    def run(seeds, hints):
        halves = inner(seeds, hints)
        calls.append((seeds.copy(), hints.copy(), halves))
        return halves

    streams = trackeval.track(run, tube_phantom, "tube", 1, seed=3)
    (seeds, hints, fwd), (seeds_b, hints_b, bwd) = calls
    assert seeds_b.tobytes() == seeds.tobytes()
    np.testing.assert_array_equal(hints_b, -hints)
    assert len(streams) == len(fwd) == len(bwd) == len(seeds)
    assert any(len(f) > 1 and len(b) > 1 for f, b in zip(fwd, bwd))
    for s, f, b, seed in zip(streams, fwd, bwd, seeds):
        assert f[0].tobytes() == b[0].tobytes() == seed.astype(np.float32).tobytes()
        assert s.tobytes() == np.concatenate([b[::-1], f[1:]]).tobytes()
