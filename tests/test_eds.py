"""Episodic-data-selection tests: return-to-go, filters, normalized-Q
across-policy selection, harvest determinism, and the dataset file format."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from tractfuse import eds
from tractfuse.eds import (EdsError, HarvestSpec, TrajectoryRecord, compute_rtg,
                           across_policy_select, length_filter,
                           within_policy_filter)
from tractfuse.env import STATE_DIM, BatchTracker, EnvConfig
from tractfuse.geometry import resample

RNG = np.random.default_rng(55)


def record(t, policy="td3", bundle="tube", reward=1.0, offset=0.0):
    streamline = np.zeros((t + 1, 3), dtype=np.float32)
    streamline[:, 0] = np.arange(t + 1, dtype=np.float32)
    streamline[:, 1] = offset
    rewards = np.full(t, reward, dtype=np.float32)
    return TrajectoryRecord(
        states=RNG.normal(size=(t, STATE_DIM)).astype(np.float32),
        actions=np.tile([1.0, 0, 0], (t, 1)).astype(np.float32),
        rewards=rewards, rtg=compute_rtg(rewards), policy_id=policy,
        streamline=streamline, bundle_name=bundle)


# -- return-to-go -------------------------------------------------------------

def test_rtg_listed_examples():
    np.testing.assert_allclose(compute_rtg([1, 0.5, 0.25]), [1.75, 0.75, 0.25])
    np.testing.assert_array_equal(compute_rtg([0.0, 0.0]), [0.0, 0.0])
    np.testing.assert_array_equal(compute_rtg([2.5]), [2.5])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=60))
def test_rtg_suffix_sum_property(rewards):
    rtg = compute_rtg(rewards)
    expect = np.cumsum(np.asarray(rewards, dtype=np.float64)[::-1])[::-1]
    np.testing.assert_allclose(rtg, expect.astype(np.float32), rtol=1e-6, atol=1e-5)


def test_record_validation():
    with pytest.raises(EdsError, match="length"):
        TrajectoryRecord(states=np.zeros((3, STATE_DIM), dtype=np.float32),
                         actions=np.zeros((2, 3), dtype=np.float32),
                         rewards=np.zeros(3, dtype=np.float32),
                         rtg=np.zeros(3, dtype=np.float32), policy_id="td3",
                         streamline=np.zeros((4, 3), dtype=np.float32),
                         bundle_name="b")
    with pytest.raises(EdsError, match="T\\+1"):
        TrajectoryRecord(states=np.zeros((3, STATE_DIM), dtype=np.float32),
                         actions=np.zeros((3, 3), dtype=np.float32),
                         rewards=np.zeros(3, dtype=np.float32),
                         rtg=np.zeros(3, dtype=np.float32), policy_id="td3",
                         streamline=np.zeros((3, 3), dtype=np.float32),
                         bundle_name="b")


# -- filters ------------------------------------------------------------------

def test_length_filter_listed_example():
    recs = [record(10), record(47), record(100)]
    kept = length_filter(recs)
    assert [r.length for r in kept] == [47, 100]


def test_length_filter_empty_and_identity():
    assert length_filter([]) == []
    recs = [record(50), record(60)]
    assert length_filter(recs) == recs


def test_within_policy_filter_threshold():
    refs = [resample(record(50, offset=0.0).streamline, 20)]
    near = record(50, offset=4.9)
    far = record(50, offset=5.1)
    center = record(50, offset=0.0)
    kept = within_policy_filter([near, far, center], refs, threshold_mm=5.0)
    assert kept == [near, center]


def test_within_policy_filter_empty_refs_rejected():
    with pytest.raises(EdsError, match="reference"):
        within_policy_filter([record(50)], [])


# -- across-policy selection --------------------------------------------------

class FakePolicy:
    """Critic stub returning a fixed value per (state-sum) bucket."""

    def __init__(self, q_of_record):
        self.q_of_record = q_of_record

    def q_value(self, states, actions):
        key = round(float(np.asarray(states).sum()), 3)
        return np.full(len(states), self.q_of_record[key])


def fake_setup(scores_by_policy):
    """scores_by_policy: dict policy -> list of per-record mean Q values."""
    grouped, policies = {}, {}
    for name, scores in scores_by_policy.items():
        recs = [record(50, policy=name) for _ in scores]
        table = {round(float(r.states.sum()), 3): q for r, q in zip(recs, scores)}
        grouped[name] = recs
        policies[name] = FakePolicy(table)
    return grouped, policies


def test_across_policy_argmax():
    grouped, policies = fake_setup({"td3": [0.0, 10.0, 8.0],   # normed mean 0.6
                                    "sac": [1.0, 2.0, 3.0],    # normed mean 0.5
                                    "ddpg": [5.0, 5.0, 5.0]})  # degenerate 0.5
    sel, winner = across_policy_select(grouped, policies)
    assert winner == "td3"
    assert sel == grouped["td3"]


def test_across_policy_tie_break_order():
    grouped, policies = fake_setup({"td3": [1.0, 1.0], "sac": [9.0, 9.0],
                                    "ddpg": [4.0, 4.0]})
    # all degenerate -> all 0.5; tie broken toward td3
    _, winner = across_policy_select(grouped, policies)
    assert winner == "td3"
    grouped.pop("td3")
    _, winner = across_policy_select(grouped, policies)
    assert winner == "sac"


def test_across_policy_scale_invariance():
    """Min-max normalization removes per-policy critic scale."""
    grouped, policies = fake_setup({"td3": [0.0, 1.0, 1.0],
                                    "sac": [0.0, 1000.0, 1000.0]})
    _, winner = across_policy_select(grouped, policies)
    assert winner == "td3"  # identical normalized profiles; tie-break


def test_across_policy_empty_warns():
    with pytest.warns(UserWarning, match="no policy"):
        sel, winner = across_policy_select({}, {})
    assert sel == [] and winner is None


def test_across_policy_excludes_empty_policies():
    grouped, policies = fake_setup({"ddpg": [1.0, 5.0, 3.0]})
    grouped["td3"] = []
    _, winner = across_policy_select(grouped, policies)
    assert winner == "ddpg"


def _eds_inline_normalize(raw):
    """The rule `across_policy_select` inlined before `min_max_normalize`."""
    lo, hi = raw.min(), raw.max()
    if hi - lo < 1e-12:
        normed = np.full_like(raw, 0.5)  # degenerate constant-Q batch
    else:
        normed = (raw - lo) / (hi - lo)
    return normed


def _maxq_inline_normalize(q):
    """The rule `MaxQEnsemble.act` inlined before `min_max_normalize`."""
    lo, hi = q.min(), q.max()
    return np.full_like(q, 0.5) if hi - lo < 1e-12 else (q - lo) / (hi - lo)


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), offset=st.floats(-10, 10),
       unit=st.lists(st.floats(0, 1), min_size=1, max_size=40),
       spread=st.sampled_from([0.0, 1e-13, 1e-11, 1e-6, 1.0, 1e3]))
def test_min_max_normalize_matches_both_inline_forms(dtype, offset, unit, spread):
    """Spreads around the 1e-12 cut-off, and constant input, in both dtypes."""
    x = (offset + spread * np.asarray(unit)).astype(dtype)
    got = eds.min_max_normalize(x)
    assert got.dtype == x.dtype
    for inline in (_eds_inline_normalize, _maxq_inline_normalize):
        want = inline(x)
        assert want.dtype == got.dtype
        assert got.tobytes() == want.tobytes()
    if spread == 0.0:
        assert np.all(got == 0.5)


# -- harvest + datasets -------------------------------------------------------

@pytest.fixture(scope="module")
def harvested(tube_phantom, env_cfg, tiny_policies):
    rng = np.random.default_rng(0)
    spec = HarvestSpec(window=4, seeds_per_voxel=1)
    return eds.harvest(tiny_policies, tube_phantom, "tube", (8, 4, 4), spec,
                       env_cfg, rng)


def test_harvest_record_counts(harvested):
    counts = {k: len(v) for k, v in harvested.items()}
    assert set(counts) == {"td3", "sac", "ddpg"}
    # same shared seed batch for every policy
    assert len(set(counts.values())) == 1


def test_harvest_streamlines_start_at_seed(harvested):
    for recs in harvested.values():
        for r in recs:
            assert len(r.streamline) == r.length + 1
            np.testing.assert_allclose(
                r.rtg, compute_rtg(r.rewards), rtol=1e-5, atol=1e-5)


def test_harvest_deterministic(tube_phantom, env_cfg, tiny_policies):
    spec = HarvestSpec(window=4, seeds_per_voxel=1)
    a = eds.harvest(tiny_policies, tube_phantom, "tube", (8, 4, 4), spec,
                    env_cfg, np.random.default_rng(3))
    b = eds.harvest(tiny_policies, tube_phantom, "tube", (8, 4, 4), spec,
                    env_cfg, np.random.default_rng(3))
    for name in a:
        assert len(a[name]) == len(b[name])
        for ra, rb in zip(a[name], b[name]):
            np.testing.assert_array_equal(ra.streamline, rb.streamline)
            np.testing.assert_array_equal(ra.states, rb.states)


def test_harvest_empty_window_rejected(tube_phantom, env_cfg, tiny_policies):
    spec = HarvestSpec(window=2, seeds_per_voxel=1)
    with pytest.raises(EdsError, match="window"):
        eds.harvest(tiny_policies, tube_phantom, "tube", (0, 0, 0), spec,
                    env_cfg, np.random.default_rng(0))


def test_build_datasets_downsample_warning(tube_phantom, env_cfg, tiny_policies):
    spec = HarvestSpec(window=4, seeds_per_voxel=1, min_transitions=1)
    with pytest.warns(UserWarning, match="target"):
        ds = eds.build_datasets(tube_phantom, tiny_policies, env_cfg, spec=spec,
                                pretrain_target=10 ** 6, finetune_target=10 ** 6,
                                seed=0)
    assert len(ds.pretrain) > 0


class StraightActor:
    """Row-wise actor that keeps the newest history direction (the seed hint
    at step 0, +x when there is none), so tube episodes run to the tube's end
    or to the step cap."""

    def act(self, states):
        a = np.array(states[:, 315:318])
        a[~a.any(axis=1)] = (1.0, 0.0, 0.0)
        return a


class StopRowActor(StraightActor):
    """`StraightActor` that returns an exact zero for one row from call
    `at` on."""

    def __init__(self, row, at):
        self.row, self.at, self.calls = row, at, 0

    def act(self, states):
        a = super().act(states)
        if self.calls >= self.at:
            a[self.row] = 0.0
        self.calls += 1
        return a


def test_harvest_skips_the_step_without_direction(tube_phantom):
    """A row whose action turns zero at step k yields a record of its first
    k steps; every other record is as in a harvest without the zero."""
    spec, cfg = HarvestSpec(window=4, seeds_per_voxel=2), EnvConfig(max_steps=530)

    def harvest(actor):
        return eds.harvest({"sac": actor}, tube_phantom, "tube", (8, 4, 4), spec, cfg,
                           np.random.default_rng(5))["sac"]

    want = harvest(StraightActor())
    row, at = int(np.argmax([r.length for r in want])), 4
    got = harvest(StopRowActor(row, at))
    assert len(got) == len(want) and got[row].length == at
    for i, (g, w) in enumerate(zip(got, want)):
        t = g.length
        assert t == (at if i == row else w.length)
        for attr in ("states", "actions", "rewards"):
            assert getattr(g, attr).tobytes() == getattr(w, attr)[:t].tobytes(), (i, attr)
        assert g.streamline.tobytes() == w.streamline[:t + 1].tobytes()


def full_buffer_track_records(policy, policy_name, phantom, bundle_name, env_cfg,
                              seeds, hints):
    """`eds._track_records` as it was with `(n, max_steps, .)` capture
    buffers. Kept as the bit-level reference."""
    tracker = BatchTracker(phantom, bundle_name, env_cfg)
    n, max_t = len(seeds), env_cfg.max_steps
    s_buf = np.zeros((n, max_t, STATE_DIM), dtype=np.float32)
    a_buf = np.zeros((n, max_t, 3), dtype=np.float32)
    r_buf = np.zeros((n, max_t), dtype=np.float32)

    def observe(live, states, actions, rewards, done, next_states):
        t = tracker.steps[live] - 1
        norm = np.linalg.norm(actions, axis=1, keepdims=True)
        unit = np.divide(actions, norm, out=np.zeros_like(actions), where=norm > 0)
        s_buf[live, t] = states[live]
        a_buf[live, t] = unit[live]
        r_buf[live, t] = rewards[live]

    tracker.run(seeds, hints, policy.act, observe)
    streamlines = tracker.streamlines()
    records = []
    for i in range(n):
        t = int(tracker.steps[i])
        if t < 1:
            continue
        rew = r_buf[i, :t].copy()
        records.append(TrajectoryRecord(
            states=s_buf[i, :t].copy(), actions=a_buf[i, :t].copy(), rewards=rew,
            rtg=compute_rtg(rew), policy_id=policy_name,
            streamline=streamlines[i], bundle_name=bundle_name))
    return records


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ox=st.integers(1, 19), oy=st.integers(3, 5),
       oz=st.integers(3, 5), max_steps=st.one_of(st.integers(1, 50), st.integers(1, 530)))
@example(seed=0, ox=8, oy=4, oz=4, max_steps=1)
@example(seed=0, ox=8, oy=4, oz=4, max_steps=530)
def test_harvest_matches_full_buffer_capture(tube_phantom, tiny_policies, seed, ox, oy, oz,
                                             max_steps):
    """Capturing only the steps taken gives the records of the full-buffer
    capture: same order, policy, length, and bytes and dtype of every array,
    with episodes that end at the step cap among them. Every window drawn
    holds four voxels of the tube's axis, so it always yields seeds."""
    policies = {"td3": tiny_policies["td3"], "sac": StraightActor(),
                "ddpg": tiny_policies["ddpg"]}
    spec, cfg = HarvestSpec(window=4, seeds_per_voxel=1), EnvConfig(max_steps=max_steps)
    got = eds.harvest(policies, tube_phantom, "tube", (ox, oy, oz), spec, cfg,
                      np.random.default_rng(seed))
    with mock.patch.object(eds, "_track_records", full_buffer_track_records):
        want = eds.harvest(policies, tube_phantom, "tube", (ox, oy, oz), spec, cfg,
                           np.random.default_rng(seed))
    assert list(got) == list(want)
    for name in want:
        assert len(got[name]) == len(want[name])
        for g, w in zip(got[name], want[name]):
            assert (g.policy_id, g.bundle_name, g.length) == (w.policy_id, w.bundle_name,
                                                               w.length)
            for attr in ("states", "actions", "rewards", "rtg", "streamline"):
                a, b = getattr(g, attr), getattr(w, attr)
                assert a.dtype == b.dtype and a.shape == b.shape, attr
                assert a.tobytes() == b.tobytes(), attr
                assert a.flags.c_contiguous and a.flags.owndata, attr


def test_harvest_memory_follows_steps_taken(tube_phantom, tiny_policies):
    """With a 530-step cap, the traced peak during a harvest stays within a
    few copies of what the records hold, not `seeds x max_steps` states."""
    policies = {"td3": tiny_policies["td3"], "sac": StraightActor(),
                "ddpg": tiny_policies["ddpg"]}
    spec = HarvestSpec(window=4, seeds_per_voxel=4)
    grouped, peak = traced_peak(lambda: eds.harvest(
        policies, tube_phantom, "tube", (8, 4, 4), spec, EnvConfig(max_steps=530),
        np.random.default_rng(0)))
    steps = sum(r.length for recs in grouped.values() for r in recs)
    assert max(r.length for r in grouped["sac"]) > 20
    assert peak < 4 * steps * (STATE_DIM + 5) * 4 + 2 * 2**20, (peak, steps)


# -- EDS1 file format ---------------------------------------------------------

def test_eds_roundtrip(tmp_path):
    recs = [record(47, policy="sac"), record(60, policy="ddpg", reward=0.25)]
    path = tmp_path / "d.eds"
    eds.save_records(recs, path)
    loaded = eds.load_records(path)
    assert len(loaded) == 2
    for a, b in zip(recs, loaded):
        assert a.policy_id == b.policy_id and a.bundle_name == b.bundle_name
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.rtg, b.rtg)
        np.testing.assert_array_equal(a.streamline, b.streamline)


def test_eds_bad_magic(tmp_path):
    path = tmp_path / "bad.eds"
    path.write_bytes(b"WHAT" + b"\x00" * 8)
    with pytest.raises(EdsError, match="magic"):
        eds.load_records(path)


def test_eds_trailing_bytes(tmp_path):
    path = tmp_path / "t.eds"
    eds.save_records([record(47)], path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(EdsError, match="trailing"):
        eds.load_records(path)
