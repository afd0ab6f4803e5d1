"""Tracking-environment tests: state layout, alignment-reward oracle
(independent straight-line evaluation), and termination semantics. A single
episode is a one-row `BatchTracker`."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import agents, eds, trackeval
from tractfuse.env import (EnvConfig, EnvError, REASON_LEFT_MASK,
                           REASON_MAX_STEPS, REASON_NO_DIRECTION, REASON_NONE,
                           REASON_SHARP_ANGLE, STATE_DIM, BatchTracker, build_states,
                           jittered_seeds, peak_hints, reward)
from tractfuse.geometry import build_reference_set
from tractfuse.phantom import sample_field

RNG = np.random.default_rng(21)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def reward_oracle(action, prev_dir, peaks):
    """Independent straight-line transcription of the alignment reward."""
    a = unit(action)
    if len(peaks) == 0:
        return 0.0
    best = max(abs(float(np.dot(p, a))) for p in peaks)
    u = 1.0 if prev_dir is None else float(np.dot(a, unit(prev_dir)))
    return best * u


def reward_rows(cases):
    """`reward` over a batch of (action, prev_dir or None, peaks) cases: unit
    actions and previous directions, and peaks padded to a 3-slot table."""
    actions = np.array([unit(a) for a, _, _ in cases])
    prev = np.array([np.zeros(3) if p is None else unit(p) for _, p, _ in cases])
    has_prev = np.array([p is not None for _, p, _ in cases])
    counts = np.array([len(peaks) for _, _, peaks in cases])
    dirs = np.zeros((len(cases), 3, 3))
    for i, (_, _, peaks) in enumerate(cases):
        dirs[i, :len(peaks)] = np.reshape(peaks, (-1, 3))
    return reward(actions, prev, has_prev, counts, dirs)


def reward_one(action, prev_dir, peaks):
    return float(reward_rows([(action, prev_dir, peaks)])[0])


# -- reward -------------------------------------------------------------------

def test_reward_listed_examples():
    assert reward_one((1, 0, 0), (1, 0, 0), [(1, 0, 0)]) == pytest.approx(1.0)
    assert reward_one((1, 0, 0), (0, 1, 0), [(1, 0, 0)]) == pytest.approx(0.0)
    r = reward_one((np.sqrt(2) / 2, np.sqrt(2) / 2, 0), (1, 0, 0),
                   [(1, 0, 0), (0, 1, 0)])
    assert r == pytest.approx(0.5)


def test_reward_oracle_100_random_cases():
    cases = []
    for _ in range(100):
        a = RNG.normal(size=3)
        while np.linalg.norm(a) < 1e-3:
            a = RNG.normal(size=3)
        prev = None if RNG.random() < 0.2 else unit(RNG.normal(size=3))
        n_peaks = int(RNG.integers(0, 4))
        peaks = [unit(RNG.normal(size=3)) for _ in range(n_peaks)]
        cases.append((a, prev, peaks))
    got = reward_rows(cases)  # one batch: each row reads only its own inputs
    for r, case in zip(got, cases):
        assert r == pytest.approx(reward_oracle(*case), abs=1e-6)


def test_reward_first_step_factor_is_one():
    p = unit([0.2, 0.9, 0.1])
    assert reward_one(p, None, [p]) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_reward_bounded_by_one(seed):
    rng = np.random.default_rng(seed)
    a = unit(rng.normal(size=3))
    prev = unit(rng.normal(size=3))
    peaks = [unit(rng.normal(size=3)) for _ in range(3)]
    assert abs(reward_one(a, prev, peaks)) <= 1.0 + 1e-12


# -- state layout -------------------------------------------------------------

def center_seed(phantom, name):
    mask = phantom.mask_for(name).values
    vox = np.argwhere(mask > 0)
    return vox[len(vox) // 2].astype(np.float64)


def test_state_dim_and_zero_history(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    s = tracker.reset(center_seed(tube_phantom, "tube"))[0]
    assert s.shape == (STATE_DIM,)
    np.testing.assert_array_equal(s[315:327], 0.0)  # 12 direction entries


def test_state_mask_features_deep_inside(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    s = tracker.reset(np.array([12.0, 6.0, 6.0]))[0]  # on the tube axis
    np.testing.assert_allclose(s[327:334], 1.0)


def test_reset_deterministic(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    seed = center_seed(tube_phantom, "tube")
    np.testing.assert_array_equal(tracker.reset(seed), tracker.reset(seed))


def test_reset_out_of_mask_rejected(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    with pytest.raises(EnvError, match="mask"):
        tracker.reset(np.array([0.0, 0.0, 0.0]))


def test_hint_enters_history(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    s = tracker.reset(center_seed(tube_phantom, "tube"), (2.0, 0, 0))[0]
    np.testing.assert_allclose(s[315:318], [1, 0, 0])  # normalized, newest slot
    np.testing.assert_array_equal(s[318:327], 0.0)


# -- stepping and termination -------------------------------------------------

def test_step_distance_is_step_size(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    seed = center_seed(tube_phantom, "tube")
    tracker.reset(seed)
    tracker.step([(5.0, 0, 0)])  # non-unit action must be normalized
    moved = tracker.streamlines()[0][-1] - seed
    assert np.linalg.norm(moved) == pytest.approx(env_cfg.step_size)
    np.testing.assert_allclose(moved, [env_cfg.step_size, 0, 0], atol=1e-12)


def test_sharp_angle_termination(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    tracker.reset(center_seed(tube_phantom, "tube"))
    _, done = tracker.step([(1.0, 0, 0)])
    assert not done[0] and tracker.reasons[0] == REASON_NONE
    _, done = tracker.step([(0.0, 1.0, 0)])  # 90 degrees > 60
    assert done[0] and tracker.reasons[0] == REASON_SHARP_ANGLE


def test_hint_does_not_arm_angle_check(tube_phantom, env_cfg):
    """The seed hint steers the policy but the first step can oppose it."""
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    tracker.reset(center_seed(tube_phantom, "tube"), (1.0, 0, 0))
    tracker.step([(-1.0, 0, 0)])
    assert tracker.reasons[0] != REASON_SHARP_ANGLE


def test_left_mask_termination(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    tracker.reset(center_seed(tube_phantom, "tube"))
    for _ in range(40):
        _, done = tracker.step([(0.0, 0, 1.0)])  # walk out the tube side
        if done[0]:
            break
    assert done[0] and tracker.reasons[0] == REASON_LEFT_MASK


def test_max_steps_termination(tube_phantom):
    cfg = EnvConfig(step_size=0.05, max_steps=8)
    tracker = BatchTracker(tube_phantom, "tube", cfg)
    tracker.reset(center_seed(tube_phantom, "tube"))
    for i in range(8):
        _, done = tracker.step([(1.0, 0, 0)])
    assert done[0] and tracker.reasons[0] == REASON_MAX_STEPS
    assert len(tracker.streamlines()[0]) == 9


def test_angle_takes_precedence_over_mask(tube_phantom, env_cfg):
    """An action that both turns > 60 degrees and exits reports sharp_angle."""
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    tracker.reset(center_seed(tube_phantom, "tube"))
    tracker.step([(1.0, 0, 0)])
    tracker.step([(0.0, 0, 1.0)])
    assert tracker.reasons[0] == REASON_SHARP_ANGLE


def test_step_after_done_rejected(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    tracker.reset(center_seed(tube_phantom, "tube"))
    tracker.step([(1.0, 0, 0)])
    tracker.step([(0.0, 1.0, 0)])
    with pytest.raises(EnvError, match="no active episodes"):
        tracker.step([(0.0, 1.0, 0)])


def test_step_reward_matches_oracle(tube_phantom, env_cfg):
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    seed = center_seed(tube_phantom, "tube")
    tracker.reset(seed)
    a = unit([0.9, 0.1, 0.0])
    peaks = tube_phantom.peaks_at(seed)
    rewards, _ = tracker.step([a])
    assert rewards[0] == pytest.approx(reward_oracle(a, None, list(peaks)), abs=1e-6)
    # second step: previous direction factor engages
    b = unit([0.95, -0.05, 0.0])
    peaks2 = tube_phantom.peaks_at(tracker.pos[0])
    rewards, _ = tracker.step([b])
    assert rewards[0] == pytest.approx(reward_oracle(b, a, list(peaks2)), abs=1e-6)


def test_step_rewards_per_row_match_oracle(crossing_phantom):
    """On a crossing batch, each live row's reward equals the oracle at the
    peaks of its own position, over first steps (no previous direction) and
    later ones, while finished rows earn 0."""
    rng = np.random.default_rng(5)
    tracker = BatchTracker(crossing_phantom, "pair_a", EnvConfig(max_steps=40))
    voxels = np.argwhere(tracker.mask > 0)
    seeds = voxels[rng.integers(0, len(voxels), size=16)].astype(np.float64)
    tracker.reset(seeds)
    checked = {True: 0, False: 0}
    while tracker.active.any():
        live = np.nonzero(tracker.active)[0]
        pos, prev, has_prev = tracker.pos.copy(), tracker.prev_dir.copy(), tracker.has_prev.copy()
        actions = np.array([1.0, 0.2, 0.0]) + 0.4 * rng.normal(size=(len(seeds), 3))
        rewards, _ = tracker.step(actions)
        for i in live:
            want = reward_oracle(actions[i], prev[i] if has_prev[i] else None,
                                 list(crossing_phantom.peaks_at(pos[i])))
            assert rewards[i] == pytest.approx(want, abs=1e-12)
            checked[bool(has_prev[i])] += 1
        assert not rewards[np.setdiff1d(np.arange(len(seeds)), live)].any()
    assert checked[False] == len(seeds) and checked[True] > len(seeds)
    assert len(set(tracker.steps)) > 1  # rows finish at different steps


def test_batch_matches_single(tube_phantom, env_cfg):
    """BatchTracker in lockstep equals N independent one-row trackers."""
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    seeds = mask[[3, 11, 25]].astype(np.float64)
    actions = [unit(RNG.normal(size=3) + [3, 0, 0]) for _ in range(5)]

    batch = BatchTracker(tube_phantom, "tube", env_cfg)
    batch.reset(seeds)
    batch_rewards = []
    for a in actions:
        if not batch.active.any():
            break
        r, _ = batch.step(np.tile(a, (3, 1)))
        batch_rewards.append(r.copy())

    for i in range(3):
        single = BatchTracker(tube_phantom, "tube", env_cfg)
        single.reset(seeds[i])
        for t, a in enumerate(actions[: len(batch_rewards)]):
            if not single.active[0]:
                break
            r, _ = single.step([a])
            assert r[0] == pytest.approx(float(batch_rewards[t][i]), abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_action_rejected(tube_phantom, env_cfg, bad):
    """A non-finite action on an active row must not become a zero move."""
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    batch = BatchTracker(tube_phantom, "tube", env_cfg)
    batch.reset(mask[[3, 11]].astype(np.float64))
    with pytest.raises(EnvError, match="non-finite"):
        batch.step(np.array([[1.0, 0.0, 0.0], [bad, 0.0, 1.0]]))
    np.testing.assert_array_equal(batch.steps, [0, 0])


def test_run_observes_rows_active_before_each_step(tube_phantom, env_cfg):
    """`act` sees the full batch; `observe` sees exactly the rows that were
    active before each step, and every one of their steps once."""
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    seeds = mask[[0, len(mask) // 2, len(mask) - 1]].astype(np.float64)
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    active_before, observed = [], []

    def act(states):
        assert states.shape == (len(seeds), STATE_DIM)
        active_before.append(tracker.active.copy())
        return np.tile([1.0, 0.0, 0.0], (len(seeds), 1))

    def observe(live, states, actions, rewards, done, next_states):
        observed.append(live.copy())
        assert not rewards[np.setdiff1d(np.arange(len(seeds)), live)].any()

    tracker.run(seeds, None, act, observe)
    assert len(observed) == len(active_before) == tracker.steps.max()
    for before, live in zip(active_before, observed):
        np.testing.assert_array_equal(live, np.nonzero(before)[0])
    assert len(set(tracker.steps)) > 1  # rows finish at different steps
    assert sum(len(live) for live in observed) == tracker.steps.sum()
    assert not tracker.active.any()


def test_run_states_match_full_batch_build(tube_phantom, env_cfg):
    """`run` rebuilds only live rows, yet every state it hands to `act` and
    `observe` is bit-equal to `build_states` over the full batch, the rows of
    finished episodes included."""
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    seeds = mask[[0, len(mask) // 3, len(mask) // 2, len(mask) - 1]].astype(np.float64)
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    acted, finished_rows_seen = [], 0

    def full_batch():
        return build_states(tube_phantom, tracker.mask, tracker.pos, tracker.history,
                            env_cfg.neighbor_offset)

    def act(states):
        acted.append(full_batch())
        assert states.tobytes() == acted[-1].tobytes()
        return np.tile(unit([1.0, 0.1, 0.0]), (len(seeds), 1))

    def observe(live, states, actions, rewards, done, next_states):
        nonlocal finished_rows_seen
        assert states.tobytes() == acted[-1].tobytes()
        assert next_states.tobytes() == full_batch().tobytes()
        finished_rows_seen += len(seeds) - len(live)

    tracker.run(seeds, None, act, observe)
    assert len(set(tracker.steps)) > 1  # rows finish at different steps
    assert finished_rows_seen > 0


def full_batch_step(tr, actions):
    """`BatchTracker.step` as it was before it computed only active rows:
    alignment, angle test and new positions over the whole batch, then
    masked to the active rows. Kept as the bit-level reference."""
    acts = np.asarray(actions, dtype=np.float64)
    norms = np.linalg.norm(acts, axis=1, keepdims=True)
    a = np.divide(acts, norms, out=np.zeros_like(acts), where=norms > 0)
    act = tr.active
    rewards = np.zeros(tr.n)
    idx = np.clip(np.rint(tr.pos).astype(int), 0, np.asarray(tr.phantom.grid.dims) - 1)
    counts = tr.phantom.peak_counts[idx[:, 0], idx[:, 1], idx[:, 2]]
    dirs = tr.phantom.peak_dirs[idx[:, 0], idx[:, 1], idx[:, 2]]
    dots = np.abs(np.einsum("nkj,nj->nk", dirs.astype(np.float64), a))
    dots = np.where(np.arange(dirs.shape[1])[None, :] < counts[:, None], dots, -np.inf)
    align = np.where(counts > 0, dots.max(axis=1), 0.0)
    u_factor = np.where(tr.has_prev, np.einsum("nj,nj->n", a, tr.prev_dir), 1.0)
    rewards[act] = (align * u_factor)[act]
    cos_ang = np.einsum("nj,nj->n", a, tr.prev_dir)
    done_angle = act & tr.has_prev & (cos_ang < tr._cos_limit)
    new_pos = tr.pos + tr.config.step_size * a
    left = np.zeros(tr.n, dtype=bool)
    left[act] = sample_field(tr.mask, new_pos[act]) < 0.5
    done_mask = act & ~done_angle & left
    new_steps = tr.steps + act.astype(np.int64)
    done_steps = act & ~done_angle & ~done_mask & (new_steps >= tr.config.max_steps)
    tr.pos[act] = new_pos[act]
    tr.steps = new_steps
    tr.points[act, new_steps[act]] = new_pos[act].astype(np.float32)
    tr.history[act] = np.roll(tr.history[act], 1, axis=1)
    tr.history[act, 0] = a[act]
    tr.prev_dir[act] = a[act]
    tr.has_prev |= act
    tr.reasons[done_angle] = REASON_SHARP_ANGLE
    tr.reasons[done_mask] = REASON_LEFT_MASK
    tr.reasons[done_steps] = REASON_MAX_STEPS
    done = done_angle | done_mask | done_steps
    tr.active = act & ~done
    return rewards, done, tr.reasons.copy()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       wobble=st.sampled_from([0.05, 0.6, 2.0]), max_steps=st.sampled_from([6, 40]))
def test_step_live_rows_match_full_batch_step(crossing_phantom, seed, n, wobble, max_steps):
    """Stepping only the active rows gives the bits of the full-batch step:
    rewards, done, reasons, positions, history and points, on batches whose
    rows end for every reason and whose finished rows get arbitrary actions
    (zero vectors included)."""
    rng = np.random.default_rng(seed)
    cfg = EnvConfig(step_size=0.5, max_steps=max_steps)
    mask = crossing_phantom.mask_for("pair_a").values
    voxels = np.argwhere(mask > 0)
    seeds = voxels[rng.integers(0, len(voxels), size=n)] + rng.uniform(-0.3, 0.3, size=(n, 3))
    seeds = seeds[sample_field(mask, seeds) >= 0.5]
    if len(seeds) == 0:
        return
    hints = rng.normal(size=(len(seeds), 3))
    live, ref = (BatchTracker(crossing_phantom, "pair_a", cfg) for _ in range(2))
    live.reset(seeds, hints)
    ref.reset(seeds, hints)
    finished_rows_stepped = 0
    while ref.active.any():
        actions = np.array([1.0, 0.0, 0.0]) + wobble * rng.normal(size=(len(seeds), 3))
        actions[~ref.active & (rng.random(len(seeds)) < 0.5)] = 0.0
        finished_rows_stepped += int((~ref.active).sum())
        got, expect = live.step(actions), full_batch_step(ref, actions)
        assert got[0].tobytes() == expect[0].tobytes()
        np.testing.assert_array_equal(got[1], expect[1])
        assert list(live.reasons) == list(expect[2])
        for attr in ("pos", "history", "points", "prev_dir", "has_prev", "steps", "active"):
            assert getattr(live, attr).tobytes() == getattr(ref, attr).tobytes(), attr
    if len(seeds) > 1 and len(set(ref.steps)) > 1:
        assert finished_rows_stepped > 0


class HoldCourse:
    """Row-wise actor that keeps the newest history direction (+x when there
    is none). With `zero_row`, it returns an exact zero for that row from
    call `zero_at` on."""

    def __init__(self, zero_row=None, zero_at=0):
        self.zero_row, self.zero_at, self.calls = zero_row, zero_at, 0

    def act(self, states):
        a = np.array(states[:, 315:318], dtype=np.float64)
        a[~a.any(axis=1)] = (1.0, 0.0, 0.0)
        if self.zero_row is not None and self.calls >= self.zero_at:
            a[self.zero_row] = 0.0
        self.calls += 1
        return a


def run_logged(phantom, cfg, seeds, hints, actor):
    tracker, log = BatchTracker(phantom, "tube", cfg), []
    tracker.run(seeds, hints, actor.act,
                lambda live, s, a, rewards, done, ns: log.append((rewards, done)))
    return tracker, log


def test_run_returns_streamlines(tube_phantom, env_cfg):
    """`BatchTracker.run` returns `streamlines()`: equal bytes, own copies."""
    tracker = BatchTracker(tube_phantom, "tube", env_cfg)
    seeds = np.argwhere(tube_phantom.mask_for("tube").values > 0)[::7].astype(np.float64)
    hints, _ = peak_hints(tube_phantom, seeds)
    got = tracker.run(seeds, hints, HoldCourse(zero_row=1, zero_at=2).act)
    want = tracker.streamlines()
    assert len(got) == len(seeds) and max(len(x) for x in got) > 3
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert [x.shape for x in got] == [x.shape for x in want]
    assert not any(np.shares_memory(x, tracker.points) for x in got)


def test_zero_action_ends_only_its_row(tube_phantom):
    """A zero action ends its row as `no_direction` with reward 0 and no
    move; every other row tracks as if that row were not in the batch."""
    cfg = EnvConfig(max_steps=530)
    mask = tube_phantom.mask_for("tube").values
    seeds = jittered_seeds(mask, np.argwhere(mask > 0)[::5], 1, np.random.default_rng(4))
    hints, _ = peak_hints(tube_phantom, seeds)
    ref, _ = run_logged(tube_phantom, cfg, seeds, hints, HoldCourse())
    row, at = int(np.argmax(ref.steps)), 3
    assert ref.steps[row] > at + 1

    got, log = run_logged(tube_phantom, cfg, seeds, hints, HoldCourse(row, at))
    assert got.reasons[row] == REASON_NO_DIRECTION and got.steps[row] == at
    rewards, done = log[at]
    assert rewards[row] == 0.0 and done[row]
    assert got.streamlines()[row].tobytes() == ref.points[row, :at + 1].tobytes()
    assert not got.points[row, at + 1:].any()

    others = np.arange(len(seeds)) != row
    rest, rest_log = run_logged(tube_phantom, cfg, seeds[others], hints[others],
                                HoldCourse())
    assert list(got.reasons[others]) == list(rest.reasons)
    assert got.steps[others].tobytes() == rest.steps.tobytes()
    kept = [s for i, s in enumerate(got.streamlines()) if i != row]
    assert [s.tobytes() for s in kept] == [s.tobytes() for s in rest.streamlines()]
    assert len(log) == len(rest_log)
    for (r, d), (rr, rd) in zip(log, rest_log):
        assert r[others].tobytes() == rr.tobytes()
        assert d[others].tobytes() == rd.tobytes()


def test_zero_action_tracks_and_post_filters(tube_phantom, env_cfg):
    """A seed whose actions are all zero yields a one-point streamline in
    `track`; `post_filter` drops it at any threshold."""
    run = functools.partial(BatchTracker(tube_phantom, "tube", env_cfg).run,
                            act=HoldCourse(zero_row=0).act)
    streams = trackeval.track(run, tube_phantom, "tube", 1, seed=0)
    assert len(streams[0]) == 1 and all(len(s) > 2 for s in streams[1:])
    refs = build_reference_set(tube_phantom.bundles["tube"], count=5)
    for threshold in (5.0, np.inf):
        kept = trackeval.post_filter(streams, refs, threshold)
        assert 0 < len(kept) < len(streams)
        assert not any(s is streams[0] for s in kept)


def test_rollout_stores_only_steps_taken(tube_phantom):
    """A zero action ends its row without a step, so `observe` never sees it
    and `rollout` stores one transition per step taken, none with a zero
    action."""
    cfg = EnvConfig(max_steps=530)
    mask = tube_phantom.mask_for("tube").values
    seeds = jittered_seeds(mask, np.argwhere(mask > 0)[::5], 1, np.random.default_rng(4))
    hints, _ = peak_hints(tube_phantom, seeds)
    tracker = BatchTracker(tube_phantom, "tube", cfg)
    buffer = agents.ReplayBuffer(4096)
    _, total_steps = agents.rollout(HoldCourse(zero_row=0, zero_at=3).act, tracker, seeds,
                                    hints, buffer)
    assert tracker.reasons[0] == REASON_NO_DIRECTION and tracker.steps[0] == 3
    assert buffer.size == total_steps == tracker.steps.sum() < buffer.capacity
    assert np.linalg.norm(buffer.a[:buffer.size], axis=1).min() > 0


# -- seeders ------------------------------------------------------------------
# Per-seed reference loops: the vectorised seeders must draw the same numbers
# in the same order, so seeds, hints and the generator state afterwards match.

def _ref_jitter(mask, voxels, per_voxel, rng):
    seeds = []
    for v in voxels:
        for _ in range(per_voxel):
            cand = v + rng.uniform(-0.5, 0.5, size=3)
            if sample_field(mask, cand) >= 0.5:
                seeds.append(cand)
    return np.asarray(seeds).reshape(-1, 3)


def _ref_sample_seeds(phantom, bundle, n, rng):
    mask = phantom.mask_for(bundle).values
    voxels = np.argwhere(mask > 0)
    seeds = np.zeros((n, 3))
    filled = 0
    while filled < n:
        pick = voxels[rng.integers(0, len(voxels), size=n - filled)]
        cand = pick + rng.uniform(-0.5, 0.5, size=pick.shape)
        kept = cand[sample_field(mask, cand) >= 0.5]
        seeds[filled:filled + len(kept)] = kept
        filled += len(kept)
    hints = np.zeros((n, 3))
    for i in range(n):
        pk = phantom.peaks_at(seeds[i])
        if len(pk):
            hints[i] = pk[0] * (1.0 if rng.random() < 0.5 else -1.0)
    return seeds, hints


def _ref_seed_positions(phantom, bundle, per_voxel, rng):
    mask = phantom.mask_for(bundle).values
    seeds = _ref_jitter(mask, np.argwhere(mask > 0), per_voxel, rng)
    hints = np.zeros_like(seeds)
    for i, s in enumerate(seeds):
        pk = phantom.peaks_at(s)
        if len(pk):
            hints[i] = pk[0]
    return seeds, hints


def _ref_harvest_seeds(phantom, bundle, origin, window, per_voxel, rng):
    mask = phantom.mask_for(bundle).values
    o = np.asarray(origin)
    sub = mask[o[0]:o[0] + window, o[1]:o[1] + window, o[2]:o[2] + window]
    seeds = _ref_jitter(mask, np.argwhere(sub > 0) + o, per_voxel, rng)
    hints = np.zeros_like(seeds)
    signs = np.where(rng.random(len(seeds)) < 0.5, 1.0, -1.0)
    for i, s in enumerate(seeds):
        pk = phantom.peaks_at(s)
        if len(pk):
            hints[i] = pk[0] * signs[i]
    return seeds, hints


def _harvest_seeds(phantom, bundle, origin, window, per_voxel, rng, monkeypatch):
    """The (seeds, hints) batch that eds.harvest hands to every policy."""
    seen = []

    def capture(policy, name, phantom, bundle, env_cfg, seeds, hints):
        seen.append((seeds, hints))
        return []

    monkeypatch.setattr(eds, "_track_records", capture)
    spec = eds.HarvestSpec(window=window, seeds_per_voxel=per_voxel)
    eds.harvest({"td3": None}, phantom, bundle, origin, spec, None, rng)
    (batch,) = seen
    return batch


@pytest.fixture(scope="module")
def gappy_phantom(crossing_phantom):
    """The crossing with the peaks of every third voxel removed, so that the
    seeders meet seeds without a peak (and so draw no sign for them)."""
    counts = crossing_phantom.peak_counts.copy()
    x, y, z = np.indices(counts.shape)
    counts[(x + y + z) % 3 == 0] = 0
    return dataclasses.replace(crossing_phantom, peak_counts=counts)


@pytest.mark.parametrize("per_voxel", [1, 4, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheme", ["sample_seeds", "seed_positions", "harvest"])
def test_seeders_match_per_seed_loops(gappy_phantom, monkeypatch, scheme, seed, per_voxel):
    phantom, bundle = gappy_phantom, "pair_a"
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if scheme == "sample_seeds":
        got = agents.sample_seeds(phantom, bundle, 16 * per_voxel, rng_new)
        want = _ref_sample_seeds(phantom, bundle, 16 * per_voxel, rng_ref)
    elif scheme == "seed_positions":
        got = trackeval.seed_positions(phantom, bundle, per_voxel, rng_new)
        want = _ref_seed_positions(phantom, bundle, per_voxel, rng_ref)
    else:
        args = (phantom, bundle, (4, 4, 2), 8, per_voxel)
        got = _harvest_seeds(*args, rng_new, monkeypatch)
        want = _ref_harvest_seeds(*args, rng_ref)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    has_peak = np.linalg.norm(want[1], axis=1) > 0
    assert has_peak.any() and not has_peak.all()  # both hint paths exercised
    assert rng_new.random() == rng_ref.random()


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(step_size=0.0)
    with pytest.raises(ValueError):
        EnvConfig(max_steps=0)
