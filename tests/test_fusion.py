"""Fusion-policy tests: causal masking, angular-loss oracles, finetune
freezing, critic-augmented actor loss decomposition, and update counters."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keep_all_on_tape, reachable, traced_peak
from tractfuse import agents, eds, fusion, nn
from tractfuse.autodiff import Tensor
from tractfuse.eds import TrajectoryRecord, compute_rtg
from tractfuse.env import ACTION_DIM, STATE_DIM
from tractfuse.fusion import (FusionConfig, FusionError, FusionModel,
                              FusionTracker, McpftSchedule, TrainSchedule,
                              loss_dist_cos, mcpft_actor_loss, sample_windows)

RNG = np.random.default_rng(66)
TINY = FusionConfig(context=6, width=16, n_blocks=2, dropout=0.0)


def tiny_model(seed=0):
    return FusionModel(TINY, seed=seed)


def window(b=2, t=6):
    rtg = RNG.uniform(0, 5, size=(b, t)).astype(np.float32)
    s = RNG.normal(size=(b, t, STATE_DIM)).astype(np.float32)
    a = RNG.normal(size=(b, t, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    return rtg, s, a.astype(np.float32)


def make_records(n=6, t=12, policy="td3"):
    out = []
    for _ in range(n):
        a = RNG.normal(size=(t, 3))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        rewards = RNG.uniform(0, 1, size=t).astype(np.float32)
        sl = np.cumsum(np.concatenate([[np.zeros(3)], a * 0.5]), axis=0)
        out.append(TrajectoryRecord(
            states=RNG.normal(size=(t, STATE_DIM)).astype(np.float32),
            actions=a.astype(np.float32), rewards=rewards,
            rtg=compute_rtg(rewards), policy_id=policy,
            streamline=sl.astype(np.float32), bundle_name="tube"))
    return out


# -- forward ------------------------------------------------------------------

def test_predict_shape_and_unit_norm():
    m = tiny_model()
    rtg, s, a = window()
    pred = m.predict_actions(rtg, s, a)
    assert pred.shape == (2, 6, 3)
    np.testing.assert_allclose(np.linalg.norm(pred.data, axis=-1), 1.0, atol=1e-5)


def test_window_too_long_rejected():
    m = tiny_model()
    rtg, s, a = window(t=7)
    with pytest.raises(FusionError, match="context"):
        m.predict_actions(rtg, s, a)


def test_causality_future_timesteps_do_not_leak():
    m = tiny_model()
    rtg, s, a = window(b=1)
    base = m.predict_actions(rtg, s, a).data
    for t in range(1, 6):
        r2, s2, a2 = rtg.copy(), s.copy(), a.copy()
        r2[0, t] += 3.0
        s2[0, t] += 1.0
        a2[0, t] = -a2[0, t]
        out = m.predict_actions(r2, s2, a2).data
        np.testing.assert_array_equal(out[0, :t], base[0, :t])


def test_causality_own_action_hidden():
    """The action token at t must not influence the prediction at t."""
    m = tiny_model()
    rtg, s, a = window(b=1)
    base = m.predict_actions(rtg, s, a).data
    a2 = a.copy()
    a2[0, 3] = -a2[0, 3]
    out = m.predict_actions(rtg, s, a2).data
    np.testing.assert_array_equal(out[0, 3], base[0, 3])
    assert np.abs(out[0, 4:] - base[0, 4:]).max() > 0  # later steps do see it


def test_act_matches_last_prediction():
    m = tiny_model()
    rtg, s, a = window(b=3)
    pred = m.predict_actions(rtg, s, a).data
    assert m.act(rtg, s, a).tobytes() == pred[:, -1, :].astype(np.float64).tobytes()


# (context, width, blocks) of the benchmark's harvest-track model and of the
# desk preset's
SHAPES = [(8, 32, 2), (16, 64, 4)]


@functools.lru_cache(maxsize=None)
def shaped_model(context, width, n_blocks):
    """A model of the given shape with every parameter moved off its
    initialization, so activations spread over both signs and many scales."""
    m = FusionModel(FusionConfig(context=context, width=width, n_blocks=n_blocks), seed=3)
    rng = np.random.default_rng(4)
    for p in m.params().values():
        p.data += rng.normal(0.0, 0.3, size=p.shape).astype(np.float32)
    return m


def ragged_windows(b, c, seed):
    """Windows as `FusionTracker` builds them: each row right-aligned with
    its own number of real timesteps and zeros in the padding."""
    rng = np.random.default_rng(seed)
    real = rng.integers(1, c + 1, size=b)
    valid = (np.arange(c)[None, :] >= c - real[:, None]).astype(np.float32)
    rtg = rng.uniform(0, 300, size=(b, c)).astype(np.float32) * valid
    s = rng.normal(size=(b, c, STATE_DIM)).astype(np.float32) * valid[..., None]
    a = rng.normal(size=(b, c, ACTION_DIM)).astype(np.float32) * valid[..., None]
    a[:, -1] = 0.0  # the newest action is not taken yet
    return rtg, s, a, valid


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(SHAPES), b=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_act_bytes_equal_taped_forward(shape, b, seed):
    """The tape-free path of `act` gives the bytes of the taped forward."""
    m = shaped_model(*shape)
    rtg, s, a, valid = ragged_windows(b, shape[0], seed)
    taped = m.predict_actions(rtg, s, a, pad_mask=valid).data[:, -1]
    assert m.act(rtg, s, a, pad_mask=valid).tobytes() == taped.astype(np.float64).tobytes()


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(SHAPES), b=st.integers(1, 300), data=st.data())
def test_act_row_subset_invariant(shape, b, data):
    """A row's action has the same bytes in any batch, so `FusionTracker`
    may cut the live rows into chunks of any size."""
    m = shaped_model(*shape)
    rtg, s, a, valid = ragged_windows(b, shape[0], data.draw(st.integers(0, 2**32 - 1)))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, b - 1), min_size=1))))
    full = m.act(rtg, s, a, pad_mask=valid)
    part = m.act(rtg[rows], s[rows], a[rows], pad_mask=valid[rows])
    assert part.tobytes() == full[rows].tobytes()


def test_act_runs_the_numpy_transformer_once(monkeypatch):
    """`act` enters the transformer once, through its numpy path; the taped
    blocks never run. Bytes alone cannot tell the two paths apart."""
    m = shaped_model(*SHAPES[0])
    rtg, s, a, valid = ragged_windows(5, SHAPES[0][0], 1)
    calls = {"infer": 0, "taped": 0}
    infer, taped = nn.GptBlockStack.infer, nn.TransformerBlock.__call__

    def counting_infer(self, *args, **kwargs):
        calls["infer"] += 1
        return infer(self, *args, **kwargs)

    def counting_taped(self, *args, **kwargs):
        calls["taped"] += 1
        return taped(self, *args, **kwargs)

    monkeypatch.setattr(nn.GptBlockStack, "infer", counting_infer)
    monkeypatch.setattr(nn.TransformerBlock, "__call__", counting_taped)
    m.act(rtg, s, a, pad_mask=valid)
    assert calls == {"infer": 1, "taped": 0}


def test_training_forward_without_rng_raises():
    m = tiny_model()
    rtg, s, a = window()
    with pytest.raises(ValueError, match="rng"):
        m.predict_actions(rtg, s, a, training=True)


# -- angular loss -------------------------------------------------------------

def test_loss_zero_for_perfect_prediction():
    _, _, a = window(b=1)
    loss = loss_dist_cos(Tensor(a), a)
    # arccos clamp keeps a tiny positive floor
    assert 0.0 <= float(loss.data) < 0.05


def test_loss_opposite_prediction_is_ten_pi():
    """T=6 has centers t in {2, 3}; 2 centers x 5 offsets x arccos(-1)."""
    _, _, a = window(b=1, t=6)
    loss = loss_dist_cos(Tensor(-a), a)
    assert float(loss.data) == pytest.approx(10 * np.pi, rel=1e-3)


def test_loss_window_count_scales_with_t():
    _, _, a = window(b=1, t=5)  # single center
    loss = loss_dist_cos(Tensor(-a), a)
    assert float(loss.data) == pytest.approx(5 * np.pi, rel=1e-3)


def test_loss_needs_five_timesteps():
    _, _, a = window(b=1, t=4)
    with pytest.raises(FusionError, match="5"):
        loss_dist_cos(Tensor(a), a)


def test_loss_valid_mask_drops_padded_centers():
    _, _, a = window(b=1, t=6)
    valid = np.ones((1, 6), dtype=np.float32)
    valid[0, 0] = 0.0  # center 2 loses offset -2 -> only center 3 counts
    loss = loss_dist_cos(Tensor(-a), a, valid)
    assert float(loss.data) == pytest.approx(5 * np.pi, rel=1e-3)


def test_loss_batch_mean():
    _, _, a = window(b=4, t=6)
    single = [float(loss_dist_cos(Tensor(-a[i:i + 1]), a[i:i + 1]).data)
              for i in range(4)]
    batched = float(loss_dist_cos(Tensor(-a), a).data)
    assert batched == pytest.approx(np.mean(single), rel=1e-6)


# -- window sampling ----------------------------------------------------------

def test_sample_windows_left_padding():
    recs = make_records(n=3, t=10)
    rtg, s, a, valid = sample_windows(recs, 6, 32, np.random.default_rng(0))
    assert rtg.shape == (32, 6) and s.shape == (32, 6, STATE_DIM)
    for i in range(32):
        v = valid[i]
        # padding is a contiguous prefix of zeros
        first = int(np.argmax(v > 0))
        assert np.all(v[first:] == 1.0) and np.all(v[:first] == 0.0)
        np.testing.assert_array_equal(s[i, :first], 0.0)


# -- training stages ----------------------------------------------------------

def test_pretrain_zero_iterations_is_noop():
    m = tiny_model()
    before = {k: v.data.copy() for k, v in m.params().items()}
    fusion.pretrain(m, make_records(), TrainSchedule(iterations=0, updates_per_iter=5,
                                                     batch_size=4, lr=1e-3, warmup=0))
    for k, v in m.params().items():
        np.testing.assert_array_equal(v.data, before[k])


def test_pretrain_empty_dataset_rejected():
    with pytest.raises(FusionError, match="empty"):
        fusion.pretrain(tiny_model(), [], TrainSchedule(iterations=1, updates_per_iter=1,
                                                        batch_size=2, lr=1e-3, warmup=0))


def nan_records():
    recs = make_records()
    for r in recs:
        r.states[:] = np.nan
    return recs


def test_pretrain_nan_loss_raises_before_any_write():
    m = tiny_model()
    before = params_bytes(m.params())
    with pytest.raises(nn.TrainingDiverged, match="non-finite pretrain loss"):
        fusion.pretrain(m, nan_records(), TrainSchedule(iterations=1, updates_per_iter=1,
                                                        batch_size=2, lr=1e-3, warmup=0))
    assert params_bytes(m.params()) == before


def test_mcpft_nan_loss_raises_before_any_write(tube_phantom, env_cfg, tiny_policies):
    m = tiny_model()

    def every_param():
        return params_bytes({**m.params(), **{f"{n}.{k}": v for n, p in tiny_policies.items()
                                              for k, v in p.params().items()}})

    before = every_param()
    with pytest.raises(nn.TrainingDiverged, match="non-finite mcpft actor loss"):
        fusion.mcpft(m, tiny_policies, nan_records(), tube_phantom, "tube", env_cfg,
                     McpftSchedule(iterations=1), seed=0)
    assert every_param() == before


def test_finetune_freezes_early_layers():
    m = tiny_model()
    frozen_before = {k: v.data.tobytes() for k, v in m.frozen_params().items()}
    head_before = {k: v.data.copy() for k, v in m.final_layer_params().items()}
    fusion.finetune(m, make_records(), TrainSchedule(iterations=2, updates_per_iter=10,
                                                     batch_size=4, lr=1e-2, warmup=0))
    for k, v in m.frozen_params().items():
        assert v.data.tobytes() == frozen_before[k], f"frozen param {k} changed"
    moved = any(not np.array_equal(v.data, head_before[k])
                for k, v in m.final_layer_params().items())
    assert moved


DROPOUT_CFG = FusionConfig(context=6, width=16, n_blocks=2, dropout=0.1)


def params_bytes(params):
    return {k: v.data.tobytes() for k, v in params.items()}


def test_finetune_pruned_tape_same_bytes(monkeypatch, backward_log):
    """Finetune with frozen params off the tape gives the bytes of the full
    tape (every param collecting grads, only the final layers stepping),
    with the same dropout draws in the frozen blocks, on fewer tape nodes."""
    recs = make_records(n=8, t=12)
    schedule = TrainSchedule(iterations=2, updates_per_iter=4, batch_size=4,
                             lr=1e-2, warmup=3)
    pruned = FusionModel(DROPOUT_CFG, seed=3)
    fusion.finetune(pruned, recs, schedule, seed=5)
    pruned_log = list(backward_log)
    backward_log.clear()
    keep_all_on_tape(monkeypatch, fusion)
    full = FusionModel(DROPOUT_CFG, seed=3)
    fusion.finetune(full, recs, schedule, seed=5)

    assert len(pruned_log) == 8
    assert [loss for loss, _ in pruned_log] == [loss for loss, _ in backward_log]
    assert params_bytes(pruned.params()) == params_bytes(full.params())
    assert all(p.grad is None for p in pruned.frozen_params().values())
    assert all(p.grad is not None for p in full.frozen_params().values())
    for (_, n_pruned), (_, n_full) in zip(pruned_log, backward_log):
        assert n_pruned < n_full


def test_pretrain_reduces_loss():
    m = tiny_model()
    recs = make_records(n=10, t=12)
    log = fusion.pretrain(m, recs, TrainSchedule(iterations=4, updates_per_iter=30,
                                                 batch_size=8, lr=3e-3, warmup=10))
    assert log["iteration_loss"][-1] < log["iteration_loss"][0]


def test_checkpoint_roundtrip(tmp_path):
    m = tiny_model(seed=4)
    path = tmp_path / "f.ckp"
    m.save(path, stage="pretrained")
    loaded, stage = FusionModel.load(path)
    assert stage == "pretrained"
    assert loaded.config == m.config
    rtg, s, a = window()
    np.testing.assert_array_equal(loaded.predict_actions(rtg, s, a).data,
                                  m.predict_actions(rtg, s, a).data)



def test_load_builds_model_without_random_draws(tmp_path, monkeypatch):
    """`load` fills zero-weight layers from the checkpoint: no generator is made."""
    m = tiny_model(seed=4)
    path = tmp_path / "f.ckp"
    m.save(path, stage="pretrained")

    def no_rng(*args, **kwargs):
        raise AssertionError("load drew a random init")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded, _ = FusionModel.load(path)
    assert {k: t.data.tobytes() for k, t in loaded.params().items()} == \
        {k: t.data.tobytes() for k, t in m.params().items()}

# -- MCPFT --------------------------------------------------------------------

def zero_critics(policies):
    for p in policies.values():
        for c in p.critics:
            for layer in c.layers:
                layer.w.data[...] = 0.0
                layer.b.data[...] = 0.0


def test_mcpft_loss_decomposition(tiny_policies):
    """Total = angular loss + per-bundle min-critic terms (numpy oracle)."""
    m = tiny_model()
    recs = make_records()
    rtg, s, a, valid = sample_windows(recs, 6, 4, np.random.default_rng(0))
    total, sup = mcpft_actor_loss(m, tiny_policies, rtg, s, a, valid)
    pred = m.predict_actions(rtg, s, a, pad_mask=valid).data
    expect = float(sup.data)
    b, t = rtg.shape
    flat_s = s.reshape(b * t, STATE_DIM)
    flat_p = pred.reshape(b * t, 3)
    w = valid.reshape(b * t)
    for p in tiny_policies.values():
        q = p.q_value(flat_s, flat_p)
        expect += float(-((q * w).reshape(b, t).sum(axis=1)).mean())
    assert float(total.data) == pytest.approx(expect, rel=1e-5)


def test_mcpft_zeroed_critics_equals_supervised_gradients(tiny_policies):
    """With all critics zeroed, the MCPFT actor gradient is exactly the
    angular-loss gradient."""
    import copy

    policies = {k: agents.PolicyBundle(v.algo, hidden=v.hidden, seed=9)
                for k, v in tiny_policies.items()}
    zero_critics(policies)
    recs = make_records()
    rtg, s, a, valid = sample_windows(recs, 6, 4, np.random.default_rng(1))

    m1 = tiny_model(seed=2)
    total, _ = mcpft_actor_loss(m1, policies, rtg, s, a, valid)
    total.backward()
    g1 = {k: v.grad.copy() for k, v in m1.params().items() if v.grad is not None}

    m2 = tiny_model(seed=2)
    pred = m2.predict_actions(rtg, s, a, pad_mask=valid)
    loss_dist_cos(pred, a, valid).backward()
    g2 = {k: v.grad.copy() for k, v in m2.params().items() if v.grad is not None}

    assert set(g1) == set(g2)
    for k in g1:
        np.testing.assert_allclose(g1[k], g2[k], atol=1e-6)


def test_mcpft_counters_and_critic_updates(tube_phantom, env_cfg, tiny_policies):
    m = tiny_model()
    recs = make_records(n=8, t=12)
    schedule = McpftSchedule(iterations=2, batch_size=4, actor_updates_per_iter=3,
                             critic_updates_per_iter=1, lr=1e-4,
                             rollout_episodes=4, rtg0=10.0)
    log = fusion.mcpft(m, tiny_policies, recs, tube_phantom, "tube", env_cfg,
                       schedule, seed=0)
    assert log["actor_updates"] == [3, 3]
    for name in tiny_policies:
        assert log["critic_updates"][name] == [1, 1]


def test_mcpft_zero_iterations_keeps_bytes(tube_phantom, env_cfg, tiny_policies):
    """`mcpft.iters = 0` is how a run tracks the fine-tuned weights: every
    parameter keeps its bytes."""
    m = tiny_model()
    before = params_bytes(m.params())
    log = fusion.mcpft(m, tiny_policies, make_records(), tube_phantom, "tube", env_cfg,
                       McpftSchedule(iterations=0), seed=0)
    assert log["actor_updates"] == []
    assert params_bytes(m.params()) == before


def test_mcpft_pruned_tape_same_bytes(monkeypatch, backward_log, tube_phantom, env_cfg):
    """MCPFT actor updates with the critics frozen give the bytes of the
    full tape, where the critic grads were computed and thrown away."""
    recs = make_records(n=8, t=12)
    schedule = McpftSchedule(iterations=2, batch_size=4, actor_updates_per_iter=3,
                             critic_updates_per_iter=1, lr=1e-3,
                             rollout_episodes=4, rtg0=10.0)

    def run():
        model = FusionModel(DROPOUT_CFG, seed=1)
        policies = {algo: agents.PolicyBundle(algo, hidden=16, seed=i)
                    for i, algo in enumerate(("td3", "sac", "ddpg"))}
        log = fusion.mcpft(model, policies, recs, tube_phantom, "tube", env_cfg,
                           schedule, seed=2)
        state = params_bytes(model.params())
        for name, p in policies.items():
            state.update(params_bytes({f"{name}.{k}": v for k, v in p.critic_params().items()}))
        return log, state

    pruned_log, pruned_state = run()
    pruned_nodes = [n for _, n in backward_log]
    backward_log.clear()
    keep_all_on_tape(monkeypatch, fusion)
    full_log, full_state = run()
    full_nodes = [n for _, n in backward_log]

    assert pruned_log["actor_loss"] == full_log["actor_loss"]
    assert pruned_log["supervised_loss"] == full_log["supervised_loss"]
    assert pruned_state == full_state
    assert len(pruned_nodes) == len(full_nodes) == 6 + 2 * 3  # actor + critic steps
    assert sum(pruned_nodes) < sum(full_nodes)


def test_mcpft_empty_dataset_rejected(tube_phantom, env_cfg, tiny_policies):
    with pytest.raises(FusionError, match="empty"):
        fusion.mcpft(tiny_model(), tiny_policies, [], tube_phantom, "tube",
                     env_cfg, McpftSchedule(iterations=1), seed=0)


@pytest.mark.parametrize("stage", ["supervised", "mcpft"])
def test_training_holds_one_tape(stage, tiny_policies):
    """Four consecutive updates peak no higher than one: `backward` releases
    each step's tape, so a loss still bound from the last step holds none
    while the next step records."""
    recs = make_records(n=8, t=12)
    cfg = FusionConfig(context=8, width=32, n_blocks=2, dropout=0.1)

    def train(updates):
        m = FusionModel(cfg, seed=0)
        if stage == "supervised":
            return fusion.pretrain(m, recs, TrainSchedule(
                iterations=1, updates_per_iter=updates, batch_size=32, lr=1e-4,
                warmup=1), seed=0)
        return fusion.mcpft(m, tiny_policies, recs, None, "tube", None, McpftSchedule(
            iterations=1, batch_size=32, actor_updates_per_iter=updates,
            critic_updates_per_iter=0), seed=0)

    _, one = traced_peak(lambda: train(1))
    _, four = traced_peak(lambda: train(4))
    assert four < 1.1 * one, (one, four)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_training_tape_has_six_nodes_per_block(n_blocks):
    """A training forward and its loss record 6 op nodes per block (two
    layernorms, attention, the MLP and two residual adds) on top of 44 for
    the embeddings, head and loss, so a layer split back into small ops
    shows here."""
    m = FusionModel(FusionConfig(context=6, width=16, n_blocks=n_blocks, dropout=0.1), seed=0)
    rtg, s, a = window(b=3, t=6)
    valid = np.ones((3, 6), dtype=np.float32)
    valid[0, :2] = 0.0
    pred = m.predict_actions(rtg, s, a, pad_mask=valid, training=True,
                             rng=np.random.default_rng(0))
    loss = loss_dist_cos(pred, a, valid)
    assert sum(t._grad_fn is not None for t in reachable(loss)) == 44 + 6 * n_blocks


# -- tracking -----------------------------------------------------------------

def test_fusion_tracker_runs(tube_phantom, env_cfg):
    m = tiny_model()
    runner = FusionTracker(m, tube_phantom, "tube", env_cfg, rtg0=10.0)
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    seeds = mask[[5, 20]].astype(np.float64)
    streams = runner.run(seeds)
    assert len(streams) == 2
    for i, s in enumerate(streams):
        assert len(s) >= 1
        np.testing.assert_allclose(s[0], seeds[i], atol=1e-5)


def test_fusion_tracker_transitions(tube_phantom, env_cfg):
    m = tiny_model()
    runner = FusionTracker(m, tube_phantom, "tube", env_cfg, rtg0=10.0)
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0)
    seeds = mask[[5, 20]].astype(np.float64)
    buf = agents.ReplayBuffer(len(seeds) * env_cfg.max_steps)
    streams = runner.run(seeds, buffer=buf)
    n = sum(len(x) - 1 for x in streams)
    assert buf.size == buf.idx == n  # one row per step, nothing wrapped
    s, a, r, s2, d = buf.sample(buf.size, np.random.default_rng(0))
    assert len(s) == len(a) == len(r) == len(s2) == len(d) == n
    assert d.sum() == buf.d.sum() == 2.0  # every episode terminates exactly once
    assert all(x.dtype == np.float32 for x in (s, a, r, s2, d))


def shifting_run(runner, seeds, hints=None, buffer=None):
    """`FusionTracker.run` as it was before the ring: every step slides each
    active row's window left one slot and writes the newest timestep last."""
    c, n = runner.context, len(seeds)
    r_buf = np.zeros((n, c), dtype=np.float32)
    s_buf = np.zeros((n, c, STATE_DIM), dtype=np.float32)
    a_buf = np.zeros((n, c, ACTION_DIM), dtype=np.float32)
    valid = np.zeros((n, c), dtype=np.float32)
    rtg = np.full(n, runner.rtg0, dtype=np.float64)

    def act(states):
        act_idx = np.nonzero(runner.tracker.active)[0]
        for buf in (valid, r_buf, s_buf, a_buf):
            for j in range(c - 1):
                buf[act_idx, j] = buf[act_idx, j + 1]
        r_buf[act_idx, -1] = rtg[act_idx]
        s_buf[act_idx, -1] = states[act_idx]
        a_buf[act_idx, -1] = 0.0
        valid[act_idx, -1] = 1.0
        actions = np.zeros((n, ACTION_DIM))
        for lo in range(0, len(act_idx), runner.CHUNK):
            rows = act_idx[lo:lo + runner.CHUNK]
            actions[rows] = runner.model.act(r_buf[rows], s_buf[rows], a_buf[rows],
                                             pad_mask=valid[rows])
        return actions

    def observe(live, states, actions, rewards, done, next_states):
        a_buf[live, -1] = actions[live]
        if buffer is not None:
            buffer.add_batch(states[live], actions[live], rewards[live],
                             next_states[live], done[live])
        rtg[live] = np.maximum(rtg[live] - rewards[live], 0.0)

    runner.tracker.run(seeds, hints, act, observe)
    return runner.tracker.streamlines()


def test_fusion_tracker_ring_matches_shifting_windows(tube_phantom, env_cfg):
    """The ring window gives the model the same windows as sliding them:
    streamlines and recorded transitions are byte-equal, across chunks and
    for episodes long enough that the ring wraps."""
    c = 5
    m = FusionModel(FusionConfig(context=c, width=16, n_blocks=2, dropout=0.0), seed=1)
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0).astype(np.float64)
    seeds = mask[np.arange(0, len(mask), 3)]
    hints = np.tile([1.0, 0.0, 0.0], (len(seeds), 1))
    hints[::2] *= -1
    # untrained actions turn sharply; a wide angle limit lets episodes run
    wide = dataclasses.replace(env_cfg, max_angle_deg=179.0)
    runner = FusionTracker(m, tube_phantom, "tube", wide, rtg0=10.0)
    runner.CHUNK = 16
    bufs = [agents.ReplayBuffer(len(seeds) * env_cfg.max_steps) for _ in range(2)]
    got = runner.run(seeds, hints, buffer=bufs[0])
    want = shifting_run(runner, seeds, hints, buffer=bufs[1])
    assert len(seeds) > runner.CHUNK and max(len(x) for x in got) > 2 * c + 1
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert bufs[0].idx == bufs[1].idx > 0
    for name in ("s", "a", "r", "s2", "d"):
        assert getattr(bufs[0], name).tobytes() == getattr(bufs[1], name).tobytes()


def test_fusion_tracker_memory_follows_chunk(tube_phantom, env_cfg):
    """Above its four window buffers, a run's traced peak stays within a few
    chunks' windows: sliding the windows copies no `n x context` block."""
    c, n = 32, 300
    m = FusionModel(FusionConfig(context=c, width=16, n_blocks=1, dropout=0.0), seed=0)
    mask = np.argwhere(tube_phantom.mask_for("tube").values > 0).astype(np.float64)
    runner = FusionTracker(m, tube_phantom, "tube", env_cfg, rtg0=10.0)
    streams, peak = traced_peak(lambda: runner.run(mask[np.arange(n) % len(mask)]))
    assert max(len(x) for x in streams) > 2
    per_row = c * (STATE_DIM + ACTION_DIM + 2) * 4
    assert peak - n * per_row < 4 * FusionTracker.CHUNK * per_row + 2 * 2**20, peak
