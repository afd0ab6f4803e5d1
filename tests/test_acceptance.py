"""Acceptance gate: eleven end-to-end criteria, each printing one PASS/FAIL
line. The heavyweight criteria drive the real CLI pipeline at desk scale."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_diff_grad, rel_err
from tractfuse import agents, cli, eds, fusion, geometry, trackeval
from tractfuse.autodiff import Tensor
from tractfuse.env import (REASON_LEFT_MASK, REASON_MAX_STEPS,
                           REASON_SHARP_ANGLE, STATE_DIM, BatchTracker, EnvConfig,
                           reward)
from tractfuse.fusion import (FusionConfig, FusionModel, McpftSchedule,
                              TrainSchedule, loss_dist_cos, mcpft_actor_loss,
                              sample_windows)

RNG = np.random.default_rng(2024)

# long enough that tube episodes can clear the 47-transition dataset filter
TUBE_CFG = "phantom.kind = straight-tube\nphantom.dims = 48,12,12\n"


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def run_cli(args):
    rc = cli.main(args)
    assert rc == 0, f"CLI failed ({rc}): {args}"


def manifest(out, stage):
    return json.loads((Path(out) / f"manifest_{stage}.json").read_text())


# -- shared desk pipelines ----------------------------------------------------

@pytest.fixture(scope="session")
def tube_run(tmp_path_factory):
    """Straight-tube desk run: phantom, three policies, EDS datasets."""
    out = tmp_path_factory.mktemp("tube_run")
    cfg = out / "run.cfg"
    cfg.write_text(TUBE_CFG)
    base = ["--preset", "desk", "--config", str(cfg), "--out", str(out)]
    t0 = time.time()
    run_cli(base + ["phantom"])
    per_policy = {}
    for algo in ("td3", "sac", "ddpg"):
        t = time.time()
        run_cli(base + ["train-rl", "--algo", algo])
        per_policy[algo] = time.time() - t
    run_cli(base + ["eds"])
    return {"out": out, "cfg": cfg, "base": base,
            "policy_seconds": per_policy, "total_seconds": time.time() - t0}


@pytest.fixture(scope="session")
def crossing_run(tmp_path_factory):
    """Full desk pipeline on the default two-bundle crossing phantom."""
    out = tmp_path_factory.mktemp("crossing_run")
    base = ["--preset", "desk", "--out", str(out)]
    t0 = time.time()
    run_cli(base + ["phantom"])
    for algo in ("td3", "sac", "ddpg"):
        run_cli(base + ["train-rl", "--algo", algo])
    run_cli(base + ["eds"])
    run_cli(base + ["pretrain"])
    bundles = ("bundle_a", "bundle_b")
    for b in bundles:
        run_cli(base + ["finetune", "--bundle", b])
        run_cli(base + ["mcpft", "--bundle", b])
    for algo in ("td3", "sac", "ddpg", "fusion"):
        for b in bundles:
            run_cli(base + ["track", "--algo", algo, "--bundle", b])
    run_cli(base + ["evaluate"])
    return {"out": out, "bundles": bundles, "total_seconds": time.time() - t0}


# -- criterion 1: gradient suite ----------------------------------------------

def test_criterion_01_gradient_suite(capsys):
    t0 = time.time()
    worst = 0.0

    def check(build, x0):
        nonlocal worst
        t = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
        build(t).backward()
        fd = finite_diff_grad(
            lambda x: float(build(Tensor(np.asarray(x, dtype=np.float64),
                                         requires_grad=True)).data), x0)
        err = rel_err(t.grad, fd) if np.abs(fd).max() > 1e-7 else \
            float(np.abs(t.grad - fd).max())
        worst = max(worst, err)
        assert err < 1e-5

    from tractfuse import autodiff as ad
    x = RNG.uniform(-0.9, 0.9, size=(3, 4))
    for build in [lambda t: (t * t).sum(), lambda t: ad.tanh(t).sum(),
                  lambda t: ad.relu(t).sum(), lambda t: ad.exp(t).mean(),
                  lambda t: ad.log(t + 2.0).sum(), lambda t: ad.sqrt(t + 2.0).sum(),
                  lambda t: (ad.softmax(t) * ad.tanh(t)).sum(),
                  lambda t: (ad.layernorm(t) ** 3.0).sum(),
                  lambda t: ad.arccos_clamped(ad.tanh(t)).sum(),
                  lambda t: ad.minimum(t, 0.1 * t).sum(),
                  lambda t: (t @ Tensor(np.ones((4, 2)))).sum(),
                  lambda t: t.reshape(4, 3).swapaxes(0, 1).mean()]:
        check(build, x)

    # composite losses on a randomized small model (width 16 <= 32, context 6 <= 8)
    cfg = FusionConfig(context=6, width=16, n_blocks=1, dropout=0.0)
    model = FusionModel(cfg, seed=1)
    for p in model.params().values():
        p.data = p.data.astype(np.float64)
    policies = {a: agents.PolicyBundle(a, hidden=8, seed=i)
                for i, a in enumerate(("td3", "sac", "ddpg"))}
    for pol in policies.values():
        for t_ in pol.critic_params().values():
            t_.data = t_.data.astype(np.float64)
    rtg = RNG.uniform(0, 3, size=(2, 6)).astype(np.float64)
    s = RNG.normal(size=(2, 6, STATE_DIM)).astype(np.float64)
    a = RNG.normal(size=(2, 6, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    valid = np.ones((2, 6), dtype=np.float64)

    def composite_losses():
        pred = model.predict_actions(rtg, s, a, pad_mask=valid)
        sup = loss_dist_cos(pred, a, valid)
        mc, _ = mcpft_actor_loss(model, policies, rtg, s, a, valid)
        return sup, mc

    checked = ["head.w", "head.b", "emb_state.w", "gpt.blk0.attn.qkv.w",
               "gpt.pos", "gpt.ln_f.g"]
    params = model.params()
    avail = [k for k in checked if k in params]
    assert len(avail) >= 4, f"probe names drifted: {sorted(params)[:10]}"
    for which in (0, 1):
        for name in avail:
            p = params[name]
            base = p.data.copy()
            loss = composite_losses()[which]
            for q in params.values():
                q.grad = None
            for pol in policies.values():
                for t_ in pol.critic_params().values():
                    t_.grad = None
            loss.backward()
            got = p.grad.copy()
            flat = base.reshape(-1)
            pick = RNG.choice(flat.size, size=min(6, flat.size), replace=False)
            fd_vals, got_vals = [], []
            for i in pick:
                h = 1e-5
                fplus = flat.copy(); fplus[i] += h
                p.data = fplus.reshape(base.shape)
                lp = float(composite_losses()[which].data)
                fminus = flat.copy(); fminus[i] -= h
                p.data = fminus.reshape(base.shape)
                lm = float(composite_losses()[which].data)
                p.data = base
                fd_vals.append((lp - lm) / (2 * h))
                got_vals.append(got.reshape(-1)[i])
            err = rel_err(got_vals, fd_vals)
            worst = max(worst, err)
            assert err < 1e-5, f"{name} loss{which}: {err}"

    dt = time.time() - t0
    assert dt < 60.0
    announce(capsys, f"ACCEPTANCE 01 gradient-suite: PASS "
                     f"(max rel err {worst:.2e}, {dt:.1f}s)")


# -- criterion 2: reward oracle -----------------------------------------------

def test_criterion_02_reward_oracle(capsys):
    """`env.reward` is the formula `BatchTracker.step` pays every reward
    through; it takes unit actions and a padded peak table per row."""
    def oracle(a, prev, peaks):
        a = np.asarray(a, dtype=np.float64)
        a = a / np.linalg.norm(a)
        if len(peaks) == 0:
            return 0.0
        best = max(abs(float(np.dot(p, a))) for p in peaks)
        u = 1.0 if prev is None else float(
            np.dot(a, np.asarray(prev) / np.linalg.norm(prev)))
        return best * u

    def batch_reward(cases):
        a = np.array([a for a, _, _ in cases], dtype=np.float64)
        prev = np.array([(1, 0, 0) if p is None else p for _, p, _ in cases], dtype=np.float64)
        dirs = np.zeros((len(cases), 3, 3))
        for i, (_, _, peaks) in enumerate(cases):
            dirs[i, :len(peaks)] = np.reshape(peaks, (-1, 3))
        return reward(a / np.linalg.norm(a, axis=1, keepdims=True),
                      prev / np.linalg.norm(prev, axis=1, keepdims=True),
                      np.array([p is not None for _, p, _ in cases]),
                      np.array([len(peaks) for _, _, peaks in cases]), dirs)

    listed = [((1, 0, 0), (1, 0, 0), [(1, 0, 0)]),
              ((1, 0, 0), (0, 1, 0), [(1, 0, 0)]),
              ((np.sqrt(2) / 2, np.sqrt(2) / 2, 0), (1, 0, 0), [(1, 0, 0), (0, 1, 0)])]
    for case, want in zip(listed, (1.0, 0.0, 0.5)):
        assert batch_reward([case])[0] == pytest.approx(want, abs=1e-6)
    cases = []
    for _ in range(100):
        a = RNG.normal(size=3)
        while np.linalg.norm(a) < 1e-3:
            a = RNG.normal(size=3)
        prev = None if RNG.random() < 0.25 else RNG.normal(size=3)
        peaks = [v / np.linalg.norm(v) for v in RNG.normal(size=(int(RNG.integers(0, 4)), 3))]
        cases.append((a, prev, peaks))
    worst = 0.0
    for got, case in zip(batch_reward(cases), cases):
        diff = abs(got - oracle(*case))
        worst = max(worst, diff)
        assert diff <= 1e-6
    announce(capsys, f"ACCEPTANCE 02 reward-oracle: PASS (100 cases, max |diff| {worst:.1e})")


# -- criterion 3: termination -------------------------------------------------

def test_criterion_03_termination(capsys, tube_phantom, env_cfg):
    def fresh(cfg):
        tracker = BatchTracker(tube_phantom, "tube", cfg)
        tracker.reset(np.array([12.0, 6.0, 6.0]))  # a one-episode batch
        return tracker

    tracker = fresh(env_cfg)
    assert not tracker.step([(1.0, 0, 0)])[1][0]
    _, done = tracker.step([(0.0, 1.0, 0)])
    assert done[0] and tracker.reasons[0] == REASON_SHARP_ANGLE

    tracker = fresh(env_cfg)
    reason = None
    for _ in range(50):
        _, done = tracker.step([(0.0, 0, 1.0)])
        if done[0]:
            reason = tracker.reasons[0]
            break
    assert reason == REASON_LEFT_MASK

    tracker = fresh(EnvConfig(step_size=0.01, max_steps=5))
    for _ in range(5):
        _, done = tracker.step([(1.0, 0, 0)])
    assert done[0] and tracker.reasons[0] == REASON_MAX_STEPS
    announce(capsys, "ACCEPTANCE 03 termination: PASS "
                     "(sharp_angle / left_mask / max_steps each triggered exactly)")


# -- criterion 4: MDF / farthest sampling -------------------------------------

def test_criterion_04_mdf_farthest_oracle(capsys):
    def rand_stream(rng):
        n = int(rng.integers(4, 25))
        return np.cumsum(rng.normal(scale=0.5, size=(n, 3)), axis=0)

    rng = np.random.default_rng(7)
    for _ in range(30):
        s = rand_stream(rng)
        a = geometry.resample(s, 20)
        assert geometry.mdf(a, a) <= 1e-6
        assert geometry.mdf(a, geometry.resample(s[::-1], 20)) <= 1e-6
    off = rng.uniform(0.5, 4.0)
    base = np.zeros((20, 3)); base[:, 0] = np.linspace(0, 10, 20)
    shifted = base.copy(); shifted[:, 1] = off
    assert abs(geometry.mdf(base, shifted) - off) <= 1e-6

    for pool_size, n in ((12, 5), (30, 8), (50, 10)):
        pool = [rand_stream(rng) for _ in range(pool_size)]
        rs = [geometry.resample(s, 20) for s in pool]
        _, idx = geometry.farthest_sample(pool, n, start_index=0)
        chosen = [0]
        while len(chosen) < n:
            best_i, best_d = None, -1.0
            for i in range(pool_size):
                if i in chosen:
                    continue
                d = min(geometry.mdf(rs[i], rs[j]) for j in chosen)
                if d > best_d + 1e-12:
                    best_i, best_d = i, d
            chosen.append(best_i)
        assert list(idx) == chosen
    announce(capsys, "ACCEPTANCE 04 mdf-farthest-oracle: PASS "
                     "(exhaustive greedy match on pools 12/30/50)")


# -- criterion 5: EDS dataset integrity ---------------------------------------

def test_criterion_05_eds_integrity(capsys, tube_run):
    out = tube_run["out"]
    pre = eds.load_records(out / "eds_pretrain.eds")
    fin = eds.load_records(out / "eds_finetune_bundle.eds")
    assert pre and fin, "desk EDS run produced empty datasets"

    from tractfuse import pipeline
    phantom = pipeline.load_phantom_with_gt(out)
    gt = phantom.bundles["bundle"]
    refs = geometry.build_reference_set(gt, count=min(15, len(gt)),
                                        voxel_size=phantom.grid.voxel_size)
    assert all(r.length >= 47 for r in fin)
    assert np.all(geometry.min_mdf_to_refs([r.streamline for r in fin], refs,
                                           phantom.grid.voxel_size) <= 5.0)
    for r in pre + fin:
        np.testing.assert_array_equal(r.rtg, eds.compute_rtg(r.rewards))

    # single-policy provenance within one harvest batch
    policies = {a: agents.PolicyBundle.load(out / f"policy_{a}.ckp")
                for a in ("td3", "sac", "ddpg")}
    from tractfuse.env import EnvConfig
    grouped = eds.harvest(policies, phantom, "bundle", (8, 4, 4),
                          eds.HarvestSpec(window=4, seeds_per_voxel=2),
                          EnvConfig(step_size=0.5, max_steps=60),
                          np.random.default_rng(0))
    sel, winner = eds.across_policy_select(grouped, policies)
    assert winner is not None
    assert {r.policy_id for r in sel} == {winner}
    announce(capsys, f"ACCEPTANCE 05 eds-integrity: PASS "
                     f"({len(fin)} finetune records all T>=47 & MDF<=5mm, "
                     f"rtg exact, single-policy batches)")


# -- criterion 6: causality and freeze ----------------------------------------

def test_criterion_06_causality_and_freeze(capsys):
    cfg = FusionConfig(context=6, width=16, n_blocks=2, dropout=0.0)
    recs_rng = np.random.default_rng(0)

    def records():
        out = []
        for _ in range(6):
            t = 12
            a = recs_rng.normal(size=(t, 3))
            a /= np.linalg.norm(a, axis=-1, keepdims=True)
            rw = recs_rng.uniform(0, 1, size=t).astype(np.float32)
            sl = np.cumsum(np.concatenate([[np.zeros(3)], a * 0.5]), axis=0)
            out.append(eds.TrajectoryRecord(
                states=recs_rng.normal(size=(t, STATE_DIM)).astype(np.float32),
                actions=a.astype(np.float32), rewards=rw, rtg=eds.compute_rtg(rw),
                policy_id="td3", streamline=sl.astype(np.float32),
                bundle_name="tube"))
        return out

    def causal(model):
        rtg = RNG.uniform(0, 3, size=(1, 6)).astype(np.float32)
        s = RNG.normal(size=(1, 6, STATE_DIM)).astype(np.float32)
        a = RNG.normal(size=(1, 6, 3)).astype(np.float32)
        base = model.predict_actions(rtg, s, a).data
        for t in range(1, 6):
            r2, s2, a2 = rtg.copy(), s.copy(), a.copy()
            r2[0, t] += 2.0; s2[0, t] += 1.0; a2[0, t] = -a2[0, t]
            out = model.predict_actions(r2, s2, a2).data
            if not np.array_equal(out[0, :t], base[0, :t]):
                return False
        return True

    model = FusionModel(cfg, seed=3)
    assert causal(model), "untrained model leaks future tokens"
    schedule = TrainSchedule(iterations=1, updates_per_iter=20, batch_size=4,
                             lr=1e-3, warmup=5)
    fusion.pretrain(model, records(), schedule, seed=0)
    assert causal(model), "pretrained model leaks future tokens"
    frozen_before = {k: v.data.tobytes() for k, v in model.frozen_params().items()}
    fusion.finetune(model, records(), schedule, seed=1)
    assert causal(model), "finetuned model leaks future tokens"
    for k, v in model.frozen_params().items():
        assert v.data.tobytes() == frozen_before[k], f"frozen param {k} changed"
    announce(capsys, "ACCEPTANCE 06 causality-freeze: PASS "
                     "(no future leakage at any stage; frozen params bit-identical)")


# -- criterion 7: desk-scale learning signal ----------------------------------

def test_criterion_07_learning_signal(capsys, tube_run):
    ratios = {}
    for algo in ("td3", "sac", "ddpg"):
        m = manifest(tube_run["out"], f"train-rl-{algo}")
        base = m["extras"]["random_baseline_per_step"]["bundle"]
        trained = m["extras"]["reward_per_step"]["bundle"]
        assert base > 0
        ratios[algo] = trained / base
        assert trained >= 3.0 * base, f"{algo}: {trained:.3f} < 3x {base:.3f}"
        assert tube_run["policy_seconds"][algo] < 600.0
    announce(capsys, "ACCEPTANCE 07 learning-signal: PASS ("
             + ", ".join(f"{a} {r:.1f}x in {tube_run['policy_seconds'][a]:.0f}s"
                         for a, r in ratios.items()) + ")")


# -- criterion 8: end-to-end fusion -------------------------------------------

def test_criterion_08_end_to_end_fusion(capsys, crossing_run):
    rows = trackeval.read_scores(crossing_run["out"] / "scores.tsv")
    dice = {(b, a): s.dice for b, a, s in rows}
    details = []
    for b in crossing_run["bundles"]:
        fused = dice[(b, "fusion")]
        best = max(dice[(b, a)] for a in ("td3", "sac", "ddpg"))
        assert fused >= 0.5, f"{b}: fusion Dice {fused:.3f} < 0.5"
        assert fused >= best - 0.05, \
            f"{b}: fusion {fused:.3f} < best individual {best:.3f} - 0.05"
        details.append(f"{b} fusion {fused:.3f} vs best {best:.3f}")
    assert crossing_run["total_seconds"] < 1800.0
    announce(capsys, f"ACCEPTANCE 08 end-to-end-fusion: PASS "
                     f"({'; '.join(details)}; {crossing_run['total_seconds']:.0f}s)")


# -- criterion 9: metrics -----------------------------------------------------

def test_criterion_09_metrics(capsys):
    g = np.zeros((5, 5, 2), dtype=np.uint8)
    c = np.zeros((5, 5, 2), dtype=np.uint8)
    g.reshape(-1)[:10] = 1
    c.reshape(-1)[:6] = 1
    c.reshape(-1)[10:12] = 1
    s = trackeval.score(c, g)
    assert s.ol == pytest.approx(0.6, abs=1e-12)
    assert s.or_ == pytest.approx(0.2, abs=1e-12)
    assert s.dice == pytest.approx(2 * 6 / 18, abs=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(50):
        g = (rng.random((6, 6, 3)) < 0.4).astype(np.uint8)
        if not g.sum():
            g[0, 0, 0] = 1
        c = ((rng.random((6, 6, 3)) < 0.5) & (g > 0)).astype(np.uint8)
        base = trackeval.score(c, g)
        spots = np.argwhere((g == 0) & (c == 0))
        if len(spots):
            c2 = c.copy(); c2[tuple(spots[0])] = 1
            s2 = trackeval.score(c2, g)
            assert s2.or_ > base.or_ and s2.ol == base.ol
    announce(capsys, "ACCEPTANCE 09 metrics: PASS "
                     "(OL 0.6 / OR 0.2 / Dice 0.667 worked example; monotonicity)")


# -- criterion 10: reproducibility --------------------------------------------

def test_criterion_10_reproducibility(capsys, tmp_path, tube_run):
    outputs = {}
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        base = ["--preset", "desk", "--config", str(tube_run["cfg"]),
                "--out", str(out)]
        run_cli(base + ["phantom"])
        run_cli(base + ["train-rl", "--algo", "td3"])
        outputs[tag] = {stage: manifest(out, stage)["outputs"]
                        for stage in ("phantom", "train-rl-td3")}
    assert outputs["r1"] == outputs["r2"]
    n = sum(len(v) for v in outputs["r1"].values())
    announce(capsys, f"ACCEPTANCE 10 reproducibility: PASS "
                     f"({n} artifacts byte-identical across reruns)")


# -- criterion 11: MCPFT schedule ---------------------------------------------

def test_criterion_11_mcpft_schedule(capsys, tube_phantom, env_cfg):
    cfg = FusionConfig(context=6, width=16, n_blocks=1, dropout=0.0)
    model = FusionModel(cfg, seed=0)
    policies = {a: agents.PolicyBundle(a, hidden=8, seed=i)
                for i, a in enumerate(("td3", "sac", "ddpg"))}
    rng = np.random.default_rng(0)
    records = []
    for _ in range(6):
        t = 12
        a = rng.normal(size=(t, 3))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        rw = rng.uniform(0, 1, size=t).astype(np.float32)
        sl = np.cumsum(np.concatenate([[np.zeros(3)], a * 0.5]), axis=0)
        records.append(eds.TrajectoryRecord(
            states=rng.normal(size=(t, STATE_DIM)).astype(np.float32),
            actions=a.astype(np.float32), rewards=rw, rtg=eds.compute_rtg(rw),
            policy_id="td3", streamline=sl.astype(np.float32), bundle_name="tube"))

    # default cadence: 1000 actor updates then exactly 1 update per critic
    schedule = McpftSchedule(iterations=1, batch_size=2, actor_updates_per_iter=1000,
                             critic_updates_per_iter=1, lr=1e-5,
                             rollout_episodes=2, rtg0=10.0)
    log = fusion.mcpft(model, policies, records, tube_phantom, "tube", env_cfg,
                       schedule, seed=0)
    assert log["actor_updates"] == [1000]
    for name in policies:
        assert log["critic_updates"][name] == [1]

    # zeroed critics: MCPFT gradient == pure angular-loss gradient to 1e-6
    for p in policies.values():
        for c in p.critics:
            for layer in c.layers:
                layer.w.data[...] = 0.0
                layer.b.data[...] = 0.0
    rtg, s, a, valid = sample_windows(records, 6, 4, np.random.default_rng(1))
    m1 = FusionModel(cfg, seed=5)
    total, _ = mcpft_actor_loss(m1, policies, rtg, s, a, valid)
    total.backward()
    g1 = {k: v.grad for k, v in m1.params().items() if v.grad is not None}
    m2 = FusionModel(cfg, seed=5)
    loss_dist_cos(m2.predict_actions(rtg, s, a, pad_mask=valid), a, valid).backward()
    g2 = {k: v.grad for k, v in m2.params().items() if v.grad is not None}
    assert set(g1) == set(g2)
    worst = max(float(np.abs(g1[k] - g2[k]).max()) for k in g1)
    assert worst <= 1e-6
    announce(capsys, f"ACCEPTANCE 11 mcpft-schedule: PASS "
                     f"(counters 1000/1; zeroed-critic grad diff {worst:.1e})")
