"""RL policy-bundle tests: action bounds, twin-critic rule, soft updates,
TD targets against hand-built transitions, tanh-Gaussian log-density via
numerical integration, and checkpoint round-trips."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keep_all_on_tape
from tractfuse import agents, nn
from tractfuse.agents import (ACTION_DIM, PolicyBundle, ReplayBuffer, RlHyper,
                              sac_log_prob, uniform_actions)
from tractfuse.env import STATE_DIM, BatchTracker

RNG = np.random.default_rng(44)


def states(n):
    return RNG.normal(size=(n, STATE_DIM)).astype(np.float32)


def test_action_bounds(tiny_policies):
    s = states(16)
    rng = np.random.default_rng(1)
    for algo, p in tiny_policies.items():
        for mode in ("deterministic", "explore"):
            a = p.act(s, mode=mode, rng=rng)
            assert a.shape == (16, ACTION_DIM)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_td3_sigma_zero_explore_equals_deterministic():
    p = PolicyBundle("td3", hyper=RlHyper(lr=1e-3, sigma=0.0, gamma=0.9), hidden=8)
    s = states(4)
    np.testing.assert_allclose(p.act(s, mode="explore", rng=np.random.default_rng(0)),
                               p.act(s, mode="deterministic"), atol=1e-12)


def test_explore_reproducible(tiny_policies):
    s = states(8)
    for p in tiny_policies.values():
        a1 = p.act(s, mode="explore", rng=np.random.default_rng(5))
        a2 = p.act(s, mode="explore", rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a1, a2)


def test_state_width_error(tiny_policies):
    with pytest.raises(ValueError, match=str(STATE_DIM)):
        tiny_policies["td3"].act(np.zeros((1, 10), dtype=np.float32))


def test_unknown_algo_rejected():
    with pytest.raises(ValueError, match="unknown"):
        PolicyBundle("ppo", hidden=8)


def test_critic_counts(tiny_policies):
    assert len(tiny_policies["ddpg"].critics) == 1
    assert len(tiny_policies["td3"].critics) == 2
    assert len(tiny_policies["sac"].critics) == 2


def test_q_value_twin_minimum():
    p = PolicyBundle("td3", hidden=8, seed=0)
    s, a = states(5), RNG.uniform(-1, 1, size=(5, 3)).astype(np.float32)
    x = np.concatenate([s, a], axis=1)
    q0 = p.critics[0].infer(x)[:, 0]
    q1 = p.critics[1].infer(x)[:, 0]
    np.testing.assert_allclose(p.q_value(s, a), np.minimum(q0, q1), rtol=1e-6)


def test_q_value_zero_weight_critic_is_zero():
    p = PolicyBundle("ddpg", hidden=8, seed=0)
    for layer in p.critics[0].layers:
        layer.w.data[...] = 0.0
        layer.b.data[...] = 0.0
    np.testing.assert_array_equal(p.q_value(states(3), np.zeros((3, 3))), 0.0)


def test_soft_update_exact(monkeypatch):
    monkeypatch.setattr(agents, "TAU", 0.25)
    p = PolicyBundle("td3", hyper=RlHyper(lr=1e-3, sigma=0.1, gamma=0.9), hidden=8, seed=2)
    src = p.actor.layers[0].w.data.copy()
    dst = p.target_actor.layers[0].w.data.copy()
    p.soft_update()
    np.testing.assert_allclose(p.target_actor.layers[0].w.data,
                               0.75 * dst + 0.25 * src, rtol=1e-6)


def test_soft_update_tau_one_copies(monkeypatch):
    monkeypatch.setattr(agents, "TAU", 1.0)
    p = PolicyBundle("sac", hyper=RlHyper(lr=1e-3, sigma=0.1, gamma=0.9), hidden=8, seed=3)
    p.soft_update()
    for tc, c in zip(p.target_critics, p.critics):
        for lt, lc in zip(tc.layers, c.layers):
            np.testing.assert_allclose(lt.w.data, lc.w.data, rtol=1e-6)


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_soft_update_in_place_bit_equal(algo, monkeypatch):
    """Every target array is lerped in place, to the bits of
    `(1 - tau)*dst + tau*src`."""
    monkeypatch.setattr(agents, "TAU", 0.3)
    p = PolicyBundle(algo, hyper=RlHyper(lr=1e-3, sigma=0.1, gamma=0.9), hidden=8, seed=5)
    rng = np.random.default_rng(6)
    pairs = [(p.target_actor.params(), p.actor.params())]
    pairs += [(tc.params(), c.params()) for tc, c in zip(p.target_critics, p.critics)]
    targets, expect = [], []
    for dst, src in pairs:
        for k in dst:
            src[k].data += rng.normal(size=src[k].shape).astype(np.float32)
            targets.append(dst[k].data)
            expect.append((1 - 0.3) * dst[k].data + 0.3 * src[k].data)
    p.soft_update()
    got = [t.data for dst, _ in pairs for t in dst.values()]
    assert all(g is t for g, t in zip(got, targets))  # written in place
    for g, e in zip(got, expect):
        assert g.dtype == np.float32 and g.tobytes() == e.tobytes()


def _act_two_forwards(p, s, mode, rng):
    """`PolicyBundle.act` as it was, with a second actor forward for SAC."""
    mean = np.tanh(p.actor.infer(s))
    if mode == "deterministic":
        return mean
    if p.algo == "sac":
        raw = p.actor.infer(s)
        return np.tanh(raw + np.exp(p.log_std.data) * rng.standard_normal(raw.shape))
    return np.clip(mean + rng.normal(0.0, p.hyper.sigma, size=mean.shape), -1.0, 1.0)


@pytest.mark.parametrize("algo", agents.ALGOS)
@pytest.mark.parametrize("mode", ["deterministic", "explore"])
def test_act_one_forward_same_actions(algo, mode, monkeypatch):
    p = PolicyBundle(algo, hidden=16, seed=7)
    s = states(9)
    expect_rng = np.random.default_rng(11)
    expect = _act_two_forwards(p, s, mode, expect_rng)
    forwards = []
    original = nn.Mlp.infer

    def counting(mlp, x):
        forwards.append(mlp)
        return original(mlp, x)

    monkeypatch.setattr(nn.Mlp, "infer", counting)
    rng = np.random.default_rng(11)
    got = p.act(s, mode=mode, rng=rng)
    assert forwards == [p.actor]
    assert got.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == expect_rng.bit_generator.state


# -- log-density of the squashed Gaussian -------------------------------------

def test_sac_log_prob_integrates_to_one():
    """Numerical quadrature oracle: per-dimension density integrates to 1."""
    mean, log_std = 0.3, np.log(0.5)
    a = np.linspace(-1 + 1e-6, 1 - 1e-6, 20001)
    lp = sac_log_prob(mean, log_std, a)
    integral = np.trapezoid(np.exp(lp), a)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_sac_sample_logp_matches_numpy_density():
    p = PolicyBundle("sac", hidden=8, seed=1)
    s = states(6)
    from tractfuse.autodiff import Tensor
    a, logp = agents._sac_sample(p, Tensor(s), np.random.default_rng(0))
    raw = p.actor.infer(s)
    expect = sac_log_prob(raw, p.log_std.data, a.data).sum(axis=-1)
    np.testing.assert_allclose(logp.data, expect, rtol=1e-3, atol=1e-3)


# -- replay buffer ------------------------------------------------------------

def test_replay_ring_wraps():
    buf = ReplayBuffer(capacity=10)
    for i in range(3):
        n = 6
        buf.add_batch(states(n), np.zeros((n, 3), dtype=np.float32),
                      np.full(n, float(i), dtype=np.float32), states(n),
                      np.zeros(n, dtype=np.float32))
    assert buf.size == 10
    assert buf.idx == 8


def test_replay_sample_reproducible():
    buf = ReplayBuffer(capacity=50)
    buf.add_batch(states(30), RNG.normal(size=(30, 3)).astype(np.float32),
                  np.arange(30, dtype=np.float32), states(30),
                  np.zeros(30, dtype=np.float32))
    s1 = buf.sample(8, np.random.default_rng(7))
    s2 = buf.sample(8, np.random.default_rng(7))
    for a, b in zip(s1, s2):
        np.testing.assert_array_equal(a, b)


def test_replay_sample_capped_at_size():
    buf = ReplayBuffer(capacity=50)
    buf.add_batch(states(5), np.zeros((5, 3), dtype=np.float32),
                  np.zeros(5, dtype=np.float32), states(5), np.zeros(5, dtype=np.float32))
    out = buf.sample(20, np.random.default_rng(0))
    assert len(out[2]) == 5


def _old_mcpft_pick(flat, batch_size, rng):
    """The critic-batch draw `fusion.mcpft` made by hand from the flat
    transition arrays before it sampled a `ReplayBuffer`."""
    ts, ta, tr, ts2, td = flat
    pick = rng.choice(len(tr), size=min(batch_size, len(tr)), replace=False)
    return ts[pick], ta[pick], tr[pick], ts2[pick], td[pick]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunks=st.lists(st.integers(1, 30), min_size=1,
                                                       max_size=6),
       spare=st.integers(0, 20), batch_size=st.integers(1, 200))
def test_replay_sample_matches_old_mcpft_pick(seed, chunks, spare, batch_size):
    data = np.random.default_rng(seed)
    size = sum(chunks)
    flat = (data.normal(size=(size, STATE_DIM)).astype(np.float32),
            data.uniform(-1, 1, (size, ACTION_DIM)).astype(np.float32),
            data.normal(size=size).astype(np.float32),
            data.normal(size=(size, STATE_DIM)).astype(np.float32),
            (data.random(size) < 0.2).astype(np.float32))
    buf = ReplayBuffer(size + spare)  # sized like mcpft's buffer: it never wraps
    lo = 0
    for n in chunks:
        buf.add_batch(*(x[lo:lo + n] for x in flat))
        lo += n
    rng_new, rng_old = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = buf.sample(batch_size, rng_new)
    want = _old_mcpft_pick(flat, batch_size, rng_old)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float32
        assert g.tobytes() == w.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _old_random_rollout(tracker, seeds, hints, rng, buffer):
    """Kept copy of `rollout(..., random_actions=True)` before actors became
    callables: draws sized by `tracker.n`, explicit float32 casts."""
    total_r, total_steps = 0.0, 0

    def act(states):
        acts = rng.uniform(-1.0, 1.0, size=(tracker.n, ACTION_DIM))
        acts[np.linalg.norm(acts, axis=1) < 1e-6] = [1.0, 0.0, 0.0]
        return acts

    def observe(live, states, acts, rewards, done, next_states):
        nonlocal total_r, total_steps
        buffer.add_batch(states[live], acts[live].astype(np.float32), rewards[live],
                         next_states[live], done[live].astype(np.float32))
        total_r += rewards[live].sum()
        total_steps += len(live)

    tracker.run(seeds, hints, act, observe)
    return total_r, total_steps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_actions_rollout_matches_old_random_branch(tube_phantom, env_cfg, seed):
    seeds, hints = agents.sample_seeds(tube_phantom, "tube", 12,
                                       np.random.default_rng(seed))
    runs = []
    for roll in ("old", "new"):
        rng = np.random.default_rng(seed + 100)
        tracker = BatchTracker(tube_phantom, "tube", env_cfg)
        buf = ReplayBuffer(12 * env_cfg.max_steps + 5)
        if roll == "old":
            totals = _old_random_rollout(tracker, seeds, hints, rng, buf)
        else:
            totals = agents.rollout(partial(uniform_actions, rng=rng), tracker, seeds,
                                    hints, buffer=buf)
        runs.append((totals, buf, rng.bit_generator.state))
    (old_totals, old_buf, old_rng), (new_totals, new_buf, new_rng) = runs
    assert new_totals == old_totals
    assert new_buf.size == old_buf.size > 12
    assert (new_buf.idx, new_buf.size) == (old_buf.idx, old_buf.size)
    for name in ("s", "a", "r", "s2", "d"):
        assert getattr(new_buf, name).tobytes() == getattr(old_buf, name).tobytes()
    assert new_rng == old_rng


def test_uniform_actions_sized_by_states():
    rng = np.random.default_rng(3)
    acts = uniform_actions(np.zeros((5, STATE_DIM), dtype=np.float32), rng)
    assert acts.shape == (5, ACTION_DIM)
    assert np.all(np.abs(acts) <= 1.0)
    assert np.all(np.linalg.norm(acts, axis=1) > 0)


# -- updates ------------------------------------------------------------------

def small_batch(n=12, reward=1.5, done=1.0):
    return (states(n), RNG.uniform(-1, 1, (n, 3)).astype(np.float32),
            np.full(n, reward, dtype=np.float32), states(n),
            np.full(n, done, dtype=np.float32))


def test_gamma_zero_target_is_reward():
    """With gamma=0 the critic regresses pure rewards: loss equals the
    hand-computed MSE against r."""
    p = PolicyBundle("ddpg", hyper=RlHyper(lr=0.0, sigma=0.1, gamma=0.0), hidden=8)
    batch = small_batch(done=0.0)
    opt = nn.AdamW(p.critic_params(), lr=0.0)
    loss = agents.update_critics(p, opt, batch, np.random.default_rng(0))
    s, a, r, _, _ = batch
    q = p.critics[0].infer(np.concatenate([s, a], axis=1))[:, 0]
    assert loss == pytest.approx(float(np.mean((q - r) ** 2)), rel=1e-5)


def test_done_transition_target_is_reward_any_gamma():
    p = PolicyBundle("ddpg", hyper=RlHyper(lr=0.0, sigma=0.1, gamma=0.9), hidden=8)
    batch = small_batch(done=1.0)
    opt = nn.AdamW(p.critic_params(), lr=0.0)
    loss = agents.update_critics(p, opt, batch, np.random.default_rng(0))
    s, a, r, _, _ = batch
    q = p.critics[0].infer(np.concatenate([s, a], axis=1))[:, 0]
    assert loss == pytest.approx(float(np.mean((q - r) ** 2)), rel=1e-5)


def test_zero_lr_is_noop():
    p = PolicyBundle("td3", hyper=RlHyper(lr=0.0, sigma=0.1, gamma=0.9), hidden=8)
    before = {k: v.data.copy() for k, v in
              {**p.actor_params(), **p.critic_params()}.items()}
    copt = nn.AdamW(p.critic_params(), lr=0.0)
    aopt = nn.AdamW(p.actor_params(), lr=0.0)
    batch = small_batch()
    agents.update_critics(p, copt, batch, np.random.default_rng(0))
    agents._update_actor(p, aopt, batch, np.random.default_rng(0))
    after = {**p.actor_params(), **p.critic_params()}
    for k, v in before.items():
        np.testing.assert_array_equal(after[k].data, v)


def test_actor_update_leaves_critics_unchanged():
    p = PolicyBundle("td3", hyper=RlHyper(lr=1e-2, sigma=0.1, gamma=0.9), hidden=8)
    critics_before = {k: v.data.copy() for k, v in p.critic_params().items()}
    aopt = nn.AdamW(p.actor_params(), lr=1e-2)
    agents._update_actor(p, aopt, small_batch(), np.random.default_rng(0))
    for k, v in p.critic_params().items():
        np.testing.assert_array_equal(v.data, critics_before[k])
    # and critic grads were cleared, so a later critic step is unaffected
    assert all(v.grad is None for v in p.critic_params().values())


@pytest.mark.parametrize("algo", agents.ALGOS)
@pytest.mark.parametrize("update", ["critic", "actor", "actor-state"])
def test_nan_loss_raises_before_any_write(algo, update):
    """A NaN reward (critic update), NaN critic weights (actor update) or a
    NaN state (actor update; the taped ReLUs keep it) stop the update with
    `TrainingDiverged`, a RuntimeError (so the CLI exits 2), naming the
    loss; no parameter's bytes change and the optimizer takes no step."""
    p = PolicyBundle(algo, hyper=RlHyper(lr=1e-2, sigma=0.1, gamma=0.9, alpha=0.1), hidden=8)
    s, a, r, s2, d = small_batch(done=0.0)
    if update == "critic":
        r[3] = np.nan
        opt, step = nn.AdamW(p.critic_params(), lr=1e-2), agents.update_critics
    else:
        if update == "actor":
            for v in p.critic_params().values():
                v.data[...] = np.nan
        else:
            s[5, 2] = np.nan
        opt, step = nn.AdamW(p.actor_params(), lr=1e-2), agents._update_actor
    before = {k: v.data.tobytes() for k, v in p.params().items()}
    loss = update.partition("-")[0]
    with pytest.raises(nn.TrainingDiverged, match=f"non-finite {loss} loss"):
        step(p, opt, (s, a, r, s2, d), np.random.default_rng(0))
    assert issubclass(nn.TrainingDiverged, RuntimeError)
    assert {k: v.data.tobytes() for k, v in p.params().items()} == before
    assert opt.step_count == 0


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_actor_update_pruned_tape_same_bytes(algo, monkeypatch, backward_log):
    """Actor updates with the critics frozen give the bytes of the full
    tape, where critic grads were computed and then cleared."""
    batches = [small_batch(n=16) for _ in range(3)]
    hyper = RlHyper(lr=1e-2, sigma=0.3, gamma=0.9, alpha=0.1)

    def run():
        p = PolicyBundle(algo, hyper=hyper, hidden=16, seed=4)
        opt = nn.AdamW(p.actor_params(), lr=1e-2)
        rng = np.random.default_rng(8)
        losses = [agents._update_actor(p, opt, b, rng) for b in batches]
        return losses, {k: v.data.tobytes()
                        for k, v in {**p.actor_params(), **p.critic_params()}.items()}

    pruned_losses, pruned_state = run()
    pruned_nodes = [n for _, n in backward_log]
    backward_log.clear()
    keep_all_on_tape(monkeypatch, agents)
    full_losses, full_state = run()
    full_nodes = [n for _, n in backward_log]

    assert pruned_losses == full_losses
    assert pruned_state == full_state
    assert len(pruned_nodes) == len(full_nodes) == 3
    assert all(a < b for a, b in zip(pruned_nodes, full_nodes))


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_params_names_every_tensor_in_checkpoint_order(algo):
    literal = {
        "td3": ["actor.l0.w", "actor.l0.b", "actor.l1.w", "actor.l1.b", "actor.l2.w",
                "actor.l2.b", "actor.l3.w", "actor.l3.b",
                "critic0.l0.w", "critic0.l0.b", "critic0.l1.w", "critic0.l1.b",
                "critic0.l2.w", "critic0.l2.b", "critic0.l3.w", "critic0.l3.b",
                "critic1.l0.w", "critic1.l0.b", "critic1.l1.w", "critic1.l1.b",
                "critic1.l2.w", "critic1.l2.b", "critic1.l3.w", "critic1.l3.b",
                "target_critic0.l0.w", "target_critic0.l0.b", "target_critic0.l1.w",
                "target_critic0.l1.b", "target_critic0.l2.w", "target_critic0.l2.b",
                "target_critic0.l3.w", "target_critic0.l3.b",
                "target_critic1.l0.w", "target_critic1.l0.b", "target_critic1.l1.w",
                "target_critic1.l1.b", "target_critic1.l2.w", "target_critic1.l2.b",
                "target_critic1.l3.w", "target_critic1.l3.b",
                "target_actor.l0.w", "target_actor.l0.b", "target_actor.l1.w",
                "target_actor.l1.b", "target_actor.l2.w", "target_actor.l2.b",
                "target_actor.l3.w", "target_actor.l3.b"],
        "sac": ["actor.l0.w", "actor.l0.b", "actor.l1.w", "actor.l1.b", "actor.l2.w",
                "actor.l2.b", "actor.l3.w", "actor.l3.b", "actor.log_std",
                "critic0.l0.w", "critic0.l0.b", "critic0.l1.w", "critic0.l1.b",
                "critic0.l2.w", "critic0.l2.b", "critic0.l3.w", "critic0.l3.b",
                "critic1.l0.w", "critic1.l0.b", "critic1.l1.w", "critic1.l1.b",
                "critic1.l2.w", "critic1.l2.b", "critic1.l3.w", "critic1.l3.b",
                "target_critic0.l0.w", "target_critic0.l0.b", "target_critic0.l1.w",
                "target_critic0.l1.b", "target_critic0.l2.w", "target_critic0.l2.b",
                "target_critic0.l3.w", "target_critic0.l3.b",
                "target_critic1.l0.w", "target_critic1.l0.b", "target_critic1.l1.w",
                "target_critic1.l1.b", "target_critic1.l2.w", "target_critic1.l2.b",
                "target_critic1.l3.w", "target_critic1.l3.b",
                "target_actor.l0.w", "target_actor.l0.b", "target_actor.l1.w",
                "target_actor.l1.b", "target_actor.l2.w", "target_actor.l2.b",
                "target_actor.l3.w", "target_actor.l3.b"],
        "ddpg": ["actor.l0.w", "actor.l0.b", "actor.l1.w", "actor.l1.b", "actor.l2.w",
                 "actor.l2.b", "actor.l3.w", "actor.l3.b",
                 "critic0.l0.w", "critic0.l0.b", "critic0.l1.w", "critic0.l1.b",
                 "critic0.l2.w", "critic0.l2.b", "critic0.l3.w", "critic0.l3.b",
                 "target_critic0.l0.w", "target_critic0.l0.b", "target_critic0.l1.w",
                 "target_critic0.l1.b", "target_critic0.l2.w", "target_critic0.l2.b",
                 "target_critic0.l3.w", "target_critic0.l3.b",
                 "target_actor.l0.w", "target_actor.l0.b", "target_actor.l1.w",
                 "target_actor.l1.b", "target_actor.l2.w", "target_actor.l2.b",
                 "target_actor.l3.w", "target_actor.l3.b"],
    }
    assert list(PolicyBundle(algo, hidden=8).params()) == literal[algo]


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_save_load_save_byte_equal(tmp_path, algo):
    p = PolicyBundle(algo, hidden=8, seed=3)
    rng = np.random.default_rng(4)
    for t in p.params().values():  # targets differ from their online nets
        t.data += rng.normal(size=t.shape).astype(np.float32)
    first, second = tmp_path / "first.ckp", tmp_path / "second.ckp"
    p.save(first)
    PolicyBundle.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_load_builds_nets_without_random_draws(tmp_path, monkeypatch, algo):
    """`load` fills zero-weight nets from the checkpoint: no generator is made."""
    p = PolicyBundle(algo, hidden=8, seed=3)
    path = tmp_path / "p.ckp"
    p.save(path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load drew a random init")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = PolicyBundle.load(path)
    assert {k: t.data.tobytes() for k, t in loaded.params().items()} == \
        {k: t.data.tobytes() for k, t in p.params().items()}


@pytest.mark.parametrize("algo", agents.ALGOS)
def test_targets_start_equal_and_own_their_storage(algo):
    p = PolicyBundle(algo, hidden=8, seed=6)
    params = p.params()
    pairs = [(k, "target_" + k) for k in params if "target_" + k in params]
    assert len(pairs) == 8 * (len(p.critics) + 1)
    for online, target in pairs:
        assert params[target].data.tobytes() == params[online].data.tobytes()
    before = {target: params[target].data.copy() for _, target in pairs}
    for online, _ in pairs:
        params[online].data[...] += 1.0
    for _, target in pairs:
        np.testing.assert_array_equal(params[target].data, before[target])


def test_policy_checkpoint_roundtrip(tmp_path, tiny_policies):
    s = states(4)
    for algo, p in tiny_policies.items():
        path = tmp_path / f"{algo}.ckp"
        p.save(path)
        loaded = PolicyBundle.load(path)
        assert loaded.algo == algo and loaded.hidden == p.hidden
        np.testing.assert_array_equal(loaded.act(s), p.act(s))
        np.testing.assert_array_equal(
            loaded.q_value(s, np.zeros((4, 3), dtype=np.float32)),
            p.q_value(s, np.zeros((4, 3), dtype=np.float32)))


def test_training_learns_on_tube(tube_phantom, env_cfg):
    """Short desk-style training beats the uniform-random baseline."""
    schedule = agents.RlSchedule(batches=3, episodes_per_batch=32,
                                 grad_steps_per_batch=60, batch_size=128,
                                 replay_capacity=20000)
    p = PolicyBundle("td3", hyper=RlHyper(lr=1e-3, sigma=0.334, gamma=0.776),
                     hidden=32, seed=0)
    log = agents.train_policy(p, tube_phantom, ["tube"], env_cfg, schedule, seed=1)
    assert len(log["batch_mean_episode_reward"]) == 3
    base = agents.mean_step_reward(tube_phantom, "tube", env_cfg, seed=2)
    trained = agents.mean_step_reward(tube_phantom, "tube", env_cfg, seed=2, bundle=p)
    assert trained > base
