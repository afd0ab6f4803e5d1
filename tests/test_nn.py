"""Network-module gradient checks (64-bit graphs vs finite differences),
AdamW against a step-by-step numpy oracle, and checkpoint round-trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff_grad, rel_err
from tractfuse import nn
from tractfuse.autodiff import Tensor, no_grad

RNG = np.random.default_rng(3)


def upcast(params):
    for p in params.values():
        p.data = p.data.astype(np.float64)


def check_param_grads(module_params, run, tol=1e-6, h=1e-5):
    """Gradcheck every parameter of a module against finite differences."""
    upcast(module_params)
    loss = run()
    loss.backward()
    got = {k: p.grad.copy() for k, p in module_params.items()}
    for k, p in module_params.items():
        base = p.data.copy()

        def f(x):
            p.data = x
            out = float(run().data)
            p.data = base
            return out

        fd = finite_diff_grad(f, base, h=h)
        # absolute floor covers near-zero gradients where FD noise dominates
        ok = rel_err(got[k], fd) < tol or np.abs(got[k] - fd).max() < 1e-8
        assert ok, f"gradient mismatch for {k}"


def test_mlp_gradcheck():
    mlp = nn.Mlp(5, 2, hidden=6, rng=RNG)
    x = RNG.normal(size=(4, 5))
    check_param_grads(mlp.params(), lambda: (mlp(x) ** 2.0).sum())


def test_mlp_width_error_names_widths():
    mlp = nn.Mlp(5, 2, hidden=6, rng=RNG)
    with pytest.raises(ValueError, match="5"):
        mlp(np.zeros((1, 7)))


def test_gpt_stack_gradcheck():
    gpt = nn.GptBlockStack(width=6, n_blocks=1, n_tokens=5, p_drop=0.0, rng=RNG)
    x = RNG.normal(size=(2, 5, 6))
    check_param_grads(gpt.params(), lambda: (gpt(x) ** 2.0).sum(), tol=1e-5)


def test_gpt_stack_input_gradcheck():
    gpt = nn.GptBlockStack(width=4, n_blocks=1, n_tokens=6, p_drop=0.0, rng=RNG)
    upcast(gpt.params())
    x0 = RNG.normal(size=(1, 6, 4))

    def f(x):
        return float((gpt(Tensor(np.asarray(x, dtype=np.float64))) ** 2.0).sum().data)

    t = Tensor(x0, requires_grad=True, dtype=np.float64)
    (gpt(t) ** 2.0).sum().backward()
    assert rel_err(t.grad, finite_diff_grad(f, x0)) < 1e-5


def test_gpt_causality_by_perturbation():
    gpt = nn.GptBlockStack(width=8, n_blocks=2, n_tokens=7, p_drop=0.0,
                           rng=np.random.default_rng(0))
    x = RNG.normal(size=(1, 7, 8)).astype(np.float32)
    base = gpt(x).data
    for t in range(1, 7):
        pert = x.copy()
        pert[0, t, 0] += 1.0  # single channel: survives the layernorms
        out = gpt(pert).data
        np.testing.assert_array_equal(out[0, :t], base[0, :t])
        assert np.abs(out[0, t] - base[0, t]).max() > 1e-4


def test_gpt_pad_mask_blocks_padding():
    gpt = nn.GptBlockStack(width=8, n_blocks=1, n_tokens=6, p_drop=0.0,
                           rng=np.random.default_rng(0))
    x = RNG.normal(size=(1, 6, 8)).astype(np.float32)
    mask = np.array([[0, 0, 1, 1, 1, 1]], dtype=np.float32)
    base = gpt(x, pad_mask=mask).data
    pert = x.copy()
    pert[0, 0] += 5.0  # padded token must be invisible to real tokens
    out = gpt(pert, pad_mask=mask).data
    np.testing.assert_array_equal(out[0, 2:], base[0, 2:])


def test_gpt_token_overflow_error():
    gpt = nn.GptBlockStack(width=4, n_blocks=1, n_tokens=3, p_drop=0.0, rng=RNG)
    with pytest.raises(ValueError, match="3"):
        gpt(np.zeros((1, 4, 4), dtype=np.float32))


# -- tape-free inference ------------------------------------------------------

def spread(params, seed):
    """Move every parameter off its initialization."""
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.data += rng.normal(0.0, 0.3, size=p.shape).astype(np.float32)


@pytest.mark.parametrize("width", [32, 64])
def test_layer_infer_bytes_equal_taped_forward(width):
    """Each layer's numpy `infer` gives the bytes of its taped forward and
    leaves its input as it was (`TransformerBlock.infer` updates it)."""
    rng = np.random.default_rng(width)
    b, t = 5, 12
    gpt = nn.GptBlockStack(width=width, n_blocks=2, n_tokens=t, p_drop=0.1, rng=rng)
    lin = nn.Linear(width, 7, rng)
    spread({**gpt.params(), **lin.params("lin")}, width)
    x = rng.normal(size=(b, t, width)).astype(np.float32)
    mask = (np.arange(t)[None, :] >= rng.integers(0, t, size=(b, 1))).astype(np.float32)
    causal, pad = gpt._biases(x, mask)
    block = gpt.blocks[0]
    cases = [
        (lin.infer, lambda v: lin(Tensor(v))),
        (gpt.ln_f.infer, lambda v: gpt.ln_f(Tensor(v))),
        (lambda v: block.attn.infer(v, causal, pad),
         lambda v: block.attn(Tensor(v), causal, pad, None, False)),
        (lambda v: block.attn.infer(v, causal, None),
         lambda v: block.attn(Tensor(v), causal, None, None, False)),
        (lambda v: block.infer(v.copy(), causal, pad),
         lambda v: block(Tensor(v), causal, pad, None, False)),
        (lambda v: gpt.infer(v, mask), lambda v: gpt(v, pad_mask=mask)),
        (gpt.infer, gpt),
    ]
    for infer, taped in cases:
        before = x.tobytes()
        got = infer(x)
        assert x.tobytes() == before
        want = taped(x).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gpt_call_without_tape_runs_infer(monkeypatch):
    gpt = nn.GptBlockStack(width=8, n_blocks=1, n_tokens=6, p_drop=0.5,
                           rng=np.random.default_rng(0))
    x = RNG.normal(size=(2, 6, 8)).astype(np.float32)
    calls = []
    original = nn.GptBlockStack.infer

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(nn.GptBlockStack, "infer", counting)
    with no_grad():
        out = gpt(x)
        gpt(x, training=True, rng=np.random.default_rng(1))  # dropout needs the tape path
    assert len(calls) == 1
    assert out.data.tobytes() == gpt(x).data.tobytes()
    assert out._grad_fn is None and not out.requires_grad


def test_gpt_training_forward_without_rng_raises():
    """Training draws dropout masks, so it must be handed an rng: a silent
    seed-0 fallback would give every such call the same masks."""
    gpt = nn.GptBlockStack(width=8, n_blocks=1, n_tokens=6, p_drop=0.5,
                           rng=np.random.default_rng(0))
    x = RNG.normal(size=(2, 6, 8)).astype(np.float32)
    with pytest.raises(ValueError, match="rng"):
        gpt(x, training=True)
    with no_grad(), pytest.raises(ValueError, match="rng"):
        gpt(x, training=True)
    gpt(x)  # inference reads no rng


def test_mlp_infer_matches_forward_and_keeps_nan():
    mlp = nn.Mlp(9, 3, hidden=48, rng=np.random.default_rng(2))
    spread(mlp.params(), 2)
    x = RNG.normal(size=(6, 9)).astype(np.float32)
    assert mlp.infer(x).tobytes() == mlp(x).data.tobytes()
    x[2, 4] = np.nan
    out = mlp.infer(x)
    assert np.isnan(out[2]).all() and np.isfinite(np.delete(out, 2, axis=0)).all()


# -- AdamW --------------------------------------------------------------------

def adamw_oracle(x0, grads, lr, betas=(0.9, 0.999), eps=1e-8, warmup=0):
    """Straight transcription of AdamW with bias correction and warmup."""
    x = np.asarray(x0, dtype=np.float64).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        lr_eff = lr * min(1.0, (t - 1) / warmup) if warmup > 0 else lr
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        mhat = m / (1 - betas[0] ** t)
        vhat = v / (1 - betas[1] ** t)
        x = x - lr_eff * (mhat / (np.sqrt(vhat) + eps))
    return x


@pytest.mark.parametrize("warmup", [0, 3])
def test_adamw_matches_oracle(warmup):
    p = nn.parameter(np.array([1.0, -2.0, 0.5]))
    p.data = p.data.astype(np.float64)
    opt = nn.AdamW({"p": p}, lr=0.1, warmup=warmup)
    grads = [RNG.normal(size=3) for _ in range(6)]
    for g in grads:
        p.grad = g
        opt.step()
    expect = adamw_oracle([1.0, -2.0, 0.5], grads, lr=0.1, warmup=warmup)
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_adamw_warmup_ramp():
    p = nn.parameter(np.zeros(1))
    opt = nn.AdamW({"p": p}, lr=1.0, warmup=4)
    assert opt.effective_lr() == 0.0
    opt.step_count = 2
    assert opt.effective_lr() == 0.5
    opt.step_count = 10
    assert opt.effective_lr() == 1.0


def test_adamw_rejects_nonfinite_grad():
    p = nn.parameter(np.zeros(2))
    opt = nn.AdamW({"wout": p}, lr=0.1)
    p.grad = np.array([np.nan, 0.0], dtype=np.float32)
    with pytest.raises(ValueError, match="wout"):
        opt.step()


def test_adamw_gradless_param_is_named():
    """A parameter without a gradient is a wiring fault: the step names it
    and writes nothing, so no bias correction moves on a skipped step."""
    p, q = nn.parameter(np.ones(3)), nn.parameter(np.zeros(2))
    opt = nn.AdamW({"p": p, "q": q}, lr=0.1)
    p.grad, q.grad = np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)
    opt.step()
    before = [a.tobytes() for a in (opt.flat, opt.m, opt.v)]
    p.grad, q.grad = np.ones(3, dtype=np.float32), None
    with pytest.raises(ValueError, match="'q'"):
        opt.step()
    assert [a.tobytes() for a in (opt.flat, opt.m, opt.v)] == before
    assert opt.step_count == 1


class PerParamAdamW:
    """The per-parameter AdamW step as it was before parameters shared one
    flat buffer: every array is rebound, nothing is written in place. Kept as
    the bit-level reference for `nn.AdamW`."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, warmup=0):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.warmup = warmup
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def effective_lr(self):
        if self.warmup > 0:
            return self.lr * min(1.0, self.step_count / self.warmup)
        return self.lr

    def step(self):
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.grad)):
                raise ValueError(f"non-finite gradient for parameter '{name}'; step rejected")
        lr_eff = self.effective_lr()
        self.step_count += 1
        b1, b2 = self.betas
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad.astype(p.data.dtype)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** t)
            vhat = self.v[name] / (1 - b2 ** t)
            upd = mhat / (np.sqrt(vhat) + self.eps)
            p.data = (p.data - lr_eff * upd).astype(p.data.dtype)


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=6),
       dtype=st.sampled_from([np.float32, np.float64]),
       warmup=st.sampled_from([0, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_adamw_flat_step_matches_per_param_step(shapes, dtype, warmup, seed, data):
    """One in-place pass over the flat buffer gives the bits of the
    per-parameter step: data, m and v, over several steps."""
    rng = np.random.default_rng(seed)
    init = {f"p{i}": rng.normal(size=shape).astype(dtype) for i, shape in enumerate(shapes)}
    mine = {k: Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
    ref = {k: Tensor(x.copy(), requires_grad=True) for k, x in init.items()}
    opt = nn.AdamW(mine, lr=0.05, warmup=warmup)
    ref_opt = PerParamAdamW(ref, lr=0.05, warmup=warmup)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        for k, x in init.items():
            g = (rng.normal(size=x.shape) * 10.0 ** rng.uniform(-4, 2)).astype(dtype)
            mine[k].grad, ref[k].grad = g, g.copy()
        opt.step()
        ref_opt.step()
        assert opt.step_count == ref_opt.step_count
        for k in init:
            seg = opt.segments[k]
            assert mine[k].data.dtype == ref[k].data.dtype == dtype
            assert mine[k].data.tobytes() == ref[k].data.tobytes(), k
            assert opt.m[seg].tobytes() == ref_opt.m[k].tobytes(), k
            assert opt.v[seg].tobytes() == ref_opt.v[k].tobytes(), k


def test_adamw_owns_param_storage():
    mlp = nn.Mlp(4, 2, hidden=5, rng=np.random.default_rng(1))
    before = {k: p.data.copy() for k, p in mlp.params().items()}
    opt = nn.AdamW(mlp.params(), lr=0.1)
    assert opt.flat.size == sum(x.size for x in before.values())
    for k, p in mlp.params().items():
        assert p.data.base is opt.flat
        assert p.data.tobytes() == before[k].tobytes()


def test_adamw_rejects_mixed_dtypes():
    p32 = nn.parameter(np.ones(2))
    p64 = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match="dtype"):
        nn.AdamW({"a": p32, "b": p64}, lr=0.1)


def test_adamw_rebound_param_is_named():
    """Rebinding `p.data` detaches it from the buffer; the next step says so
    instead of training a copy nobody reads."""
    p, q = nn.parameter(np.ones(3)), nn.parameter(np.zeros(2))
    opt = nn.AdamW({"p": p, "q": q}, lr=0.1)
    q.data = q.data.copy()
    p.grad, q.grad = np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)
    with pytest.raises(nn.StaleParameterError, match="'q'"):
        opt.step()
    assert issubclass(nn.StaleParameterError, RuntimeError)  # the CLI exits 2
    assert opt.step_count == 0


def test_assign_params_keeps_optimizer_views():
    """Loading into optimizer-owned params writes through the views, so the
    next step moves the loaded values."""
    mlp = nn.Mlp(4, 2, hidden=5, rng=np.random.default_rng(2))
    opt = nn.AdamW(mlp.params(), lr=0.1)
    loaded = {k: RNG.normal(size=p.shape).astype(np.float32) for k, p in mlp.params().items()}
    nn.assign_params(mlp.params(), loaded)
    for k, p in mlp.params().items():
        assert p.data.base is opt.flat
        np.testing.assert_array_equal(p.data, loaded[k])
        p.grad = np.ones(p.shape, dtype=np.float32)
    opt.step()  # first step with a constant gradient moves every value by lr
    for k, p in mlp.params().items():
        np.testing.assert_allclose(p.data, loaded[k] - 0.1, atol=1e-6)


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    tensors = {"a.w": RNG.normal(size=(3, 4)).astype(np.float32),
               "b": np.float32(2.5).reshape(()),
               "c": RNG.normal(size=5).astype(np.float32)}
    path = tmp_path / "t.ckp"
    nn.save_checkpoint(path, tensors, meta={"algo": "td3", "hidden": "16"})
    loaded, meta = nn.load_checkpoint(path)
    assert meta == {"algo": "td3", "hidden": "16"}
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        nn.load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "t.ckp"
    nn.save_checkpoint(path, {"a": np.ones(4, dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        nn.load_checkpoint(path)


_shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(_shapes, min_size=1, max_size=3), data=st.data())
def test_checkpoint_every_truncation_is_named(shapes, data):
    """Every proper prefix of a valid CKP1 file raises CheckpointError
    naming the file, never a bare numpy or struct error."""
    tensors = {f"t{i}.w": np.full(shape, i, dtype=np.float32) for i, shape in enumerate(shapes)}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.ckp"
        nn.save_checkpoint(path, tensors, meta={"algo": "td3"})
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(nn.CheckpointError, match="t.ckp"):
            nn.load_checkpoint(path)


def test_assign_params_shape_mismatch():
    p = nn.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        nn.assign_params({"p": p}, {"p": np.zeros((3, 3), dtype=np.float32)})
    with pytest.raises(KeyError, match="missing"):
        nn.assign_params({"p": p}, {})


def test_mlp_checkpoint_roundtrip(tmp_path):
    mlp = nn.Mlp(4, 2, hidden=5, rng=RNG)
    path = tmp_path / "mlp.ckp"
    nn.save_checkpoint(path, {k: v.data for k, v in mlp.params().items()})
    clone = nn.Mlp(4, 2, hidden=5, rng=np.random.default_rng(99))
    tensors, _ = nn.load_checkpoint(path)
    nn.assign_params(clone.params(), tensors)
    x = RNG.normal(size=(3, 4)).astype(np.float32)
    np.testing.assert_array_equal(mlp(x).data, clone(x).data)
