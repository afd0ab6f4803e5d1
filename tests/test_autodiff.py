"""Gradient checks for every differentiable primitive (float64 graphs vs
central finite differences) plus tape-mechanics unit tests."""

import weakref

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff_grad, reachable, rel_err, tape_nodes
from tractfuse import autodiff as ad
from tractfuse.autodiff import Tensor

RNG = np.random.default_rng(42)
TOL = 1e-6  # float64 graphs allow a tighter bound than the 1e-5 gate


def check_grad(build, shape, tol=TOL, low=-1.0, high=1.0):
    x0 = RNG.uniform(low, high, size=shape)

    def f(x):
        t = Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
        return float(build(t).data)

    t = Tensor(x0.astype(np.float64), requires_grad=True)
    build(t).backward()
    assert rel_err(t.grad, finite_diff_grad(f, x0)) < tol


@pytest.mark.parametrize("build", [
    lambda x: (x + 2.0).sum(),
    lambda x: (3.0 - x).sum(),
    lambda x: (x * x).sum(),
    lambda x: (x / 3.0).sum(),
    lambda x: ((x + 5.0) ** -1.0).sum(),
    lambda x: (x ** 3).sum(),
    lambda x: (-x).mean(),
    lambda x: ad.relu(x).sum(),
    lambda x: ad.tanh(x).sum(),
    lambda x: ad.exp(x).sum(),
    lambda x: ad.sqrt(x + 4.0).sum(),
    lambda x: ad.log(x + 5.0).sum(),
    lambda x: (ad.softmax(x, axis=-1) * ad.tanh(x)).sum(),
    lambda x: (ad.softmax(x, axis=-1) * ad.softmax(x, axis=-1)).sum(),
    lambda x: (ad.layernorm(x) ** 3.0).sum(),
    lambda x: ad.arccos_clamped(ad.tanh(x)).sum(),
    lambda x: x.reshape(8, 3).swapaxes(0, 1).sum(),
    lambda x: x[1:, :2].sum(),
    lambda x: x.sum(axis=0, keepdims=True).mean(),
])
def test_primitive_grads(build):
    check_grad(build, (4, 6))


def test_matmul_grad():
    w0 = RNG.normal(size=(5, 3))

    def build(x):
        return (x @ Tensor(w0)).sum()

    check_grad(build, (4, 5))


def test_minimum_grad():
    y0 = RNG.normal(size=(4, 6))
    check_grad(lambda x: ad.minimum(x, Tensor(y0)).sum(), (4, 6))


def test_concat_grad():
    def build(x):
        parts = [x[:2], x[2:]]
        return (ad.concat(parts, axis=0) * 2.0).sum()

    check_grad(build, (4, 3))


def test_broadcasting_grad():
    b0 = RNG.normal(size=(1, 6))

    def build(x):
        return ((x + Tensor(b0, requires_grad=False)) * 2.0).sum()

    check_grad(build, (4, 6))


def test_arccos_clamp_region_has_zero_grad():
    x = Tensor(np.array([1.0, -1.0, 0.999999999]), requires_grad=True, dtype=np.float64)
    ad.arccos_clamped(x).sum().backward()
    assert np.all(np.isfinite(x.grad))
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0


def test_backward_twice_raises():
    """Neither the root nor a swept interior node can run `backward` again
    and add its gradients a second time; MCPFT's `sup` is such a node of the
    loss it returns."""
    w = Tensor(np.ones(3), requires_grad=True)
    sup = (w * w).sum()
    loss = sup + (w * 3.0).sum()
    loss.backward()
    for t in (loss, sup):
        with pytest.raises(RuntimeError):
            t.backward()
    np.testing.assert_array_equal(w.grad, 5.0)


@pytest.mark.parametrize("op", [
    lambda t: t * 2.0,
    lambda t: t + t,
    lambda t: ad.tanh(t),
    lambda t: ad.minimum(t, Tensor(np.zeros(()))),
    lambda t: t[...],
])
def test_op_on_released_tensor_raises(op):
    """Recording on a released node would either run its old graph again or
    turn it into a constant; both are refused. Reading it is not."""
    w = Tensor(np.ones(1), requires_grad=True)
    h = ad.exp(w)
    loss = (h * h).sum()
    loss.backward()
    for t in (loss, h):
        with pytest.raises(RuntimeError):
            op(t)
        with ad.no_grad():
            assert np.all(np.isfinite(op(t).data))
    (w * 2.0).sum().backward()  # leaves record as before


def test_backward_releases_the_recording():
    """After `backward` the root reaches no other node, and the arrays the
    closures saved are freed while the root is still held."""
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)

    def build():
        h = ad.tanh(x @ w)
        y = ad.exp(h)
        loss = (y * ad.softmax(h)).sum()
        return loss, [weakref.ref(h.data), weakref.ref(y.data)]

    loss, refs = build()
    assert tape_nodes(loss) > 1 and all(r() is not None for r in refs)
    loss.backward()
    assert tape_nodes(loss) == 1
    assert all(r() is None for r in refs)
    assert x.grad is not None and w.grad is not None


def reference_sweep(root):
    """`Tensor.backward` as it ran before it released the recording: the
    same topological sweep, leaving the tape in place."""
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if node._grad_fn is None:
            continue
        for p, pg in zip(node._parents, node._grad_fn(g)):
            key = id(p)
            grads[key] = pg if key not in grads else grads[key] + pg


GRAPH_OPS = [
    lambda a, b: a + b,
    lambda a, b: a * b,
    lambda a, b: a - b,
    lambda a, b: ad.minimum(a, b),
    lambda a, b: a @ b,
    lambda a, b: ad.tanh(a),
    lambda a, b: ad.relu(a) * 0.5,
    lambda a, b: ad.softmax(a),
    lambda a, b: ad.layernorm(a),
    lambda a, b: ad.concat([a, b], axis=0)[1:5],
]


@settings(max_examples=60, deadline=None)
@given(program=st.lists(st.tuples(st.integers(0, len(GRAPH_OPS) - 1),
                                  st.integers(0, 64), st.integers(0, 64)),
                        min_size=1, max_size=12),
       root_picks=st.lists(st.integers(0, 64), min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
def test_release_keeps_leaf_grads_bit_equal(program, root_picks, seed):
    """Random graphs where nodes feed several ops and paths rejoin: leaf
    gradients after `backward` are bit-equal to the sweep that keeps the
    tape, and every swept op node is released."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(4, 4)) for _ in range(3)]

    def build():
        leaves = [Tensor(a, requires_grad=i < 2) for i, a in enumerate(arrays)]
        nodes = list(leaves)
        for op, i, j in program:
            nodes.append(GRAPH_OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)]))
        root = nodes[-1].sum()
        for k in root_picks:
            root = root + nodes[k % len(nodes)].sum()
        return leaves, root

    want_leaves, want_root = build()
    reference_sweep(want_root)
    leaves, root = build()
    swept = reachable(root)
    root.backward()
    assert root.data.tobytes() == want_root.data.tobytes()
    for got, want in zip(leaves, want_leaves):
        assert (got.grad is None) == (want.grad is None)
        if got.grad is not None:
            assert got.grad.tobytes() == want.grad.tobytes()
    assert tape_nodes(root) == 1
    assert all(n._grad_fn is None and n._parents == () for n in swept)


def test_backward_nonscalar_needs_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ValueError):
        y.backward()
    y2 = x * 2.0
    y2.backward(grad=np.ones(3))
    np.testing.assert_allclose(x.grad, 2.0)


def test_grad_accumulates_across_uses():
    x = Tensor(np.ones(3), requires_grad=True)
    (x.sum() + (x * 3.0).sum()).backward()
    np.testing.assert_allclose(x.grad, 4.0)


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = (x * x).sum()
    assert y._grad_fn is None and not y.requires_grad


def test_dropout_train_vs_eval():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 10)))
    out_eval = ad.dropout(x, 0.5, rng, training=False)
    np.testing.assert_array_equal(out_eval.data, x.data)
    out_train = ad.dropout(x, 0.5, rng, training=True)
    kept = out_train.data != 0
    # inverted dropout: surviving entries are scaled by 1/(1-p)
    np.testing.assert_allclose(out_train.data[kept], 2.0)
    assert 0.3 < kept.mean() < 0.7


def test_dropout_grad_matches_mask():
    rng_seed = 123
    x = Tensor(RNG.normal(size=(6, 5)), requires_grad=True, dtype=np.float64)
    out = ad.dropout(x, 0.4, np.random.default_rng(rng_seed), training=True)
    out.sum().backward()
    mask = ad.dropout(Tensor(np.ones((6, 5), dtype=np.float64)), 0.4,
                      np.random.default_rng(rng_seed), training=True).data
    np.testing.assert_allclose(x.grad, mask)


def test_tensor_coerces_int_input_to_float32():
    t = Tensor(np.arange(3))
    assert t.data.dtype == np.float32


# -- pruning: only what trains is differentiated -------------------------------

def test_frozen_leaf_gets_no_grad():
    w = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    v = Tensor(RNG.normal(size=(2,)), requires_grad=True)
    x = Tensor(RNG.normal(size=(4, 3)))
    with ad.frozen([w]):
        ((x @ w) * v).sum().backward()
    assert w.grad is None
    assert v.grad is not None
    assert w.requires_grad


def test_frozen_restores_flags_after_exception():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=False)
    with pytest.raises(KeyError):
        with ad.frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
            raise KeyError("boom")
    assert a.requires_grad and not b.requires_grad


def test_freeze_is_decided_at_record_time():
    """A tensor frozen only while the forward ran gets no grad from a
    backward that runs after the block restored its flag."""
    w = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    with ad.frozen([w]):
        loss = ad.tanh(x @ w).sum()
    assert w.requires_grad
    loss.backward()
    assert w.grad is None
    assert x.grad is not None


BINARY_OPS = [
    lambda a, b: a + b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    lambda a, b: a @ b,
    lambda a, b: ad.minimum(a, b),
]


@pytest.mark.parametrize("op", BINARY_OPS + [lambda a, b: ad.concat([a, b], axis=0)])
def test_untracked_parent_stays_off_tape(op):
    a = Tensor(RNG.uniform(1, 2, size=(3, 3)), requires_grad=True)
    const = Tensor(RNG.uniform(1, 2, size=(3, 3)))
    for out in (op(a, const), op(const, a)):
        assert out._parents == (a,)
        (grad,) = out._grad_fn(np.ones_like(out.data))
        assert grad.shape == a.shape


@pytest.mark.parametrize("op", BINARY_OPS)
def test_untracked_parent_grad_not_computed(op, monkeypatch):
    """Backward builds a gradient array for the tracked operand only."""
    calls = []

    def counting(grad, shape):
        calls.append(shape)
        return ad_unbroadcast(grad, shape)

    ad_unbroadcast = ad._unbroadcast
    monkeypatch.setattr(ad, "_unbroadcast", counting)
    a = Tensor(RNG.uniform(1, 2, size=(3, 3)), requires_grad=True)
    const = Tensor(RNG.uniform(1, 2, size=(3, 3)))
    op(const, a).sum().backward()
    op(a, const).sum().backward()
    assert calls == [a.shape, a.shape]


def test_fancy_index_duplicates_grad():
    check_grad(lambda x: (x[[0, 2, 2]] * x[[0, 2, 2]]).sum(), (4, 6))
    x = Tensor(np.ones((4, 2)), requires_grad=True)
    x[[0, 2, 2]].sum().backward()
    np.testing.assert_array_equal(x.grad, [[1, 1], [0, 0], [2, 2], [0, 0]])


@pytest.mark.parametrize("idx", [
    (Ellipsis, slice(64, 128)),
    (slice(None), slice(3, 40, 2), slice(None)),
    (slice(None), 5, slice(None)),
    (7,),
    (None, slice(2, 9)),
])
def test_basic_slice_backward_bit_equal_to_add_at(idx):
    x0 = np.random.default_rng(5).normal(size=(32, 48, 192)).astype(np.float32)
    g = np.random.default_rng(6).normal(size=x0[idx].shape).astype(np.float32)
    g[g < -1.0] = -0.0  # signed zeros must come through unchanged too
    x = Tensor(x0, requires_grad=True)
    x[idx].backward(grad=g)
    ref = np.zeros_like(x0)
    np.add.at(ref, idx, g)
    assert x.grad.dtype == np.float32
    assert x.grad.tobytes() == ref.tobytes()


# -- nonlinearity kernels -----------------------------------------------------

def assert_relu_bits(got, x):
    """NaN stays NaN; every other value has the bytes of `np.where(x > 0, x, 0)`."""
    nan = np.isnan(x)
    assert got.dtype == x.dtype and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == np.where(x > 0, x, 0)[~nan].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bits_equal_where_on_special_values(dtype):
    """`maximum(x, 0) + 0` keeps NaN and gives the bytes of
    `np.where(x > 0, x, 0)` on +-0, +-inf, subnormals and the extremes."""
    fi = np.finfo(dtype)
    x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, fi.smallest_subnormal,
                  -fi.smallest_subnormal, fi.tiny / 4, -fi.tiny / 4, fi.tiny, -fi.tiny,
                  fi.max, -fi.max, 1.0, -1.0], dtype=dtype)
    big = RNG.normal(size=(16, 24, 128)).astype(dtype)
    big[3, 5, :7] = np.nan
    for arr in (x, big):
        for got in (ad.relu(arr).data, ad.relu_np(arr)):
            assert_relu_bits(got, arr)


def softmax_formula(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layernorm_formula(x):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LAYERNORM_EPS))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_kernel_bits_equal_op_and_in_place(data, dtype):
    """Each nonlinearity kernel gives its op's bytes, in place too: ReLU
    keeps NaN and otherwise gives `np.where(x > 0, x, 0)`; softmax and
    layernorm give the bytes of their formulas written out in full."""
    x = data.draw(hnp.arrays(dtype, hnp.array_shapes(max_dims=3, max_side=20),
                             elements=st.floats(width=np.finfo(dtype).bits)))
    assert_relu_bits(ad.relu(x).data, x)
    out = x.copy()
    assert ad.relu_np(out, out=out) is out
    assert_relu_bits(out, x)

    axis = data.draw(st.integers(-x.ndim, x.ndim - 1))
    with np.errstate(all="ignore"):  # inf and NaN inputs are drawn on purpose
        want = softmax_formula(x, axis).tobytes()
        assert ad.softmax(x, axis).data.tobytes() == want
        out = x.copy()
        assert ad.softmax_np(out, axis, out=out) is out
        assert out.tobytes() == want

        want = layernorm_formula(x).tobytes()
        keep = x.tobytes()
        y, inv = ad.layernorm_np(x)
        assert x.tobytes() == keep and y.dtype == inv.dtype == dtype
        assert y.tobytes() == want and ad.layernorm(x).data.tobytes() == want
