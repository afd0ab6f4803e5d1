"""Reverse-mode autodiff on dense numpy arrays.

Small tape-based engine: every op records its parents and a backward
closure, `Tensor.backward` runs a topological sweep. float32 is the
working precision; pass float64 arrays to run the whole graph in double
(used by the gradient-check suite).

Only what trains is differentiated. A tensor is tracked if it is a leaf
with `requires_grad` or the output of a recorded op. An op is recorded
only if one of its parents is tracked. Parents that were untracked when
the op ran (constant inputs such as states and targets, and parameters
held in `frozen`) are left off the tape, and the op's backward closure
computes no gradient for them. The decision is taken at record time, not
at `backward` time, because callers build a loss inside `frozen(...)` and
run `backward` after the block has restored the flags; a tensor frozen
during the forward gets no gradient from that recording. Pruning removes
only nodes that reach no tracked leaf, so gradients reach trainable leaves
in the same order and with the same bits as on a full tape.

`backward` releases the recording once its sweep ends: each swept op node
drops its closure and parents, so a training step's tape and the arrays its
closures saved are freed even while the caller still holds the loss. A
released node can be read but not recorded on or swept again; either
raises `RuntimeError` rather than counting gradients twice or silently
turning the node into a constant.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (cheap inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled():
    """False inside `no_grad`: ops record nothing, so layers may take their
    tape-free numpy path."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def frozen(tensors):
    """Clear `requires_grad` on `tensors` inside the block; the old flags
    come back on exit, exceptions included. Ops recorded inside the block
    give these tensors no gradient, even if `backward` runs later."""
    tensors = list(tensors)
    prev = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, prev):
            t.requires_grad = flag


def _tracked(t):
    """True if gradients must flow into `t` (see the module docstring)."""
    return t.requires_grad or t._grad_fn is not None


def _is_basic_index(idx):
    """True for ints, slices, Ellipsis and None (a view; no repeated cells)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_backward_run")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._grad_fn = None
        self._backward_run = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data, parents, grad_fn):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward_run = False
        out._parents = ()
        out._grad_fn = None
        if not _GRAD_ENABLED:
            return out
        if any(p._backward_run for p in parents):
            raise RuntimeError("op on a tensor whose recording was released by backward")
        needs = [_tracked(p) for p in parents]
        if all(needs):
            out._parents = parents
            out._grad_fn = grad_fn
        elif any(needs):
            # untracked parents stay off the tape; grad_fn gives them None
            out._parents = tuple(p for p, n in zip(parents, needs) if n)
            out._grad_fn = lambda g: [pg for pg, n in zip(grad_fn(g), needs) if n]
        return out

    @staticmethod
    def as_tensor(x, dtype=None):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # -- backward -------------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate gradients into every reachable leaf with requires_grad,
        then release the recording: every swept op node drops its backward
        closure and parents. A second `backward` on the root or on a swept
        node raises `RuntimeError`, and so does recording a new op on one."""
        if self._backward_run:
            raise RuntimeError("backward already run on this recording")
        self._backward_run = True
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward without explicit grad requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo, seen = [], set()
        stack = [(self, False)]
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

        grads = {id(self): grad}
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

        # release the recording: the closures and their saved arrays die
        # here, however long the caller keeps the root or an interior node.
        # One pass after the sweep: freeing node by node while the sweep
        # still allocates gradients measured slower on desk pretrain.
        for node in topo:
            if node._grad_fn is not None:
                node._grad_fn, node._parents, node._backward_run = None, (), True

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = Tensor.as_tensor(other, dtype=self.dtype)
        a, b = self, other
        na, nb = _tracked(a), _tracked(b)
        out = np.add(a.data, b.data)
        return Tensor._make(out, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None))

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor.as_tensor(other, dtype=self.dtype))

    def __rsub__(self, other):
        return Tensor.as_tensor(other, dtype=self.dtype) + (-self)

    def __mul__(self, other):
        other = Tensor.as_tensor(other, dtype=self.dtype)
        a, b = self, other
        na, nb = _tracked(a), _tracked(b)
        out = np.multiply(a.data, b.data)
        return Tensor._make(out, (a, b), lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if na else None,
            _unbroadcast(g * a.data, b.data.shape) if nb else None))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.as_tensor(other, dtype=self.dtype)
        a, b = self, other
        na, nb = _tracked(a), _tracked(b)
        out = np.divide(a.data, b.data)
        return Tensor._make(out, (a, b), lambda g: (
            _unbroadcast(g / b.data, a.data.shape) if na else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if nb else None))

    def __pow__(self, p):
        a = self
        out = np.power(a.data, p)
        return Tensor._make(out, (a,), lambda g: (g * p * np.power(a.data, p - 1),))

    def __matmul__(self, other):
        other = Tensor.as_tensor(other, dtype=self.dtype)
        a, b = self, other
        na, nb = _tracked(a), _tracked(b)
        out = np.matmul(a.data, b.data)

        def grad_fn(g):
            ga = gb = None
            if na:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
            if nb:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            return ga, gb

        return Tensor._make(out, (a, b), grad_fn)

    def __getitem__(self, idx):
        a = self
        out = a.data[idx]
        if isinstance(out, np.ndarray):
            out = out.copy()
        else:
            out = np.asarray(out)

        basic = _is_basic_index(idx)

        def grad_fn(g):
            ga = np.zeros_like(a.data)
            if basic:
                ga[idx] += g
            else:
                np.add.at(ga, idx, g)  # fancy indices may repeat a cell
            return (ga,)

        return Tensor._make(out, (a,), grad_fn)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.data.shape
        return Tensor._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))

    def swapaxes(self, ax1, ax2):
        a = self
        return Tensor._make(np.swapaxes(a.data, ax1, ax2).copy(), (a,),
                            lambda g: (np.swapaxes(g, ax1, ax2),))

    def sum(self, axis=None, keepdims=False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape).copy(),)

        return Tensor._make(np.asarray(out), (a,), grad_fn)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


# -- elementwise primitives ---------------------------------------------------

def relu_np(x, out=None):
    """ReLU of a numpy array, bit-equal to `np.where(x > 0, x, 0)`: `fmax`
    maps NaN and -inf to 0, and adding +0 turns a -0 from `fmax` into +0."""
    zero = x.dtype.type(0)
    out = np.fmax(x, zero, out=out)
    return np.add(out, zero, out=out)


def relu(x):
    x = Tensor.as_tensor(x)
    mask = x.data > 0
    return Tensor._make(relu_np(x.data), (x,), lambda g: (g * mask,))


def tanh(x):
    x = Tensor.as_tensor(x)
    y = np.tanh(x.data)
    return Tensor._make(y, (x,), lambda g: (g * (1 - y * y),))


def exp(x):
    x = Tensor.as_tensor(x)
    y = np.exp(x.data)
    return Tensor._make(y, (x,), lambda g: (g * y,))


def log(x):
    x = Tensor.as_tensor(x)
    return Tensor._make(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x):
    x = Tensor.as_tensor(x)
    y = np.sqrt(x.data)
    return Tensor._make(y, (x,), lambda g: (g * 0.5 / y,))


def minimum(a, b):
    a, b = Tensor.as_tensor(a), Tensor.as_tensor(b)
    na, nb = _tracked(a), _tracked(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return Tensor._make(out, (a, b), lambda g: (
        _unbroadcast(g * take_a, a.data.shape) if na else None,
        _unbroadcast(g * ~take_a, b.data.shape) if nb else None))


ARCCOS_CLAMP = 1e-6


def arccos_clamped(x):
    """arccos with the input clamped ARCCOS_CLAMP inside [-1, 1] before differentiation."""
    x = Tensor.as_tensor(x)
    lo, hi = -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP
    xc = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)
    y = np.arccos(xc)
    return Tensor._make(y, (x,), lambda g: (
        np.where(inside, -g / np.sqrt(1.0 - xc * xc), 0.0),))


def softmax(x, axis=-1):
    x = Tensor.as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    return Tensor._make(y, (x,), lambda g: (
        y * (g - (g * y).sum(axis=axis, keepdims=True)),))


LAYERNORM_EPS = 1e-5  # also read by nn.LayerNorm.infer, which must give the same bits


def layernorm(x):
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    x = Tensor.as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    y = xc * inv

    def grad_fn(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return Tensor._make(y, (x,), grad_fn)


def concat(tensors, axis=-1):
    tensors = [Tensor.as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    needs = [_tracked(t) for t in tensors]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) if n else None
                     for p, n in zip(np.split(g, splits, axis=axis), needs))

    return Tensor._make(out, tuple(tensors), grad_fn)


def dropout(x, p, rng, training):
    """Inverted dropout; identity when not training or p == 0."""
    x = Tensor.as_tensor(x)
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p)
    scale = 1.0 / (1.0 - p)
    mask = keep * scale
    return Tensor._make(x.data * mask, (x,), lambda g: (g * mask,))
