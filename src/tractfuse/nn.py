"""MLP and causal-transformer building blocks, AdamW, and checkpoint IO.

Built on the autodiff tape in `autodiff`. Architectures follow the fixed
shapes used by the pipeline: 3-hidden-layer ReLU MLPs for actors/critics
and a 4-block single-head causal transformer for the fusion policy.

`AdamW(params, lr, warmup=0)`, the optimizer of every training stage, owns
the storage of the parameters it trains: their `data` are views into its
flat buffer, and a step updates all of them in one pass, so each needs a
gradient. Anything that writes a parameter (the optimizer, `assign_params`,
target-net soft updates) writes `p.data` in place; rebinding `p.data`
detaches the parameter from its optimizer. `AdamW.minimize(loss, what)` is
every stage's training step, and a non-finite loss stops it with
`TrainingDiverged` before any parameter is written.

Each layer records one tape node: `Linear`, `LayerNorm` with its affine,
`CausalSelfAttention` from `qkv` to `proj`, and a transformer block's MLP
(fc, ReLU, fc_out, dropout); a block is those four nodes, a second
layernorm and two residual adds. A node keeps only what its backward
reads: Linear its input and weights; LayerNorm the normalized input and
its 1/std; attention its input, q, kᵀ, v, the attention pattern, its
dropout mask and the attended values; the MLP its input, the ReLU output
and the dropout mask. The backward runs the gradient expressions of the
`autodiff` ops these layers used to be composed of, in the same dtypes,
so the bits are those of the composition (each weight gradient is still
a batched product summed over the leading axes).

Each layer also has `infer`, a tape-free numpy forward for inference,
which is the same forward function as the node's: the taped call only
asks it to keep what backward reads. `infer` works in place and frees
each temporary once used. Its ReLU, softmax and layernorm are the
`autodiff` kernels, and attention keeps the composed ops' operands
(contiguous copies of q, kᵀ and v, the scale as a 0-d array of the
scores' dtype, the biases cast to it). `GptBlockStack.__call__` runs
`infer` under `autodiff.no_grad` when not training; nothing else asks
whether the tape is on, and callers that want `Mlp.infer` call it by
name.
"""

from __future__ import annotations

import struct

import numpy as np

from . import binio
from .autodiff import (Tensor, _tracked, _unbroadcast, dropout_mask, grad_enabled,
                       layernorm_grad_np, layernorm_np, relu, relu_np, softmax_grad_np,
                       softmax_np)

CKP_MAGIC = b"CKP1"
_META_PREFIX = "__meta__/"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class CheckpointError(binio.FormatError):
    """A CKP1 file that is corrupt, truncated or not a checkpoint at all."""


def parameter(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


def _record(out, parents, grad_fn):
    """Record `out` as one tape node over `parents`. `grad_fn(g, needs)`
    returns a gradient per parent; `needs` flags the parents that were
    tracked when the node was recorded, and the others may get None."""
    needs = tuple(_tracked(p) for p in parents)
    return Tensor._make(out, parents, lambda g: grad_fn(g, needs))


def _linear_grads(x, w, g, needs):
    """Gradients of `x @ w + b` for the flagged ones of (x, w, b). The weight
    gradient is a batched product summed over the leading axes: one GEMM
    over all rows would round differently."""
    nx, nw, nb = needs
    return (np.matmul(g, np.swapaxes(w, -1, -2)) if nx else None,
            _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), w.shape) if nw else None,
            _unbroadcast(g, (w.shape[-1],)) if nb else None)


class Linear:
    """`x @ w + b`. With `rng=None` the weights start at zero, without random
    draws, for a checkpoint load to fill."""

    def __init__(self, n_in, n_out, rng, init="kaiming"):
        if rng is None:
            w = np.zeros((n_in, n_out), dtype=np.float32)
        elif init == "kaiming":
            bound = np.sqrt(6.0 / n_in)
            w = rng.uniform(-bound, bound, size=(n_in, n_out))
        else:
            w = rng.normal(0.0, 0.02, size=(n_in, n_out))
        self.w = parameter(w)
        self.b = parameter(np.zeros(n_out))
        self.n_in = n_in
        self.n_out = n_out

    def __call__(self, x):
        """One node; backward reads the input and the weights."""
        x = Tensor.as_tensor(x)
        xd, w = x.data, self.w.data
        return _record(self.infer(xd), (x, self.w, self.b),
                       lambda g, needs: _linear_grads(xd, w, g, needs))

    def infer(self, x):
        y = np.matmul(x, self.w.data)
        y += self.b.data
        return y

    def params(self, prefix):
        return {prefix + ".w": self.w, prefix + ".b": self.b}


class Mlp:
    """ReLU-activated fully connected net with 3 hidden layers; `rng=None`
    builds zero weights for a checkpoint load to fill (see `Linear`)."""

    N_HIDDEN_LAYERS = 3

    def __init__(self, n_in, n_out, hidden=1024, rng=None):
        widths = [n_in] + [hidden] * self.N_HIDDEN_LAYERS + [n_out]
        self.layers = [Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
        self.n_in = n_in
        self.n_out = n_out
        self.hidden = hidden

    def __call__(self, x):
        x = Tensor.as_tensor(x)
        if x.shape[-1] != self.n_in:
            raise ValueError(f"Mlp expects input width {self.n_in}, got {x.shape[-1]}")
        for layer in self.layers[:-1]:
            x = relu(layer(x))
        return self.layers[-1](x)

    def infer(self, x):
        """Tape-free forward of a float32 batch. `relu_np` keeps a NaN, so a
        non-finite input still reaches the caller's finiteness check."""
        h = np.asarray(x, dtype=np.float32)
        for layer in self.layers[:-1]:
            h = layer.infer(h)
            relu_np(h, out=h)
        return self.layers[-1].infer(h)

    def params(self, prefix=""):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.params(f"{prefix}l{i}"))
        return out


class LayerNorm:
    def __init__(self, width):
        self.g = parameter(np.ones(width))
        self.b = parameter(np.zeros(width))

    def __call__(self, x):
        """One node; backward reads the normalized input and its 1/std."""
        x = Tensor.as_tensor(x)
        out, y, inv = self._forward(x.data, keep_norm=True)
        gamma = self.g.data

        def grad_fn(g, needs):
            nx, ng, nb = needs
            return (layernorm_grad_np(y, inv, g * gamma) if nx else None,
                    _unbroadcast(g * y, gamma.shape) if ng else None,
                    _unbroadcast(g, gamma.shape) if nb else None)

        return _record(out, (x, self.g, self.b), grad_fn)

    def infer(self, x):
        """`layernorm(x) * g + b` into a new array; `x` is left as it is."""
        return self._forward(x, keep_norm=False)[0]

    def _forward(self, x, keep_norm):
        """`layernorm(x) * g + b`, and the normalized `x` and its 1/std.
        Without `keep_norm` the affine overwrites the normalized array."""
        y, inv = layernorm_np(x)
        out = np.multiply(y, self.g.data, out=None if keep_norm else y)
        out += self.b.data
        return out, y, inv

    def params(self, prefix):
        return {prefix + ".g": self.g, prefix + ".b": self.b}


class CausalSelfAttention:
    """Single-head attention with 1/sqrt(d) scaling and a causal mask."""

    def __init__(self, width, rng, p_drop):
        self.qkv = Linear(width, 3 * width, rng, init="gpt")
        self.proj = Linear(width, width, rng, init="gpt")
        self.width = width
        self.p_drop = p_drop

    def __call__(self, x, causal_bias, pad_bias, rng, training):
        """One node over the input and the four weights; backward reads the
        input, q, kᵀ, v, the attention pattern, its dropout mask and the
        attended values."""
        x = Tensor.as_tensor(x)
        d, saved = self.width, {}
        out = self._forward(x.data, causal_bias, pad_bias,
                            rng if training and self.p_drop > 0.0 else None, saved)
        xd, w_qkv, w_proj = x.data, self.qkv.w.data, self.proj.w.data
        q, k_t, scale, v, att, mask, y = (saved[k] for k in
                                          ("q", "k_t", "scale", "v", "att", "mask", "y"))

        def grad_fn(g, needs):
            inner = any(needs[:3])
            gy, gw_proj, gb_proj = _linear_grads(y, w_proj, g, (inner,) + needs[3:])
            if not inner:
                return None, None, None, gw_proj, gb_proj
            att_d = att if mask is None else att * mask
            g_att = np.matmul(gy, np.swapaxes(v, -1, -2))
            g_v = np.matmul(np.swapaxes(att_d, -1, -2), gy)
            del att_d
            if mask is not None:
                g_att = g_att * mask
            g_s = softmax_grad_np(att, g_att) * scale
            # zeros plus one `+=` per slice, as the three slices' gradients
            # summed: a -0 comes out as +0
            g_qkv = np.zeros(q.shape[:-1] + (3 * d,), dtype=q.dtype)
            g_qkv[..., :d] += np.matmul(g_s, np.swapaxes(k_t, -1, -2))
            g_qkv[..., d:2 * d] += np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_s), -1, -2)
            g_qkv[..., 2 * d:] += g_v
            return _linear_grads(xd, w_qkv, g_qkv, needs[:3]) + (gw_proj, gb_proj)

        return _record(out, (x, self.qkv.w, self.qkv.b, self.proj.w, self.proj.b), grad_fn)

    def infer(self, x, causal_bias, pad_bias):
        return self._forward(x, causal_bias, pad_bias)

    def _forward(self, x, causal_bias, pad_bias, rng=None, saved=None):
        """The attention forward on arrays. With `rng` it drops out of the
        attention pattern; a `saved` dict receives what the taped backward
        reads. Every other temporary is freed once used. q, kᵀ and v are
        contiguous copies, the scale is a 0-d array of the scores' dtype and
        the biases are cast to it, as the composed tape ops had them."""
        d = self.width
        qkv = self.qkv.infer(x)
        q = qkv[..., :d].copy()
        k_t = qkv[..., d:2 * d].swapaxes(-1, -2).copy()
        v = qkv[..., 2 * d:].copy()
        del qkv
        att = np.matmul(q, k_t)
        scale = np.asarray(1.0 / np.sqrt(d), dtype=att.dtype)
        if saved is not None:
            saved.update(q=q, k_t=k_t, scale=scale)
        del q, k_t
        att *= scale
        att += causal_bias.astype(att.dtype, copy=False)
        if pad_bias is not None:
            att += pad_bias.astype(att.dtype, copy=False)
        softmax_np(att, out=att)
        mask = None if rng is None else dropout_mask(att.shape, self.p_drop, rng)
        y = np.matmul(att if mask is None else att * mask, v)
        if saved is not None:
            saved.update(v=v, att=att, mask=mask, y=y)
        del att, v
        return self.proj.infer(y)

    def params(self, prefix):
        out = self.qkv.params(prefix + ".qkv")
        out.update(self.proj.params(prefix + ".proj"))
        return out


class TransformerBlock:
    def __init__(self, width, rng, p_drop):
        self.ln1 = LayerNorm(width)
        self.attn = CausalSelfAttention(width, rng, p_drop)
        self.ln2 = LayerNorm(width)
        self.fc = Linear(width, 4 * width, rng, init="gpt")
        self.fc_out = Linear(4 * width, width, rng, init="gpt")
        self.p_drop = p_drop

    def __call__(self, x, causal_bias, pad_bias, rng, training):
        x = x + self.attn(self.ln1(x), causal_bias, pad_bias, rng, training)
        return x + self._mlp(self.ln2(x), rng if training and self.p_drop > 0.0 else None)

    def _mlp(self, u, rng):
        """fc → ReLU → fc_out → dropout as one node; backward reads the
        input, the ReLU output (its own mask) and the dropout mask."""
        ud, w_fc, w_out = u.data, self.fc.w.data, self.fc_out.w.data
        out, h, mask = self._mlp_forward(ud, rng)

        def grad_fn(g, needs):
            if mask is not None:
                g = g * mask
            inner = any(needs[:3])
            gh, gw_out, gb_out = _linear_grads(h, w_out, g, (inner,) + needs[3:])
            if not inner:
                return None, None, None, gw_out, gb_out
            return _linear_grads(ud, w_fc, gh * (h > 0), needs[:3]) + (gw_out, gb_out)

        return _record(out, (u, self.fc.w, self.fc.b, self.fc_out.w, self.fc_out.b), grad_fn)

    def _mlp_forward(self, u, rng=None):
        """The MLP on arrays: its output, the ReLU output and the dropout
        mask drawn from `rng` (None without one)."""
        h = self.fc.infer(u)
        relu_np(h, out=h)
        out = self.fc_out.infer(h)
        mask = None if rng is None else dropout_mask(out.shape, self.p_drop, rng)
        return (out if mask is None else out * mask), h, mask

    def infer(self, x, causal_bias, pad_bias):
        """Updates `x` in place."""
        x += self.attn.infer(self.ln1.infer(x), causal_bias, pad_bias)
        x += self._mlp_forward(self.ln2.infer(x))[0]
        return x

    def params(self, prefix):
        out = {}
        out.update(self.ln1.params(prefix + ".ln1"))
        out.update(self.attn.params(prefix + ".attn"))
        out.update(self.ln2.params(prefix + ".ln2"))
        out.update(self.fc.params(prefix + ".fc"))
        out.update(self.fc_out.params(prefix + ".fc_out"))
        return out


class GptBlockStack:
    """Stack of causal transformer blocks with learned position embeddings.

    Input is a (batch, tokens, width) embedding tensor; output has the same
    shape. `pad_mask` (batch, tokens) with 1 = real token, 0 = padding,
    removes padded positions from every attention pattern. `rng=None` builds
    zero weights for a checkpoint load to fill (see `Linear`).
    """

    def __init__(self, width=128, n_blocks=4, n_tokens=120, p_drop=0.1, rng=None):
        self.width = width
        self.n_tokens = n_tokens
        self.pos = parameter(np.zeros((n_tokens, width)) if rng is None
                             else rng.normal(0.0, 0.02, size=(n_tokens, width)))
        self.blocks = [TransformerBlock(width, rng, p_drop) for _ in range(n_blocks)]
        self.ln_f = LayerNorm(width)

    def __call__(self, tok_emb, training=False, rng=None, pad_mask=None):
        """Taped forward; with the tape off (`no_grad`) and not training, the
        numpy path `infer`, wrapped in an untracked Tensor. This is the
        package's one tape-off switch. Training draws its dropout masks from
        `rng`, which it therefore needs."""
        if training and rng is None:
            raise ValueError("GptBlockStack: a training forward needs an rng for its dropout draws")
        if not grad_enabled() and not training:
            return Tensor(self.infer(tok_emb, pad_mask))
        tok_emb = Tensor.as_tensor(tok_emb)
        causal, pad_bias = self._biases(tok_emb, pad_mask)
        x = tok_emb + self.pos[:tok_emb.shape[-2]]
        for block in self.blocks:
            x = block(x, causal, pad_bias, rng, training)
        return self.ln_f(x)

    def infer(self, tok_emb, pad_mask=None):
        tok_emb = Tensor.as_tensor(tok_emb).data
        causal, pad_bias = self._biases(tok_emb, pad_mask)
        x = tok_emb + self.pos.data[:tok_emb.shape[-2]]
        for block in self.blocks:
            x = block.infer(x, causal, pad_bias)
        return self.ln_f.infer(x)

    def _biases(self, tok_emb, pad_mask):
        """The causal (t, t) and padding (batch, t, t) additive masks."""
        t = tok_emb.shape[-2]
        if tok_emb.shape[-1] != self.width:
            raise ValueError(f"GptBlockStack expects width {self.width}, got {tok_emb.shape[-1]}")
        if t > self.n_tokens:
            raise ValueError(f"sequence of {t} tokens exceeds window {self.n_tokens}")
        dt = tok_emb.dtype
        causal = np.where(np.tri(t, dtype=bool), 0.0, -1e9).astype(dt)
        pad_bias = None
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask)
            pad_bias = np.where(pad_mask[:, None, :] > 0, 0.0, -1e9).astype(dt)
            pad_bias = np.broadcast_to(pad_bias, (pad_bias.shape[0], t, t)).copy()
            # keep the diagonal open so fully padded query rows stay finite
            pad_bias[:, np.arange(t), np.arange(t)] = 0.0
        return causal, pad_bias

    def params(self, prefix=""):
        out = {prefix + "pos": self.pos}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}blk{i}"))
        out.update(self.ln_f.params(prefix + "ln_f"))
        return out


class StaleParameterError(RuntimeError):
    """A parameter's `data` was rebound after its optimizer took over its
    storage, so a step would train a copy nobody reads."""


class TrainingDiverged(RuntimeError):
    """A training loss was not finite, so no step was taken."""


class AdamW:
    """AdamW with bias correction and a linear warmup ramp to a flat lr.

    The optimizer owns its parameters' storage. `__init__` copies them into
    one flat buffer of their shared dtype and rebinds each `p.data` to a view
    of its segment, so `step` updates every parameter in one in-place pass.
    Write a parameter in place (`p.data[...] = x`) and never rebind
    `p.data`: `step` raises `StaleParameterError` for a rebound parameter.
    """

    def __init__(self, params, lr, warmup=0):
        self.params = dict(params)
        self.lr = lr
        self.warmup = warmup
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise ValueError(f"AdamW needs one parameter dtype, got {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        self.flat = np.empty(sum(p.data.size for p in self.params.values()), dtype=dtype)
        self.segments, offset = {}, 0
        for name, p in self.params.items():
            seg = self.segments[name] = slice(offset, offset + p.data.size)
            offset = seg.stop
            view = self.flat[seg].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self._scratch = np.empty_like(self.flat)

    def effective_lr(self):
        if self.warmup > 0:
            return self.lr * min(1.0, self.step_count / self.warmup)
        return self.lr

    def minimize(self, loss, what):
        """One training step on a scalar `loss`: clear every gradient,
        backpropagate and step. A non-finite loss raises `TrainingDiverged`
        naming `what`, before anything is touched. Returns the loss."""
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite {what} ({value}); training aborted")
        for p in self.params.values():
            p.grad = None
        loss.backward()
        self.step()
        return value

    def step(self):
        """Update every parameter. A caller hands `AdamW` only what it trains,
        so a missing gradient, like a non-finite one or a rebound parameter,
        raises before anything is written."""
        for name, p in self.params.items():
            if p.data.base is not self.flat:
                raise StaleParameterError(
                    f"parameter '{name}' was rebound after AdamW took over its storage; "
                    "write p.data in place")
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient; step rejected")
            grad = self._grad[self.segments[name]].reshape(p.data.shape)
            np.copyto(grad, p.grad, casting="unsafe")
        if not np.isfinite(self._grad).all():
            name = next(k for k, seg in self.segments.items()
                        if not np.isfinite(self._grad[seg]).all())
            raise ValueError(f"non-finite gradient for parameter '{name}'; step rejected")
        lr_eff = self.effective_lr()
        self.step_count += 1
        self._update(lr_eff)

    def _update(self, lr_eff):
        """One AdamW step on the whole buffer. Each ufunc keeps the operand
        order and the Python-float scalars of the formula in its comment, so
        the bits equal those of the same formula evaluated per parameter."""
        b1, b2 = ADAM_BETAS
        t = self.step_count
        x, g, m, v, s1 = self.flat, self._grad, self.m, self.v, self._scratch
        np.multiply(b1, m, out=m)
        np.multiply(1 - b1, g, out=s1)
        np.add(m, s1, out=m)                     # m = b1*m + (1-b1)*g
        np.multiply(b2, v, out=v)
        np.multiply(1 - b2, g, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)                     # v = b2*v + (1-b2)*g*g
        s2 = g                                   # g is not read again: reuse it
        np.divide(m, 1 - b1 ** t, out=s1)        # mhat
        np.divide(v, 1 - b2 ** t, out=s2)        # vhat
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)                # upd = mhat / (sqrt(vhat) + eps)
        np.multiply(lr_eff, s1, out=s1)
        np.subtract(x, s1, out=x)                # x - lr_eff*upd


# -- checkpoint IO ("CKP1") ---------------------------------------------------

def save_checkpoint(path, tensors, meta=None):
    """Write named float32 arrays plus string metadata to a CKP1 file."""
    entries = []
    for key, value in (meta or {}).items():
        entries.append((f"{_META_PREFIX}{key}={value}", np.zeros((), dtype=np.float32)))
    for name, arr in tensors.items():
        entries.append((name, np.asarray(arr, dtype=np.float32)))
    with open(path, "wb") as f:
        f.write(CKP_MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            f.write(binio.pack_str(name))
            f.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            f.write(arr.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read a CKP1 file; returns (tensors: dict, meta: dict).

    Raises `CheckpointError` naming the file on a bad magic, a short read
    anywhere (header, name, dims or payload) or trailing bytes."""
    r = binio.Reader(path, CKP_MAGIC, CheckpointError)
    (count,) = r.unpack("I", "header")
    tensors, meta = {}, {}
    for _ in range(count):
        name = r.string("tensor name")
        (rank,) = r.unpack("B", "rank")
        dims = r.unpack(f"{rank}I", "dims")
        arr = r.array("<f4", dims, f"payload of '{name}'")
        if name.startswith(_META_PREFIX):
            key, _, value = name[len(_META_PREFIX):].partition("=")
            meta[key] = value
        else:
            tensors[name] = arr
    r.end()
    return tensors, meta


def assign_params(params, tensors):
    """Load checkpoint arrays into a params dict, writing each `p.data` in
    place so optimizer-owned storage stays shared."""
    for key, p in params.items():
        if key not in tensors:
            raise KeyError(f"checkpoint missing tensor '{key}'")
        arr = tensors[key]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for '{key}': {arr.shape} vs {p.data.shape}")
        p.data[...] = arr
