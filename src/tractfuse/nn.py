"""MLP and causal-transformer building blocks, AdamW, and checkpoint IO.

Built on the autodiff tape in `autodiff`. Architectures follow the fixed
shapes used by the pipeline: 3-hidden-layer ReLU MLPs for actors/critics
and a 4-block single-head causal transformer for the fusion policy.

An `AdamW` owns the storage of the parameters it trains: their `data` are
views into its flat buffer. Anything that writes a parameter (the optimizer,
`assign_params`, target-net soft updates) writes `p.data` in place; rebinding
`p.data` detaches the parameter from its optimizer.
"""

from __future__ import annotations

import struct

import numpy as np

from . import binio
from .autodiff import Tensor, concat, dropout, layernorm, relu, softmax

CKP_MAGIC = b"CKP1"
_META_PREFIX = "__meta__/"


class CheckpointError(binio.FormatError):
    """A CKP1 file that is corrupt, truncated or not a checkpoint at all."""


def parameter(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


class Linear:
    def __init__(self, n_in, n_out, rng, init="kaiming"):
        if init == "kaiming":
            bound = np.sqrt(6.0 / n_in)
            w = rng.uniform(-bound, bound, size=(n_in, n_out))
        else:
            w = rng.normal(0.0, 0.02, size=(n_in, n_out))
        self.w = parameter(w)
        self.b = parameter(np.zeros(n_out))
        self.n_in = n_in
        self.n_out = n_out

    def __call__(self, x):
        return x @ self.w + self.b

    def params(self, prefix):
        return {prefix + ".w": self.w, prefix + ".b": self.b}


class Mlp:
    """ReLU-activated fully connected net with 3 hidden layers."""

    N_HIDDEN_LAYERS = 3

    def __init__(self, n_in, n_out, hidden=1024, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        widths = [n_in] + [hidden] * self.N_HIDDEN_LAYERS + [n_out]
        self.layers = [Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]
        self.n_in = n_in
        self.n_out = n_out
        self.hidden = hidden

    def __call__(self, x, training=False):
        x = Tensor.as_tensor(x)
        if x.shape[-1] != self.n_in:
            raise ValueError(f"Mlp expects input width {self.n_in}, got {x.shape[-1]}")
        for layer in self.layers[:-1]:
            x = relu(layer(x))
        return self.layers[-1](x)

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
        return layernorm(x) * self.g + self.b

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
        d = self.width
        qkv = self.qkv(x)
        q, k, v = qkv[..., :d], qkv[..., d:2 * d], qkv[..., 2 * d:]
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        scores = scores + causal_bias
        if pad_bias is not None:
            scores = scores + pad_bias
        att = softmax(scores, axis=-1)
        att = dropout(att, self.p_drop, rng, training)
        return self.proj(att @ v)

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
        h = relu(self.fc(self.ln2(x)))
        h = dropout(self.fc_out(h), self.p_drop, rng, training)
        return x + h

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
    removes padded positions from every attention pattern.
    """

    def __init__(self, width=128, n_blocks=4, n_tokens=120, p_drop=0.1, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.width = width
        self.n_tokens = n_tokens
        self.pos = parameter(rng.normal(0.0, 0.02, size=(n_tokens, width)))
        self.blocks = [TransformerBlock(width, rng, p_drop) for _ in range(n_blocks)]
        self.ln_f = LayerNorm(width)

    def __call__(self, tok_emb, training=False, rng=None, pad_mask=None):
        tok_emb = Tensor.as_tensor(tok_emb)
        t = tok_emb.shape[-2]
        if tok_emb.shape[-1] != self.width:
            raise ValueError(f"GptBlockStack expects width {self.width}, got {tok_emb.shape[-1]}")
        if t > self.n_tokens:
            raise ValueError(f"sequence of {t} tokens exceeds window {self.n_tokens}")
        rng = rng if rng is not None else np.random.default_rng(0)
        dt = tok_emb.dtype
        causal = np.where(np.tri(t, dtype=bool), 0.0, -1e9).astype(dt)
        pad_bias = None
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask)
            pad_bias = np.where(pad_mask[:, None, :] > 0, 0.0, -1e9).astype(dt)
            pad_bias = np.broadcast_to(pad_bias, (pad_bias.shape[0], t, t)).copy()
            # keep the diagonal open so fully padded query rows stay finite
            pad_bias[:, np.arange(t), np.arange(t)] = 0.0
        x = tok_emb + self.pos[:t]
        for block in self.blocks:
            x = block(x, causal, pad_bias, rng, training)
        return self.ln_f(x)

    def params(self, prefix=""):
        out = {prefix + "pos": self.pos}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}blk{i}"))
        out.update(self.ln_f.params(prefix + "ln_f"))
        return out


class StaleParameterError(RuntimeError):
    """A parameter's `data` was rebound after its optimizer took over its
    storage, so a step would train a copy nobody reads."""


class AdamW:
    """AdamW with bias correction and a linear warmup ramp to a flat lr.

    The optimizer owns its parameters' storage. `__init__` copies them into
    one flat buffer of their shared dtype and rebinds each `p.data` to a view
    of its segment, so `step` updates every parameter in one in-place pass.
    Write a parameter in place (`p.data[...] = x`) and never rebind
    `p.data`: `step` raises `StaleParameterError` for a rebound parameter.
    """

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, warmup=0):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
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

    def step(self):
        with_grad = []
        for name, p in self.params.items():
            if p.data.base is not self.flat:
                raise StaleParameterError(
                    f"parameter '{name}' was rebound after AdamW took over its storage; "
                    "write p.data in place")
            if p.grad is not None:
                grad = self._grad[self.segments[name]].reshape(p.data.shape)
                np.copyto(grad, p.grad, casting="unsafe")
                with_grad.append(name)
        # one pass over the whole buffer, or one per segment when some
        # parameters have no gradient and must keep their m, v and data
        segs = [slice(None)] if len(with_grad) == len(self.params) \
            else [self.segments[name] for name in with_grad]
        if not all(np.isfinite(self._grad[seg]).all() for seg in segs):
            name = next(k for k in with_grad
                        if not np.isfinite(self._grad[self.segments[k]]).all())
            raise ValueError(f"non-finite gradient for parameter '{name}'; step rejected")
        lr_eff = self.effective_lr()
        self.step_count += 1
        for seg in segs:
            self._update(seg, lr_eff)

    def _update(self, seg, lr_eff):
        """One AdamW step on `flat[seg]`. Each ufunc keeps the operand order
        and the Python-float scalars of the formula in its comment, so the
        bits equal those of the same formula evaluated per parameter."""
        b1, b2 = self.betas
        t = self.step_count
        x, g, m, v, s1 = (a[seg] for a in (self.flat, self._grad, self.m, self.v, self._scratch))
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
        np.add(s2, self.eps, out=s2)
        np.divide(s1, s2, out=s1)                # upd = mhat / (sqrt(vhat) + eps)
        if self.weight_decay:
            np.multiply(self.weight_decay, x, out=s2)
            np.add(s1, s2, out=s1)               # upd + wd*x
        np.multiply(lr_eff, s1, out=s1)
        np.subtract(x, s1, out=x)                # x - lr_eff*upd

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


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
