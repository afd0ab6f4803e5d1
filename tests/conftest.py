import contextlib
import tracemalloc

import numpy as np
import pytest

from tractfuse import agents
from tractfuse.autodiff import Tensor
from tractfuse.env import EnvConfig
from tractfuse.phantom import BundleSpec, PhantomSpec, VoxelGrid, generate_phantom


def finite_diff_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def reachable(root):
    """Every tensor on the tape below `root`, `root` included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def tape_nodes(root):
    """Number of tensors reachable from `root` through the tape."""
    return len(reachable(root))


def traced_peak(fn):
    """Run `fn()` under tracemalloc; return its result and the traced peak
    in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture()
def backward_log(monkeypatch):
    """List of (loss bytes, tape nodes), one entry per `Tensor.backward` call."""
    log = []
    original = Tensor.backward

    def recording(self, grad=None):
        log.append((self.data.tobytes(), tape_nodes(self)))
        return original(self, grad)

    monkeypatch.setattr(Tensor, "backward", recording)
    return log


def ref_peaks_at(phantom, position):
    """The per-position `Phantom.peaks_at` that the batched one replaced,
    kept as an oracle: the `(k, 3)` peaks of the nearest in-grid voxel."""
    idx = np.clip(np.rint(position).astype(int), 0, np.asarray(phantom.grid.dims) - 1)
    k = int(phantom.peak_counts[idx[0], idx[1], idx[2]])
    return phantom.peak_dirs[idx[0], idx[1], idx[2], :k]


def keep_all_on_tape(monkeypatch, module):
    """Make `module.frozen` a no-op: every parameter stays on the tape and
    collects gradients; only the optimizer's own parameters step."""
    monkeypatch.setattr(module, "frozen", lambda tensors: contextlib.nullcontext())


@pytest.fixture(scope="session")
def tube_phantom():
    spec = PhantomSpec(
        grid=VoxelGrid(dims=(24, 12, 12), voxel_size=1.0),
        bundles=[BundleSpec(name="tube", kind="straight-tube", radius=2.0)],
        rng_seed=7,
    )
    return generate_phantom(spec)


@pytest.fixture(scope="session")
def crossing_phantom():
    spec = PhantomSpec(
        grid=VoxelGrid(dims=(20, 20, 10), voxel_size=1.0),
        bundles=[BundleSpec(name="pair", kind="crossing-pair", radius=2.0)],
        rng_seed=7,
    )
    return generate_phantom(spec)


@pytest.fixture(scope="session")
def env_cfg():
    return EnvConfig(step_size=0.5, max_steps=60)


@pytest.fixture(scope="session")
def tiny_policies():
    """Untrained, narrow policy bundles — structure oracles, not behavior."""
    return {algo: agents.PolicyBundle(algo, hidden=16, seed=i)
            for i, algo in enumerate(("td3", "sac", "ddpg"))}
