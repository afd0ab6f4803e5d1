"""Byte-identical reruns of every stage after train-rl, driven through
`pipeline` on a tiny tube config. Criterion 10 covers phantom and train-rl;
this covers eds, pretrain, finetune, mcpft, track with every actor kind and
evaluate, so any change that claims the same bytes is checked on each of
them. Whole manifests are compared, all but their wall time.

`data/chain_hashes.json` is a hash ledger: the SHA-256 of every artifact of
the chain, phantom and train-rl included, per numpy and OpenBLAS build (the
bits of a float op may change with either). On a build it lists, every hash
must match; on any other build that check is skipped. A change that alters
bytes on purpose rewrites the ledger for this build with

    PYTHONPATH=src python tests/test_reruns.py

and its diff then names every artifact that changed."""

import ctypes
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import tractfuse
from tractfuse import agents, pipeline
from tractfuse.config import resolve_config

LEDGER = Path(__file__).resolve().parent / "data" / "chain_hashes.json"

TINY = """\
phantom.kind = straight-tube
phantom.dims = 20,10,10
env.max_steps = 40
rl.batches = 1
rl.episodes_per_batch = 8
rl.grad_steps_per_batch = 4
rl.batch_size = 32
rl.hidden = 16
eds.window = 4
eds.seeds_per_voxel = 1
eds.min_transitions = 5
eds.mdf_threshold_mm = 50.0
eds.reference_count = 4
eds.pretrain_target = 24
eds.finetune_target = 12
fusion.context = 6
fusion.width = 16
fusion.blocks = 2
fusion.batch_size = 4
fusion.pretrain_iters = 1
fusion.finetune_iters = 1
fusion.updates_per_iter = 3
mcpft.iters = 1
mcpft.batch_size = 4
mcpft.actor_updates = 2
mcpft.rollout_episodes = 2
"""

BUNDLE = "bundle"
STAGES = [
    ("eds", lambda cfg, out: pipeline.stage_eds(cfg, out)),
    ("pretrain", lambda cfg, out: pipeline.stage_pretrain(cfg, out)),
    (f"finetune-{BUNDLE}", lambda cfg, out: pipeline.stage_finetune(cfg, out, BUNDLE)),
    (f"mcpft-{BUNDLE}", lambda cfg, out: pipeline.stage_mcpft(cfg, out, BUNDLE)),
    (f"track-fusion-{BUNDLE}",
     lambda cfg, out: pipeline.stage_track(cfg, out, "fusion", BUNDLE)),
    (f"track-td3-{BUNDLE}", lambda cfg, out: pipeline.stage_track(cfg, out, "td3", BUNDLE)),
    (f"track-avg-{BUNDLE}", lambda cfg, out: pipeline.stage_track(cfg, out, "avg", BUNDLE)),
    (f"track-maxq-{BUNDLE}", lambda cfg, out: pipeline.stage_track(cfg, out, "maxq", BUNDLE)),
    ("evaluate", lambda cfg, out: pipeline.stage_evaluate(cfg, out)),
]


def upstream(base):
    """Run phantom and train-rl for every algo into `base`; returns the config."""
    cfg = resolve_config(TINY, preset="desk")
    pipeline.stage_phantom(cfg, base)
    for algo in agents.ALGOS:
        pipeline.stage_train_rl(cfg, base, algo)
    return cfg


def manifest(path):
    """A manifest without its wall time, the one field that differs between
    identical runs."""
    m = json.loads(Path(path).read_text())
    del m["wall_time_s"]
    return m


def chain_hashes(outdir):
    """SHA-256 of every artifact in `outdir`; a manifest is hashed as its
    sorted JSON without its wall time."""
    return {p.name: hashlib.sha256(json.dumps(manifest(p), sort_keys=True).encode()
                                   if p.name.startswith("manifest_") else p.read_bytes()
                                   ).hexdigest()
            for p in sorted(Path(outdir).iterdir())}


def build():
    """The numpy version, OpenBLAS config string and OpenBLAS core name of
    this process, read through the library `tractfuse` pinned to one thread."""
    lib = tractfuse._one_blas_thread()
    names = []
    for fn in ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"):
        get = getattr(lib, fn, None)
        if get is None:
            names.append("no scipy-openblas")
        else:
            get.restype = ctypes.c_char_p
            names.append(get().decode())
    return " | ".join([f"numpy {np.__version__}"] + names)


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """Two runs of the stages after train-rl, each from a copy of one
    shared phantom + policies directory; returns {tag: {stage: manifest}}
    with each manifest's wall time dropped, plus the last run's
    `chain_hashes` under "hashes"."""
    base = tmp_path_factory.mktemp("upstream")
    cfg = upstream(base)
    runs = {}
    for tag in ("r1", "r2"):
        out = tmp_path_factory.mktemp(tag) / "run"
        shutil.copytree(base, out)
        for stage, run in STAGES:
            run(cfg, out)
        runs[tag] = {stage: manifest(out / f"manifest_{stage}.json") for stage, _ in STAGES}
    runs["hashes"] = chain_hashes(out)
    return runs


@pytest.mark.parametrize("stage", [s for s, _ in STAGES])
def test_stage_rerun_byte_identical(reruns, stage):
    first, second = reruns["r1"][stage], reruns["r2"][stage]
    assert first["outputs"], f"{stage} recorded no outputs"
    assert first == second


def test_chain_hashes_match_ledger(reruns):
    """Every artifact of the chain has the bytes the ledger records for
    this build."""
    ledger = json.loads(LEDGER.read_text())
    this = build()
    if this not in ledger:
        pytest.skip(f"the hash ledger has no entry for this build ({this}); "
                    f"it lists {sorted(ledger)}")
    assert reruns["hashes"] == ledger[this]


def regenerate():
    """Run the whole chain once and write its hashes into the ledger under
    this build, keeping the entries of other builds."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        out.mkdir()
        cfg = upstream(out)
        for _, run in STAGES:
            run(cfg, out)
        hashes = chain_hashes(out)
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    ledger[build()] = hashes
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"{LEDGER}: {len(hashes)} artifacts for {build()}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
