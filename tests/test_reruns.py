"""Byte-identical reruns of every stage after train-rl, driven through
`pipeline` on a tiny tube config. Criterion 10 covers phantom and train-rl;
this covers eds, pretrain, finetune, mcpft, track with every actor kind and
evaluate, so any change that claims the same bytes is checked on each of
them. Whole manifests are compared, all but their wall time."""

import shutil

import pytest

from tractfuse import agents, pipeline
from tractfuse.config import resolve_config

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


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """Two runs of the stages after train-rl, each from a copy of one
    shared phantom + policies directory; returns {tag: {stage: manifest}}
    with each manifest's wall time dropped."""
    cfg = resolve_config(TINY, preset="desk")
    base = tmp_path_factory.mktemp("upstream")
    pipeline.stage_phantom(cfg, base)
    for algo in agents.ALGOS:
        pipeline.stage_train_rl(cfg, base, algo)
    runs = {}
    for tag in ("r1", "r2"):
        out = tmp_path_factory.mktemp(tag) / "run"
        shutil.copytree(base, out)
        for stage, run in STAGES:
            run(cfg, out)
        runs[tag] = {}
        for stage, _ in STAGES:
            manifest = pipeline.read_manifest(out, stage)
            del manifest["wall_time_s"]
            runs[tag][stage] = manifest
    return runs


@pytest.mark.parametrize("stage", [s for s, _ in STAGES])
def test_stage_rerun_byte_identical(reruns, stage):
    first, second = reruns["r1"][stage], reruns["r2"][stage]
    assert first["outputs"], f"{stage} recorded no outputs"
    assert first == second
