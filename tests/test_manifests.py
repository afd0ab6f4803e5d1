"""Every stage's manifest lists exactly what the stage read and wrote: on a
two-bundle crossing run from phantom through evaluate, with all six track
actors, `inputs` must equal the artifacts the stage opened (every artifact
reader goes through `binio.Reader`) and `outputs` the files it wrote."""

import json
import shutil
from pathlib import Path

import pytest

from tractfuse import agents, binio, pipeline
from tractfuse.config import resolve_config

pytestmark = pytest.mark.filterwarnings("ignore:.*records for target")

CROSSING = """\
phantom.kind = crossing-pair
phantom.dims = 16,16,8
phantom.radius = 2.0
env.max_steps = 20
rl.batches = 1
rl.episodes_per_batch = 8
rl.grad_steps_per_batch = 2
rl.batch_size = 16
rl.hidden = 16
eds.window = 8
eds.seeds_per_voxel = 1
eds.min_transitions = 2
eds.mdf_threshold_mm = 50.0
eds.reference_count = 4
eds.pretrain_target = 8
eds.finetune_target = 4
fusion.context = 5
fusion.width = 16
fusion.blocks = 1
fusion.batch_size = 4
fusion.pretrain_iters = 1
fusion.finetune_iters = 1
fusion.updates_per_iter = 2
mcpft.iters = 1
mcpft.batch_size = 4
mcpft.actor_updates = 1
mcpft.rollout_episodes = 2
track.seeds_per_voxel = 1
"""

BUNDLES = ("bundle_a", "bundle_b")
TRACKERS = agents.ALGOS + ("avg", "maxq", "fusion")
STAGES = (
    [("phantom", lambda cfg, out: pipeline.stage_phantom(cfg, out))]
    + [(f"train-rl-{a}", lambda cfg, out, a=a: pipeline.stage_train_rl(cfg, out, a))
       for a in agents.ALGOS]
    + [("eds", lambda cfg, out: pipeline.stage_eds(cfg, out)),
       ("pretrain", lambda cfg, out: pipeline.stage_pretrain(cfg, out))]
    + [(f"{s}-{b}", lambda cfg, out, s=s, b=b: getattr(pipeline, f"stage_{s}")(cfg, out, b))
       for b in BUNDLES for s in ("finetune", "mcpft")]
    + [(f"track-{a}-{b}", lambda cfg, out, a=a, b=b: pipeline.stage_track(cfg, out, a, b))
       for a in TRACKERS for b in BUNDLES]
    + [("evaluate", lambda cfg, out: pipeline.stage_evaluate(cfg, out))]
)


def stamps(out):
    """(mtime, size) of every file in `out` except the manifests."""
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in out.iterdir()
            if not p.name.startswith("manifest_")}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Runs every stage once; returns the config, the run directory and
    {stage: (opened names, written names, manifest)}."""
    cfg = resolve_config(CROSSING, preset="desk")
    out = tmp_path_factory.mktemp("crossing") / "run"
    opened = []
    init = binio.Reader.__init__

    def recording_init(self, path, magic, error):
        opened.append(path)
        init(self, path, magic, error)

    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binio.Reader, "__init__", recording_init)
        for stage, run in STAGES:
            before = stamps(out) if out.exists() else {}
            opened.clear()
            run(cfg, out)
            written = {n for n, st in stamps(out).items() if before.get(n) != st}
            seen[stage] = ({Path(p).name for p in opened}, written,
                           json.loads((out / f"manifest_{stage}.json").read_text()))
    return cfg, out, seen


@pytest.mark.parametrize("stage", [s for s, _ in STAGES])
def test_manifest_lists_what_the_stage_read_and_wrote(chain, stage):
    _, _, seen = chain
    opened, written, manifest = seen[stage]
    assert written, f"{stage} wrote nothing"
    assert set(manifest["inputs"]) == opened
    assert set(manifest["outputs"]) == written


def test_track_reads_only_its_own_ground_truth(chain, tmp_path):
    """A track run needs the ground truth of its own bundle only."""
    cfg, out, _ = chain
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "gt_bundle_b.stl").unlink()
    pipeline.stage_track(cfg, run, "td3", "bundle_a")
    with pytest.raises(pipeline.StageInputError, match="gt_bundle_b.stl"):
        pipeline.stage_track(cfg, run, "td3", "bundle_b")
