"""The benchmark's span table against the package. Every span in
`perfbench/child.py`'s SPANS names an attribute that exists, and a small
tube run of `eds`, `track` and `evaluate` under the benchmark's tracer
enters the functions that the benchmark's expected-call matrix needs
entered. A refactor that moves their work out of those functions, or loads
their module too late for the tracer to wrap it, fails here and not first
in the benchmark."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from tractfuse import cli

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
KERNELS = ("phantom.peaks_at", "phantom.sample_field", "env.build_states",
           "geometry.min_mdf_to_refs", "trackeval.voxelize")
EDS_SPANS = ("eds.harvest", "eds.across_policy_select", "eds.within_policy_filter",
             "eds.save_records")
TUBE = """\
phantom.kind = straight-tube
phantom.dims = 20,10,10
rl.batches = 2
rl.episodes_per_batch = 8
rl.grad_steps_per_batch = 4
rl.batch_size = 16
rl.hidden = 8
eds.window = 8
eds.seeds_per_voxel = 1
eds.min_transitions = 4
eds.mdf_threshold_mm = 50
eds.pretrain_target = 20
eds.finetune_target = 10
"""


def spans():
    """SPANS of perfbench/child.py, read from its source without running it."""
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} holds no SPANS table")


def resolve(module, path):
    """The owner of the attribute a span wraps, and the attribute itself."""
    owner = importlib.import_module(f"tractfuse.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr)


def test_every_span_resolves():
    table = spans()
    assert len(table) > 30
    assert set(KERNELS) | set(EDS_SPANS) <= {name for name, _, _ in table}
    for name, module, path in table:
        assert name.startswith(f"{module}."), name
        _, target = resolve(module, path)
        assert callable(target), name


def test_eds_track_and_evaluate_enter_the_benchmarked_functions(tmp_path):
    """The benchmark's own tracer (`perfbench/child.py`, run unchanged in a
    fresh process, as the benchmark runs it) counts the calls."""
    cfg = tmp_path / "tube.cfg"
    cfg.write_text(TUBE)
    out = tmp_path / "run"
    args = ["--preset", "desk", "--config", str(cfg), "--out", str(out)]
    assert cli.main(args + ["phantom"]) == 0
    for algo in ("td3", "sac", "ddpg"):
        assert cli.main(args + ["train-rl", "--algo", algo]) == 0
    stages = [["eds"], ["track", "--algo", "td3", "--bundle", "bundle"], ["evaluate"]]
    spec, trace = tmp_path / "spec.json", tmp_path / "trace.json"
    spec.write_text(json.dumps({"stages": [args + s for s in stages], "trace": str(trace)}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, str(CHILD), str(spec)], env=env, check=True,
                   capture_output=True)
    calls = json.loads(trace.read_text())["calls"]
    names = KERNELS + EDS_SPANS
    assert {n: calls.get(n, 0) > 0 for n in names} == dict.fromkeys(names, True)
