"""Child process of the benchmark: runs `tractfuse` CLI stages in one process,
optionally with every benchmarked layer wrapped in a span.

    python3 perfbench/child.py SPEC.json

SPEC.json holds {"stages": [[cli args...], ...], "trace": path or null}. The
stages run in order through `tractfuse.cli.main`; the first non-zero exit
code ends the process with that code. With a trace path, the process writes
the per-layer totals there as JSON when every stage has succeeded.

The parent sets PYTHONPATH and the BLAS thread caps in this process's
environment, so numpy loads with them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "tractfuse"

# (metric name, module, attribute path). A metric name is
# "<module>.<name>"; `Class.call` stands for the class's __call__.
SPANS = [
    ("phantom.sample_field", "phantom", "sample_field"),
    ("phantom.peaks_at", "phantom", "Phantom.peaks_at"),
    ("phantom.load_phantom", "phantom", "load_phantom"),
    ("env.build_states", "env", "build_states"),
    ("env.BatchTracker.step", "env", "BatchTracker.step"),
    ("env.BatchTracker.reset", "env", "BatchTracker.reset"),
    ("agents.PolicyBundle.act", "agents", "PolicyBundle.act"),
    ("agents.PolicyBundle.q_value", "agents", "PolicyBundle.q_value"),
    ("agents.sample_seeds", "agents", "sample_seeds"),
    ("agents.rollout", "agents", "rollout"),
    ("agents.train_policy", "agents", "train_policy"),
    ("autodiff.Tensor.backward", "autodiff", "Tensor.backward"),
    ("nn.Mlp.call", "nn", "Mlp.__call__"),
    ("nn.GptBlockStack.call", "nn", "GptBlockStack.__call__"),
    ("nn.AdamW.step", "nn", "AdamW.step"),
    ("nn.save_checkpoint", "nn", "save_checkpoint"),
    ("nn.load_checkpoint", "nn", "load_checkpoint"),
    ("eds.harvest", "eds", "harvest"),
    ("eds.across_policy_select", "eds", "across_policy_select"),
    ("eds.within_policy_filter", "eds", "within_policy_filter"),
    ("eds.save_records", "eds", "save_records"),
    ("eds.load_records", "eds", "load_records"),
    ("geometry.min_mdf_to_refs", "geometry", "min_mdf_to_refs"),
    ("geometry.farthest_sample", "geometry", "farthest_sample"),
    ("geometry.save_streamlines", "geometry", "save_streamlines"),
    ("geometry.load_streamlines", "geometry", "load_streamlines"),
    ("fusion.sample_windows", "fusion", "sample_windows"),
    ("fusion.FusionModel.predict_actions", "fusion", "FusionModel.predict_actions"),
    ("fusion.FusionModel.act", "fusion", "FusionModel.act"),
    ("fusion.FusionTracker.run", "fusion", "FusionTracker.run"),
    ("fusion.loss_dist_cos", "fusion", "loss_dist_cos"),
    ("trackeval.seed_positions", "trackeval", "seed_positions"),
    ("trackeval.post_filter", "trackeval", "post_filter"),
    ("trackeval.voxelize", "trackeval", "voxelize"),
    ("trackeval.score", "trackeval", "score"),
    ("pipeline.write_manifest", "pipeline", "write_manifest"),
    ("pipeline.verify_provenance", "pipeline", "verify_provenance"),
    ("pipeline.load_phantom_with_gt", "pipeline", "load_phantom_with_gt"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tape_nodes(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# Counters read before a call: fn(counts, args, kwargs).
def _before_sample_field(counts, args, kwargs):
    pos = np.asarray(_arg(args, kwargs, 1, "positions"))
    counts["phantom.sample_field.points"] += pos.size // 3
    counts["phantom.sample_field.single_point_calls"] += int(pos.ndim == 1)


def _before_step(counts, args, kwargs):
    tracker = args[0]
    counts["env.BatchTracker.step.rows"] += tracker.n
    counts["env.BatchTracker.step.live_rows"] += int(tracker.active.sum())


def _before_policy_act(counts, args, kwargs):
    counts["agents.PolicyBundle.act.rows"] += np.atleast_2d(_arg(args, kwargs, 1, "states")).shape[0]


def _before_fusion_act(counts, args, kwargs):
    counts["fusion.FusionModel.act.rows"] += np.shape(_arg(args, kwargs, 1, "rtg"))[0]


def _before_backward(counts, args, kwargs):
    counts["autodiff.Tensor.backward.tape_nodes"] += _tape_nodes(args[0])


def _before_load(metric, index, name):
    def count(counts, args, kwargs):
        counts[metric] += os.path.getsize(_arg(args, kwargs, index, name))
    return count


def _before_post_filter(counts, args, kwargs):
    counts["trackeval.post_filter.in"] += len(_arg(args, kwargs, 0, "streamlines"))


BEFORE = {
    "phantom.sample_field": _before_sample_field,
    "env.BatchTracker.step": _before_step,
    "agents.PolicyBundle.act": _before_policy_act,
    "fusion.FusionModel.act": _before_fusion_act,
    "autodiff.Tensor.backward": _before_backward,
    "eds.load_records": _before_load("eds.load_records.bytes", 0, "path"),
    "nn.load_checkpoint": _before_load("nn.load_checkpoint.bytes", 0, "path"),
    "trackeval.post_filter": _before_post_filter,
}


# Counters read after a call: fn(counts, args, kwargs, result).
def _after_harvest(counts, args, kwargs, result):
    counts["eds.harvest.records"] += sum(len(v) for v in result.values())


def _after_save_records(counts, args, kwargs, result):
    counts["eds.save_records.records"] += len(_arg(args, kwargs, 0, "records"))
    counts["eds.save_records.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_save_checkpoint(counts, args, kwargs, result):
    counts["nn.save_checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _after_post_filter(counts, args, kwargs, result):
    counts["trackeval.post_filter.kept"] += len(result)


AFTER = {
    "eds.harvest": _after_harvest,
    "eds.save_records": _after_save_records,
    "nn.save_checkpoint": _after_save_checkpoint,
    "trackeval.post_filter": _after_post_filter,
}


class Tracer:
    """Per-layer call counts and self times, kept in memory.

    A span's self time is its duration minus the durations of the spans it
    encloses. Time spent in the counters themselves is charged to no span.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # per open span: seconds covered by its children

    def _charge_parent(self, seconds):
        if self._stack:
            self._stack[-1] += seconds

    def wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                t = time.perf_counter()
                before(self.counts, args, kwargs)
                self._charge_parent(time.perf_counter() - t)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - children
                self._charge_parent(dur)
            if after is not None:
                t = time.perf_counter()
                after(self.counts, args, kwargs, result)
                self._charge_parent(time.perf_counter() - t)
            return result

        return traced

    def count_hashed(self, fn):
        def counted(path):
            self.counts["pipeline.hashed_bytes"] += os.path.getsize(path)
            return fn(path)
        return counted

    def install(self):
        """Wrap every SPANS target, at every module binding that holds it."""
        importlib.import_module(f"{PACKAGE}.cli")
        pipeline = importlib.import_module(f"{PACKAGE}.pipeline")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module, path in SPANS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
            else:
                fn = getattr(owner, attr)
                _rebind(modules, fn, self.wrap(name, fn))
        _rebind(modules, pipeline._sha256, self.count_hashed(pipeline._sha256))

    def report(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _rebind(modules, original, replacement):
    """Point every module attribute bound to `original` at `replacement`;
    `from x import f` makes a binding of its own in each importing module."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def main(argv):
    with open(argv[1]) as f:
        spec = json.load(f)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    from tractfuse import cli

    for stage in spec["stages"]:
        rc = cli.main(stage)
        if rc != 0:
            return rc
    if tracer is not None:
        with open(spec["trace"], "w") as f:
            json.dump(tracer.report(), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
