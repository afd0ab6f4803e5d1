#!/usr/bin/env python3
"""tractfuse benchmark: chains of real `tractfuse` CLI stages, one workload
per invocation, timed from outside with tracing off or traced layer by layer.

    python3 perfbench/run.py --workload harvest-track --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root. A run sets up its workload's upstream
artifacts SETUP_REPEATS times through the CLI (the median of those times is
`setup_s`), then repeats the timed stage chain, each time in a fresh copy of
the set-up artifacts, until --seconds have passed. Each stage is its own
child process; its wall time, CPU time and peak RSS come from `os.wait4`.
With --trace 1 the run ends with one more chain whose stages wrap the public
functions of every layer (perfbench/child.py) and reports per-layer metrics
instead. The last line of standard output is one JSON object with the
result. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
RESULTS = ROOT / ".bench_results"

DEFAULT_SEED = 0  # seed 97 is held out: it was never run while the benchmark was tuned
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
ALGOS = ("td3", "sac", "ddpg")
BUNDLES = ("bundle_a", "bundle_b")
TRACKERS = ALGOS + ("avg", "maxq")

# Sizes on top of `--preset desk`. The tube is acceptance criterion 07's
# phantom. The crossing is the desk crossing shrunk to 24x24x8 voxels, so that
# a whole set-up (three policies, EDS, pretrain, finetune and MCPFT) takes
# seconds while the policies still track far enough for every bundle to fill
# its EDS targets and score a non-zero Dice. EDS windows of 8 voxels span the
# tube's cross-section, so each holds interior voxels and always yields seeds.
RL_CONFIG = """\
phantom.kind = straight-tube
phantom.dims = 48,12,12
rl.batches = 4
rl.episodes_per_batch = 32
rl.grad_steps_per_batch = 160
rl.batch_size = 128
rl.hidden = 64
"""
CROSSING_CONFIG = """\
phantom.dims = 24,24,8
rl.batches = 3
rl.episodes_per_batch = 32
rl.grad_steps_per_batch = 50
rl.batch_size = 128
rl.hidden = 48
eds.window = 8
eds.seeds_per_voxel = 1
eds.min_transitions = 12
eds.pretrain_target = 200
eds.finetune_target = 60
fusion.context = 8
fusion.width = 32
fusion.blocks = 2
fusion.batch_size = 16
fusion.finetune_iters = 1
mcpft.iters = 1
mcpft.batch_size = 16
mcpft.rollout_episodes = 8
"""
# fusion-train times the fusion stages, so it trains them longer; in
# harvest-track they are set-up and kept short.
FUSION_TRAIN_CONFIG = CROSSING_CONFIG + """\
fusion.pretrain_iters = 3
fusion.updates_per_iter = 80
mcpft.actor_updates = 40
"""
HARVEST_TRACK_CONFIG = CROSSING_CONFIG + """\
fusion.pretrain_iters = 1
fusion.updates_per_iter = 20
mcpft.actor_updates = 4
"""

TRAIN_RL = [["train-rl", "--algo", a] for a in ALGOS]
FUSION_TRAIN = [["pretrain"]] + [s for b in BUNDLES for s in (["finetune", "--bundle", b],
                                                              ["mcpft", "--bundle", b])]


def _stage_metric(args):
    """The stage-time figure that a stage's wall time counts toward."""
    if args[0] == "track":
        return "track_fusion_s" if args[2] == "fusion" else "track_rl_s"
    return args[0].replace("-", "_") + "_s"


WORKLOADS = {
    "rl-train": {
        "config": RL_CONFIG,
        "setup": [["phantom"]],
        "chain": TRAIN_RL,
    },
    "fusion-train": {
        "config": FUSION_TRAIN_CONFIG,
        "setup": [["phantom"]] + TRAIN_RL + [["eds"]],
        "chain": FUSION_TRAIN,
    },
    "harvest-track": {
        "config": HARVEST_TRACK_CONFIG,
        "setup": [["phantom"]] + TRAIN_RL + [["eds"]] + FUSION_TRAIN,
        "chain": [["eds"]]
        + [["track", "--algo", a, "--bundle", b] for a in TRACKERS + ("fusion",) for b in BUNDLES]
        + [["evaluate"]],
    },
}

# End-to-end metrics, reported by every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = ("train_rl_s", "eds_s", "pretrain_s", "finetune_s", "mcpft_s",
                 "track_rl_s", "track_fusion_s", "evaluate_s")
QUALITY = {"rl_reward_per_step": "reward", "fusion_loss": "rad",
           "dice_fusion": "dice", "dice_mean": "dice"}

SPAN_NAMES = [name for name, _, _ in child.SPANS]
COUNTS = {
    "phantom.sample_field.points": "count",
    "phantom.sample_field.single_point_calls": "count",
    "env.BatchTracker.step.rows": "count",
    "env.BatchTracker.step.live_rows": "count",
    "agents.PolicyBundle.act.rows": "count",
    "fusion.FusionModel.act.rows": "count",
    "autodiff.Tensor.backward.tape_nodes": "count",
    "eds.harvest.records": "count",
    "eds.save_records.bytes": "bytes",
    "eds.load_records.bytes": "bytes",
    "nn.save_checkpoint.bytes": "bytes",
    "nn.load_checkpoint.bytes": "bytes",
    "pipeline.hashed_bytes": "bytes",
}
RATIOS = {  # name: (numerator count, denominator count)
    "env.live_row_ratio": ("env.BatchTracker.step.live_rows", "env.BatchTracker.step.rows"),
    "eds.records_kept_ratio": ("eds.save_records.records", "eds.harvest.records"),
    "trackeval.post_filter.kept_ratio": ("trackeval.post_filter.kept", "trackeval.post_filter.in"),
}

# Which spans the traced chain must enter (calls > 0); every other span
# must show no calls. This checks the wrappers as much as the program.
_ALL_WORKLOADS_CALL = {
    "phantom.sample_field", "phantom.peaks_at", "phantom.load_phantom",
    "env.build_states", "env.BatchTracker.step", "env.BatchTracker.reset",
    "geometry.load_streamlines", "pipeline.write_manifest", "pipeline.load_phantom_with_gt",
}
EXPECTED_CALLS = {
    "rl-train": _ALL_WORKLOADS_CALL | {
        "agents.PolicyBundle.act", "agents.sample_seeds", "agents.rollout",
        "agents.train_policy", "autodiff.Tensor.backward", "nn.Mlp.call", "nn.AdamW.step",
        "nn.save_checkpoint"},
    "fusion-train": _ALL_WORKLOADS_CALL | {
        "agents.sample_seeds", "autodiff.Tensor.backward", "nn.Mlp.call",
        "nn.GptBlockStack.call", "nn.AdamW.step", "nn.save_checkpoint", "nn.load_checkpoint",
        "eds.load_records", "fusion.sample_windows", "fusion.FusionModel.predict_actions",
        "fusion.FusionModel.act", "fusion.FusionTracker.run", "fusion.loss_dist_cos"},
    "harvest-track": _ALL_WORKLOADS_CALL | {
        "agents.PolicyBundle.act", "agents.PolicyBundle.q_value", "nn.GptBlockStack.call",
        "nn.load_checkpoint", "eds.harvest", "eds.across_policy_select",
        "eds.within_policy_filter", "eds.save_records", "geometry.min_mdf_to_refs",
        "geometry.farthest_sample", "geometry.save_streamlines",
        "fusion.FusionModel.predict_actions", "fusion.FusionModel.act",
        "fusion.FusionTracker.run", "trackeval.seed_positions", "trackeval.post_filter",
        "trackeval.voxelize", "trackeval.score", "pipeline.verify_provenance"},
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"stage.{name}": "s" for name in STAGE_METRICS})
    units.update({f"quality.{name}": unit for name, unit in QUALITY.items()})
    units["trace_overhead"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


class StageFailed(BenchError):
    pass


# -- child processes ----------------------------------------------------------

def child_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts one child at a time and reaps it with os.wait4."""

    def __init__(self, log_dir, deadline):
        self.log_dir = log_dir
        self.deadline = deadline
        self.env = child_env()
        self.n_started = 0

    def run(self, argv, label):
        self.n_started += 1
        log = self.log_dir / f"{self.n_started:03d}-{label}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StageFailed(f"{label}: run time limit reached")
        with open(log, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise StageFailed(f"{label}: exit code {proc.returncode}\n{tail}")
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cli_args(config_path, out_dir, seed, stage):
    return ["--preset", "desk", "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed)] + stage


# -- artifacts ----------------------------------------------------------------

def _sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(run_dir):
    """SHA-256 of every artifact. Manifests are hashed without their
    `wall_time_s`, the one field that differs between identical runs."""
    out = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name.startswith("manifest_"):
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[path.name] = _sha256_bytes(data)
    return out


def file_stamps(run_dir):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in run_dir.iterdir()}


def written_bytes(before, run_dir):
    """Bytes of every file the chain created or rewrote."""
    return sum(size for name, (size, mtime) in file_stamps(run_dir).items()
               if before.get(name, (None, None))[1] != mtime)


def run_digest(workload):
    """Identifies what a run computes: the program sources and the workload."""
    h = hashlib.sha256(json.dumps(WORKLOADS[workload], sort_keys=True).encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def diff_hashes(a, b):
    names = sorted(set(a) | set(b))
    return [n for n in names if a.get(n) != b.get(n)]


# -- quality ------------------------------------------------------------------

def _manifests(run_dir, prefix):
    return [json.loads(p.read_text()) for p in sorted(run_dir.glob(f"manifest_{prefix}*.json"))]


def quality(run_dir, chain):
    """Quality figures of the stages this chain ran, from their outputs."""
    stages = {s[0] for s in chain}
    out = {}
    if "train-rl" in stages:
        rewards = [r for m in _manifests(run_dir, "train-rl-")
                   for r in m["extras"]["reward_per_step"].values()]
        out["rl_reward_per_step"] = statistics.fmean(rewards)
    if "pretrain" in stages:
        losses = [m["extras"]["iteration_loss"][-1]
                  for prefix in ("pretrain", "finetune-") for m in _manifests(run_dir, prefix)]
        out["fusion_loss"] = statistics.fmean(losses)
    if "evaluate" in stages:
        rows = [line.split("\t") for line in (run_dir / "scores.tsv").read_text().splitlines()
                if line.strip()]
        out["dice_fusion"] = statistics.fmean(float(r[2]) for r in rows if r[1] == "fusion")
        out["dice_mean"] = statistics.fmean(float(r[2]) for r in rows)
    for name, value in out.items():
        if not math.isfinite(value) or value < 0 or (name.startswith("dice") and value > 1):
            raise BenchError(f"quality {name} = {value} is out of range")
    return out


# -- one workload -------------------------------------------------------------

def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


class Workload:
    def __init__(self, name, seed, work, runner):
        spec = WORKLOADS[name]
        self.name, self.seed, self.work, self.runner = name, seed, work, runner
        self.setup_stages, self.chain = spec["setup"], spec["chain"]
        self.config = work / "workload.cfg"
        self.config.write_text(spec["config"])
        self.attempted = 0
        self.failed = 0

    def setup(self, index):
        """Build the upstream artifacts in one child, through the CLI."""
        out = self.work / f"setup{index}"
        spec = self.work / f"setup{index}.json"
        spec.write_text(json.dumps({"stages": [cli_args(self.config, out, self.seed, s)
                                               for s in self.setup_stages], "trace": None}))
        t0 = time.perf_counter()
        self.runner.run([sys.executable, str(HERE / "child.py"), str(spec)], f"setup{index}")
        return time.perf_counter() - t0, out

    def chain_once(self, source, label, trace_dir=None):
        """Run the timed chain in a fresh copy of the set-up artifacts."""
        from tractfuse.pipeline import verify_provenance

        run_dir = self.work / label
        shutil.copytree(source, run_dir)
        before = file_stamps(run_dir)
        stage_s = dict.fromkeys(STAGE_METRICS, 0.0)
        wall = cpu = rss = 0.0
        traces = []
        for i, stage in enumerate(self.chain):
            args = cli_args(self.config, run_dir, self.seed, stage)
            tag = f"{label}-{'-'.join(stage)}"
            if trace_dir is None:
                argv = [sys.executable, "-m", "tractfuse.cli"] + args
            else:
                trace = trace_dir / f"{i:02d}.json"
                spec = trace_dir / f"{i:02d}-spec.json"
                spec.write_text(json.dumps({"stages": [args], "trace": str(trace)}))
                argv = [sys.executable, str(HERE / "child.py"), str(spec)]
                traces.append(trace)
            self.attempted += 1
            try:
                usage = self.runner.run(argv, tag)
                problems = verify_provenance(run_dir)
                if problems:
                    raise StageFailed(f"{tag}: provenance check failed: {problems}")
            except StageFailed:
                self.failed += 1
                raise
            stage_s[_stage_metric(stage)] += usage["wall_s"]
            wall += usage["wall_s"]
            cpu += usage["cpu_s"]
            rss = max(rss, usage["peak_rss_mb"])
        return {"stage_s": stage_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "artifact_mb": written_bytes(before, run_dir) / 1e6,
                "quality": quality(run_dir, self.chain), "hashes": artifact_hashes(run_dir),
                "traces": traces}


def merge_traces(paths):
    calls, self_s, counts = {}, {}, {}
    for path in paths:
        report = json.loads(path.read_text())
        for src, dst in ((report["calls"], calls), (report["self_s"], self_s),
                         (report["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return calls, self_s, counts


def check_calls(workload, calls):
    expected = EXPECTED_CALLS[workload]
    wrong = [f"{n}: {calls.get(n, 0)} calls, expected {'> 0' if n in expected else '0'}"
             for n in SPAN_NAMES if (calls.get(n, 0) > 0) != (n in expected)]
    if wrong:
        raise BenchError("expected-call matrix failed:\n  " + "\n  ".join(wrong))


def check_rerun(workload, seed, hashes):
    """Compare with the hashes an earlier run of the same source and seed
    recorded, or record them."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}.hashes.json"
    digest = run_digest(workload)
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source"] == digest:
            differ = diff_hashes(earlier["artifacts"], hashes)
            if differ:
                raise BenchError(f"artifacts differ from an earlier run of this seed: {differ}")
            return
    path.write_text(json.dumps({"source": digest, "artifacts": hashes}, indent=1, sort_keys=True))


def run_workload(name, seed, seconds, trace):
    work = RUNS / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(work / "logs", time.monotonic() + RUN_LIMIT_S)
    wl = Workload(name, seed, work, runner)
    result = {"workload": name, "seed": seed, "environment": environment(),
              "run_digest": run_digest(name)}
    try:
        setup_s, setup_hashes = [], []
        for i in range(1 if trace else SETUP_REPEATS):
            seconds_i, source = wl.setup(i)
            setup_s.append(seconds_i)
            setup_hashes.append(artifact_hashes(source))
            if diff_hashes(setup_hashes[0], setup_hashes[-1]):
                raise BenchError(f"set-up {i} artifacts differ from set-up 0: "
                                 f"{diff_hashes(setup_hashes[0], setup_hashes[-1])}")
        reps = []
        t0 = time.perf_counter()
        while not reps or time.perf_counter() - t0 < seconds:
            reps.append(wl.chain_once(source, f"rep{len(reps)}"))
            differ = diff_hashes(reps[0]["hashes"], reps[-1]["hashes"])
            if differ:
                raise BenchError(f"rep {len(reps) - 1} artifacts differ from rep 0: {differ}")
        check_rerun(name, seed, reps[0]["hashes"])

        def median(key):
            return statistics.median(r[key] for r in reps)

        result.update(
            reps=len(reps), setup_runs_s=setup_s, hashes=reps[0]["hashes"],
            end_to_end={"setup_s": statistics.median(setup_s),
                        **{k: median(k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}},
            artifact_mb=median("artifact_mb"), quality=reps[0]["quality"],
            stage_s={k: statistics.median(r["stage_s"][k] for r in reps) for k in STAGE_METRICS})
        metrics, units = result["end_to_end"], END_TO_END
        if trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced = wl.chain_once(source, "traced", trace_dir)
            differ = diff_hashes(reps[0]["hashes"], traced["hashes"])
            if differ:
                raise BenchError(f"traced artifacts differ from untraced ones: {differ}")
            calls, self_s, counts = merge_traces(traced["traces"])
            check_calls(name, calls)
            metrics = layer_metrics(calls, self_s, counts)
            metrics.update({f"stage.{k}": v for k, v in result["stage_s"].items()})
            metrics.update({f"quality.{k}": result["quality"].get(k, 0.0) for k in QUALITY})
            metrics["trace_overhead"] = traced["wall_s"] / median("wall_s")
            units = per_layer_units()
        result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        result["correct"] = True
    except BenchError as e:
        print(f"benchmark failure: {e}", file=sys.stderr)
        result["correct"] = False
        result["metrics"] = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"], result["failed"] = wl.attempted, wl.failed
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return result


def layer_metrics(calls, self_s, counts):
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out.update({name: counts.get(name, 0) for name in COUNTS})
    for name, (num, den) in RATIOS.items():
        out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return out


# -- reporting ----------------------------------------------------------------

def print_report(result):
    print(f"== {result['workload']} seed {result['seed']}: "
          f"{'correct' if result['correct'] else 'NOT CORRECT'}, "
          f"{result['attempted']} stage runs attempted, {result['failed']} failed")
    env = result["environment"]
    print("   " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if not result["correct"]:
        return
    print(f"   {result['reps']} timed chain(s); set-up runs "
          + ", ".join(f"{s:.2f}" for s in result["setup_runs_s"]) + " s")
    rows = [(k, v, END_TO_END[k]) for k, v in result["end_to_end"].items()]
    rows.append(("artifact_mb", result["artifact_mb"], "MB"))
    rows += [(k, v, "s") for k, v in result["stage_s"].items() if v > 0]
    rows += [(k, v, QUALITY[k]) for k, v in result["quality"].items()]
    if "trace_overhead" in result["metrics"]:
        rows += [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()
                 if not k.startswith(("stage.", "quality."))]
    for name, value, unit in rows:
        print(f"   {name:<44} {value:>14.6g} {unit}")
    digest = _sha256_bytes(json.dumps(result["hashes"], sort_keys=True).encode())
    print(f"   {len(result['hashes'])} artifacts, digest of their SHA-256s {digest[:16]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tractfuse" / "cli.py").is_file():
        print(f"error: no tractfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        print_report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
