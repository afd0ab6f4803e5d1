#!/usr/bin/env python3
"""Run the whole tracking-fusion pipeline end to end through the CLI.

Desk-scale smoke run (about five minutes on a laptop):

    python3 scripts/run_pipeline.py --preset desk --out run_desk

Full-scale run (hours; default hyperparameters):

    python3 scripts/run_pipeline.py --out run_full

Every stage writes its artifacts and a manifest_<stage>.json hash manifest
into --out, so a crashed run can be resumed by re-invoking individual stages
with the tractfuse CLI.
"""

import argparse
import sys
import time
from pathlib import Path

from tractfuse import cli
from tractfuse.phantom import load_phantom


def stage(base, extra):
    args = base + extra
    print(f"==> tractfuse {' '.join(extra)}", flush=True)
    t0 = time.time()
    rc = cli.main(args)
    if rc != 0:
        sys.exit(f"stage failed with exit code {rc}: {' '.join(extra)}")
    print(f"    done in {time.time() - t0:.1f}s", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default=None, help="config preset, e.g. desk")
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--out", default="run", help="artifact directory")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--algos", nargs="+", default=["td3", "sac", "ddpg"])
    ap.add_argument("--trackers", nargs="+",
                    default=["td3", "sac", "ddpg", "avg", "maxq", "fusion"],
                    help="which actors to run whole-bundle tracking with")
    args = ap.parse_args()

    base = ["--out", args.out]
    if args.preset:
        base += ["--preset", args.preset]
    if args.config:
        base += ["--config", args.config]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]

    t0 = time.time()
    stage(base, ["phantom"])
    bundles = sorted(m.bundle_name for m in load_phantom(Path(args.out) / "phantom.phn").masks)
    print(f"    bundles: {', '.join(bundles)}")

    for algo in args.algos:
        stage(base, ["train-rl", "--algo", algo])
    stage(base, ["eds"])
    stage(base, ["pretrain"])
    for b in bundles:
        stage(base, ["finetune", "--bundle", b])
        stage(base, ["mcpft", "--bundle", b])
    for algo in args.trackers:
        for b in bundles:
            stage(base, ["track", "--algo", algo, "--bundle", b])
    stage(base, ["evaluate"])
    stage(base, ["report"])
    print(f"total {time.time() - t0:.1f}s; artifacts in {args.out}/")


if __name__ == "__main__":
    main()
