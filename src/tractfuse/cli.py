"""Command-line pipeline driver.

Stages (each writes its outputs plus a hash manifest into --out):

    phantom   -> phantom.phn, gt_<bundle>.stl
    train-rl  -> policy_<algo>.ckp            (--algo td3|sac|ddpg)
    eds       -> eds_pretrain.eds, eds_finetune_<bundle>.eds
    pretrain  -> fusion_pretrained.ckp
    finetune  -> fusion_finetuned_<bundle>.ckp (--bundle)
    mcpft     -> fusion_mcpft_<bundle>.ckp     (--bundle)
    track     -> tracks_<algo>_<bundle>.stl    (--algo ... --bundle)
    evaluate  -> scores.tsv   (verifies upstream hashes unless --force)
    report    -> report.txt, printed table

Exit codes: 0 success, 1 bad command line or configuration, missing
upstream artifact, unwritable --out, corrupt checkpoint or failed
provenance check, 2 unexpected runtime failure.

Importing `tractfuse` pins numpy's bundled OpenBLAS to one thread, so every
stage process, whatever imported numpy first, runs BLAS on one thread and
writes the same bytes on any core count. Full-scale train-rl gives up
speed for this: its 1024-wide grad steps ran about 1.7x faster on two
threads (2 CPUs).
"""

from __future__ import annotations

import argparse
import sys

from . import binio, config, pipeline
from .agents import ALGOS


def _keep_freed_heap():
    """Have glibc keep freed heap for the next training step. Each step
    frees its whole tape when `backward` ends; under glibc's defaults large
    blocks are unmapped on free and the heap top is trimmed, so the next
    step page-faults the same memory in again. Here blocks up to 32 MiB come
    from the heap and the heap is never trimmed. A libc without `mallopt`
    is left as it is."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
        mallopt(-1, -1)          # M_TRIM_THRESHOLD: never trim


def build_parser():
    parser = argparse.ArgumentParser(prog="tractfuse",
                                     description="Streamline-tracking fusion pipeline")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--preset", help="named configuration preset (e.g. desk)")
    parser.add_argument("--out", default="run", help="artifact directory (default: run)")
    parser.add_argument("--seed", type=int, help="override the run seed")
    sub = parser.add_subparsers(dest="stage", required=True)

    sub.add_parser("phantom", help="generate the synthetic field + ground truth")
    p = sub.add_parser("train-rl", help="train one tracking policy")
    p.add_argument("--algo", required=True, choices=ALGOS)
    sub.add_parser("eds", help="harvest and select trajectory datasets")
    sub.add_parser("pretrain", help="supervised pretraining of the fusion model")
    p = sub.add_parser("finetune", help="bundle-specific supervised finetuning")
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("mcpft", help="multi-critic policy fine-tuning")
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("track", help="whole-bundle tracking with one actor")
    p.add_argument("--algo", required=True, choices=ALGOS + ("avg", "maxq", "fusion"))
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("evaluate", help="score every tracks_*.stl against ground truth")
    p.add_argument("--force", action="store_true",
                   help="score even if upstream artifact hashes mismatch")
    sub.add_parser("report", help="print the aggregated score table")
    return parser


def _resolve(args):
    if args.config:
        return config.load_config(args.config, preset=args.preset,
                                  seed_override=args.seed)
    return config.resolve_config("", preset=args.preset, seed_override=args.seed)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if e.code == 0 else 1
    _keep_freed_heap()

    try:
        cfg = _resolve(args)
    except config.ConfigError as e:
        for err in e.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        if args.stage == "phantom":
            extras = pipeline.stage_phantom(cfg, args.out)
            print(f"phantom: bundles {', '.join(extras['bundles'])}")
        elif args.stage == "train-rl":
            extras = pipeline.stage_train_rl(cfg, args.out, args.algo)
            for b, r in extras["reward_per_step"].items():
                base = extras["random_baseline_per_step"][b]
                print(f"train-rl {args.algo} [{b}]: reward/step {r:.3f} "
                      f"(random baseline {base:.3f})")
        elif args.stage == "eds":
            extras = pipeline.stage_eds(cfg, args.out)
            print(f"eds: {extras['pretrain_records']} pretrain records, "
                  + ", ".join(f"{k}={v}" for k, v in extras["finetune_records"].items())
                  + " finetune")
        elif args.stage == "pretrain":
            extras = pipeline.stage_pretrain(cfg, args.out)
            print(f"pretrain: final loss {extras['iteration_loss'][-1]:.4f}")
        elif args.stage == "finetune":
            extras = pipeline.stage_finetune(cfg, args.out, args.bundle)
            print(f"finetune [{args.bundle}]: final loss {extras['iteration_loss'][-1]:.4f}")
        elif args.stage == "mcpft":
            extras = pipeline.stage_mcpft(cfg, args.out, args.bundle)
            print(f"mcpft [{args.bundle}]: actor updates/iter {extras['actor_updates']}, "
                  f"critic updates/iter {extras['critic_updates']}")
        elif args.stage == "track":
            extras = pipeline.stage_track(cfg, args.out, args.algo, args.bundle)
            print(f"track {args.algo} [{args.bundle}]: kept "
                  f"{extras['kept_streamlines']}/{extras['raw_streamlines']} streamlines")
        elif args.stage == "evaluate":
            rows = pipeline.stage_evaluate(cfg, args.out, force=args.force)
            for bundle, algo, s in rows:
                print(f"evaluate [{bundle}] {algo}: dice {s.dice:.4f} "
                      f"ol {s.ol:.4f} or {s.or_:.4f}")
        elif args.stage == "report":
            print(pipeline.stage_report(args.out), end="")
    except (pipeline.StageInputError, pipeline.OutputDirError, pipeline.ProvenanceError,
            config.ConfigError, binio.FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # unexpected failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
