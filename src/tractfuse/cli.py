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

Exit codes: 0 success, 1 bad configuration, missing upstream artifact,
corrupt checkpoint or failed provenance check, 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys


def _limit_threads(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def build_parser():
    parser = argparse.ArgumentParser(prog="tractfuse",
                                     description="Streamline-tracking fusion pipeline")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--preset", help="named configuration preset (e.g. desk)")
    parser.add_argument("--out", default="run", help="artifact directory (default: run)")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--threads", type=int, default=0,
                        help="cap BLAS/OpenMP threads (0 = leave unset)")
    sub = parser.add_subparsers(dest="stage", required=True)

    sub.add_parser("phantom", help="generate the synthetic field + ground truth")
    p = sub.add_parser("train-rl", help="train one tracking policy")
    # The algo choices spell out agents.ALGOS: importing agents here would load
    # numpy before --threads has set the BLAS thread caps.
    p.add_argument("--algo", required=True, choices=("td3", "sac", "ddpg"))
    sub.add_parser("eds", help="harvest and select trajectory datasets")
    sub.add_parser("pretrain", help="supervised pretraining of the fusion model")
    p = sub.add_parser("finetune", help="bundle-specific supervised finetuning")
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("mcpft", help="multi-critic policy fine-tuning")
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("track", help="whole-bundle tracking with one actor")
    p.add_argument("--algo", required=True,
                   choices=("td3", "sac", "ddpg", "avg", "maxq", "fusion"))
    p.add_argument("--bundle", required=True)
    p = sub.add_parser("evaluate", help="score every tracks_*.stl against ground truth")
    p.add_argument("--force", action="store_true",
                   help="score even if upstream artifact hashes mismatch")
    sub.add_parser("report", help="print the aggregated score table")
    return parser


def _resolve(args, config):
    seed_override = args.seed
    env_seed = os.environ.get("TRACTFUSE_SEED")
    if seed_override is None and env_seed is not None:
        seed_override = int(env_seed)
    if args.config:
        return config.load_config(args.config, preset=args.preset,
                                  seed_override=seed_override)
    return config.resolve_config("", preset=args.preset, seed_override=seed_override)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads:
        _limit_threads(args.threads)  # must happen before numpy loads BLAS

    from . import binio, config, pipeline

    try:
        cfg = _resolve(args, config)
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
    except (pipeline.StageInputError, pipeline.ProvenanceError, config.ConfigError,
            binio.FormatError) as e:
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
