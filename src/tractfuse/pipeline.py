"""Stage implementations behind the CLI: each stage reads its upstream
artifacts, runs one pipeline step, and writes outputs plus a manifest with
content hashes of everything consumed and produced."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import agents, eds, fusion, geometry, trackeval
from .config import RunConfig
from .env import EnvConfig
from .phantom import (BundleSpec, PhantomSpec, VoxelGrid, generate_phantom,
                      load_phantom, save_phantom)

POLICY_ALGOS = ("td3", "sac", "ddpg")
TRACK_ALGOS = POLICY_ALGOS + ("avg", "maxq", "fusion")


class StageInputError(FileNotFoundError):
    """An expected upstream artifact is missing."""


class ProvenanceError(RuntimeError):
    """An upstream artifact is missing or no longer matches the hash that a
    consuming stage recorded in its manifest."""


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path, produced_by):
    if not Path(path).exists():
        raise StageInputError(f"missing upstream artifact {path} (run '{produced_by}' first)")
    return Path(path)


def write_manifest(outdir, stage, cfg, inputs, outputs, extras=None, wall_time=0.0):
    outdir = Path(outdir)
    manifest = {
        "stage": stage,
        "config": cfg.values,
        "config_hash": hashlib.sha256(cfg.to_text().encode()).hexdigest(),
        "inputs": {str(Path(p).name): _sha256(p) for p in inputs},
        "outputs": {str(Path(p).name): _sha256(p) for p in outputs},
        "extras": extras or {},
        "wall_time_s": round(wall_time, 3),
    }
    path = outdir / f"manifest_{stage}.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_manifest(outdir, stage):
    path = Path(outdir) / f"manifest_{stage}.json"
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f)


def _env_config(cfg):
    return EnvConfig(step_size=cfg["env.step_size"], max_steps=cfg["env.max_steps"],
                     max_angle_deg=cfg["env.max_angle_deg"],
                     neighbor_offset=cfg["env.neighbor_offset"])


def _resolved_config_path(outdir, cfg):
    path = Path(outdir) / "resolved_config.cfg"
    with open(path, "w") as f:
        f.write(cfg.to_text())
    return path


def load_phantom_with_gt(outdir):
    """Phantom plus its ground-truth bundles from phantom.phn + gt_*.stl."""
    outdir = Path(outdir)
    phn = _require(outdir / "phantom.phn", "phantom")
    phantom = load_phantom(phn)
    for mask in phantom.masks:
        stl = _require(outdir / f"gt_{mask.bundle_name}.stl", "phantom")
        streams, _ = geometry.load_streamlines(stl)
        phantom.bundles[mask.bundle_name] = streams
    return phantom


def _load_policies(cfg, outdir):
    policies = {}
    for algo in POLICY_ALGOS:
        path = _require(Path(outdir) / f"policy_{algo}.ckp", f"train-rl --algo {algo}")
        policies[algo] = agents.PolicyBundle.load(path, hyper=_hyper(cfg, algo))
    return policies


def _hyper(cfg, algo):
    kwargs = {"lr": cfg[f"{algo}.lr"], "sigma": cfg[f"{algo}.sigma"],
              "gamma": cfg[f"{algo}.gamma"]}
    if algo == "sac":
        kwargs["alpha"] = cfg["sac.alpha"]
    return agents.RlHyper(**kwargs)


# -- stages -------------------------------------------------------------------

def stage_phantom(cfg, outdir):
    t0 = time.time()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = VoxelGrid(dims=cfg.dims(), voxel_size=cfg["phantom.voxel_size"])
    spec = PhantomSpec(
        grid=grid,
        bundles=[BundleSpec(name=cfg["phantom.name"], kind=cfg["phantom.kind"],
                            radius=cfg["phantom.radius"])],
        rng_seed=cfg["seed"],
        n_gt_streamlines=cfg["phantom.gt_streamlines"],
    )
    phantom = generate_phantom(spec)
    phn = outdir / "phantom.phn"
    save_phantom(phantom, phn)
    outputs = [phn]
    for name, streams in phantom.bundles.items():
        stl = outdir / f"gt_{name}.stl"
        geometry.save_streamlines(streams, stl, voxel_size=grid.voxel_size)
        outputs.append(stl)
    outputs.append(_resolved_config_path(outdir, cfg))
    extras = {"bundles": sorted(phantom.bundles),
              "mask_voxels": {m.bundle_name: int(m.values.sum()) for m in phantom.masks}}
    write_manifest(outdir, "phantom", cfg, [], outputs, extras, time.time() - t0)
    return extras


def stage_train_rl(cfg, outdir, algo):
    t0 = time.time()
    outdir = Path(outdir)
    phantom = load_phantom_with_gt(outdir)
    env_cfg = _env_config(cfg)
    schedule = agents.RlSchedule(
        batches=cfg["rl.batches"], episodes_per_batch=cfg["rl.episodes_per_batch"],
        grad_steps_per_batch=cfg["rl.grad_steps_per_batch"],
        batch_size=cfg["rl.batch_size"], replay_capacity=cfg["rl.replay_capacity"])
    bundle = agents.PolicyBundle(algo, hyper=_hyper(cfg, algo),
                                 hidden=cfg["rl.hidden"],
                                 seed=cfg["seed"] + 1000 + POLICY_ALGOS.index(algo))
    bundle_names = sorted(phantom.bundles)
    log = agents.train_policy(bundle, phantom, bundle_names, env_cfg, schedule,
                              seed=cfg["seed"] + 2000 + POLICY_ALGOS.index(algo))
    ckp = outdir / f"policy_{algo}.ckp"
    bundle.save(ckp)
    log_path = outdir / f"train_log_{algo}.json"
    with open(log_path, "w") as f:
        json.dump(log, f, indent=2)

    # learning-signal oracle: uniform-random baseline vs the trained policy
    extras = {"algo": algo, "reward_per_step": {}, "random_baseline_per_step": {},
              "grad_steps_per_batch": schedule.grad_steps_per_batch}
    for b in bundle_names:
        extras["random_baseline_per_step"][b] = agents.random_baseline(
            phantom, b, env_cfg, seed=cfg["seed"] + 3000)
        extras["reward_per_step"][b] = agents.policy_mean_step_reward(
            bundle, phantom, b, env_cfg, seed=cfg["seed"] + 3000)
    inputs = [outdir / "phantom.phn"] + [outdir / f"gt_{b}.stl" for b in bundle_names]
    write_manifest(outdir, f"train-rl-{algo}", cfg, inputs, [ckp, log_path],
                   extras, time.time() - t0)
    return extras


def stage_eds(cfg, outdir):
    t0 = time.time()
    outdir = Path(outdir)
    phantom = load_phantom_with_gt(outdir)
    policies = _load_policies(cfg, outdir)
    env_cfg = _env_config(cfg)
    spec = eds.HarvestSpec(window=cfg["eds.window"],
                           seeds_per_voxel=cfg["eds.seeds_per_voxel"],
                           min_transitions=cfg["eds.min_transitions"],
                           mdf_threshold_mm=cfg["eds.mdf_threshold_mm"],
                           reference_count=cfg["eds.reference_count"])
    datasets = eds.build_datasets(phantom, policies, env_cfg, spec=spec,
                                  pretrain_target=cfg["eds.pretrain_target"],
                                  finetune_target=cfg["eds.finetune_target"],
                                  seed=cfg["seed"] + 4000)
    pre_path = outdir / "eds_pretrain.eds"
    eds.save_records(datasets.pretrain, pre_path)
    outputs = [pre_path]
    for name, records in datasets.finetune.items():
        path = outdir / f"eds_finetune_{name}.eds"
        eds.save_records(records, path)
        outputs.append(path)
    extras = {"pretrain_records": len(datasets.pretrain),
              "finetune_records": {k: len(v) for k, v in datasets.finetune.items()}}
    inputs = [outdir / "phantom.phn"] + [outdir / f"policy_{a}.ckp" for a in POLICY_ALGOS]
    write_manifest(outdir, "eds", cfg, inputs, outputs, extras, time.time() - t0)
    return extras


def _fusion_config(cfg):
    return fusion.FusionConfig(context=cfg["fusion.context"], width=cfg["fusion.width"],
                               n_blocks=cfg["fusion.blocks"], dropout=cfg["fusion.dropout"])


def stage_pretrain(cfg, outdir):
    t0 = time.time()
    outdir = Path(outdir)
    records = eds.load_records(_require(outdir / "eds_pretrain.eds", "eds"))
    model = fusion.FusionModel(_fusion_config(cfg), seed=cfg["seed"] + 5000)
    schedule = fusion.TrainSchedule(
        iterations=cfg["fusion.pretrain_iters"], updates_per_iter=cfg["fusion.updates_per_iter"],
        batch_size=cfg["fusion.batch_size"], lr=cfg["fusion.lr"], warmup=cfg["fusion.warmup"])
    log = fusion.pretrain(model, records, schedule, seed=cfg["seed"] + 5001)
    ckp = outdir / "fusion_pretrained.ckp"
    model.save(ckp, stage="pretrained")
    extras = {"iteration_loss": log["iteration_loss"], "records": len(records)}
    write_manifest(outdir, "pretrain", cfg, [outdir / "eds_pretrain.eds"], [ckp],
                   extras, time.time() - t0)
    return extras


def stage_finetune(cfg, outdir, bundle_name):
    t0 = time.time()
    outdir = Path(outdir)
    model, _ = fusion.FusionModel.load(_require(outdir / "fusion_pretrained.ckp", "pretrain"))
    rec_path = _require(outdir / f"eds_finetune_{bundle_name}.eds", "eds")
    records = eds.load_records(rec_path)
    schedule = fusion.TrainSchedule(
        iterations=cfg["fusion.finetune_iters"], updates_per_iter=cfg["fusion.updates_per_iter"],
        batch_size=cfg["fusion.batch_size"], lr=cfg["fusion.lr"], warmup=cfg["fusion.warmup"])
    log = fusion.finetune(model, records, schedule, seed=cfg["seed"] + 6000)
    ckp = outdir / f"fusion_finetuned_{bundle_name}.ckp"
    model.save(ckp, stage=f"finetuned:{bundle_name}")
    extras = {"iteration_loss": log["iteration_loss"], "records": len(records)}
    write_manifest(outdir, f"finetune-{bundle_name}", cfg,
                   [outdir / "fusion_pretrained.ckp", rec_path], [ckp],
                   extras, time.time() - t0)
    return extras


def stage_mcpft(cfg, outdir, bundle_name):
    t0 = time.time()
    outdir = Path(outdir)
    model, _ = fusion.FusionModel.load(
        _require(outdir / f"fusion_finetuned_{bundle_name}.ckp", f"finetune --bundle {bundle_name}"))
    phantom = load_phantom_with_gt(outdir)
    policies = _load_policies(cfg, outdir)
    rec_path = _require(outdir / f"eds_finetune_{bundle_name}.eds", "eds")
    records = eds.load_records(rec_path)
    schedule = fusion.McpftSchedule(
        iterations=cfg["mcpft.iters"], batch_size=cfg["mcpft.batch_size"],
        actor_updates_per_iter=cfg["mcpft.actor_updates"],
        critic_updates_per_iter=cfg["mcpft.critic_updates"],
        lr=cfg["mcpft.lr"], rollout_episodes=cfg["mcpft.rollout_episodes"],
        rtg0=cfg["track.rtg0"])
    log = fusion.mcpft(model, policies, records, phantom, bundle_name,
                       _env_config(cfg), schedule, seed=cfg["seed"] + 7000)
    ckp = outdir / f"fusion_mcpft_{bundle_name}.ckp"
    model.save(ckp, stage=f"mcpft:{bundle_name}")
    extras = {"actor_updates": log["actor_updates"],
              "critic_updates": log["critic_updates"],
              "final_actor_loss": log["actor_loss"][-1] if log["actor_loss"] else None}
    inputs = [outdir / f"fusion_finetuned_{bundle_name}.ckp", rec_path,
              outdir / "phantom.phn"] + [outdir / f"policy_{a}.ckp" for a in POLICY_ALGOS]
    write_manifest(outdir, f"mcpft-{bundle_name}", cfg, inputs, [ckp],
                   extras, time.time() - t0)
    return extras


def stage_track(cfg, outdir, algo, bundle_name):
    t0 = time.time()
    outdir = Path(outdir)
    phantom = load_phantom_with_gt(outdir)
    env_cfg = _env_config(cfg)
    tc = trackeval.TrackConfig(seeds_per_voxel=cfg["track.seeds_per_voxel"],
                               rtg0=cfg["track.rtg0"],
                               post_filter_threshold_mm=cfg["track.post_filter_threshold_mm"])
    seed = cfg["seed"] + 8000
    inputs = [outdir / "phantom.phn", outdir / f"gt_{bundle_name}.stl"]
    if algo == "fusion":
        ckp = outdir / f"fusion_mcpft_{bundle_name}.ckp"
        if not ckp.exists():
            ckp = _require(outdir / f"fusion_finetuned_{bundle_name}.ckp",
                           f"finetune --bundle {bundle_name}")
        model, _ = fusion.FusionModel.load(ckp)
        streams = trackeval.track_fusion(model, phantom, bundle_name, tc, env_cfg, seed=seed)
        inputs.append(ckp)
    else:
        if algo in POLICY_ALGOS:
            path = _require(outdir / f"policy_{algo}.ckp", f"train-rl --algo {algo}")
            actor = agents.PolicyBundle.load(path, hyper=_hyper(cfg, algo))
            inputs.append(path)
        else:
            policies = _load_policies(cfg, outdir)
            inputs.extend(outdir / f"policy_{a}.ckp" for a in POLICY_ALGOS)
            actor = (trackeval.AvgEnsemble(policies) if algo == "avg"
                     else trackeval.MaxQEnsemble(policies))
        streams = trackeval.track_policy(actor, phantom, bundle_name, tc, env_cfg, seed=seed)

    refs = geometry.build_reference_set(
        phantom.bundles[bundle_name],
        count=min(cfg["eds.reference_count"], len(phantom.bundles[bundle_name])),
        voxel_size=phantom.grid.voxel_size)
    kept = trackeval.post_filter(streams, refs, tc.post_filter_threshold_mm,
                                 phantom.grid.voxel_size)
    out = outdir / f"tracks_{algo}_{bundle_name}.stl"
    geometry.save_streamlines(kept, out, voxel_size=phantom.grid.voxel_size)
    extras = {"raw_streamlines": len(streams), "kept_streamlines": len(kept)}
    write_manifest(outdir, f"track-{algo}-{bundle_name}", cfg, inputs, [out],
                   extras, time.time() - t0)
    return extras


def verify_provenance(outdir):
    """Recheck every manifest's recorded input hashes; returns mismatches."""
    outdir = Path(outdir)
    problems = []
    for mpath in sorted(outdir.glob("manifest_*.json")):
        with open(mpath) as f:
            manifest = json.load(f)
        for name, recorded in manifest.get("inputs", {}).items():
            path = outdir / name
            if not path.exists():
                problems.append(f"{mpath.name}: input {name} missing")
            elif _sha256(path) != recorded:
                problems.append(f"{mpath.name}: input {name} hash mismatch")
    return problems


def stage_evaluate(cfg, outdir, force=False):
    t0 = time.time()
    outdir = Path(outdir)
    problems = verify_provenance(outdir)
    if problems and not force:
        raise ProvenanceError("provenance check failed (use --force to override): "
                           + "; ".join(problems))
    phantom = load_phantom_with_gt(outdir)
    rows, inputs = [], [outdir / "phantom.phn"]
    for stl in sorted(outdir.glob("tracks_*.stl")):
        stem = stl.stem[len("tracks_"):]
        algo, _, bundle_name = stem.partition("_")
        streams, _ = geometry.load_streamlines(stl)
        mask = trackeval.voxelize(streams, phantom.grid)
        s = trackeval.score(mask, phantom.mask_for(bundle_name).values)
        rows.append((bundle_name, algo, s))
        inputs.append(stl)
    rows.sort(key=lambda r: (r[0], r[1]))
    out = outdir / "scores.tsv"
    trackeval.write_scores(out, rows)
    extras = {"n_scored": len(rows), "provenance_warnings": problems}
    write_manifest(outdir, "evaluate", cfg, inputs, [out], extras, time.time() - t0)
    return rows


def stage_report(outdir):
    """Aggregate scores.tsv into one table sorted by bundle then algo."""
    outdir = Path(outdir)
    rows = trackeval.read_scores(_require(outdir / "scores.tsv", "evaluate"))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [f"{'bundle':<16}{'algo':<10}{'dice':>8}{'ol':>8}{'or':>8}"]
    for bundle_name, algo, s in rows:
        lines.append(f"{bundle_name:<16}{algo:<10}{s.dice:>8.4f}{s.ol:>8.4f}{s.or_:>8.4f}")
    text = "\n".join(lines) + "\n"
    with open(outdir / "report.txt", "w") as f:
        f.write(text)
    # gnuplot-friendly companion table
    with open(outdir / "report.dat", "w") as f:
        f.write("# bundle algo dice ol or\n")
        for bundle_name, algo, s in rows:
            f.write(f"{bundle_name} {algo} {s.dice:.4f} {s.ol:.4f} {s.or_:.4f}\n")
    return text
