"""Stage implementations behind the CLI: each stage reads its upstream
artifacts, runs one pipeline step, and writes outputs plus a manifest with
content hashes of everything consumed and produced.

A stage opens and writes artifacts only through its `StageRecord`, so the
manifest lists exactly the files the stage read and wrote."""

from __future__ import annotations

import functools
import hashlib
import json
import time
from pathlib import Path

from . import agents, eds, fusion, geometry, trackeval
from .env import BatchTracker, EnvConfig
from .phantom import (BundleSpec, PhantomSpec, VoxelGrid, generate_phantom,
                      load_phantom, save_phantom)


class StageInputError(FileNotFoundError):
    """An expected upstream artifact is missing."""


class ProvenanceError(RuntimeError):
    """An upstream artifact is missing or no longer matches the hash that a
    consuming stage recorded in its manifest."""


class OutputDirError(OSError):
    """The artifact directory, or an output file in it, cannot be created or
    written."""


def _writable(path):
    """`path`, once it opens for writing; an existing file keeps its bytes."""
    try:
        open(path, "ab").close()
    except OSError as e:
        raise OutputDirError(f"cannot write {path}: {e.strerror}") from e
    return path


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
    path = _writable(outdir / f"manifest_{stage}.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


class StageRecord:
    """The artifacts one stage run reads and writes in `outdir`. `read` and
    `write` return the path and note it; `finish` writes the stage manifest
    from those notes. A record with no stage name only reads."""

    def __init__(self, outdir, stage=None, cfg=None):
        self.dir, self.stage, self.cfg = Path(outdir), stage, cfg
        self.inputs, self.outputs = [], []
        self.t0 = time.time()

    def read(self, name, produced_by):
        self.inputs.append(_require(self.dir / name, produced_by))
        return self.inputs[-1]

    def write(self, name):
        self.outputs.append(_writable(self.dir / name))
        return self.outputs[-1]

    def finish(self, extras):
        write_manifest(self.dir, self.stage, self.cfg, self.inputs, self.outputs, extras,
                       time.time() - self.t0)
        return extras


def _env_config(cfg):
    return EnvConfig(step_size=cfg["env.step_size"], max_steps=cfg["env.max_steps"],
                     max_angle_deg=cfg["env.max_angle_deg"],
                     neighbor_offset=cfg["env.neighbor_offset"])


def load_phantom_with_gt(record, bundles=None):
    """Phantom from phantom.phn plus the ground truth gt_<b>.stl of each
    bundle in `bundles` (default: every bundle of the phantom). `record` is a
    `StageRecord` or an artifact directory."""
    if not isinstance(record, StageRecord):
        record = StageRecord(record)
    phantom = load_phantom(record.read("phantom.phn", "phantom"))
    for b in [m.bundle_name for m in phantom.masks] if bundles is None else bundles:
        phantom.bundles[b], _ = geometry.load_streamlines(record.read(f"gt_{b}.stl", "phantom"))
    return phantom


def _load_policy(cfg, record, algo):
    path = record.read(f"policy_{algo}.ckp", f"train-rl --algo {algo}")
    return agents.PolicyBundle.load(path, hyper=_hyper(cfg, algo))


def _load_policies(cfg, record):
    return {algo: _load_policy(cfg, record, algo) for algo in agents.ALGOS}


def _hyper(cfg, algo):
    kwargs = {"lr": cfg[f"{algo}.lr"], "sigma": cfg[f"{algo}.sigma"],
              "gamma": cfg[f"{algo}.gamma"]}
    if algo == "sac":
        kwargs["alpha"] = cfg["sac.alpha"]
    return agents.RlHyper(**kwargs)


# -- stages -------------------------------------------------------------------

def stage_phantom(cfg, outdir):
    rec = StageRecord(outdir, "phantom", cfg)
    try:
        rec.dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OutputDirError(f"cannot create artifact directory {rec.dir}: {e.strerror}") from e
    grid = VoxelGrid(dims=cfg.dims(), voxel_size=cfg["phantom.voxel_size"])
    spec = PhantomSpec(
        grid=grid,
        bundles=[BundleSpec(name=cfg["phantom.name"], kind=cfg["phantom.kind"],
                            radius=cfg["phantom.radius"])],
        rng_seed=cfg["seed"],
        n_gt_streamlines=cfg["phantom.gt_streamlines"],
    )
    phantom = generate_phantom(spec)
    save_phantom(phantom, rec.write("phantom.phn"))
    for name, streams in phantom.bundles.items():
        geometry.save_streamlines(streams, rec.write(f"gt_{name}.stl"),
                                  voxel_size=grid.voxel_size)
    with open(rec.write("resolved_config.cfg"), "w") as f:
        f.write(cfg.to_text())
    return rec.finish({"bundles": sorted(phantom.bundles),
                       "mask_voxels": {m.bundle_name: int(m.values.sum())
                                       for m in phantom.masks}})


def stage_train_rl(cfg, outdir, algo):
    rec = StageRecord(outdir, f"train-rl-{algo}", cfg)
    phantom = load_phantom_with_gt(rec)
    env_cfg = _env_config(cfg)
    schedule = agents.RlSchedule(
        batches=cfg["rl.batches"], episodes_per_batch=cfg["rl.episodes_per_batch"],
        grad_steps_per_batch=cfg["rl.grad_steps_per_batch"],
        batch_size=cfg["rl.batch_size"], replay_capacity=cfg["rl.replay_capacity"])
    index = agents.ALGOS.index(algo)
    bundle = agents.PolicyBundle(algo, hyper=_hyper(cfg, algo), hidden=cfg["rl.hidden"],
                                 seed=cfg["seed"] + 1000 + index)
    bundle_names = sorted(phantom.bundles)
    log = agents.train_policy(bundle, phantom, bundle_names, env_cfg, schedule,
                              seed=cfg["seed"] + 2000 + index)
    bundle.save(rec.write(f"policy_{algo}.ckp"))
    with open(rec.write(f"train_log_{algo}.json"), "w") as f:
        json.dump(log, f, indent=2)

    # learning-signal oracle: uniform-random baseline vs the trained policy
    extras = {"algo": algo, "reward_per_step": {}, "random_baseline_per_step": {},
              "grad_steps_per_batch": schedule.grad_steps_per_batch}
    for b in bundle_names:
        extras["random_baseline_per_step"][b] = agents.mean_step_reward(
            phantom, b, env_cfg, seed=cfg["seed"] + 3000)
        extras["reward_per_step"][b] = agents.mean_step_reward(
            phantom, b, env_cfg, seed=cfg["seed"] + 3000, bundle=bundle)
    return rec.finish(extras)


def stage_eds(cfg, outdir):
    rec = StageRecord(outdir, "eds", cfg)
    phantom = load_phantom_with_gt(rec)
    policies = _load_policies(cfg, rec)
    spec = eds.HarvestSpec(window=cfg["eds.window"],
                           seeds_per_voxel=cfg["eds.seeds_per_voxel"],
                           min_transitions=cfg["eds.min_transitions"],
                           mdf_threshold_mm=cfg["eds.mdf_threshold_mm"],
                           reference_count=cfg["eds.reference_count"])
    datasets = eds.build_datasets(phantom, policies, _env_config(cfg), spec=spec,
                                  pretrain_target=cfg["eds.pretrain_target"],
                                  finetune_target=cfg["eds.finetune_target"],
                                  seed=cfg["seed"] + 4000)
    eds.save_records(datasets.pretrain, rec.write("eds_pretrain.eds"))
    for name, records in datasets.finetune.items():
        eds.save_records(records, rec.write(f"eds_finetune_{name}.eds"))
    return rec.finish({"pretrain_records": len(datasets.pretrain),
                       "finetune_records": {k: len(v) for k, v in datasets.finetune.items()}})


def _fusion_config(cfg):
    return fusion.FusionConfig(context=cfg["fusion.context"], width=cfg["fusion.width"],
                               n_blocks=cfg["fusion.blocks"], dropout=cfg["fusion.dropout"])


def _train_schedule(cfg, iterations):
    return fusion.TrainSchedule(
        iterations=iterations, updates_per_iter=cfg["fusion.updates_per_iter"],
        batch_size=cfg["fusion.batch_size"], lr=cfg["fusion.lr"], warmup=cfg["fusion.warmup"])


def stage_pretrain(cfg, outdir):
    rec = StageRecord(outdir, "pretrain", cfg)
    records = eds.load_records(rec.read("eds_pretrain.eds", "eds"))
    model = fusion.FusionModel(_fusion_config(cfg), seed=cfg["seed"] + 5000)
    log = fusion.pretrain(model, records, _train_schedule(cfg, cfg["fusion.pretrain_iters"]),
                          seed=cfg["seed"] + 5001)
    model.save(rec.write("fusion_pretrained.ckp"), stage="pretrained")
    return rec.finish({"iteration_loss": log["iteration_loss"], "records": len(records)})


def stage_finetune(cfg, outdir, bundle_name):
    rec = StageRecord(outdir, f"finetune-{bundle_name}", cfg)
    model, _ = fusion.FusionModel.load(rec.read("fusion_pretrained.ckp", "pretrain"))
    records = eds.load_records(rec.read(f"eds_finetune_{bundle_name}.eds", "eds"))
    log = fusion.finetune(model, records, _train_schedule(cfg, cfg["fusion.finetune_iters"]),
                          seed=cfg["seed"] + 6000)
    model.save(rec.write(f"fusion_finetuned_{bundle_name}.ckp"),
               stage=f"finetuned:{bundle_name}")
    return rec.finish({"iteration_loss": log["iteration_loss"], "records": len(records)})


def stage_mcpft(cfg, outdir, bundle_name):
    rec = StageRecord(outdir, f"mcpft-{bundle_name}", cfg)
    model, _ = fusion.FusionModel.load(
        rec.read(f"fusion_finetuned_{bundle_name}.ckp", f"finetune --bundle {bundle_name}"))
    phantom = load_phantom_with_gt(rec)
    policies = _load_policies(cfg, rec)
    records = eds.load_records(rec.read(f"eds_finetune_{bundle_name}.eds", "eds"))
    schedule = fusion.McpftSchedule(
        iterations=cfg["mcpft.iters"], batch_size=cfg["mcpft.batch_size"],
        actor_updates_per_iter=cfg["mcpft.actor_updates"],
        critic_updates_per_iter=cfg["mcpft.critic_updates"],
        lr=cfg["mcpft.lr"], rollout_episodes=cfg["mcpft.rollout_episodes"],
        rtg0=cfg["track.rtg0"])
    log = fusion.mcpft(model, policies, records, phantom, bundle_name,
                       _env_config(cfg), schedule, seed=cfg["seed"] + 7000)
    model.save(rec.write(f"fusion_mcpft_{bundle_name}.ckp"), stage=f"mcpft:{bundle_name}")
    return rec.finish({"actor_updates": log["actor_updates"],
                       "critic_updates": log["critic_updates"],
                       "final_actor_loss": log["actor_loss"][-1] if log["actor_loss"] else None})


def stage_track(cfg, outdir, algo, bundle_name):
    rec = StageRecord(outdir, f"track-{algo}-{bundle_name}", cfg)
    phantom = load_phantom_with_gt(rec, [bundle_name])
    env_cfg = _env_config(cfg)
    if algo == "fusion":
        model, _ = fusion.FusionModel.load(
            rec.read(f"fusion_mcpft_{bundle_name}.ckp", f"mcpft --bundle {bundle_name}"))
        run = fusion.FusionTracker(model, phantom, bundle_name, env_cfg,
                                   rtg0=cfg["track.rtg0"]).run
    else:
        if algo in agents.ALGOS:
            actor = _load_policy(cfg, rec, algo)
        else:
            policies = _load_policies(cfg, rec)
            actor = (trackeval.AvgEnsemble(policies) if algo == "avg"
                     else trackeval.MaxQEnsemble(policies))
        run = functools.partial(BatchTracker(phantom, bundle_name, env_cfg).run,
                                act=actor.act)
    streams = trackeval.track(run, phantom, bundle_name, cfg["track.seeds_per_voxel"],
                              seed=cfg["seed"] + 8000)

    refs = geometry.build_reference_set(phantom.bundles[bundle_name],
                                        count=cfg["eds.reference_count"],
                                        voxel_size=phantom.grid.voxel_size)
    kept = trackeval.post_filter(streams, refs, cfg["track.post_filter_threshold_mm"],
                                 phantom.grid.voxel_size)
    geometry.save_streamlines(kept, rec.write(f"tracks_{algo}_{bundle_name}.stl"),
                              voxel_size=phantom.grid.voxel_size)
    return rec.finish({"raw_streamlines": len(streams), "kept_streamlines": len(kept)})


def verify_provenance(outdir):
    """Recheck the input and output hashes every manifest records; returns mismatches."""
    outdir = Path(outdir)
    problems = []
    sha256 = functools.cache(_sha256)  # a file listed by many manifests is hashed once
    for mpath in sorted(outdir.glob("manifest_*.json")):
        with open(mpath) as f:
            manifest = json.load(f)
        for kind in ("input", "output"):
            for name, recorded in manifest.get(f"{kind}s", {}).items():
                path = outdir / name
                if not path.exists():
                    problems.append(f"{mpath.name}: {kind} {name} missing")
                elif sha256(path) != recorded:
                    problems.append(f"{mpath.name}: {kind} {name} hash mismatch")
    return problems


def stage_evaluate(cfg, outdir, force=False):
    rec = StageRecord(outdir, "evaluate", cfg)
    problems = verify_provenance(rec.dir)
    if problems and not force:
        raise ProvenanceError("provenance check failed (use --force to override): "
                           + "; ".join(problems))
    phantom = load_phantom(rec.read("phantom.phn", "phantom"))
    rows = []
    for stl in sorted(rec.dir.glob("tracks_*.stl")):
        algo, _, bundle_name = stl.stem[len("tracks_"):].partition("_")
        streams, _ = geometry.load_streamlines(rec.read(stl.name, "track"))
        mask = trackeval.voxelize(streams, phantom.grid)
        s = trackeval.score(mask, phantom.mask_for(bundle_name).values)
        rows.append((bundle_name, algo, s))
    rows.sort(key=lambda r: (r[0], r[1]))
    trackeval.write_scores(rec.write("scores.tsv"), rows)
    rec.finish({"n_scored": len(rows), "provenance_warnings": problems})
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
    with open(_writable(outdir / "report.txt"), "w") as f:
        f.write(text)
    # gnuplot-friendly companion table
    with open(_writable(outdir / "report.dat"), "w") as f:
        f.write("# bundle algo dice ol or\n")
        for bundle_name, algo, s in rows:
            f.write(f"{bundle_name} {algo} {s.dice:.4f} {s.ol:.4f} {s.or_:.4f}\n")
    return text
