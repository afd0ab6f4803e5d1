"""Run configuration: plain key=value files, full-scale defaults, a desk
preset, and range validation.

Every default is either a published training value (policy and FusionNet
hyperparameters) or a documented design choice; the resolved configuration
is echoed next to the outputs so each run is self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import phantom

DEFAULTS = {
    "seed": 0,
    # phantom
    "phantom.kind": "crossing-pair",   # one of phantom.KINDS
    "phantom.dims": "40,40,12",
    "phantom.voxel_size": 1.0,
    "phantom.radius": 2.5,
    "phantom.name": "bundle",
    "phantom.gt_streamlines": 16,
    # environment
    "env.step_size": 0.375,
    "env.max_steps": 530,
    "env.max_angle_deg": 60.0,
    "env.neighbor_offset": 1.0,
    # RL training
    "rl.batches": 50,
    "rl.episodes_per_batch": 128,
    "rl.grad_steps_per_batch": 100,
    "rl.batch_size": 4096,
    "rl.replay_capacity": 200000,
    "rl.hidden": 1024,
    "td3.lr": 8.56e-6, "td3.sigma": 0.334, "td3.gamma": 0.776,
    "sac.lr": 3.7e-5, "sac.sigma": 0.4, "sac.gamma": 0.89, "sac.alpha": 0.076,
    "ddpg.lr": 8.56e-6, "ddpg.sigma": 0.35, "ddpg.gamma": 0.5,
    # episodic data selection
    "eds.window": 4,
    "eds.seeds_per_voxel": 4,
    "eds.min_transitions": 47,
    "eds.mdf_threshold_mm": 5.0,
    "eds.reference_count": 15,
    "eds.pretrain_target": 150000,
    "eds.finetune_target": 50000,
    # fusion model + supervised stages
    "fusion.context": 40,
    "fusion.width": 128,
    "fusion.blocks": 4,
    "fusion.dropout": 0.1,
    "fusion.lr": 1e-4,
    "fusion.warmup": 10000,
    "fusion.batch_size": 128,
    "fusion.pretrain_iters": 30,
    "fusion.finetune_iters": 10,
    "fusion.updates_per_iter": 10000,
    # multi-critic fine-tuning
    "mcpft.iters": 25,
    "mcpft.batch_size": 512,
    "mcpft.actor_updates": 1000,
    "mcpft.critic_updates": 1,
    "mcpft.lr": 1e-4,
    "mcpft.rollout_episodes": 32,
    # tracking / evaluation
    "track.seeds_per_voxel": 7,
    "track.rtg0": 300.0,
    "track.post_filter_threshold_mm": 5.0,
}

# Laptop-scale preset: shrinks schedule magnitudes (iterations /10,
# updates-per-iter /100, dataset targets 1500/500) and, so learning is
# observable inside the shrunk budget, raises the RL learning rates and
# shrinks the network widths.
DESK_PRESET = {
    "env.step_size": 0.5,
    "rl.batches": 6,
    "rl.episodes_per_batch": 64,
    "rl.grad_steps_per_batch": 120,
    "rl.batch_size": 256,
    "rl.replay_capacity": 100000,
    "rl.hidden": 128,
    "td3.lr": 1e-3, "sac.lr": 1e-3, "ddpg.lr": 1e-3,
    "eds.pretrain_target": 1500,
    "eds.finetune_target": 500,
    "fusion.context": 16,
    "fusion.width": 64,
    "fusion.warmup": 50,
    "fusion.batch_size": 32,
    "fusion.pretrain_iters": 3,
    "fusion.finetune_iters": 1,
    "fusion.updates_per_iter": 100,
    "mcpft.iters": 2,
    "mcpft.batch_size": 64,
    "mcpft.actor_updates": 10,
    "mcpft.critic_updates": 1,
    "mcpft.lr": 1e-5,  # calibrated: keeps critic terms corrective, not destructive
    "mcpft.rollout_episodes": 16,
    "track.seeds_per_voxel": 1,
}

PRESETS = {"desk": DESK_PRESET}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def dims(self):
        return tuple(int(x) for x in str(self.values["phantom.dims"]).split(","))

    def to_text(self):
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"


def parse_config_text(text):
    """key = value lines, '#' comments; duplicates are errors."""
    out, errors = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            errors.append(f"line {lineno}: duplicate key '{key}'")
            continue
        out[key] = value
    return out, errors


def _coerce(key, raw, errors):
    ref = DEFAULTS[key]
    try:
        if isinstance(ref, int):
            return int(raw)
        if isinstance(ref, float):
            return float(raw)
    except ValueError:
        errors.append(f"key '{key}': cannot parse {raw!r} as {type(ref).__name__}")
        return ref
    return raw


# Float keys must be finite; an infinite post-filter threshold turns the
# filter off.
_INF_ALLOWED = ("track.post_filter_threshold_mm",)

_RANGE_CHECKS = [
    ("seed", lambda v: v >= 0, ">= 0"),
    ("td3.gamma", lambda v: 0 < v <= 1, "(0, 1]"),
    ("sac.gamma", lambda v: 0 < v <= 1, "(0, 1]"),
    ("ddpg.gamma", lambda v: 0 < v <= 1, "(0, 1]"),
    ("td3.sigma", lambda v: v >= 0, ">= 0"),
    ("sac.sigma", lambda v: v > 0, "> 0"),
    ("ddpg.sigma", lambda v: v >= 0, ">= 0"),
    ("td3.lr", lambda v: v > 0, "> 0"),
    ("sac.lr", lambda v: v > 0, "> 0"),
    ("ddpg.lr", lambda v: v > 0, "> 0"),
    ("sac.alpha", lambda v: v >= 0, ">= 0"),
    ("fusion.lr", lambda v: v > 0, "> 0"),
    ("mcpft.lr", lambda v: v > 0, "> 0"),
    ("env.step_size", lambda v: 0 < v <= 1, "(0, 1]"),
    ("env.max_steps", lambda v: v >= 1, ">= 1"),
    ("env.max_angle_deg", lambda v: 0 < v < 180, "(0, 180)"),
    ("phantom.radius", lambda v: v >= 1, ">= 1 voxel"),
    ("phantom.voxel_size", lambda v: v > 0, "> 0"),
    ("fusion.dropout", lambda v: 0 <= v < 1, "[0, 1)"),
    ("fusion.context", lambda v: v >= 5, ">= 5"),
    ("eds.min_transitions", lambda v: v >= 1, ">= 1"),
    ("eds.mdf_threshold_mm", lambda v: v > 0, "> 0"),
    ("eds.reference_count", lambda v: v >= 1, ">= 1"),
    ("eds.window", lambda v: v >= 1, ">= 1"),
    ("track.seeds_per_voxel", lambda v: v >= 1, ">= 1"),
    ("track.rtg0", lambda v: v > 0, "> 0"),
    ("track.post_filter_threshold_mm", lambda v: v > 0, "> 0"),
    # sizes and counts; >= 0 where zero means "skip this training"
    ("phantom.gt_streamlines", lambda v: v >= 1, ">= 1"),
    ("rl.batches", lambda v: v >= 0, ">= 0"),
    ("rl.episodes_per_batch", lambda v: v >= 1, ">= 1"),
    ("rl.grad_steps_per_batch", lambda v: v >= 0, ">= 0"),
    ("rl.batch_size", lambda v: v >= 1, ">= 1"),
    ("rl.replay_capacity", lambda v: v >= 1, ">= 1"),
    ("rl.hidden", lambda v: v >= 1, ">= 1"),
    ("eds.seeds_per_voxel", lambda v: v >= 1, ">= 1"),
    ("eds.pretrain_target", lambda v: v >= 1, ">= 1"),
    ("eds.finetune_target", lambda v: v >= 1, ">= 1"),
    ("fusion.width", lambda v: v >= 1, ">= 1"),
    ("fusion.blocks", lambda v: v >= 1, ">= 1"),
    ("fusion.warmup", lambda v: v >= 0, ">= 0"),
    ("fusion.batch_size", lambda v: v >= 1, ">= 1"),
    ("fusion.pretrain_iters", lambda v: v >= 1, ">= 1"),
    ("fusion.finetune_iters", lambda v: v >= 1, ">= 1"),
    ("fusion.updates_per_iter", lambda v: v >= 1, ">= 1"),
    ("mcpft.iters", lambda v: v >= 0, ">= 0"),
    ("mcpft.batch_size", lambda v: v >= 1, ">= 1"),
    ("mcpft.actor_updates", lambda v: v >= 0, ">= 0"),
    ("mcpft.critic_updates", lambda v: v >= 0, ">= 0"),
    ("mcpft.rollout_episodes", lambda v: v >= 1, ">= 1"),
]


def resolve_config(text="", preset=None, seed_override=None):
    """Defaults -> optional preset -> file values; validate; RunConfig."""
    values = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError([f"unknown preset '{preset}'"])
        values.update(PRESETS[preset])
    parsed, errors = parse_config_text(text)
    for key, raw in parsed.items():
        if key not in DEFAULTS:
            errors.append(f"unknown key '{key}'")
            continue
        values[key] = _coerce(key, raw, errors)
    if seed_override is not None:
        values["seed"] = int(seed_override)
    for key, value in values.items():
        if (isinstance(value, float) and not math.isfinite(value)
                and not (key in _INF_ALLOWED and value == math.inf)):
            errors.append(f"key '{key}': value {value} is not finite")
    for key, check, bound in _RANGE_CHECKS:
        if not check(values[key]):
            errors.append(f"key '{key}': value {values[key]} outside {bound}")
    try:
        dims = [int(d) for d in str(values["phantom.dims"]).split(",")]
    except ValueError:
        dims = []
    if len(dims) != 3:
        errors.append(f"key 'phantom.dims': expected 3 comma-separated ints, got {values['phantom.dims']!r}")
    elif min(dims) < 8:
        errors.append("key 'phantom.dims': each dimension must be >= 8")
    name = values["phantom.name"]
    if not name or "/" in name or any(ch.isspace() for ch in name):
        # the name becomes part of artifact file names and of scores.tsv rows
        errors.append(f"key 'phantom.name': {name!r} must be non-empty, "
                      "without whitespace or '/'")
    kind, radius = values["phantom.kind"], values["phantom.radius"]
    if kind not in phantom.KINDS:
        errors.append(f"key 'phantom.kind': unknown kind {kind!r}")
    elif len(dims) == 3 and min(dims) >= 8 and math.isfinite(radius) and radius >= 1:
        try:
            phantom.check_fit(kind, dims, radius)
        except phantom.PhantomError as e:
            errors.append(f"keys 'phantom.kind', 'phantom.dims', 'phantom.radius': {e}")
    if errors:
        raise ConfigError(errors)
    return RunConfig(values=values)


def load_config(path, preset=None, seed_override=None):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ConfigError([f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"]) from None
    return resolve_config(text, preset=preset, seed_override=seed_override)
