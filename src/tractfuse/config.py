"""Run configuration: plain key=value files, full-scale defaults, a desk
preset, and range validation.

Every default is either a published training value (policy and FusionNet
hyperparameters) or a documented design choice; the resolved configuration
is echoed next to the outputs so each run is self-describing.

`KEYS` is the one table of keys: each maps to its default and its bound,
and the bound text is both the check and the error message. A bound is
`"> a"` or `">= a"`, optionally followed by a unit word (`">= 1 voxel"`),
or an interval `"(a, b]"` whose brackets say which ends it includes. Every
int and float key has one; the three string keys (`phantom.kind`,
`phantom.dims`, `phantom.name`) have `None` and are checked by hand in
`resolve_config`. A count bounded `">= 0"` is one where zero skips that
training. Float values must also be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import phantom

KEYS = {
    "seed": (0, ">= 0"),
    # phantom
    "phantom.kind": ("crossing-pair", None),   # one of phantom.KINDS
    "phantom.dims": ("40,40,12", None),
    "phantom.voxel_size": (1.0, "> 0"),
    "phantom.radius": (2.5, ">= 1 voxel"),
    "phantom.name": ("bundle", None),
    "phantom.gt_streamlines": (16, ">= 1"),
    # environment
    "env.step_size": (0.375, "(0, 1]"),
    "env.max_steps": (530, ">= 1"),
    "env.max_angle_deg": (60.0, "(0, 180)"),
    "env.neighbor_offset": (1.0, "> 0"),
    # RL training
    "rl.batches": (50, ">= 0"),
    "rl.episodes_per_batch": (128, ">= 1"),
    "rl.grad_steps_per_batch": (100, ">= 0"),
    "rl.batch_size": (4096, ">= 1"),
    "rl.replay_capacity": (200000, ">= 1"),
    "rl.hidden": (1024, ">= 1"),
    "td3.lr": (8.56e-6, "> 0"), "td3.sigma": (0.334, ">= 0"), "td3.gamma": (0.776, "(0, 1]"),
    "sac.lr": (3.7e-5, "> 0"), "sac.sigma": (0.4, "> 0"), "sac.gamma": (0.89, "(0, 1]"),
    "sac.alpha": (0.076, ">= 0"),
    "ddpg.lr": (8.56e-6, "> 0"), "ddpg.sigma": (0.35, ">= 0"), "ddpg.gamma": (0.5, "(0, 1]"),
    # episodic data selection
    "eds.window": (4, ">= 1"),
    "eds.seeds_per_voxel": (4, ">= 1"),
    "eds.min_transitions": (47, ">= 1"),
    "eds.mdf_threshold_mm": (5.0, "> 0"),
    "eds.reference_count": (15, ">= 1"),
    "eds.pretrain_target": (150000, ">= 1"),
    "eds.finetune_target": (50000, ">= 1"),
    # fusion model + supervised stages
    "fusion.context": (40, ">= 5"),
    "fusion.width": (128, ">= 1"),
    "fusion.blocks": (4, ">= 1"),
    "fusion.dropout": (0.1, "[0, 1)"),
    "fusion.lr": (1e-4, "> 0"),
    "fusion.warmup": (10000, ">= 0"),
    "fusion.batch_size": (128, ">= 1"),
    "fusion.pretrain_iters": (30, ">= 1"),
    "fusion.finetune_iters": (10, ">= 1"),
    "fusion.updates_per_iter": (10000, ">= 1"),
    # multi-critic fine-tuning
    "mcpft.iters": (25, ">= 0"),
    "mcpft.batch_size": (512, ">= 1"),
    "mcpft.actor_updates": (1000, ">= 0"),
    "mcpft.critic_updates": (1, ">= 0"),
    "mcpft.lr": (1e-4, "> 0"),
    "mcpft.rollout_episodes": (32, ">= 1"),
    # tracking / evaluation
    "track.seeds_per_voxel": (7, ">= 1"),
    "track.rtg0": (300.0, "> 0"),
    "track.post_filter_threshold_mm": (5.0, "> 0"),
}

DEFAULTS = {key: default for key, (default, _) in KEYS.items()}

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
        return _parse_dims(self.values["phantom.dims"])

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


# An infinite post-filter threshold turns the filter off.
_INF_ALLOWED = ("track.post_filter_threshold_mm",)


def _within(value, bound):
    """Whether `value` lies inside one `KEYS` bound text."""
    if bound.startswith(">"):
        op, edge = bound.split()[:2]
        return value >= float(edge) if op == ">=" else value > float(edge)
    lo, hi = (float(edge) for edge in bound[1:-1].split(", "))
    return ((value >= lo if bound[0] == "[" else value > lo)
            and (value <= hi if bound[-1] == "]" else value < hi))


def _parse_dims(text):
    """`phantom.dims` as a tuple of ints; ValueError if a part is not one."""
    return tuple(int(d) for d in str(text).split(","))


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
    for key, (_, bound) in KEYS.items():
        value = values[key]
        if (isinstance(value, float) and not math.isfinite(value)
                and not (key in _INF_ALLOWED and value == math.inf)):
            errors.append(f"key '{key}': value {value} is not finite")
        if bound is not None and not _within(value, bound):
            errors.append(f"key '{key}': value {value} outside {bound}")
    try:
        dims = _parse_dims(values["phantom.dims"])
    except ValueError:
        dims = ()
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
