"""Configuration parsing/validation and CLI behavior (exit codes, seed
override, manifests, provenance verification)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tractfuse import agents, cli, eds, pipeline
from tractfuse.config import (DEFAULTS, ConfigError, parse_config_text,
                              resolve_config)
from tractfuse.eds import EdsError
from tractfuse.env import STATE_DIM


# -- start-up -----------------------------------------------------------------

def test_stage_imports_leave_slow_scipy_modules_unloaded():
    """Only phantom building needs scipy.special and scipy.spatial, so a stage
    process that merely imports the CLI and pipeline must not load them."""
    code = ("import sys, tractfuse.cli, tractfuse.pipeline; "
            "print([m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- config -------------------------------------------------------------------

def test_defaults_resolve():
    cfg = resolve_config("")
    assert cfg["rl.batches"] == 50
    assert cfg["td3.lr"] == pytest.approx(8.56e-6)
    assert cfg["sac.alpha"] == pytest.approx(0.076)
    assert cfg["env.max_steps"] == 530
    assert cfg["fusion.context"] == 40
    assert cfg["mcpft.actor_updates"] == 1000
    assert cfg["track.seeds_per_voxel"] == 7


def test_desk_preset_overrides():
    cfg = resolve_config("", preset="desk")
    assert cfg["rl.batches"] < 50
    assert cfg["track.seeds_per_voxel"] == 1
    assert cfg["seed"] == DEFAULTS["seed"]


def test_file_overrides_preset():
    cfg = resolve_config("rl.batches = 9", preset="desk")
    assert cfg["rl.batches"] == 9


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        resolve_config("", preset="datacenter")


def test_gamma_out_of_range_names_key_and_bound():
    with pytest.raises(ConfigError) as e:
        resolve_config("td3.gamma = 1.5")
    assert "td3.gamma" in str(e.value) and "1" in str(e.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        resolve_config("seed = 1\nseed = 2")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config("rl.banana = 3")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        resolve_config("seed = 1\nnot a key value\n")


def test_comments_and_blank_lines():
    parsed, errors = parse_config_text("# comment\n\nseed = 3  # trailing\n")
    assert errors == [] and parsed == {"seed": "3"}


def test_type_coercion_error():
    with pytest.raises(ConfigError, match="seed"):
        resolve_config("seed = notanumber")


def test_dims_validation():
    with pytest.raises(ConfigError, match="dims"):
        resolve_config("phantom.dims = 10,10")
    with pytest.raises(ConfigError, match=">= 8"):
        resolve_config("phantom.dims = 4,10,10")


def test_kind_validation():
    with pytest.raises(ConfigError, match="kind"):
        resolve_config("phantom.kind = moebius")


def test_seed_override_wins():
    cfg = resolve_config("seed = 5", seed_override=11)
    assert cfg["seed"] == 11


def test_config_text_roundtrip():
    cfg = resolve_config("rl.batches = 7")
    cfg2 = resolve_config(cfg.to_text())
    assert cfg2.values == cfg.values


# -- CLI ----------------------------------------------------------------------

DESK_TUBE = "phantom.kind = straight-tube\nphantom.dims = 20,10,10\n"


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(DESK_TUBE)
    return p


def test_cli_bad_config_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("td3.gamma = 2.0\n")
    rc = cli.main(["--config", str(p), "--out", str(tmp_path / "o"), "phantom"])
    assert rc == 1
    assert "td3.gamma" in capsys.readouterr().err


def test_cli_missing_config_file_exit_1(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o"), "phantom"])
    assert rc == 1


def test_cli_missing_upstream_exit_1(tmp_path, capsys):
    rc = cli.main(["--preset", "desk", "--out", str(tmp_path / "o"), "eds"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "phantom" in err  # names the stage to run first


def test_cli_phantom_writes_manifest(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    rc = cli.main(["--preset", "desk", "--config", str(cfg_file),
                   "--out", str(out), "phantom"])
    assert rc == 0
    manifest = json.loads((out / "manifest_phantom.json").read_text())
    assert manifest["stage"] == "phantom"
    assert "phantom.phn" in manifest["outputs"]
    assert "gt_bundle.stl" in manifest["outputs"]
    assert manifest["config"]["phantom.kind"] == "straight-tube"


def test_cli_seed_env_override(tmp_path, cfg_file, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("TRACTFUSE_SEED", "123")
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out1), "phantom"]) == 0
    monkeypatch.delenv("TRACTFUSE_SEED")
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out2), "--seed", "123", "phantom"]) == 0
    m1 = json.loads((out1 / "manifest_phantom.json").read_text())
    m2 = json.loads((out2 / "manifest_phantom.json").read_text())
    assert m1["config"]["seed"] == 123
    assert m1["outputs"] == m2["outputs"]


def test_cli_phantom_reproducible(tmp_path, cfg_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                         "--out", str(out), "phantom"]) == 0
    m1 = json.loads((out1 / "manifest_phantom.json").read_text())
    m2 = json.loads((out2 / "manifest_phantom.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_provenance_detects_tamper(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out), "phantom"]) == 0
    # create a manifest that records phantom.phn as an input, then tamper
    cfg = resolve_config(DESK_TUBE, preset="desk")
    pipeline.write_manifest(out, "fake-stage", cfg, [out / "phantom.phn"], [])
    with open(out / "phantom.phn", "ab") as f:
        f.write(b"\x00")
    problems = pipeline.verify_provenance(out)
    assert any("hash mismatch" in p for p in problems)


EDS_CROSSING = """\
phantom.kind = crossing-pair
phantom.dims = 16,16,8
phantom.radius = 2.0
env.max_steps = 20
eds.window = 8
eds.seeds_per_voxel = 1
eds.min_transitions = 2
eds.mdf_threshold_mm = 50.0
eds.reference_count = 4
eds.pretrain_target = 4
eds.finetune_target = 4
"""


@pytest.mark.filterwarnings("ignore:.*records for target")
def test_eds_manifest_lists_ground_truth(tmp_path):
    """The eds stage builds its reference sets from gt_*.stl, so its manifest
    records each of them and provenance catches a rewritten one."""
    cfg = resolve_config(EDS_CROSSING, preset="desk")
    out = tmp_path / "run"
    pipeline.stage_phantom(cfg, out)
    for i, algo in enumerate(agents.ALGOS):
        agents.PolicyBundle(algo, hidden=16, seed=i).save(out / f"policy_{algo}.ckp")
    pipeline.stage_eds(cfg, out)
    gt = sorted(p.name for p in out.glob("gt_*.stl"))
    assert gt == ["gt_bundle_a.stl", "gt_bundle_b.stl"]
    assert set(gt) <= set(pipeline.read_manifest(out, "eds")["inputs"])
    assert pipeline.verify_provenance(out) == []
    for name in gt:
        path = out / name
        original = path.read_bytes()
        path.write_bytes(original[:-4] + b"\xff\xff\xff\x7f")
        assert pipeline.verify_provenance(out) == [
            f"manifest_eds.json: input {name} hash mismatch"]
        path.write_bytes(original)


def test_cli_failed_provenance_exit_1(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out), "phantom"]) == 0
    cfg = resolve_config(DESK_TUBE, preset="desk")
    pipeline.write_manifest(out, "fake-stage", cfg, [out / "phantom.phn"], [])
    with open(out / "phantom.phn", "ab") as f:
        f.write(b"\x00")
    rc = cli.main(["--preset", "desk", "--config", str(cfg_file),
                   "--out", str(out), "evaluate"])
    assert rc == 1
    assert "provenance" in capsys.readouterr().err


def test_cli_stage_error_saying_missing_exit_2(tmp_path, monkeypatch, capsys):
    """The exit code follows the error type, not words in its message."""
    def fail(cfg, outdir):
        raise EdsError("harvest window has missing peaks")

    monkeypatch.setattr(pipeline, "stage_eds", fail)
    rc = cli.main(["--preset", "desk", "--out", str(tmp_path / "o"), "eds"])
    assert rc == 2
    assert "missing peaks" in capsys.readouterr().err


def test_cli_truncated_checkpoint_exit_1(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out), "phantom"]) == 0
    ckp = out / "policy_td3.ckp"
    agents.PolicyBundle("td3", hidden=8).save(ckp)
    ckp.write_bytes(ckp.read_bytes()[:-10])
    capsys.readouterr()
    rc = cli.main(["--preset", "desk", "--config", str(cfg_file),
                   "--out", str(out), "track", "--algo", "td3", "--bundle", "bundle"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(ckp) in err and "internal error" not in err


def test_cli_truncated_dataset_exit_1(tmp_path, cfg_file, capsys):
    out = tmp_path / "run"
    out.mkdir()
    data = out / "eds_pretrain.eds"
    rewards = np.ones(2, dtype=np.float32)
    rec = eds.TrajectoryRecord(states=np.zeros((2, STATE_DIM), dtype=np.float32),
                               actions=np.zeros((2, 3), dtype=np.float32), rewards=rewards,
                               rtg=eds.compute_rtg(rewards), policy_id="sac",
                               streamline=np.zeros((3, 3), dtype=np.float32),
                               bundle_name="bundle")
    eds.save_records([rec], data)
    data.write_bytes(data.read_bytes()[:-10])
    rc = cli.main(["--preset", "desk", "--config", str(cfg_file), "--out", str(out), "pretrain"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(data) in err and "internal error" not in err


def test_report_without_scores_exit_1(tmp_path, capsys):
    rc = cli.main(["--preset", "desk", "--out", str(tmp_path / "o"), "report"])
    assert rc == 1
