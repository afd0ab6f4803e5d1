"""Configuration parsing/validation and CLI behavior (exit codes, seed
override, manifests, provenance verification)."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import re
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import agents, cli, eds, fusion, pipeline
from tractfuse.config import (_RANGE_CHECKS, DEFAULTS, ConfigError,
                              parse_config_text, resolve_config)
from tractfuse.eds import EdsError
from tractfuse.env import STATE_DIM
from tractfuse.geometry import load_streamlines
from tractfuse.phantom import KINDS, load_phantom


# -- start-up -----------------------------------------------------------------

def test_package_imports_only_stdlib_and_numpy():
    """numpy is the one runtime dependency: no module of the package imports
    anything outside the standard library, numpy and tractfuse itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "tractfuse"}
    package = Path(cli.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = [n for n in names if n.split(".")[0] not in allowed]
            assert not outside, f"{path.name}:{node.lineno} imports {outside}"


def test_phantom_stage_loads_no_scipy(tmp_path):
    """A desk phantom stage, run in a fresh process, loads no scipy module."""
    code = ("import sys; from tractfuse import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code, "--preset", "desk",
                          "--out", str(tmp_path / "o"), "phantom"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "o" / "phantom.phn").exists()


@pytest.mark.parametrize("with_mallopt", [True, False])
def test_cli_sets_mallopt_or_skips_it(tmp_path, cfg_file, monkeypatch, with_mallopt):
    """A stage runs whether or not the libc has `mallopt` (glibc has it; a
    stand-in for `ctypes.CDLL(None)` either records the calls or lacks it)."""
    import ctypes

    calls = []
    libc = SimpleNamespace(mallopt=lambda *a: calls.append(a)) if with_mallopt \
        else SimpleNamespace()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o"), "phantom"]) == 0
    assert (tmp_path / "o" / "manifest_phantom.json").exists()
    # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = -1 (never trim)
    assert calls == ([(-3, 32 * 2**20), (-1, -1)] if with_mallopt else [])


# A float64 (128, 48) @ (48, 337) product: the first-layer input gradient of
# the MCPFT critic term at the bench crossing's shape (16 windows x 8 steps,
# critic hidden 48, state + action 337). Split over two OpenBLAS threads it
# has other bits than on one. numpy loads before tractfuse, as in a
# benchmark child process.
_BLAS_PROBE = """
import ctypes, hashlib, pathlib
import numpy as np
import tractfuse
libs = sorted((pathlib.Path(np.__file__).resolve().parents[1] / "numpy.libs")
              .glob("libscipy_openblas64_*.so"))
get = (getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_", None)
       if libs else None)
threads = get() if get is not None else None
rng = np.random.default_rng(0)
a, b = rng.standard_normal((128, 48)), rng.standard_normal((48, 337))
print(threads, hashlib.sha256((a @ b).tobytes()).hexdigest())
"""


def test_blas_bytes_do_not_depend_on_thread_count():
    """Importing tractfuse runs OpenBLAS on one thread, whatever thread count
    the environment allows, so a product's bytes do not depend on it."""
    outs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        outs.append(subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                                   capture_output=True, text=True, check=True).stdout.split())
    (threads_1, digest_1), (threads_2, digest_2) = outs
    if threads_1 == "None":
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    assert threads_1 == threads_2 == "1"
    assert digest_1 == digest_2


@pytest.mark.parametrize("found", ["openblas", "openblas without setter", "no openblas"])
def test_import_pins_openblas_or_skips_it(tmp_path, monkeypatch, found):
    """The pin calls OpenBLAS's `set_num_threads(1)` when numpy's wheel ships
    OpenBLAS; a library without the setter, or a numpy without the bundled
    library, is left as it is (a stand-in for `numpy.__file__` and
    `ctypes.CDLL`)."""
    import ctypes

    import tractfuse

    calls = []
    if found != "no openblas":
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").touch()
    lib = SimpleNamespace(scipy_openblas_set_num_threads64_=lambda n: calls.append(n)) \
        if found == "openblas" else SimpleNamespace()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(Path(name).name) or lib)
    tractfuse._one_blas_thread()
    assert calls == {"openblas": ["libscipy_openblas64_-0.so", 1],
                     "openblas without setter": ["libscipy_openblas64_-0.so"],
                     "no openblas": []}[found]


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
    cfg = resolve_config("rl.batches = 9\ntrack.post_filter_threshold_mm = inf", preset="desk")
    assert cfg["rl.batches"] == 9
    assert cfg["track.post_filter_threshold_mm"] == np.inf  # inf turns the post-filter off


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        resolve_config("", preset="datacenter")


@pytest.mark.parametrize("key,value", [
    ("td3.gamma", "1.5"),
    ("eds.reference_count", "0"),
    ("eds.reference_count", "-2"),
    ("eds.window", "0"),
    ("track.post_filter_threshold_mm", "nan"),
    ("track.post_filter_threshold_mm", "-1"),
    ("phantom.gt_streamlines", "0"),
    ("rl.batches", "-1"),
    ("rl.episodes_per_batch", "0"),
    ("rl.grad_steps_per_batch", "-1"),
    ("rl.batch_size", "0"),
    ("rl.replay_capacity", "0"),
    ("rl.hidden", "0"),
    ("rl.hidden", "-3"),
    ("eds.seeds_per_voxel", "0"),
    ("eds.pretrain_target", "0"),
    ("eds.finetune_target", "0"),
    ("fusion.width", "0"),
    ("fusion.blocks", "0"),
    ("fusion.warmup", "-1"),
    ("fusion.batch_size", "0"),
    ("fusion.pretrain_iters", "0"),
    ("fusion.finetune_iters", "0"),
    ("fusion.updates_per_iter", "0"),
    ("mcpft.iters", "-1"),
    ("mcpft.batch_size", "0"),
    ("mcpft.actor_updates", "-1"),
    ("mcpft.critic_updates", "-1"),
    ("mcpft.rollout_episodes", "0"),
])
def test_gamma_out_of_range_names_key_and_bound(key, value):
    with pytest.raises(ConfigError) as e:
        resolve_config(f"{key} = {value}")
    bound = {k: b for k, _, b in _RANGE_CHECKS}[key]
    assert f"key '{key}'" in str(e.value) and bound in str(e.value)


FLOAT_KEYS = [k for k, v in DEFAULTS.items() if isinstance(v, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key):
    """Every float key must be finite; only the post-filter keeps `inf`
    (filter off), as test_file_overrides_preset asserts."""
    for value in ("inf", "-inf", "nan"):
        if key == "track.post_filter_threshold_mm" and value == "inf":
            continue
        with pytest.raises(ConfigError) as e:
            resolve_config(f"{key} = {value}")
        assert f"key '{key}'" in str(e.value)


def test_negative_seed_rejected():
    for text, override in (("seed = -1", None), ("", -5)):
        with pytest.raises(ConfigError, match="key 'seed'.*>= 0"):
            resolve_config(text, seed_override=override)
    assert resolve_config("", seed_override=0)["seed"] == 0


def test_phantom_name_rejected():
    """The name becomes part of file names and of `scores.tsv`'s
    tab-separated rows: empty, whitespace and '/' are rejected."""
    for name in ("", "a b", "a\tb", "a/b", "/", "a\u00a0b"):
        with pytest.raises(ConfigError, match="key 'phantom.name'"):
            resolve_config(f"phantom.name = {name}")
    assert resolve_config("phantom.name = my_bundle-2.x")["phantom.name"] == "my_bundle-2.x"


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


@pytest.mark.parametrize("raw,named", [
    (b"phantom.dims = --12,8,8\n", "phantom.dims"),
    (b"seed = 1\xff\n", "not UTF-8"),
], ids=["doubled sign in dims", "not UTF-8"])
def test_cli_malformed_config_file_exit_1(tmp_path, capsys, raw, named):
    """Both used to escape `cli.main` as a bare ValueError traceback."""
    p = tmp_path / "bad.cfg"
    p.write_bytes(raw)
    assert cli.main(["--config", str(p), "--out", str(tmp_path / "o"), "phantom"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and named in err


@pytest.mark.parametrize("argv,cfg_text", [
    (["--seed", "-5"], ""),
    ([], "seed = -5\n"),
    ([], "fusion.lr = inf\n"),
    ([], "env.neighbor_offset = nan\n"),
    ([], "phantom.name = a\tb\n"),
    ([], "phantom.name = a/b\n"),
    ([], "phantom.name =\n"),
], ids=["negative --seed", "negative seed in file", "infinite lr", "nan offset",
        "tab in name", "slash in name", "empty name"])
def test_cli_bad_setting_exit_1(tmp_path, capsys, argv, cfg_text):
    p = tmp_path / "run.cfg"
    p.write_text(DESK_TUBE + cfg_text)
    rc = cli.main(["--preset", "desk", "--config", str(p), "--out", str(tmp_path / "o")]
                  + argv + ["phantom"])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,dims,radius", [
    ("straight-tube", "8,8,8", 3),
    ("helix", "9,9,8", 3),
    ("crossing-pair", "8,8,8", 3),
    ("crossing-pair", "40,8,8", 3),
])
def test_cli_phantom_without_room_exit_1(tmp_path, capsys, kind, dims, radius):
    """A bundle whose centerline has no room in the grid is bad input; these
    used to pass every check and write NaN SH, peaks and ground truth."""
    p = tmp_path / "run.cfg"
    p.write_text(f"phantom.kind = {kind}\nphantom.dims = {dims}\nphantom.radius = {radius}\n")
    rc = cli.main(["--preset", "desk", "--config", str(p), "--out", str(tmp_path / "o"), "phantom"])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_phantom_fits_or_exits_1(tmp_path_factory):
    """For any kind, dims and radius, the phantom stage either rejects the
    config and writes nothing, or writes a finite phantom and ground truth
    with a nonempty mask for every bundle."""
    root = tmp_path_factory.mktemp("fit")
    cfg, runs = root / "run.cfg", itertools.count()

    # Half-voxel radii hit the exact boundaries: a tube or ring of zero length.
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), dims=st.tuples(*[st.integers(8, 48)] * 3),
           radius=st.one_of(st.integers(2, 16).map(lambda v: v / 2), st.floats(1.0, 8.0)))
    def check(kind, dims, radius):
        cfg.write_text(f"phantom.kind = {kind}\nphantom.dims = {','.join(map(str, dims))}\n"
                       f"phantom.radius = {radius!r}\nphantom.gt_streamlines = 4\n")
        out = root / f"o{next(runs)}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--config", str(cfg), "--out", str(out), "phantom"])
        if rc == 1:
            assert "config error:" in err.getvalue()
            assert not out.exists()
            return
        assert rc == 0, err.getvalue()
        p = load_phantom(out / "phantom.phn")
        assert np.isfinite(p.sh).all() and np.isfinite(p.peak_dirs).all()
        assert len(p.masks) == (2 if kind == "crossing-pair" else 1)
        assert all(m.values.any() for m in p.masks)
        for m in p.masks:
            streams, _ = load_streamlines(out / f"gt_{m.bundle_name}.stl")
            assert len(streams) == 4 and all(np.isfinite(s).all() for s in streams)

    check()


# -- every key: values the config checks must reject --------------------------

_NUMBER = r"-?[0-9.]+"


def _past_bound(bound, as_int):
    """Values outside one `_RANGE_CHECKS` bound text ("> 0", ">= 1 voxel",
    "(0, 1]", ...): the value just past each edge, or any value beyond it."""
    lower = re.fullmatch(rf"(>=?) ({_NUMBER})( \w+)?", bound)
    pair = re.fullmatch(rf"([(\[])({_NUMBER}), ({_NUMBER})([)\]])", bound)
    assert lower or pair, f"unparsed bound {bound!r}"
    if lower:
        edges = [(lower[1] == ">=", float(lower[2]), -math.inf)]
    else:
        edges = [(pair[1] == "[", float(pair[2]), -math.inf),
                 (pair[4] == "]", float(pair[3]), math.inf)]
    out = []
    for inclusive, edge, away in edges:
        if as_int:
            past = int(edge) + (int(math.copysign(1, away)) if inclusive else 0)
        else:
            past = math.nextafter(edge, away) if inclusive else edge
        lo, hi = (None, past) if away < 0 else (past, None)
        beyond = (st.integers(lo, hi) if as_int
                  else st.floats(lo, hi, allow_nan=False, allow_infinity=False))
        out += [st.just(repr(past)), beyond.map(repr)]
    return out


def _not_a_number(as_int):
    """Text that `int` (or `float`) cannot parse."""
    words = st.text(string.ascii_letters + " _.,+-", max_size=8).filter(
        lambda w: w.strip().lower().lstrip("+-") not in ("nan", "inf", "infinity"))
    junk = st.tuples(st.integers(-999, 999), st.sampled_from(["x", " 1", ",2", "..", "e", "%"])
                     ).map(lambda t: f"{t[0]}{t[1]}")
    out = [words, junk]
    if as_int:  # a float's repr always has a '.' or an exponent
        out.append(st.floats(allow_nan=False, allow_infinity=False).map(repr))
    return out


def _valid_dim(part):
    try:
        return int(part) >= 8
    except ValueError:
        return False


def _bad_dims():
    signed = st.tuples(st.sampled_from(["-", "--", "+", "+-", "-+", "++"]), st.integers(0, 99))
    part = st.one_of(st.integers(8, 64).map(str),
                     st.integers(max_value=7).map(str),
                     signed.map(lambda t: f"{t[0]}{t[1]}"),
                     st.text("0123456789+-. ex", max_size=4))
    wrong_count = st.lists(part, max_size=5).filter(lambda ps: len(ps) != 3)
    one_bad = st.lists(part, min_size=3, max_size=3).filter(
        lambda ps: not all(map(_valid_dim, ps)))
    return st.one_of(wrong_count, one_bad).map(",".join)


def bad_values(key):
    """Every kind of value for `key` that the config checks must reject."""
    ref = DEFAULTS[key]
    if key == "phantom.dims":
        return _bad_dims()
    if key == "phantom.name":
        part = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=4)
        inner = st.tuples(part, st.sampled_from([" ", "\t", "/", " / "]), part)
        return st.one_of(st.just(""), st.just("/"), inner.map("".join))
    if key == "phantom.kind":
        return st.text(string.ascii_letters + string.digits + " -_.", max_size=14).filter(
            lambda k: k.strip() not in KINDS)
    as_int = isinstance(ref, int)
    out = _not_a_number(as_int)
    if not as_int:
        non_finite = ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400"]
        out.append(st.sampled_from([v for v in non_finite if not (
            key == "track.post_filter_threshold_mm" and float(v) == math.inf)]))
    bound = {k: b for k, _, b in _RANGE_CHECKS}.get(key)
    if bound is not None:
        out += _past_bound(bound, as_int)
    return st.one_of(out)


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_cli_rejects_every_bad_value(tmp_path_factory, key):
    """For each key, out-of-range, non-finite, unparseable and malformed
    values stop the phantom stage with exit 1 and `config error:`, never
    an internal error (exit 2)."""
    root = tmp_path_factory.mktemp("cfg")
    cfg, out = root / "run.cfg", root / "o"

    @settings(max_examples=15, deadline=None)
    @given(value=bad_values(key))
    def check(value):
        cfg.write_text(f"{key} = {value}\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["--config", str(cfg), "--out", str(out), "phantom"])
        assert rc == 1, (value, err.getvalue())
        assert "config error:" in err.getvalue()

    check()


def test_cli_unwritable_out_exit_1(tmp_path, cfg_file, capsys):
    """An --out under a regular file, or an output path that is a directory,
    is bad input naming the path; a missing upstream artifact under such an
    --out is still reported as missing."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "run", blocker):
        rc = cli.main(["--preset", "desk", "--config", str(cfg_file), "--out", str(out),
                       "phantom"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot create artifact directory {out}" in err and "internal error" not in err
    out = tmp_path / "run"
    (out / "phantom.phn").mkdir(parents=True)
    assert cli.main(["--preset", "desk", "--config", str(cfg_file), "--out", str(out),
                     "phantom"]) == 1
    assert f"cannot write {out / 'phantom.phn'}" in capsys.readouterr().err
    with pytest.raises(pipeline.StageInputError):
        pipeline.stage_train_rl(resolve_config(DESK_TUBE, preset="desk"), blocker / "run", "td3")


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


def test_cli_seed_flag_override(tmp_path, cfg_file):
    """`--seed` wins over the config file's seed and gives the outputs of
    that seed written in the file."""
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(DESK_TUBE + "seed = 123\n")
    cfg_file.write_text(DESK_TUBE + "seed = 5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--preset", "desk", "--config", str(cfg_file),
                     "--out", str(out1), "--seed", "123", "phantom"]) == 0
    assert cli.main(["--preset", "desk", "--config", str(seeded),
                     "--out", str(out2), "phantom"]) == 0
    m1 = json.loads((out1 / "manifest_phantom.json").read_text())
    m2 = json.loads((out2 / "manifest_phantom.json").read_text())
    assert m1["config"]["seed"] == 123
    assert m1["outputs"] == m2["outputs"]


@pytest.mark.parametrize("argv", [["train-rl", "--algo", "foo"], ["--seed", "abc", "phantom"],
                                  ["no-such-stage"], []],
                         ids=["bad choice", "non-integer seed", "unknown stage", "no stage"])
def test_cli_usage_error_exit_1(tmp_path, capsys, argv):
    """A command line argparse rejects exits 1 (bad input), not argparse's 2."""
    assert cli.main(["--out", str(tmp_path / "o")] + argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_help_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


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


def test_provenance_hashes_each_input_once(tmp_path, monkeypatch):
    """Four manifests list the same files; each file is hashed once, and
    every manifest still reports its own problems."""
    cfg = resolve_config(DESK_TUBE, preset="desk")
    a, b, c = (tmp_path / f"{x}.bin" for x in "abc")
    for path in (a, b, c):
        path.write_bytes(path.name.encode())
    for i in range(3):
        pipeline.write_manifest(tmp_path, f"s{i}", cfg, [a, b], [])
    pipeline.write_manifest(tmp_path, "s3", cfg, [a, c], [])
    b.write_bytes(b"tampered")
    c.unlink()
    hashed = []
    original = pipeline._sha256

    def counting(path):
        hashed.append(path)
        return original(path)

    monkeypatch.setattr(pipeline, "_sha256", counting)
    assert pipeline.verify_provenance(tmp_path) == [
        "manifest_s0.json: input b.bin hash mismatch",
        "manifest_s1.json: input b.bin hash mismatch",
        "manifest_s2.json: input b.bin hash mismatch",
        "manifest_s3.json: input c.bin missing"]
    assert sorted(hashed) == [a, b]


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
    assert set(gt) <= set(json.loads((out / "manifest_eds.json").read_text())["inputs"])
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


def test_cli_track_fusion_needs_mcpft_checkpoint(tmp_path, cfg_file, capsys):
    """Fusion tracking reads the MCPFT checkpoint only; a fine-tuned one
    alone is not tracked, and the error names the stage to run."""
    out = tmp_path / "run"
    argv = ["--preset", "desk", "--config", str(cfg_file), "--out", str(out)]
    assert cli.main(argv + ["phantom"]) == 0
    cfg = resolve_config(DESK_TUBE, preset="desk")
    fusion.FusionModel(pipeline._fusion_config(cfg)).save(
        out / "fusion_finetuned_bundle.ckp", stage="finetuned:bundle")
    capsys.readouterr()
    rc = cli.main(argv + ["track", "--algo", "fusion", "--bundle", "bundle"])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(out / "fusion_mcpft_bundle.ckp") in err and "mcpft --bundle bundle" in err
    assert not (out / "tracks_fusion_bundle.stl").exists()


def test_report_without_scores_exit_1(tmp_path, capsys):
    rc = cli.main(["--preset", "desk", "--out", str(tmp_path / "o"), "report"])
    assert rc == 1
