"""The shared binary reader: every truncation or corruption of a PHN1, STL1,
EDS1 or CKP1 file either loads or raises a `FormatError` naming the file."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfuse import binio, eds, geometry, nn, phantom
from tractfuse.env import STATE_DIM

NAMES = ("bundle_a", "b", "bündel", "")


def small_phantom(rng, masks):
    dims = (8, 8, 8)
    return phantom.Phantom(
        grid=phantom.VoxelGrid(dims=dims, voxel_size=float(rng.uniform(0.5, 2))),
        sh=rng.normal(size=dims + (phantom.N_SH,)).astype(np.float32),
        peak_counts=rng.integers(0, phantom.MAX_PEAKS + 1, dims).astype(np.uint8),
        peak_dirs=rng.normal(size=dims + (phantom.MAX_PEAKS, 3)).astype(np.float32),
        masks=masks)


def write_phn(path, rng):
    masks = []
    for _ in range(rng.integers(1, 3)):
        values = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
        values[0, 0, 0] = 1
        masks.append(phantom.TractMask(bundle_name=str(rng.choice(NAMES)), values=values))
    phantom.save_phantom(small_phantom(rng, masks), path)


def write_stl(path, rng):
    streams = [rng.normal(size=(rng.integers(0, 6), 3)).astype(np.float32)
               for _ in range(rng.integers(0, 4))]
    geometry.save_streamlines(streams, path, voxel_size=float(rng.uniform(0.5, 2)))


def write_eds(path, rng):
    records = []
    for _ in range(rng.integers(1, 3)):
        t = int(rng.integers(1, 4))
        rewards = rng.normal(size=t).astype(np.float32)
        records.append(eds.TrajectoryRecord(
            states=rng.normal(size=(t, STATE_DIM)).astype(np.float32),
            actions=rng.normal(size=(t, 3)).astype(np.float32),
            rewards=rewards, rtg=eds.compute_rtg(rewards),
            policy_id=str(rng.choice(eds.POLICY_ORDER)),
            streamline=rng.normal(size=(t + 1, 3)).astype(np.float32),
            bundle_name=str(rng.choice(NAMES))))
    eds.save_records(records, path)


def write_ckp(path, rng):
    tensors = {f"t{i}.{rng.choice(NAMES)}": rng.normal(size=rng.integers(0, 3, rng.integers(0, 3)))
               for i in range(rng.integers(1, 4))}
    nn.save_checkpoint(path, tensors, meta={"algo": str(rng.choice(eds.POLICY_ORDER))})


FORMATS = {
    "PHN1": (write_phn, phantom.load_phantom),
    "STL1": (write_stl, geometry.load_streamlines),
    "EDS1": (write_eds, eds.load_records),
    "CKP1": (write_ckp, nn.load_checkpoint),
}


def assert_loads_or_named(load, path):
    try:
        load(path)
    except binio.FormatError as e:
        assert str(path) in str(e)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_every_truncation_is_named(fmt, seed, data):
    write, load = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"f.{fmt.lower()}"
        write(path, np.random.default_rng(seed))
        raw = path.read_bytes()
        load(path)
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(binio.FormatError, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_every_byte_flip_loads_or_is_named(fmt, seed, data):
    write, load = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"f.{fmt.lower()}"
        write(path, np.random.default_rng(seed))
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor")
        path.write_bytes(raw)
        assert_loads_or_named(load, path)


def patched(tmp_path, fmt, offset, value):
    """A valid file of `fmt` with the byte at `offset` set to `value`."""
    path = tmp_path / f"f.{fmt.lower()}"
    FORMATS[fmt][0](path, np.random.default_rng(0))
    raw = bytearray(path.read_bytes())
    raw[offset] = value
    path.write_bytes(raw)
    return path


def test_eds_unknown_policy_id_is_named(tmp_path):
    path = patched(tmp_path, "EDS1", 8, len(eds.POLICY_ORDER))
    with pytest.raises(eds.EdsError, match=f"policy id 3 in {re.escape(str(path))} at offset 8"):
        eds.load_records(path)


def test_eds_empty_record_is_named(tmp_path):
    path = tmp_path / "f.eds"
    write_eds(path, np.random.default_rng(0))
    raw = bytearray(path.read_bytes())
    raw[11 + int.from_bytes(raw[9:11], "little")] = 0  # low byte of the first length
    path.write_bytes(raw)
    with pytest.raises(eds.EdsError, match=f"empty record in {re.escape(str(path))}"):
        eds.load_records(path)


def test_phn_invalid_grid_is_named(tmp_path):
    path = patched(tmp_path, "PHN1", 19, 0xBF)  # sets the voxel size's sign bit
    with pytest.raises(phantom.PhantomError, match=f"voxel_size.* in {re.escape(str(path))}"):
        phantom.load_phantom(path)


def test_phn_empty_mask_is_named(tmp_path):
    values = np.zeros((8, 8, 8), dtype=np.uint8)
    values[3, 3, 3] = 1
    path = tmp_path / "p.phn"
    mask = phantom.TractMask(bundle_name="tube", values=values)
    phantom.save_phantom(small_phantom(np.random.default_rng(0), [mask]), path)
    raw = bytearray(path.read_bytes())
    mask_at = len(raw) - len(binio.pack_str("tube")) - values.size  # the last mask, before its name
    raw[mask_at + np.ravel_multi_index((3, 3, 3), values.shape)] = 0
    path.write_bytes(raw)
    with pytest.raises(phantom.PhantomError, match=f"no voxels set in {re.escape(str(path))}"):
        phantom.load_phantom(path)


def test_phn_peak_count_above_max_is_named(tmp_path):
    first_count = 4 + 20 + 8 * 8 * 8 * phantom.N_SH * 4  # magic, header, SH block
    path = patched(tmp_path, "PHN1", first_count, 200)
    with pytest.raises(phantom.PhantomFormatError,
                       match=rf"voxel \(0, 0, 0\) has 200 peaks.* in {re.escape(str(path))}"):
        phantom.load_phantom(path)


def test_bad_utf8_name_is_named(tmp_path):
    path = patched(tmp_path, "CKP1", 10, 0xFF)  # first byte of the first tensor name
    with pytest.raises(nn.CheckpointError, match=f"not UTF-8 in {re.escape(str(path))}"):
        nn.load_checkpoint(path)


def test_ckp_impossible_shape_is_named(tmp_path):
    path = tmp_path / "f.ckp"
    nn.save_checkpoint(path, {"w": np.zeros((0, 2, 2))})
    raw = bytearray(path.read_bytes())
    dims_at = 8 + len(binio.pack_str("w")) + 1  # magic, count, name, rank
    raw[dims_at + 4:dims_at + 12] = b"\xff" * 8  # shape (0, 2**32 - 1, 2**32 - 1)
    path.write_bytes(raw)
    with pytest.raises(nn.CheckpointError, match=f"impossible shape .* in {re.escape(str(path))}"):
        nn.load_checkpoint(path)
