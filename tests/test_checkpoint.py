import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse.denoiser import (
    ArchDescriptor,
    BadMagicError,
    CheckpointError,
    DescriptorMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from trajdiffuse.denoiser.checkpoint import MAGIC, VERSION, _write_section
from trajdiffuse.schedule import build_cosine_schedule

DESC = ArchDescriptor(
    widths=(4, 6), kernel_len=3, gn_groups=2, emb_dim=4,
    t_obs=4, t_pred=4, n_steps=8, coord_scale=2.5,
)


def f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


@pytest.fixture()
def saved(tmp_path):
    params = init_params(DESC, seed=0)
    schedule = build_cosine_schedule(DESC.n_steps)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, schedule, path)
    return params, schedule, path


def test_round_trip_is_bit_exact_for_representable_tensors(saved):
    params, schedule, path = saved
    loaded, loaded_sched = load_checkpoint(path)
    assert set(loaded.tensors) == set(params.tensors)
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)
    assert loaded.arch == params.arch
    # schedule vectors come back at f32 precision
    np.testing.assert_array_equal(loaded_sched.alphas, f32(schedule.alphas))
    np.testing.assert_array_equal(loaded_sched.alpha_bars, f32(schedule.alpha_bars))
    assert loaded_sched.posterior_vars[0] == 0.0


def test_save_load_save_is_byte_stable(saved, tmp_path):
    params, schedule, path = saved
    loaded, loaded_sched = load_checkpoint(path)
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, loaded_sched, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_file_reports_truncation(saved):
    _, _, path = saved
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedCheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def _entry_offset(data, field, index):
    """Byte offset of entry `index` of the rank-1 record `field`."""
    name = field.encode()
    header = struct.pack("<I", len(name)) + name
    return data.index(header) + len(header) + 4 + 8 + 4 * index  # after rank and dim


def _patch_vector(path, field, index, value):
    data = bytearray(path.read_bytes())
    struct.pack_into("<f", data, _entry_offset(data, field, index), value)
    path.write_bytes(bytes(data))


def _stored(path, field, index):
    data = path.read_bytes()
    return struct.unpack_from("<f", data, _entry_offset(data, field, index))[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_tensor_is_rejected(saved, tmp_path, value):
    params, schedule, _ = saved
    params.tensors["attn.wq"][1, 2] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(params, schedule, bad)
    with pytest.raises(DescriptorMismatchError, match="tensor 'attn.wq' holds non-finite") as info:
        load_checkpoint(bad)
    assert str(bad) in str(info.value)


@pytest.mark.parametrize("field", ["alphas", "alpha_bars", "posterior_vars", "loss_weights"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_schedule_vector_is_rejected(saved, field, value):
    _, _, path = saved
    _patch_vector(path, field, 3, value)
    with pytest.raises(DescriptorMismatchError, match=f"{field}' holds non-finite") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5])
def test_alphas_outside_unit_interval_are_rejected(saved, value):
    _, _, path = saved
    _patch_vector(path, "alphas", 2, value)
    with pytest.raises(DescriptorMismatchError, match=r"'alphas' leaves \(0, 1\)") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("field", ["alpha_bars", "posterior_vars", "loss_weights"])
def test_derived_schedule_vector_must_match_alphas(saved, field):
    _, _, path = saved
    _patch_vector(path, field, 4, _stored(path, field, 4) * 1.001)
    with pytest.raises(DescriptorMismatchError, match=f"{field}' disagrees with its alphas at "
                                                      "step 5") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_one_float32_step_in_a_derived_vector_is_accepted(saved):
    # a neighbouring float32 is within storage precision: the loader keeps
    # returning exactly what the file holds
    _, _, path = saved
    value = np.nextafter(np.float32(_stored(path, "loss_weights", 4)), np.float32(np.inf))
    _patch_vector(path, "loss_weights", 4, float(value))
    _, schedule = load_checkpoint(path)
    assert schedule.loss_weights[4] == float(value)


def test_huge_declared_dims_are_rejected_before_reading(saved):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    # first tensor record: section count, name length, name, rank, then its dims
    (name_len,) = struct.unpack_from("<I", data, 12)
    first_dim = 12 + 4 + name_len + 4
    struct.pack_into("<Q", data, first_dim, 2**60)
    path.write_bytes(bytes(data))
    with pytest.raises(TruncatedCheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_trailing_bytes_are_rejected(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="1 trailing bytes") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name, dims", [(b"\xff", [1]), (b"x", [0, 2**62])])
def test_malformed_record_is_reported_with_path(tmp_path, name, dims):
    path = tmp_path / "bad.ckpt"
    record = struct.pack("<I", len(name)) + name + struct.pack("<I", len(dims))
    record += b"".join(struct.pack("<Q", d) for d in dims) + b"\0" * 4 * math.prod(dims)
    path.write_bytes(b"TDFK" + struct.pack("<II", 1, 1) + record)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_bad_magic_is_reported(saved):
    _, _, path = saved
    data = path.read_bytes()
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_version_mismatch_is_reported(saved):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_shape_descriptor_inconsistency_is_reported(saved, tmp_path):
    params, schedule, _ = saved
    params.tensors["out.b"] = np.zeros(3)  # descriptor implies 2 channels
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(params, schedule, bad)
    with pytest.raises(DescriptorMismatchError):
        load_checkpoint(bad)


@pytest.mark.parametrize("field, index, value", [
    ("t_obs", 0, 4.4), ("kernel_len", 0, 3.3), ("widths", 1, 6.5),
])
def test_non_integral_descriptor_field_is_rejected(saved, field, index, value):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    name = field.encode()
    header = struct.pack("<I", len(name)) + name
    rank = struct.unpack_from("<I", data, data.index(header) + len(header))[0]
    at = data.index(header) + len(header) + 4 + 8 * rank + 4 * index
    struct.pack_into("<f", data, at, value)
    path.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match=f"descriptor field '{field}' holds") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_zero_dim_schedule_vector_is_rejected(saved):
    _, _, path = saved
    data = path.read_bytes()
    header = struct.pack("<I", len(b"alpha_bars")) + b"alpha_bars"
    at = data.index(header) + len(header)
    rank0 = struct.pack("<I", 0) + struct.pack("<f", 0.5)  # one value, no dims
    path.write_bytes(data[:at] + rank0 + data[at + 4 + 8 + 4 * DESC.n_steps:])
    with pytest.raises(DescriptorMismatchError, match=r"'alpha_bars' has shape \(\)") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_signalling_nan_is_rejected_without_a_warning(saved):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, _entry_offset(data, "alphas", 3), 0x7F800001)  # float32 sNaN
    path.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match="'alphas' holds non-finite values"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(init_params(DESC, seed=0), build_cosine_schedule(DESC.n_steps), path)
    return path, path.read_bytes()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_a_checkpoint_error(pristine, data):
    # headers sit in the first bytes (magic, version, first tensor record)
    # and in the last few hundred (schedule and descriptor sections)
    path, good = pristine
    n = len(good)
    if data.draw(st.booleans(), label="truncate"):
        corrupt = good[: data.draw(st.integers(0, n - 1), label="length")]
    else:
        offsets = st.one_of(st.integers(0, 200), st.integers(n - 600, n - 1),
                            st.integers(0, n - 1))
        edits = data.draw(st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1,
                                   max_size=8), label="edits")
        buf = bytearray(good)
        for at, value in edits:
            buf[at] = value
        corrupt = bytes(buf)
    path.write_bytes(corrupt)
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("value", [4.0, float("nan"), float("inf")])
def test_invalid_descriptor_field_is_reported_with_path(saved, value):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    at = data.index(b"kernel_len") + len(b"kernel_len") + 4  # after the rank-0 header
    data[at:at + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("n_steps", 0), ("t_obs", 0), ("t_obs", -4)])
def test_non_positive_descriptor_count_is_reported_with_path(tmp_path, field, value):
    params = init_params(DESC, seed=0)
    fields = {name: getattr(DESC, name) for name in ("kernel_len", "gn_groups", "emb_dim",
                                                     "in_channels", "t_obs", "t_pred",
                                                     "n_steps", "coord_scale")}
    if field == "t_obs":  # keep the trajectory length, and so every tensor shape
        fields["t_pred"] += DESC.t_obs - value
    fields[field] = value
    vectors = ("alphas", "alpha_bars", "posterior_vars", "loss_weights")
    if fields["n_steps"]:
        schedule = build_cosine_schedule(fields["n_steps"])
        records = [(name, getattr(schedule, name)) for name in vectors]
    else:
        records = [(name, np.empty(0)) for name in vectors]
    path = tmp_path / "bad.ckpt"
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION))
        _write_section(fh, sorted(params.tensors.items()))
        _write_section(fh, records)
        _write_section(fh, [("widths", np.asarray(DESC.widths, dtype=np.float64))]
                       + [(name, np.asarray(float(v))) for name, v in fields.items()])
    with pytest.raises(DescriptorMismatchError, match=f"{field} must be at least 1") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_schedule_descriptor_step_mismatch_rejected(tmp_path):
    params = init_params(DESC, seed=1)
    schedule = build_cosine_schedule(DESC.n_steps + 1)
    with pytest.raises(ValueError):
        save_checkpoint(params, schedule, tmp_path / "x.ckpt")
