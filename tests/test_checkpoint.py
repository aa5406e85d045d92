import math
import re
import shutil
import struct
from pathlib import Path

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
from trajdiffuse.denoiser.checkpoint import MAGIC, VERSION, _read_section, _write_section
from trajdiffuse.schedule import build_cosine_schedule

DESC = ArchDescriptor(
    widths=(4, 6), kernel_len=3, gn_groups=2, emb_dim=4,
    t_obs=4, t_pred=4, n_steps=8, coord_scale=2.5,
)
# A version-1 file (float32 values, with a schedule section) of
# init_params(DESC, seed=0) with every tensor divided by 3, as the
# version-1 writer saved it.
V1_FIXTURE = Path(__file__).parent / "data" / "v1-tiny.ckpt"


def f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


@pytest.fixture()
def saved(tmp_path):
    params = init_params(DESC, seed=0)
    schedule = build_cosine_schedule(DESC.n_steps)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, schedule, path)
    return params, schedule, path


@pytest.fixture()
def v1(tmp_path):
    path = tmp_path / "v1.ckpt"
    shutil.copy(V1_FIXTURE, path)
    return path


def thirds():
    params = init_params(DESC, seed=0)
    params.tensors = {name: t / 3.0 for name, t in params.tensors.items()}
    return params


def test_round_trip_is_bit_exact_for_representable_tensors(saved):
    params, schedule, path = saved
    loaded = load_checkpoint(path)
    assert set(loaded.tensors) == set(params.tensors)
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)
    assert loaded.arch == params.arch


def test_save_load_save_is_byte_stable(saved, tmp_path):
    params, schedule, path = saved
    loaded = load_checkpoint(path)
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, schedule, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_descriptor_records_follow_the_file_format(saved):
    # the reader and writer take this list from ArchDescriptor's fields; the
    # file format pins it
    _, _, path = saved
    with open(path, "rb") as fh:
        end = path.stat().st_size
        fh.seek(len(MAGIC) + 4)
        _read_section(fh, end, np.dtype("<f8"))
        desc = _read_section(fh, end, np.dtype("<f8"))
    assert list(desc) == ["widths", "kernel_len", "gn_groups", "emb_dim", "in_channels",
                          "t_obs", "t_pred", "n_steps", "coord_scale"]
    assert desc["coord_scale"].item() == 2.5 and desc["widths"].tolist() == [4.0, 6.0]


def test_float64_tensors_round_trip_exactly_and_byte_stably(tmp_path):
    # tensors off the float32 grid, as training leaves them
    params = thirds()
    assert any(not np.array_equal(f32(t), t) for t in params.tensors.values())
    schedule = build_cosine_schedule(DESC.n_steps)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, schedule, first)
    loaded = load_checkpoint(first)
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], t)
    save_checkpoint(loaded, schedule, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()[4:8] == struct.pack("<I", VERSION) == struct.pack("<I", 2)


def test_version1_file_loads_to_its_float32_values(v1, tmp_path):
    loaded = load_checkpoint(v1)
    assert loaded.arch == DESC
    want = thirds().tensors
    assert set(loaded.tensors) == set(want)
    for name, t in want.items():
        np.testing.assert_array_equal(loaded.tensors[name], f32(t))
    # saved again it becomes version 2, with the same values
    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, build_cosine_schedule(DESC.n_steps), again)
    for name, t in load_checkpoint(again).tensors.items():
        np.testing.assert_array_equal(t, loaded.tensors[name])


def test_version1_file_of_another_schedule_is_rejected(v1):
    # a file trained under a different cosine offset: only its alphas tell
    for i, alpha in enumerate(build_cosine_schedule(DESC.n_steps, 0.02).alphas):
        _patch_vector(v1, "alphas", i, alpha)
    with pytest.raises(DescriptorMismatchError,
                       match="stored schedule alphas are not build_cosine_schedule") as info:
        load_checkpoint(v1)
    assert str(v1) in str(info.value)


def test_version1_derived_schedule_vectors_are_dropped(v1):
    before = load_checkpoint(v1)
    _patch_vector(v1, "loss_weights", 4, float("nan"))
    after = load_checkpoint(v1)
    for name, t in before.tensors.items():
        np.testing.assert_array_equal(after.tensors[name], t)


def test_truncated_file_reports_truncation(saved):
    _, _, path = saved
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedCheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def _entry_offset(data, field, index):
    """Byte offset of entry `index` of the rank-1 float32 record `field` (version 1)."""
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


@pytest.mark.parametrize("field", ["alphas"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_schedule_vector_is_rejected(v1, field, value):
    _patch_vector(v1, field, 3, value)
    with pytest.raises(DescriptorMismatchError, match="stored schedule alphas are not") as info:
        load_checkpoint(v1)
    assert str(v1) in str(info.value)


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5])
def test_alphas_outside_unit_interval_are_rejected(v1, value):
    _patch_vector(v1, "alphas", 2, value)
    with pytest.raises(DescriptorMismatchError, match="stored schedule alphas are not") as info:
        load_checkpoint(v1)
    assert str(v1) in str(info.value)


def test_version1_alphas_within_float32_precision_are_accepted(v1):
    # one float32 step off the stored value is still the schedule, to float32 precision
    _patch_vector(v1, "alphas", 4, float(np.nextafter(np.float32(_stored(v1, "alphas", 4)),
                                                      np.float32(0))))
    load_checkpoint(v1)
    # a relative 1e-6 is not
    _patch_vector(v1, "alphas", 4, build_cosine_schedule(DESC.n_steps).alphas[4] * (1 - 1e-6))
    with pytest.raises(DescriptorMismatchError, match=re.escape(str(v1))):
        load_checkpoint(v1)


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
    at = data.index(header) + len(header) + 4 + 8 * rank + 8 * index
    struct.pack_into("<d", data, at, value)
    path.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match=f"descriptor field '{field}' holds") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_zero_dim_schedule_vector_is_rejected(v1):
    data = v1.read_bytes()
    header = struct.pack("<I", len(b"alphas")) + b"alphas"
    at = data.index(header) + len(header)
    rank0 = struct.pack("<I", 0) + struct.pack("<f", 0.5)  # one value, no dims
    v1.write_bytes(data[:at] + rank0 + data[at + 4 + 8 + 4 * DESC.n_steps:])
    with pytest.raises(DescriptorMismatchError, match="stored schedule alphas are not") as info:
        load_checkpoint(v1)
    assert str(v1) in str(info.value)


def test_signalling_nan_is_rejected_without_a_warning(v1, saved):
    data = bytearray(v1.read_bytes())
    struct.pack_into("<I", data, _entry_offset(data, "alphas", 3), 0x7F800001)  # float32 sNaN
    v1.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match="stored schedule alphas are not"):
        load_checkpoint(v1)
    # a float64 sNaN in a version-2 tensor
    _, _, path = saved
    data = bytearray(path.read_bytes())
    (name_len,) = struct.unpack_from("<I", data, 12)
    first_value = 12 + 4 + name_len + 4 + 8 * struct.unpack_from("<I", data, 16 + name_len)[0]
    struct.pack_into("<Q", data, first_value, 0x7FF0000000000001)
    path.write_bytes(bytes(data))
    with pytest.raises(DescriptorMismatchError, match="holds non-finite values"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(init_params(DESC, seed=0), build_cosine_schedule(DESC.n_steps), path)
    return path, path.read_bytes()


@pytest.fixture(scope="module")
def pristine_v1(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "v1.ckpt"
    return path, V1_FIXTURE.read_bytes()


def _load_corrupted(data, path, good):
    # headers sit in the first bytes (magic, version, first tensor record)
    # and in the last few hundred (the descriptor section, and in version 1
    # the schedule section before it)
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


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_a_checkpoint_error(pristine, data):
    _load_corrupted(data, *pristine)


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_corrupt_version1_checkpoint_loads_or_raises_a_checkpoint_error(pristine_v1, data):
    _load_corrupted(data, *pristine_v1)


@pytest.mark.parametrize("value", [4.0, float("nan"), float("inf")])
def test_invalid_descriptor_field_is_reported_with_path(saved, value):
    _, _, path = saved
    data = bytearray(path.read_bytes())
    at = data.index(b"kernel_len") + len(b"kernel_len") + 4  # after the rank-0 header
    data[at:at + 8] = struct.pack("<d", value)
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
    path = tmp_path / "bad.ckpt"
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION))
        _write_section(fh, sorted(params.tensors.items()))
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


def test_save_rejects_a_schedule_the_loader_would_not_rebuild(tmp_path):
    # the file holds no schedule, so another cosine offset cannot be saved
    params = init_params(DESC, seed=1)
    with pytest.raises(ValueError, match=r"must be build_cosine_schedule\(8\)"):
        save_checkpoint(params, build_cosine_schedule(DESC.n_steps, 0.02), tmp_path / "x.ckpt")
    assert not (tmp_path / "x.ckpt").exists()


def test_a_missing_descriptor_record_is_reported_with_path(tmp_path):
    params = init_params(DESC, seed=0)
    path = tmp_path / "bad.ckpt"
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION))
        _write_section(fh, sorted(params.tensors.items()))
        _write_section(fh, [("widths", np.asarray(DESC.widths, float))]
                       + [(name, np.asarray(float(getattr(DESC, name))))
                          for name in ("kernel_len", "gn_groups", "emb_dim", "in_channels",
                                       "t_obs", "n_steps", "coord_scale")])  # no t_pred
    with pytest.raises(DescriptorMismatchError,
                       match=re.escape(f"{path}: descriptor field missing: 't_pred'")):
        load_checkpoint(path)


@pytest.mark.parametrize("section, record, problem", [
    (0, "out.w", "record 'out.w' repeats in its section"),  # a dict would keep the last copy
    (1, "n_steps", "record 'n_steps' repeats in its section"),
    (1, "bogus_field", "unknown descriptor field(s) ['bogus_field']"),
], ids=["tensor-twice", "descriptor-twice", "unknown-descriptor"])
def test_a_repeated_or_unknown_record_is_reported_with_path(tmp_path, section, record, problem):
    params = init_params(DESC, seed=0)
    sections = [sorted(params.tensors.items()), [("widths", np.asarray(DESC.widths, float))]
                + [(name, np.asarray(float(getattr(DESC, name))))
                   for name in ("kernel_len", "gn_groups", "emb_dim", "in_channels", "t_obs",
                                "t_pred", "n_steps", "coord_scale")]]
    sections[section].append((record, params.tensors["out.w"] + 1.0 if section == 0
                              else np.asarray(16.0)))
    path = tmp_path / "bad.ckpt"
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", VERSION))
        for records in sections:
            _write_section(fh, records)
    with pytest.raises(DescriptorMismatchError, match=re.escape(f"{path}: {problem}")):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["toy-16-32-64.ckpt", "wide-32-64-128.ckpt"])
def test_the_frozen_benchmark_checkpoints_pass_the_record_checks(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / name
    assert len(load_checkpoint(path).tensors) == 148
