"""Binary model checkpoints.

Layout (version 2): magic "TDFK", then a u32 little-endian format version,
then two count-prefixed record lists (parameter tensors, architecture
descriptor fields), each name once per list. A record is: u32 name length,
UTF-8 name, u32 rank, rank u64 dims, then float64 values little-endian.
Values round-trip exactly, so a loaded model predicts what the saved one did.

The noise schedule is not stored: it is build_cosine_schedule(n_steps),
rebuilt from the descriptor wherever it is needed.

Version 1 is still read. Its values are float32, and a schedule section
sits between the two others. Its alphas must be the cosine schedule's for
the descriptor's n_steps to float32 precision, which rejects a file trained
under another schedule; the section is then dropped.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from ..schedule import NoiseSchedule, build_cosine_schedule
from .net import ArchDescriptor, DenoiserParams, param_specs

MAGIC = b"TDFK"
VERSION = 2
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}  # value encoding per readable version
# ArchDescriptor's fields but the `widths` vector, in order, with their declared types
_DESC_SCALARS = {f.name: f.type for f in fields(ArchDescriptor) if f.type != "tuple"}


class CheckpointError(RuntimeError):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class DescriptorMismatchError(CheckpointError):
    """Stored records are inconsistent with the stored architecture."""


def _write_record(fh, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    arr = np.asarray(array, dtype=_DTYPES[VERSION])
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.tobytes())


def _read_exact(fh, n: int, end: int, what: str = "data") -> bytes:
    """Read exactly n bytes, checking first that they fit before offset `end`."""
    left = end - fh.tell()
    if n > left:
        raise TruncatedCheckpointError(
            f"{fh.name}: file truncated: {what} needs {n} bytes, {left} left"
        )
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedCheckpointError(
            f"{fh.name}: file truncated: wanted {n} bytes, got {len(data)}"
        )
    return data


def _read_record(fh, end: int, dtype: np.dtype) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4, end))
    try:
        name = _read_exact(fh, name_len, end, "record name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{fh.name}: record name is not UTF-8: {exc}") from exc
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, end))
    dims = [struct.unpack("<Q", _read_exact(fh, 8, end))[0] for _ in range(rank)]
    count = math.prod(dims)  # exact Python int: declared dims are not trusted
    raw = _read_exact(fh, dtype.itemsize * count, end, f"record {name!r} with dims {dims}")
    with np.errstate(invalid="ignore"):  # a signalling NaN; non-finite values are rejected later
        values = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    try:
        return name, values.reshape(dims)
    except ValueError as exc:  # e.g. a zero dim next to one numpy cannot index
        raise CheckpointError(f"{fh.name}: record {name!r} has dims {dims}: {exc}") from exc


def _write_section(fh, records: list[tuple[str, np.ndarray]]) -> None:
    fh.write(struct.pack("<I", len(records)))
    for name, arr in records:
        _write_record(fh, name, arr)


def _read_section(fh, end: int, dtype: np.dtype) -> dict:
    (count,) = struct.unpack("<I", _read_exact(fh, 4, end))
    out = {}
    for _ in range(count):
        name, arr = _read_record(fh, end, dtype)
        if name in out:
            raise DescriptorMismatchError(f"{fh.name}: record {name!r} repeats in its section")
        out[name] = arr
    return out


def save_checkpoint(params: DenoiserParams, schedule: NoiseSchedule, path) -> None:
    """Write params and the architecture descriptor to `path`.

    The file holds no schedule, so `schedule` must be the one the loader
    rebuilds: build_cosine_schedule(params.arch.n_steps).
    """
    desc = params.arch
    if not np.array_equal(schedule.alphas, build_cosine_schedule(desc.n_steps).alphas):
        raise ValueError(
            f"checkpoints store no schedule: it must be build_cosine_schedule({desc.n_steps}), "
            f"the descriptor's n_steps"
        )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_section(fh, sorted(params.tensors.items()))
        desc_records = [("widths", np.asarray(desc.widths, dtype=np.float64))]
        desc_records += [
            (name, np.asarray(float(getattr(desc, name)))) for name in _DESC_SCALARS
        ]
        _write_section(fh, desc_records)


def _check_v1_alphas(path, sched_vectors: dict, n_steps: int) -> None:
    """A version-1 file's stored alphas must be the cosine schedule's, to float32 precision."""
    have = sched_vectors.get("alphas")
    # the shape is checked first: it bounds n_steps by the file's size
    if have is None or have.shape != (n_steps,) or not np.allclose(
            have, build_cosine_schedule(n_steps).alphas, rtol=2.0 ** -23, atol=0.0):
        raise DescriptorMismatchError(
            f"{path}: stored schedule alphas are not build_cosine_schedule({n_steps})'s"
        )


def _integral(path, name: str, value: float) -> int:
    if not float(value).is_integer():
        raise DescriptorMismatchError(
            f"{path}: descriptor field {name!r} holds {value!r}, not an integer"
        )
    return int(value)


def load_checkpoint(path) -> DenoiserParams:
    """Read a checkpoint; the descriptor comes back inside DenoiserParams.arch."""
    path = Path(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, end) != MAGIC:
            raise BadMagicError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, end))
        if version not in _DTYPES:
            raise VersionMismatchError(f"{path}: unsupported checkpoint version {version}")
        dtype = _DTYPES[version]
        tensors = _read_section(fh, end, dtype)
        sched_vectors = _read_section(fh, end, dtype) if version == 1 else None
        desc_fields = _read_section(fh, end, dtype)
        trailing = end - fh.tell()
        if trailing:
            raise CheckpointError(
                f"{path}: {trailing} trailing bytes after the descriptor section"
            )

    if unknown := sorted(set(desc_fields) - {"widths", *_DESC_SCALARS}):
        raise DescriptorMismatchError(f"{path}: unknown descriptor field(s) {unknown}")
    try:
        widths = tuple(_integral(path, "widths", w) for w in desc_fields["widths"].tolist())
        kwargs = {name: desc_fields[name].item() for name in _DESC_SCALARS}
        kwargs.update({name: _integral(path, name, kwargs[name])
                       for name, kind in _DESC_SCALARS.items() if kind == "int"})
        desc = ArchDescriptor(widths=widths, **kwargs)
    except KeyError as exc:
        raise DescriptorMismatchError(f"{path}: descriptor field missing: {exc}") from exc
    except (TypeError, ValueError) as exc:  # widths not a vector, other fields not scalars
        raise DescriptorMismatchError(f"{path}: invalid descriptor: {exc}") from exc

    expected = {name: shape for name, shape, _ in param_specs(desc)}
    if set(tensors) != set(expected):
        missing = set(expected) - set(tensors)
        extra = set(tensors) - set(expected)
        raise DescriptorMismatchError(
            f"{path}: tensor names do not match the descriptor (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})"
        )
    for name, arr in tensors.items():
        if arr.shape != expected[name]:
            raise DescriptorMismatchError(
                f"{path}: tensor {name!r} has shape {arr.shape}, "
                f"descriptor implies {expected[name]}"
            )
        if not np.all(np.isfinite(arr)):
            raise DescriptorMismatchError(f"{path}: tensor {name!r} holds non-finite values")

    if sched_vectors is not None:
        _check_v1_alphas(path, sched_vectors, desc.n_steps)
    return DenoiserParams(tensors=tensors, arch=desc)
