"""Binary model checkpoints.

Layout: magic "TDFK", then a u32 little-endian format version, then three
count-prefixed record lists (parameter tensors, schedule vectors,
architecture descriptor fields). A record is: u32 name length, UTF-8 name,
u32 rank, rank u64 dims, then float32 values little-endian.

Values are stored as float32. Freshly initialized parameters are exactly
float32-representable, so init -> save -> load is bit-exact; tensors coming
out of training round-trip at float32 precision (save -> load -> save is
byte-stable).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ..schedule import NoiseSchedule
from .net import ArchDescriptor, DenoiserParams, param_specs

MAGIC = b"TDFK"
VERSION = 1

_SCHEDULE_FIELDS = ("alphas", "alpha_bars", "posterior_vars", "loss_weights")
_DESC_SCALARS = (
    "kernel_len", "gn_groups", "emb_dim", "in_channels",
    "t_obs", "t_pred", "n_steps", "coord_scale",
)


class CheckpointError(RuntimeError):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class DescriptorMismatchError(CheckpointError):
    """Stored tensors are inconsistent with the stored architecture."""


def _write_record(fh, name: str, array: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    arr = np.asarray(array, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.astype("<f4").tobytes())


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


def _read_record(fh, end: int) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4, end))
    try:
        name = _read_exact(fh, name_len, end, "record name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{fh.name}: record name is not UTF-8: {exc}") from exc
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, end))
    dims = [struct.unpack("<Q", _read_exact(fh, 8, end))[0] for _ in range(rank)]
    count = math.prod(dims)  # exact Python int: declared dims are not trusted
    raw = _read_exact(fh, 4 * count, end, f"record {name!r} with dims {dims}")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    try:
        return name, values.reshape(dims)
    except ValueError as exc:  # e.g. a zero dim next to one numpy cannot index
        raise CheckpointError(f"{fh.name}: record {name!r} has dims {dims}: {exc}") from exc


def _write_section(fh, records: list[tuple[str, np.ndarray]]) -> None:
    fh.write(struct.pack("<I", len(records)))
    for name, arr in records:
        _write_record(fh, name, arr)


def _read_section(fh, end: int) -> dict:
    (count,) = struct.unpack("<I", _read_exact(fh, 4, end))
    out = {}
    for _ in range(count):
        name, arr = _read_record(fh, end)
        out[name] = arr
    return out


def save_checkpoint(params: DenoiserParams, schedule: NoiseSchedule, path) -> None:
    """Write params, schedule and the architecture descriptor to `path`."""
    desc = params.arch
    if schedule.n_steps != desc.n_steps:
        raise ValueError(
            f"schedule has {schedule.n_steps} steps but descriptor says {desc.n_steps}"
        )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_section(fh, sorted(params.tensors.items()))
        _write_section(fh, [(f, getattr(schedule, f)) for f in _SCHEDULE_FIELDS])
        desc_records = [("widths", np.asarray(desc.widths, dtype=np.float64))]
        desc_records += [
            (name, np.asarray(float(getattr(desc, name)))) for name in _DESC_SCALARS
        ]
        _write_section(fh, desc_records)


def load_checkpoint(path) -> tuple[DenoiserParams, NoiseSchedule]:
    """Read a checkpoint; the descriptor comes back inside DenoiserParams.arch."""
    path = Path(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, end) != MAGIC:
            raise BadMagicError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, end))
        if version != VERSION:
            raise VersionMismatchError(f"{path}: unsupported checkpoint version {version}")
        tensors = _read_section(fh, end)
        sched_vectors = _read_section(fh, end)
        desc_fields = _read_section(fh, end)
        trailing = end - fh.tell()
        if trailing:
            raise CheckpointError(
                f"{path}: {trailing} trailing bytes after the descriptor section"
            )

    try:
        widths = tuple(int(w) for w in np.atleast_1d(desc_fields["widths"]))
        kwargs = {name: desc_fields[name].item() for name in _DESC_SCALARS}
        for name in _DESC_SCALARS:
            if name != "coord_scale":
                kwargs[name] = int(kwargs[name])
        desc = ArchDescriptor(widths=widths, **kwargs)
    except KeyError as exc:
        raise DescriptorMismatchError(f"{path}: descriptor field missing: {exc}") from exc
    except (ValueError, OverflowError) as exc:  # non-integral, non-scalar or invalid fields
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

    for field in _SCHEDULE_FIELDS:
        if field not in sched_vectors:
            raise DescriptorMismatchError(f"{path}: schedule vector {field!r} missing")
    alphas = sched_vectors["alphas"]
    if alphas.size != desc.n_steps:
        raise DescriptorMismatchError(
            f"{path}: schedule length {alphas.size} does not match "
            f"descriptor n_steps {desc.n_steps}"
        )
    alpha_bars = sched_vectors["alpha_bars"]
    try:
        schedule = NoiseSchedule(
            n_steps=int(alphas.size),
            alphas=alphas,
            alpha_bars=alpha_bars,
            alpha_bars_prev=np.concatenate(([1.0], alpha_bars[:-1])),
            posterior_vars=sched_vectors["posterior_vars"],
            loss_weights=sched_vectors["loss_weights"],
        )
    except ValueError as exc:
        raise DescriptorMismatchError(f"{path}: invalid schedule: {exc}") from exc
    return DenoiserParams(tensors=tensors, arch=desc), schedule
