"""Binary model checkpoints.

Layout: magic "TDFK", then a u32 little-endian format version, then three
count-prefixed record lists (parameter tensors, schedule vectors,
architecture descriptor fields). A record is: u32 name length, UTF-8 name,
u32 rank, rank u64 dims, then float32 values little-endian.

Values are stored as float32. Freshly initialized parameters are exactly
float32-representable, so init -> save -> load is bit-exact; tensors coming
out of training round-trip at float32 precision (save -> load -> save is
byte-stable). The reader returns the stored values as they are, after
checking that they are finite and that the derived schedule vectors agree
with the stored alphas to float32 precision.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ..schedule import NoiseSchedule, from_alphas
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
    with np.errstate(invalid="ignore"):  # a signalling NaN; non-finite values are rejected later
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


def _check_derived_vectors(path, stored: NoiseSchedule) -> None:
    """Stored alpha_bars, posterior_vars and loss_weights must be what
    from_alphas gives for the stored alphas, up to float32 storage.

    Both sides start from the float64 alphas a_i the file was written from:
    the stored vectors are their float32 roundings, the reference is computed
    from float32 alphas a_i (1 + e_i) with |e_i| <= u = 2^-24. To first order:
    - alpha_bar_i is off by (i + 1) u relative (i factors, one rounding);
    - 1 - a_i by u a_i / (1 - a_i), and 1 - alpha_bar_i by
      i u alpha_bar_i / (1 - alpha_bar_i);
    - posterior_vars and loss_weights add these up with the powers they
      appear in, plus one rounding.
    The bound is doubled for second-order terms and float64 rounding, and
    float32's smallest normal is added for values stored below it.
    """
    u = 2.0 ** -24
    ref = from_alphas(stored.alphas)
    i = np.arange(1, ref.n_steps + 1)
    a, ab = ref.alphas, ref.alpha_bars
    # relative errors of 1 - a_i, 1 - alpha_bar_i and 1 - alpha_bar_{i-1}
    err_1ma = u * a / (1.0 - a)
    err_1mab = i * u * ab / (1.0 - ab)
    err_1mabp = np.concatenate(([0.0], err_1mab[:-1]))  # 1 - alpha_bar_0 is exact
    rtol = {
        "alpha_bars": (i + 1) * u,
        "posterior_vars": err_1ma + err_1mabp + err_1mab + u,
        "loss_weights": (i - 1) * u + 2 * err_1ma + 2 * err_1mab + u,
    }
    for field, rel in rtol.items():
        have, want = getattr(stored, field), getattr(ref, field)
        off = np.abs(have - want) > 2 * rel * np.abs(want) + np.finfo(np.float32).tiny
        if np.any(off):
            step = int(np.argmax(off)) + 1
            raise DescriptorMismatchError(
                f"{path}: schedule vector {field!r} disagrees with its alphas at step "
                f"{step}: stored {have[step - 1]!r}, alphas give {want[step - 1]!r}"
            )


def _integral(path, name: str, value: float) -> int:
    if not float(value).is_integer():
        raise DescriptorMismatchError(
            f"{path}: descriptor field {name!r} holds {value!r}, not an integer"
        )
    return int(value)


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
        widths = tuple(_integral(path, "widths", w) for w in desc_fields["widths"].tolist())
        kwargs = {name: desc_fields[name].item() for name in _DESC_SCALARS}
        for name in _DESC_SCALARS:
            if name != "coord_scale":
                kwargs[name] = _integral(path, name, kwargs[name])
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

    for field in _SCHEDULE_FIELDS:
        if field not in sched_vectors:
            raise DescriptorMismatchError(f"{path}: schedule vector {field!r} missing")
        if sched_vectors[field].shape != (desc.n_steps,):
            raise DescriptorMismatchError(
                f"{path}: schedule vector {field!r} has shape {sched_vectors[field].shape}, "
                f"descriptor n_steps {desc.n_steps} implies ({desc.n_steps},)"
            )
        if not np.all(np.isfinite(sched_vectors[field])):
            raise DescriptorMismatchError(
                f"{path}: schedule vector {field!r} holds non-finite values"
            )
    alphas = sched_vectors["alphas"]
    if np.any(alphas <= 0) or np.any(alphas >= 1):
        raise DescriptorMismatchError(f"{path}: schedule vector 'alphas' leaves (0, 1)")
    alpha_bars = sched_vectors["alpha_bars"]
    schedule = NoiseSchedule(
        n_steps=int(alphas.size),
        alphas=alphas,
        alpha_bars=alpha_bars,
        alpha_bars_prev=np.concatenate(([1.0], alpha_bars[:-1])),
        posterior_vars=sched_vectors["posterior_vars"],
        loss_weights=sched_vectors["loss_weights"],
    )
    _check_derived_vectors(path, schedule)
    return DenoiserParams(tensors=tensors, arch=desc), schedule
