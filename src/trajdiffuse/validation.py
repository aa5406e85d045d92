"""Input validation helpers shared across the package.

Each input rule has one implementation here: `as_float_array` for
trajectory and other float arrays, `as_number` for a scalar number (never a
bool), `check_steps` for denoising step indices, and `read_jsonl` for the
records of a JSONL file. Errors surface with a usable message instead of
deep inside a broadcast, and a JSONL error names the record's `<file>:<line>`.
"""

from __future__ import annotations

import json

import numpy as np


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray, checking finiteness and (optionally) shape.

    ``shape`` entries may be ``None`` to accept any extent on that axis; an
    array checked against a shape must also be non-empty.
    """
    arr = np.asarray(x, dtype=np.float64)
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValueError(f"{name} must have {len(shape)} dimensions, got {arr.ndim}")
        for axis, want in enumerate(shape):
            if want is not None and arr.shape[axis] != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if arr.size == 0:
            raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_steps(steps, n_steps: int, shape: tuple = ()) -> np.ndarray:
    """Validate denoising step indices in 1..n_steps (1 = last step): an
    integer array (not bool) of `shape`, () for one step or (B,) for one per
    sample."""
    steps = np.asarray(steps)
    if steps.shape != shape or not np.issubdtype(steps.dtype, np.integer):
        raise ValueError(f"steps must be a {shape} int array, got {steps.dtype} {steps.shape}")
    if np.any(steps < 1) or np.any(steps > n_steps):
        raise IndexError(f"step index out of range 1..{n_steps}")
    return steps


def read_jsonl(path, kind: str):
    """Yield ("<path>:<line>", record) for each non-blank line of a JSONL file.

    A line that is not UTF-8, not JSON or not a JSON object raises a
    ValueError that names its file and line; `kind` names the record in the
    message.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
                raise ValueError(f"{where}: malformed {kind}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{where}: {kind} is not a JSON object")
            yield where, record


def check_same_shape(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{name_a} shape {a.shape} does not match {name_b} shape {b.shape}")


def as_number(value, name: str) -> float:
    """`value` as a float, refusing a bool, which float() would read as 1.0 or 0.0."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_positive(value: float, name: str) -> float:
    value = as_number(value, name)
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    value = as_number(value, name)
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    return value
