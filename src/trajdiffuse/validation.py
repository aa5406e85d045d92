"""Input validation helpers shared across the package.

Each input rule has one implementation here. The integer rule
(`as_int_array`, `as_int` for one value) takes integers within intp's range,
never a bool, a float or a string. The number rule (`as_numbers`, `as_number`
for one value) takes ints and floats, never a bool, a string or null. numpy
reads `[1, True]` as int64 and "0.4" as 0.4, so both look at the type of each
scalar of list input, in one flat pass; an ndarray is judged by its dtype.
`as_float_array` (finite numbers of a shape), `check_steps` (denoising step
indices) and `read_jsonl` (JSONL records, errors naming `<file>:<line>`)
build on them.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

_NOT_NUMBERS = frozenset({bool, np.bool_, str, np.str_, bytes, np.bytes_, type(None)})
_INTP = np.iinfo(np.intp)


def _leaves(x, ndim: int):
    """The scalars of `x`, a sequence nested `ndim` deep (x itself when ndim is 0)."""
    if ndim < 2:
        return x if ndim else (x,)
    return chain.from_iterable(_leaves(x, ndim - 1))


def _check_shape(arr: np.ndarray, name: str, shape: tuple) -> None:
    """`shape` entries may be None to accept any extent on that axis; the
    array must also be non-empty."""
    if arr.ndim != len(shape):
        raise ValueError(f"{name} must have {len(shape)} dimensions, got {arr.ndim}")
    for axis, want in enumerate(shape):
        if want is not None and arr.shape[axis] != want:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")


def as_numbers(x, name: str) -> np.ndarray:
    """The number rule: `x` as a float64 ndarray of its own shape. An ndarray
    needs an integer or float dtype; no scalar of other input may be a bool,
    a string or None."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iuf":
            raise ValueError(f"{name} must be numbers, got dtype {x.dtype}")
        return x.astype(np.float64, copy=False)
    arr = np.asarray(x, dtype=np.float64)
    if not _NOT_NUMBERS.isdisjoint(map(type, _leaves(x, arr.ndim))):
        bad = next(v for v in _leaves(x, arr.ndim) if type(v) in _NOT_NUMBERS)
        raise ValueError(f"{name} must be {'numbers' if arr.ndim else 'a number'}, got {bad!r}")
    return arr


def as_number(value, name: str) -> float:
    """One value by the number rule, as a Python float."""
    arr = as_numbers(value, name)
    if arr.ndim:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(arr)


def as_int_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """The integer rule: `x` as an intp ndarray, of `shape` (as in
    `as_float_array`) when one is given. Its dtype must be an integer one, no
    scalar of list input may be a bool, and every value must fit in intp,
    which a cast would wrap. An empty input holds no value to refuse."""
    arr = np.asarray(x)
    if arr.size and (
            arr.dtype.kind not in "iu"
            or not isinstance(x, np.ndarray)
            and not _NOT_NUMBERS.isdisjoint(map(type, _leaves(x, arr.ndim)))
            or arr.dtype is not _INTP.dtype and not np.can_cast(arr.dtype, np.intp)
            and (arr.min() < _INTP.min or arr.max() > _INTP.max)):
        raise _int_error(x, arr, name)
    arr = arr.astype(np.intp, copy=False)
    if shape is not None:
        _check_shape(arr, name, shape)
    return arr


def _int_error(x, arr: np.ndarray, name: str) -> ValueError:
    """The error for `x`, converted to `arr`, that breaks the integer rule."""
    if not isinstance(x, np.ndarray) or arr.dtype.kind in "iu":
        for v in _leaves(x, arr.ndim):
            if type(v) in _NOT_NUMBERS or not isinstance(v, (int, np.integer)):
                return ValueError(f"{name} must be {'integers' if arr.ndim else 'an integer'}, "
                                  f"got {v!r}")
            if not _INTP.min <= v <= _INTP.max:
                return ValueError(f"{name} holds {v}, past the {np.dtype(np.intp)} range")
    return ValueError(f"{name} must be integers, got dtype {arr.dtype}")


def as_int(value, name: str) -> int:
    """One value by the integer rule, as a Python int."""
    return int(as_int_array(value, name, shape=()))


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """`x` by the number rule as a float64 ndarray, checking finiteness and
    (optionally) shape.

    ``shape`` entries may be ``None`` to accept any extent on that axis; an
    array checked against a shape must also be non-empty.
    """
    arr = as_numbers(x, name)
    if shape is not None:
        _check_shape(arr, name, shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_steps(steps, n_steps: int, shape: tuple = ()) -> np.ndarray:
    """Validate denoising step indices in 1..n_steps (1 = last step): integers
    by the integer rule, of `shape`, () for one step or (B,) for one per
    sample."""
    steps = as_int_array(steps, "steps", shape)
    if np.any(steps < 1) or np.any(steps > n_steps):
        raise IndexError(f"step index out of range 1..{n_steps}")
    return steps


def read_jsonl(path, kind: str, keys):
    """Yield ("<path>:<line>", record) for each non-blank line of a JSONL file.

    A line that is not UTF-8, not JSON, not a JSON object or without one of
    `keys` raises a ValueError that names its file and line; `kind` names the
    record in the message, as in "<path>:<line>: <kind> lacks 'key'".
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
            yield where, check_object(record, keys, f"{where}: {kind}")


def check_object(record, keys, what: str) -> dict:
    """`record`, if it is a JSON object (a dict) holding each of `keys`.

    Otherwise raises a ValueError that reads "<what> is not a JSON object" or
    "<what> lacks 'key'", several missing keys listed comma-separated.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{what} is not a JSON object")
    if missing := [key for key in keys if key not in record]:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    return record


def check_same_shape(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{name_a} shape {a.shape} does not match {name_b} shape {b.shape}")


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
