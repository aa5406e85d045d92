"""Input validation helpers shared across the package.

All public entry points funnel array inputs through these checks so that
shape and finiteness errors surface with a usable message instead of deep
inside a broadcast.
"""

from __future__ import annotations

import numpy as np


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """Coerce to a float64 ndarray, checking finiteness and (optionally) shape.

    ``shape`` entries may be ``None`` to accept any extent on that axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValueError(f"{name} must have {len(shape)} dimensions, got {arr.ndim}")
        for axis, want in enumerate(shape):
            if want is not None and arr.shape[axis] != want:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_trajectory(traj, name: str = "trajectory") -> np.ndarray:
    """Validate a single (T, 2) trajectory in world meters."""
    arr = as_float_array(traj, name, shape=(None, 2))
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must contain at least one frame")
    return arr


def check_batch(samples, name: str = "samples") -> np.ndarray:
    """Validate a (K, T, 2) batch of trajectories."""
    arr = as_float_array(samples, name, shape=(None, None, 2))
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def check_step_index(i: int, n_steps: int) -> int:
    """Validate a denoising step index i in 1..n_steps (1 = last step)."""
    i = int(i)
    if not 1 <= i <= n_steps:
        raise IndexError(f"step index {i} out of range 1..{n_steps}")
    return i


def check_step_array(steps, batch: int, n_steps: int) -> np.ndarray:
    """Validate a (batch,) int array of per-sample step indices in 1..n_steps."""
    steps = np.asarray(steps)
    if steps.shape != (batch,) or not np.issubdtype(steps.dtype, np.integer):
        raise ValueError(f"per-sample steps must be a ({batch},) int array, "
                         f"got {steps.dtype} {steps.shape}")
    if np.any(steps < 1) or np.any(steps > n_steps):
        raise IndexError(f"step index out of range 1..{n_steps}")
    return steps


def check_same_shape(a: np.ndarray, b: np.ndarray, name_a: str, name_b: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{name_a} shape {a.shape} does not match {name_b} shape {b.shape}")


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    value = float(value)
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    return value
