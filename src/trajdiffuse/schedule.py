"""Variance schedule for the denoising chain.

Builds the squared-cosine noise schedule and precomputes every closed-form
coefficient the diffusion math needs: per-step retention alpha_i, cumulative
products alpha_bar_i, posterior variances sigma_q^2(i), and the loss weights
lambda(alpha_i) = alpha_bar_{i-1} * (1 - alpha_i)^2 / (1 - alpha_bar_i)^2.

Step indices run i = 1..n_steps with the convention alpha_bar_0 = 1, so
sigma_q^2(1) = 0 exactly and the final reverse step is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import as_int, check_positive

# Per-step retention is clipped away from 0 and 1 so posterior denominators
# (1 - alpha_bar_i) never vanish at the ends of the schedule.
ALPHA_MIN = 0.001
ALPHA_MAX = 0.9999

DEFAULT_COSINE_OFFSET = 0.008


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable, fully precomputed variance schedule.

    Attributes
    ----------
    n_steps : int
        Number of denoising steps N.
    alphas : (N,) float64
        Per-step retention alpha_i, entry [i-1] for step i.
    alpha_bars : (N,) float64
        Cumulative products alpha_bar_i = prod_{j<=i} alpha_j.
    alpha_bars_prev : (N,) float64
        alpha_bar_{i-1} with alpha_bar_0 = 1.
    posterior_vars : (N,) float64
        sigma_q^2(i) = (1 - alpha_i)(1 - alpha_bar_{i-1}) / (1 - alpha_bar_i).
    loss_weights : (N,) float64
        lambda(alpha_i) = alpha_bar_{i-1} (1 - alpha_i)^2 / (1 - alpha_bar_i)^2.
    """

    n_steps: int
    alphas: np.ndarray
    alpha_bars: np.ndarray
    alpha_bars_prev: np.ndarray
    posterior_vars: np.ndarray
    loss_weights: np.ndarray

    def __post_init__(self):
        for field in ("alphas", "alpha_bars", "alpha_bars_prev", "posterior_vars", "loss_weights"):
            arr = getattr(self, field)
            if arr.shape != (self.n_steps,):
                raise ValueError(f"{field} must have shape ({self.n_steps},), got {arr.shape}")
            arr.setflags(write=False)


def from_alphas(alphas: np.ndarray) -> NoiseSchedule:
    """Assemble a NoiseSchedule from per-step retention values."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or alphas.size < 1:
        raise ValueError("alphas must be a non-empty 1-D vector")
    if np.any(alphas <= 0) or np.any(alphas >= 1):
        raise ValueError("alphas must lie strictly inside (0, 1)")
    alpha_bars = np.cumprod(alphas)
    alpha_bars_prev = np.concatenate(([1.0], alpha_bars[:-1]))
    posterior_vars = (1.0 - alphas) * (1.0 - alpha_bars_prev) / (1.0 - alpha_bars)
    loss_weights = alpha_bars_prev * (1.0 - alphas) ** 2 / (1.0 - alpha_bars) ** 2
    return NoiseSchedule(
        n_steps=int(alphas.size),
        alphas=alphas,
        alpha_bars=alpha_bars,
        alpha_bars_prev=alpha_bars_prev,
        posterior_vars=posterior_vars,
        loss_weights=loss_weights,
    )


def build_cosine_schedule(n_steps: int, offset: float = DEFAULT_COSINE_OFFSET) -> NoiseSchedule:
    """Build the squared-cosine schedule with small offset `offset`.

    The cumulative profile is alpha_bar(t) = f(t)/f(0) with
    f(t) = cos^2(((t/N + offset) / (1 + offset)) * pi/2). Per-step alphas are
    the profile's ratios, clipped to [ALPHA_MIN, ALPHA_MAX], and all derived
    vectors are recomputed from the clipped alphas.
    """
    n_steps = as_int(n_steps, "n_steps")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    check_positive(offset, "offset")

    t = np.arange(n_steps + 1, dtype=np.float64)
    f = np.cos(((t / n_steps) + offset) / (1.0 + offset) * (math.pi / 2.0)) ** 2
    profile = f / f[0]
    alphas = profile[1:] / profile[:-1]
    alphas = np.clip(alphas, ALPHA_MIN, ALPHA_MAX)
    return from_alphas(alphas)

