"""Diffusion math core: the only implementation, called by `pipeline`.

Pure functions over ndarrays of shape (B, T, 2): forward noising via the
closed-form marginal (one step per sample), inpainting-style frame clamping,
the posterior mean in the clean-signal parameterization, the stochastic
reverse step, and the batched training loss with its gradient (plain MSE or
the schedule-weighted form). Randomness enters only through explicit noise
arrays supplied by the caller. Step indices are checked by
`validation.check_steps`: one step for the posterior mean and the reverse
step, one per sample for forward noising and the loss. TrajBatch (checked
with `as_float_array`) and ConditionSpec are the trajectory and clamp-set
types the package passes around. `check_intents` is the one definition of a
valid clamp set, run once per agent in `read_dataset`, `predict` and `train`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule
from .validation import (
    as_float_array, as_int, as_int_array, as_numbers, check_same_shape, check_steps,
)


@dataclass(eq=False)
class TrajBatch:
    """K trajectories of T = t_obs + t_pred frames, world meters.

    samples has shape (K, T, 2); frame indices are 0-based, so observed
    frames are 0..t_obs-1 and future frames t_obs..T-1.
    """

    samples: np.ndarray
    t_obs: int
    t_pred: int

    def __post_init__(self):
        self.samples = as_float_array(self.samples, "samples", shape=(None, None, 2))
        self.t_obs, self.t_pred = as_int(self.t_obs, "t_obs"), as_int(self.t_pred, "t_pred")
        if self.t_obs < 1 or self.t_pred < 1:
            raise ValueError("t_obs and t_pred must each be >= 1")
        if self.samples.shape[1] != self.t_obs + self.t_pred:
            raise ValueError(
                f"samples have {self.samples.shape[1]} frames, expected "
                f"t_obs + t_pred = {self.t_obs + self.t_pred}"
            )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_frames(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, init=False, eq=False)
class ConditionSpec:
    """One intent's clamp set: values[j] (float64, by the number rule) is
    clamped onto frames[j] (intp, by the integer rule). Both are frozen copies;
    whether they make a valid layout is `check_intents`'s rule."""

    frames: np.ndarray
    values: np.ndarray

    def __init__(self, frames, values):  # sets each field once: read_dataset makes many
        checked_frames = as_int_array(frames, "clamp frames")
        checked_values = as_numbers(values, "clamp values")
        # copy a caller's array, so that freezing ours leaves theirs writeable
        if isinstance(frames, np.ndarray):
            checked_frames = checked_frames.copy()
        if isinstance(values, np.ndarray):
            checked_values = checked_values.copy()
        checked_frames.setflags(write=False)
        checked_values.setflags(write=False)
        object.__setattr__(self, "frames", checked_frames)
        object.__setattr__(self, "values", checked_values)


def check_intents(intents: list, history: np.ndarray, t_pred: int) -> tuple:
    """The one definition of a valid clamp set, for an agent's K intents, its
    (t_obs, 2) `history` and the horizon t_pred: at least one intent, one
    layout of sorted, distinct frames in 0..T-1 holding every observed frame
    and the goal T-1, values aligned with it and finite, and the history
    clamped exactly. Each distinct layout is checked once, so a valid agent's
    rules run once. Returns the layout and the (K, n, 2) values."""
    if not intents:
        raise ValueError("request carries no intents")
    t_obs = len(history)
    t_total = t_obs + t_pred
    layouts = {(spec.frames.shape, spec.frames.tobytes()): spec.frames for spec in intents}
    for frames in layouts.values():
        if frames.ndim != 1:
            raise ValueError("frames and values must align one-to-one")
        fl = frames.tolist()  # the checks below are cheaper on a short list
        if any(b <= a for a, b in zip(fl, fl[1:])):
            raise ValueError("clamp frames must be sorted and distinct")
        if fl and (fl[0] < 0 or fl[-1] >= t_total):
            raise IndexError(f"clamp frame out of range 0..{t_total - 1}")
        if fl[:t_obs] != list(range(t_obs)):
            raise ValueError("every observed frame 0..t_obs-1 must be clamped")
        if t_total - 1 not in fl:
            raise ValueError("the goal frame (last frame) must be clamped")
    if len(layouts) > 1:
        raise ValueError("intents do not share one clamp-frame layout")
    for spec in intents:
        if spec.values.shape != (frames.size, 2):
            as_float_array(spec.values, "clamp values", shape=(None, 2))  # names a bad shape
            raise ValueError("frames and values must align one-to-one")
    values = as_float_array(np.stack([spec.values for spec in intents]), "clamp values")
    if not (values[:, :t_obs] == history).all():
        raise ValueError("intent history does not match the record's first t_obs frames")
    return frames, values


def forward_noise(x0: np.ndarray, i, noise: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Sample the closed-form marginal: sqrt(ab_i) * x0 + sqrt(1 - ab_i) * noise.

    x0 and noise have shape (B, T, 2); i is a (B,) int array of per-sample
    steps, as training draws them.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    check_same_shape(noise, x0, "noise", "x0")
    steps = check_steps(i, schedule.n_steps, shape=(x0.shape[0],))
    ab = schedule.alpha_bars[steps - 1][:, None, None]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


def clamp_frames_batch(samples: np.ndarray, frames: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Copy of samples with frames overwritten; values has shape (B, n_frames, 2)."""
    out = samples.copy()
    out[:, frames, :] = values
    return out


def posterior_mean(x0_pred: np.ndarray, x_i: np.ndarray, i: int,
                   schedule: NoiseSchedule) -> np.ndarray:
    """Posterior mean of the reverse kernel given the predicted clean signal.

    mu = [sqrt(a_i)(1 - ab_{i-1}) x_i + sqrt(ab_{i-1})(1 - a_i) x0] / (1 - ab_i),
    which collapses to x0 exactly at i = 1 where ab_0 = 1.
    """
    i = check_steps(i, schedule.n_steps)
    x0_pred = np.asarray(x0_pred, dtype=np.float64)
    x_i = np.asarray(x_i, dtype=np.float64)
    check_same_shape(x0_pred, x_i, "x0_pred", "x_i")
    a = schedule.alphas[i - 1]
    ab = schedule.alpha_bars[i - 1]
    ab_prev = schedule.alpha_bars_prev[i - 1]
    return (np.sqrt(a) * (1 - ab_prev) * x_i + np.sqrt(ab_prev) * (1 - a) * x0_pred) / (1 - ab)


def reverse_step(x_i: np.ndarray, x0_pred: np.ndarray, i: int, schedule: NoiseSchedule,
                 noise: np.ndarray) -> np.ndarray:
    """One stochastic reverse step: posterior mean plus sigma_q(i) * noise.

    sigma_q(1) = 0, so the final step is deterministic and returns the
    predicted clean signal regardless of the noise array.
    """
    i = check_steps(i, schedule.n_steps)
    noise = np.asarray(noise, dtype=np.float64)
    check_same_shape(noise, np.asarray(x_i), "noise", "x_i")
    mean = posterior_mean(x0_pred, x_i, i, schedule)
    sigma = np.sqrt(schedule.posterior_vars[i - 1])
    return mean if sigma == 0.0 else mean + sigma * noise


# The first step each loss weighting trains on: the paper weight divides by
# sigma_q^2(1) = 0 (Ho et al. 2020, "Denoising Diffusion Probabilistic Models").
FIRST_STEP = {"simple": 1, "paper": 2}


def loss_and_grad(pred: np.ndarray, target: np.ndarray, t_obs: int, i_steps: np.ndarray,
                  schedule: NoiseSchedule, weighting: str = "simple") -> tuple[float, np.ndarray]:
    """Batched loss with per-sample step indices, plus d(loss)/d(pred).

    The gradient is zero on observed frames; per-sample losses are averaged
    over the batch. Used by the training loop, where each sample draws its
    own step index. pred and target share one (B, T, 2) shape, t_obs lies in
    0..T-1 and i_steps is a (B,) int array of steps in 1..N.
    """
    check_same_shape(target, pred, "target", "pred")
    k, t_total, _ = pred.shape
    if not 0 <= t_obs < t_total:
        raise ValueError(f"t_obs {t_obs} out of range 0..{t_total - 1}")
    i_steps = check_steps(i_steps, schedule.n_steps, shape=(k,))
    n_future_elems = (t_total - t_obs) * 2
    if weighting not in FIRST_STEP:
        raise ValueError(f"unknown weighting {weighting!r}")
    if np.any(i_steps < FIRST_STEP[weighting]):
        raise ValueError(f"{weighting} weighting requires i >= {FIRST_STEP[weighting]}")
    if weighting == "simple":
        w = np.ones(k)
    else:
        idx = i_steps - 1
        w = schedule.loss_weights[idx] / (2.0 * schedule.posterior_vars[idx])
    diff = pred[:, t_obs:, :] - target[:, t_obs:, :]
    per_sample = np.mean(diff * diff, axis=(1, 2))
    loss = float(np.mean(w * per_sample))
    grad = np.zeros_like(pred)
    grad[:, t_obs:, :] = (2.0 / (k * n_future_elems)) * w[:, None, None] * diff
    return loss, grad
