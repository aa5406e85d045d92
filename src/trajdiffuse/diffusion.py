"""Diffusion math core: the only implementation, called by `pipeline`.

Pure functions over ndarrays of shape (B, T, 2): forward noising via the
closed-form marginal, inpainting-style frame clamping, the posterior mean in
the clean-signal parameterization, the stochastic reverse step, and the
batched training loss with its gradient (plain MSE or the schedule-weighted
form). Randomness enters only through explicit noise arrays supplied by the
caller. TrajBatch and ConditionSpec are the trajectory and clamp-set types
the rest of the package passes around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule
from .validation import (
    as_float_array,
    check_batch,
    check_same_shape,
    check_step_array,
    check_step_index,
)


@dataclass
class TrajBatch:
    """K trajectories of T = t_obs + t_pred frames, world meters.

    samples has shape (K, T, 2); frame indices are 0-based, so observed
    frames are 0..t_obs-1 and future frames t_obs..T-1.
    """

    samples: np.ndarray
    t_obs: int
    t_pred: int

    def __post_init__(self):
        self.samples = check_batch(self.samples)
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


@dataclass(frozen=True)
class ConditionSpec:
    """The clamp set: observed history plus waypoint/goal anchors.

    frames are sorted 0-based indices; the full history 0..t_obs-1 and the
    goal frame T-1 are always present, waypoints lie strictly between.
    values[j] is the 2-vector clamped onto frames[j].
    """

    frames: np.ndarray
    values: np.ndarray
    t_obs: int
    t_pred: int

    def __post_init__(self):
        # Copies, so that freezing them below leaves the caller's arrays writeable.
        frames = np.array(self.frames, dtype=np.intp)
        values = as_float_array(self.values, "clamp values", shape=(None, 2)).copy()
        if frames.ndim != 1 or frames.size != values.shape[0]:
            raise ValueError("frames and values must align one-to-one")
        fl = frames.tolist()  # the checks below are cheaper on a short list
        if any(b <= a for a, b in zip(fl, fl[1:])):
            raise ValueError("clamp frames must be sorted and distinct")
        t_total = self.t_obs + self.t_pred
        if fl and (fl[0] < 0 or fl[-1] >= t_total):
            raise IndexError(f"clamp frame out of range 0..{t_total - 1}")
        if fl[: self.t_obs] != list(range(self.t_obs)):
            raise ValueError("every observed frame 0..t_obs-1 must be clamped")
        if t_total - 1 not in fl:
            raise ValueError("the goal frame (last frame) must be clamped")
        frames.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_anchors(cls, history, waypoint_frames, waypoint_values, goal_value,
                     t_pred: int) -> "ConditionSpec":
        """Build a spec from history plus (frame, value) waypoint/goal anchors."""
        history = as_float_array(history, "history", shape=(None, 2))
        t_obs = history.shape[0]
        waypoint_frames = list(np.asarray(waypoint_frames, dtype=int).ravel())
        waypoint_values = (
            np.asarray(waypoint_values, dtype=np.float64).reshape(-1, 2)
            if len(waypoint_frames)
            else np.zeros((0, 2))
        )
        goal_frame = t_obs + t_pred - 1
        for w in waypoint_frames:
            if not t_obs <= w < goal_frame:
                raise ValueError(f"waypoint frame {w} must lie in [{t_obs}, {goal_frame})")
        frames = np.concatenate(
            [np.arange(t_obs), np.asarray(waypoint_frames, dtype=int), [goal_frame]]
        )
        values = np.concatenate(
            [history, waypoint_values, np.asarray(goal_value, dtype=np.float64).reshape(1, 2)]
        )
        order = np.argsort(frames)
        return cls(frames[order], values[order], t_obs=t_obs, t_pred=t_pred)


def forward_noise(x0: np.ndarray, i, noise: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Sample the closed-form marginal: sqrt(ab_i) * x0 + sqrt(1 - ab_i) * noise.

    x0 and noise have shape (B, T, 2); i is an int or a (B,) int array of
    per-sample steps.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    check_same_shape(noise, x0, "noise", "x0")
    if np.ndim(i) == 0:
        ab = schedule.alpha_bars[check_step_index(i, schedule.n_steps) - 1]
    else:
        steps = check_step_array(i, x0.shape[0], schedule.n_steps)
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
    i = check_step_index(i, schedule.n_steps)
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
    i = check_step_index(i, schedule.n_steps)
    noise = np.asarray(noise, dtype=np.float64)
    check_same_shape(noise, np.asarray(x_i), "noise", "x_i")
    mean = posterior_mean(x0_pred, x_i, i, schedule)
    sigma = np.sqrt(schedule.posterior_vars[i - 1])
    return mean if sigma == 0.0 else mean + sigma * noise


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
    i_steps = check_step_array(i_steps, k, schedule.n_steps)
    n_future_elems = (t_total - t_obs) * 2
    if weighting == "simple":
        w = np.ones(k)
    elif weighting == "paper":
        if np.any(i_steps < 2):
            raise ValueError("paper weighting requires i >= 2")
        idx = i_steps - 1
        w = schedule.loss_weights[idx] / (2.0 * schedule.posterior_vars[idx])
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    diff = pred[:, t_obs:, :] - target[:, t_obs:, :]
    per_sample = np.mean(diff * diff, axis=(1, 2))
    loss = float(np.mean(w * per_sample))
    grad = np.zeros_like(pred)
    grad[:, t_obs:, :] = (2.0 / (k * n_future_elems)) * w[:, None, None] * diff
    return loss, grad
