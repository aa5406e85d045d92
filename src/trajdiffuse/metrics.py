"""Evaluation metrics for sampled trajectory predictions.

ADE/FDE (best-of-K displacement errors), KDE-NLL (per-timestep Gaussian
kernel density of the samples evaluated at the ground truth), ECFL
(environment collision-free likelihood), MVE (entropy of the per-sample
average headings, in bits), and ACFL (agent-agent collision-free likelihood
across all modes of all other agents).

Each metric is computed as array operations over all future frames and
samples at once; ACFL loops over agents only, so its memory per step is
O(A * K^2 * T_pred). tests/test_metrics.py checks each against a loop
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .diffusion import TrajBatch
from .mapguide import NavEnvironment, ecfl_check
from .validation import as_float_array, check_positive

KDE_DENSITY_FLOOR = 1e-12
KDE_BANDWIDTH_FLOOR = 1e-3  # meters; also the fallback for degenerate samples
HEADING_EPS = 1e-9  # meters; steps shorter than this carry no heading


def ade_fde(predictions: TrajBatch, ground_truth) -> tuple[float, float]:
    """Minimum average and final displacement errors over the K samples.

    The minimizing sample may differ between the two values.
    """
    gt = as_float_array(ground_truth, "ground_truth", shape=(predictions.n_frames, 2))
    t_obs = predictions.t_obs
    diff = predictions.samples[:, t_obs:, :] - gt[None, t_obs:, :]
    dists = np.linalg.norm(diff, axis=2)  # (K, T_pred)
    ade = float(dists.mean(axis=1).min())
    fde = float(dists[:, -1].min())
    return ade, fde


def kde_nll(predictions: TrajBatch, ground_truth) -> float:
    """Mean negative log density of the ground truth under per-timestep KDEs.

    A product-form Gaussian kernel with Scott's-rule bandwidth per dimension
    (sample std * K^(-1/6)); bandwidths and the density are floored so
    degenerate sample sets stay finite.
    """
    if predictions.n_samples < 2:
        raise ValueError("kde_nll requires at least 2 samples")
    gt = as_float_array(ground_truth, "ground_truth", shape=(predictions.n_frames, 2))
    t_obs = predictions.t_obs
    k = predictions.n_samples
    # C order keeps K innermost, so each frame's kernel mean is summed in the
    # same (pairwise) order as a 1-D mean over that frame's K kernels.
    pts = np.ascontiguousarray(predictions.samples[:, t_obs:, :].transpose(1, 0, 2))
    h = np.std(pts, axis=1, ddof=1, keepdims=True) * k ** (-1.0 / 6.0)
    h = np.maximum(h, KDE_BANDWIDTH_FLOOR)  # (T_pred, 1, 2)
    z = (gt[t_obs:, None, :] - pts) / h
    kernels = np.exp(-0.5 * np.sum(z * z, axis=2)) / (2 * math.pi * h[..., 0] * h[..., 1])
    density = np.maximum(kernels.mean(axis=1), KDE_DENSITY_FLOOR)  # (T_pred,)
    return float(np.mean(-np.log(density)))


def ecfl(predictions: TrajBatch, env: NavEnvironment) -> float:
    """Fraction of samples whose every future frame lands on a navigable pixel."""
    return float(np.mean(ecfl_check(env, predictions.samples, predictions.t_obs)))


def sample_headings(predictions: TrajBatch) -> np.ndarray:
    """Per-sample circular mean of step displacement angles over future frames.

    Steps shorter than HEADING_EPS are skipped; a sample with no usable step
    gets heading 0 by convention.
    """
    t_obs = predictions.t_obs
    steps = np.diff(predictions.samples[:, t_obs:, :], axis=1)  # (K, T_pred-1, 2)
    lengths = np.linalg.norm(steps, axis=2)
    angles = np.arctan2(steps[..., 1], steps[..., 0])
    valid = lengths >= HEADING_EPS
    s = np.where(valid, np.sin(angles), 0.0).sum(axis=1).tolist()
    c = np.where(valid, np.cos(angles), 0.0).sum(axis=1).tolist()
    # libm's atan2 (np.arctan2 can differ from it in the last bit);
    # atan2(0, 0) = 0 gives a sample with no usable step heading 0.
    return np.array([math.atan2(sk, ck) for sk, ck in zip(s, c)])


def mve(predictions: TrajBatch, n_bins: int = 36) -> float:
    """Entropy (bits) of the histogram of per-sample average headings."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    headings = sample_headings(predictions)
    width = 2 * math.pi / n_bins
    idx = np.floor((headings + math.pi) / width).astype(int) % n_bins
    counts = np.bincount(idx, minlength=n_bins)
    p = counts / counts.sum()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def acfl(scene_predictions: list[TrajBatch], threshold: float) -> float:
    """Fraction of (agent, mode) pairs clear of every mode of every other agent.

    A mode is collision-free iff its distance to all other agents' modes
    stays >= threshold at every future timestep. The threshold (meters) must
    be positive and finite.
    """
    threshold = check_positive(threshold, "acfl threshold")
    if len(scene_predictions) < 2:
        raise ValueError("acfl needs at least 2 agents")
    t_obs = scene_predictions[0].t_obs
    n_frames = scene_predictions[0].n_frames
    k = scene_predictions[0].n_samples
    for batch in scene_predictions:
        if batch.n_frames != n_frames or batch.n_samples != k or batch.t_obs != t_obs:
            raise ValueError("all agents must share K, T and the frame split")
    futures = np.stack([b.samples[:, t_obs:, :] for b in scene_predictions])  # (A,K,Tp,2)
    n_agents = futures.shape[0]
    free = 0
    for a in range(n_agents):
        others = np.delete(futures, a, axis=0)  # (A-1, K, Tp, 2)
        d = np.linalg.norm(futures[a][:, None, None] - others[None], axis=-1)  # (K,A-1,K,Tp)
        free += int(np.count_nonzero(d.min(axis=(1, 2, 3)) >= threshold))
    return free / (n_agents * k)
