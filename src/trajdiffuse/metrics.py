"""Evaluation metrics for sampled trajectory predictions.

ADE/FDE (best-of-K displacement errors), KDE-NLL (per-timestep Gaussian
kernel density of the samples evaluated at the ground truth), ECFL
(environment collision-free likelihood), MVE (entropy of the per-sample
average headings, in bits), and ACFL (agent-agent collision-free likelihood
across all modes of all other agents).

Each metric is computed as array operations over all future frames and
samples at once, with x and y as separate planes: no metric reduces over a
length-2 axis. ACFL loops over unordered agent pairs, each visited once, in
O(A^2 * K^2 * T_pred) time and O(K^2 * T_pred) memory per pair.
tests/test_metrics.py checks each against a loop oracle, and pins each to
its earlier array form byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .diffusion import TrajBatch
from .mapguide import NavEnvironment, ecfl_check
from .validation import as_float_array, as_int, check_positive

KDE_DENSITY_FLOOR = 1e-12
KDE_BANDWIDTH_FLOOR = 1e-3  # meters; also the fallback for degenerate samples
HEADING_EPS = 1e-9  # meters; steps shorter than this carry no heading


def ade_fde(predictions: TrajBatch, ground_truth) -> tuple[float, float]:
    """Minimum average and final displacement errors over the K samples.

    The minimizing sample may differ between the two values.
    """
    gt = as_float_array(ground_truth, "ground_truth", shape=(predictions.n_frames, 2))
    t_obs = predictions.t_obs
    future = predictions.samples[:, t_obs:, :]
    dx = future[..., 0] - gt[None, t_obs:, 0]
    dy = future[..., 1] - gt[None, t_obs:, 1]
    dists = np.sqrt(dx * dx + dy * dy)  # (K, T_pred)
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
    # h is np.std(pts, axis=1, ddof=1) spelled out op for op: same bits, less overhead.
    pts = np.ascontiguousarray(predictions.samples[:, t_obs:, :].transpose(1, 0, 2))
    dev = pts - np.add.reduce(pts, axis=1, keepdims=True) / k
    dev *= dev
    h = np.sqrt(np.add.reduce(dev, axis=1, keepdims=True) / (k - 1)) * k ** (-1.0 / 6.0)
    h = np.maximum(h, KDE_BANDWIDTH_FLOOR)  # (T_pred, 1, 2)
    z = (gt[t_obs:, None, :] - pts) / h
    zx, zy = z[..., 0], z[..., 1]
    kernels = np.exp(-0.5 * (zx * zx + zy * zy)) / (2 * math.pi * h[..., 0] * h[..., 1])
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
    dx, dy = steps[..., 0], steps[..., 1]
    angles = np.arctan2(dy, dx)
    valid = np.sqrt(dx * dx + dy * dy) >= HEADING_EPS
    s = np.where(valid, np.sin(angles), 0.0).sum(axis=1).tolist()
    c = np.where(valid, np.cos(angles), 0.0).sum(axis=1).tolist()
    # libm's atan2 (np.arctan2 can differ from it in the last bit);
    # atan2(0, 0) = 0 gives a sample with no usable step heading 0.
    return np.array([math.atan2(sk, ck) for sk, ck in zip(s, c)])


def mve(predictions: TrajBatch, n_bins: int = 36) -> float:
    """Entropy (bits) of the histogram of per-sample average headings;
    `n_bins` is taken by the integer rule."""
    n_bins = as_int(n_bins, "n_bins")
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

    Each unordered pair of agents is visited once, on frame-major x and y
    planes: the pair's (T_pred, K, K) squared distances are reduced over
    frames, and the (K, K) block lowers both agents' nearest squared distance
    per mode. Squares, their two-term sum and minima are exact and sqrt is
    monotone, so sqrt(nearest) is bit for bit the minimum of the distances
    sqrt(dx*dx + dy*dy) themselves.
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
    xs, ys = np.ascontiguousarray(futures.transpose(3, 0, 2, 1))  # each (A, Tp, K)
    n_agents = futures.shape[0]
    nearest = np.full((n_agents, k), np.inf)  # squared distance to the nearest other mode
    for a in range(n_agents - 1):
        for b in range(a + 1, n_agents):
            dx = xs[a, :, :, None] - xs[b, :, None, :]  # (Tp, K_a, K_b)
            dy = ys[a, :, :, None] - ys[b, :, None, :]
            dx *= dx
            dy *= dy
            dx += dy  # squared distances
            block = dx.min(axis=0)  # (K_a, K_b)
            np.minimum(nearest[a], block.min(axis=1), out=nearest[a])
            np.minimum(nearest[b], block.min(axis=0), out=nearest[b])
    return int(np.count_nonzero(np.sqrt(nearest) >= threshold)) / (n_agents * k)
