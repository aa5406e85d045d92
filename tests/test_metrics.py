import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse import metrics
from trajdiffuse.diffusion import TrajBatch
from trajdiffuse.mapguide import NavEnvironment
from trajdiffuse.metrics import (
    HEADING_EPS,
    KDE_BANDWIDTH_FLOOR,
    KDE_DENSITY_FLOOR,
    acfl,
    ade_fde,
    ecfl,
    kde_nll,
    mve,
    sample_headings,
)

T_OBS, T_PRED = 4, 6
T = T_OBS + T_PRED


# ------------------------------------------------------------------ loop oracles
# Per-frame, per-sample and per-agent loop forms of the metrics, the reference
# that the array implementations are held to.

def kde_nll_loop(predictions, gt):
    t_obs = predictions.t_obs
    k = predictions.n_samples
    nlls = []
    for t in range(t_obs, predictions.n_frames):
        pts = predictions.samples[:, t, :]  # (K, 2)
        h = np.std(pts, axis=0, ddof=1) * k ** (-1.0 / 6.0)
        h = np.maximum(h, KDE_BANDWIDTH_FLOOR)
        z = (gt[t][None, :] - pts) / h
        kernels = np.exp(-0.5 * np.sum(z * z, axis=1)) / (2 * math.pi * h[0] * h[1])
        density = max(float(kernels.mean()), KDE_DENSITY_FLOOR)
        nlls.append(-math.log(density))
    return float(np.mean(nlls))


def ecfl_loop(predictions, env):
    t_obs = predictions.t_obs
    free = []
    for k in range(predictions.n_samples):
        free.append(all(env.is_navigable_point(p) for p in predictions.samples[k, t_obs:, :]))
    return float(np.mean(free))


def sample_headings_loop(predictions):
    t_obs = predictions.t_obs
    steps = np.diff(predictions.samples[:, t_obs:, :], axis=1)  # (K, T_pred-1, 2)
    lengths = np.linalg.norm(steps, axis=2)
    angles = np.arctan2(steps[..., 1], steps[..., 0])
    headings = np.zeros(predictions.n_samples)
    for k in range(predictions.n_samples):
        valid = lengths[k] >= HEADING_EPS
        if not valid.any():
            continue
        s = np.sin(angles[k][valid]).sum()
        c = np.cos(angles[k][valid]).sum()
        headings[k] = math.atan2(s, c)
    return headings


def acfl_loop(scene_predictions, threshold):
    t_obs = scene_predictions[0].t_obs
    k = scene_predictions[0].n_samples
    futures = np.stack([b.samples[:, t_obs:, :] for b in scene_predictions])  # (A,K,Tp,2)
    n_agents = futures.shape[0]
    free = 0
    for a in range(n_agents):
        for mode in range(k):
            clear = True
            for b in range(n_agents):
                if b == a:
                    continue
                d = np.linalg.norm(futures[a, mode][None, :, :] - futures[b], axis=2)
                if d.min() < threshold:
                    clear = False
                    break
            free += clear
    return free / (n_agents * k)


def batch(samples):
    return TrajBatch(np.asarray(samples, dtype=float), T_OBS, T_PRED)


def random_batch(rng, k=5):
    return batch(rng.normal(size=(k, T, 2)))


# ----------------------------------------------------------------------- ADE/FDE

def test_perfect_prediction_scores_zero():
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(T, 2))
    assert ade_fde(batch(gt[None]), gt) == (0.0, 0.0)


def test_constant_offset_three_four_five():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(T, 2))
    pred = gt + np.array([3.0, 4.0])
    a, f = ade_fde(batch(pred[None]), gt)
    assert a == pytest.approx(5.0, rel=1e-12)
    assert f == pytest.approx(5.0, rel=1e-12)


def test_ade_fde_match_exhaustive_oracle():
    rng = np.random.default_rng(2)
    gt = rng.normal(size=(T, 2))
    preds = rng.normal(size=(3, T, 2))
    a, f = ade_fde(batch(preds), gt)

    ades, fdes = [], []
    for k in range(3):
        ds = [math.dist(preds[k, t], gt[t]) for t in range(T_OBS, T)]
        ades.append(sum(ds) / len(ds))
        fdes.append(ds[-1])
    assert a == pytest.approx(min(ades), abs=1e-12)
    assert f == pytest.approx(min(fdes), abs=1e-12)


def test_min_may_differ_between_metrics():
    gt = np.zeros((T, 2))
    p1 = np.zeros((T, 2)); p1[T_OBS:-1] += 5.0          # bad middle, perfect end
    p2 = np.zeros((T, 2)); p2[-1] += np.array([1.0, 0])  # good middle, worse end
    a, f = ade_fde(batch(np.stack([p1, p2])), gt)
    assert f == 0.0
    assert a == pytest.approx(1.0 / T_PRED, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_ade_fde_invariances(seed):
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(T, 2))
    preds = rng.normal(size=(4, T, 2))
    a, f = ade_fde(batch(preds), gt)
    perm = rng.permutation(4)
    assert ade_fde(batch(preds[perm]), gt) == (a, f)
    shift = rng.normal(size=2)
    a2, f2 = ade_fde(batch(preds + shift), gt + shift)
    assert a2 == pytest.approx(a, abs=1e-9) and f2 == pytest.approx(f, abs=1e-9)


# ----------------------------------------------------------------------- KDE-NLL

def kde_nll_oracle(preds, gt, t_obs):
    """Naive double-loop KDE with the same bandwidth rule."""
    k = preds.shape[0]
    total = 0.0
    count = 0
    for t in range(t_obs, preds.shape[1]):
        hx = max(np.std(preds[:, t, 0], ddof=1) * k ** (-1 / 6), 1e-3)
        hy = max(np.std(preds[:, t, 1], ddof=1) * k ** (-1 / 6), 1e-3)
        dens = 0.0
        for j in range(k):
            zx = (gt[t, 0] - preds[j, t, 0]) / hx
            zy = (gt[t, 1] - preds[j, t, 1]) / hy
            dens += math.exp(-0.5 * (zx * zx + zy * zy)) / (2 * math.pi * hx * hy)
        dens = max(dens / k, 1e-12)
        total += -math.log(dens)
        count += 1
    return total / count


def test_kde_nll_matches_naive_oracle():
    rng = np.random.default_rng(3)
    preds = rng.normal(size=(5, T, 2))
    gt = rng.normal(size=(T, 2))
    got = kde_nll(batch(preds), gt)
    assert got == pytest.approx(kde_nll_oracle(preds, gt, T_OBS), abs=1e-10)


def test_kde_nll_far_ground_truth_hits_density_floor():
    rng = np.random.default_rng(4)
    preds = rng.normal(size=(6, T, 2)) * 0.01
    gt = np.full((T, 2), 1e6)
    assert kde_nll(batch(preds), gt) == pytest.approx(-math.log(1e-12), rel=1e-6)


def test_kde_nll_centered_truth_beats_shifted():
    rng = np.random.default_rng(5)
    cloud = rng.normal(size=(40, 1, 2))
    preds = np.concatenate([np.zeros((40, T - 1, 2)), cloud], axis=1)
    preds[:, : T - 1, :] = rng.normal(size=(40, T - 1, 2))
    center = cloud[:, 0, :].mean(axis=0)
    gt_center = np.zeros((T, 2)); gt_center[-1] = center
    gt_shift = gt_center.copy(); gt_shift[-1] += 3.0
    assert kde_nll(batch(preds), gt_center) < kde_nll(batch(preds), gt_shift)


def test_kde_nll_degenerate_samples_use_floor_bandwidth():
    preds = np.zeros((4, T, 2))
    gt = np.zeros((T, 2))
    got = kde_nll(batch(preds), gt)
    assert got == pytest.approx(-math.log(1 / (2 * math.pi * 1e-3 * 1e-3)), rel=1e-9)


def test_kde_nll_duplicating_truth_samples_decreases_nll():
    rng = np.random.default_rng(6)
    preds = rng.normal(size=(6, T, 2)) + 2.0
    gt = np.zeros((T, 2))
    base = kde_nll(batch(preds), gt)
    stacked = np.concatenate([preds, np.tile(gt, (6, 1, 1))])
    assert kde_nll(batch(stacked), gt) < base


def test_kde_nll_needs_two_samples():
    with pytest.raises(ValueError):
        kde_nll(batch(np.zeros((1, T, 2))), np.zeros((T, 2)))


# -------------------------------------------------------------------------- ECFL

def strip_env():
    grid = np.zeros((4, 8), dtype=bool)
    grid[:, :4] = True
    return NavEnvironment.from_grid(grid, 1.0, origin=(0.0, 0.0))


def test_ecfl_all_navigable():
    env = strip_env()
    preds = np.full((3, T, 2), 1.0)
    assert ecfl(batch(preds), env) == 1.0


def test_ecfl_single_blocked_frame_annihilates_sample():
    env = strip_env()
    preds = np.full((2, T, 2), 1.0)
    preds[1, T_OBS + 2] = [6.0, 1.0]
    assert ecfl(batch(preds), env) == 0.5


def test_ecfl_matches_per_frame_boolean_oracle():
    rng = np.random.default_rng(7)
    grid = rng.random((10, 10)) < 0.6
    grid[0, 0] = True
    env = NavEnvironment.from_grid(grid, 0.5, origin=(0.0, 0.0))
    preds = rng.uniform(-1, 6, size=(8, T, 2))
    got = ecfl(batch(preds), env)

    free = 0
    for k in range(8):
        ok = True
        for t in range(T_OBS, T):
            px = preds[k, t, 0] / 0.5
            py = preds[k, t, 1] / 0.5
            col = int(math.copysign(math.floor(abs(px) + 0.5), px))
            row = int(math.copysign(math.floor(abs(py) + 0.5), py))
            if not (0 <= row < 10 and 0 <= col < 10 and grid[row, col]):
                ok = False
                break
        free += ok
    assert got == pytest.approx(free / 8, abs=1e-12)


def test_ecfl_monotone_in_sample_removal():
    env = strip_env()
    preds = np.full((3, T, 2), 1.0)
    preds[0, -1] = [7.0, 1.0]  # colliding sample
    with_bad = ecfl(batch(preds), env)
    without = ecfl(batch(preds[1:]), env)
    assert without >= with_bad


# --------------------------------------------------------------------------- MVE

def straight_traj(heading, speed=1.0):
    steps = np.array([math.cos(heading), math.sin(heading)]) * speed
    return np.cumsum(np.tile(steps, (T, 1)), axis=0)


def test_mve_identical_headings_zero_bits():
    preds = np.stack([straight_traj(0.3)] * 5)
    assert mve(batch(preds), n_bins=36) == 0.0


def test_mve_uniform_headings_log2_bins():
    n_bins = 8
    headings = -math.pi + (np.arange(n_bins) + 0.5) * (2 * math.pi / n_bins)
    preds = np.stack([straight_traj(h) for h in headings])
    assert mve(batch(preds), n_bins=n_bins) == pytest.approx(math.log2(n_bins), abs=1e-12)


def test_mve_matches_histogram_entropy_oracle():
    rng = np.random.default_rng(8)
    preds = rng.normal(size=(20, T, 2))
    n_bins = 36
    got = mve(batch(preds), n_bins=n_bins)

    headings = []
    for k in range(20):
        sines = coss = 0.0
        for t in range(T_OBS, T - 1):
            dx = preds[k, t + 1, 0] - preds[k, t, 0]
            dy = preds[k, t + 1, 1] - preds[k, t, 1]
            if math.hypot(dx, dy) >= 1e-9:
                ang = math.atan2(dy, dx)
                sines += math.sin(ang)
                coss += math.cos(ang)
        headings.append(math.atan2(sines, coss) if (sines, coss) != (0.0, 0.0) else 0.0)
    counts = [0] * n_bins
    for h in headings:
        counts[int((h + math.pi) // (2 * math.pi / n_bins)) % n_bins] += 1
    entropy = -sum(c / 20 * math.log2(c / 20) for c in counts if c)
    assert got == pytest.approx(entropy, abs=1e-10)


def test_mve_stationary_sample_gets_zero_heading():
    preds = np.zeros((3, T, 2))
    assert sample_headings(batch(preds)).tolist() == [0.0, 0.0, 0.0]
    assert mve(batch(preds), n_bins=36) == 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 64), k=st.integers(1, 24))
def test_mve_is_bounded_by_log2_bins(seed, n_bins, k):
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=(k, T, 2)) * rng.uniform(0, 3)
    value = mve(batch(preds), n_bins=n_bins)
    assert 0.0 <= value <= math.log2(n_bins) + 1e-12


def test_mve_rotation_by_exact_bin_width_is_invariant():
    rng = np.random.default_rng(9)
    n_bins = 12
    headings = rng.uniform(-math.pi, math.pi, size=10)
    preds = np.stack([straight_traj(h) for h in headings])
    base = mve(batch(preds), n_bins=n_bins)
    width = 2 * math.pi / n_bins
    rot = np.array([[math.cos(width), -math.sin(width)], [math.sin(width), math.cos(width)]])
    rotated = preds @ rot.T
    assert mve(batch(rotated), n_bins=n_bins) == pytest.approx(base, abs=1e-12)


# -------------------------------------------------------------------------- ACFL

def stationary_agent(pos, k=2):
    return batch(np.tile(np.asarray(pos, dtype=float), (k, T, 1)))


def test_acfl_distant_agents_fully_clear():
    a = stationary_agent([0.0, 0.0])
    b = stationary_agent([10.0, 0.0])
    assert acfl([a, b], threshold=0.5) == 1.0


def test_acfl_overlapping_agents_zero():
    a = stationary_agent([0.0, 0.0])
    b = stationary_agent([0.0, 0.0])
    assert acfl([a, b], threshold=0.5) == 0.0


def test_acfl_matches_quadruple_loop_oracle():
    rng = np.random.default_rng(10)
    agents = [batch(rng.uniform(0, 3, size=(2, T, 2))) for _ in range(3)]
    thr = 1.0
    got = acfl(agents, threshold=thr)

    free = 0
    for a in range(3):
        for ka in range(2):
            clear = True
            for b in range(3):
                if b == a:
                    continue
                for kb in range(2):
                    for t in range(T_OBS, T):
                        d = math.dist(agents[a].samples[ka, t], agents[b].samples[kb, t])
                        if d < thr:
                            clear = False
            free += clear
    assert got == pytest.approx(free / 6, abs=1e-12)


def test_acfl_monotone_in_sample_removal():
    rng = np.random.default_rng(11)
    close = np.tile([0.0, 0.0], (T, 1))
    far = np.tile([9.0, 9.0], (T, 1))
    a = batch(np.stack([close, far]))
    b = stationary_agent([0.1, 0.0], k=2)
    with_bad = acfl([a, b], threshold=0.5)
    trimmed = [batch(a.samples[1:]), batch(b.samples[1:])]
    assert acfl(trimmed, threshold=0.5) >= with_bad


def test_acfl_shape_validation():
    a = stationary_agent([0, 0], k=2)
    b = batch(np.zeros((3, T, 2)))
    with pytest.raises(ValueError):
        acfl([a, b], threshold=0.5)
    with pytest.raises(ValueError):
        acfl([a], threshold=0.5)


def test_acfl_distance_equal_to_threshold_stays_clear():
    a = stationary_agent([0.0, 0.0])
    b = stationary_agent([3.0, 4.0])
    assert acfl([a, b], threshold=5.0) == 1.0
    assert acfl([a, b], threshold=math.nextafter(5.0, math.inf)) == 0.0


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, 0.0, float("inf")])
def test_acfl_rejects_threshold_that_is_not_positive_and_finite(threshold):
    a = stationary_agent([0.0, 0.0])
    b = stationary_agent([10.0, 0.0])
    with pytest.raises(ValueError, match="acfl threshold must be positive and finite"):
        acfl([a, b], threshold=threshold)


# ------------------------------------------------------------ loop-oracle fuzzing

def fuzz_samples(rng, k, t_obs, t_pred):
    """(K, T, 2) samples with stationary samples and sub-HEADING_EPS steps mixed in."""
    x = rng.normal(size=(k, t_obs + t_pred, 2)) * 10.0 ** rng.uniform(-3, 2)
    n_still = int(rng.integers(0, k))
    x[:n_still] = x[:n_still, :1]
    for t in range(t_obs + 1, t_obs + t_pred):
        short = rng.random(k) < 0.25
        x[short, t] = x[short, t - 1] + rng.normal(size=(short.sum(), 2)) * 1e-11
    return x


FUZZ_SIZES = dict(
    seed=st.integers(0, 2**32 - 1), k=st.integers(2, 24),
    t_obs=st.integers(1, 8), t_pred=st.integers(1, 12),
)


@settings(deadline=None, max_examples=200)
@given(**FUZZ_SIZES)
def test_kde_nll_matches_loop_oracle(seed, k, t_obs, t_pred):
    # One ulp of numpy's vectorised log (or reduction order on another platform)
    # per frame term; the terms lie within [-12, 28], hence the absolute floor.
    rng = np.random.default_rng(seed)
    b = TrajBatch(fuzz_samples(rng, k, t_obs, t_pred), t_obs, t_pred)
    gt = rng.normal(size=(t_obs + t_pred, 2)) * 10.0 ** rng.uniform(-3, 2)
    want = kde_nll_loop(b, gt)
    assert kde_nll(b, gt) == pytest.approx(want, rel=1e-14, abs=1e-14)


@settings(deadline=None, max_examples=200)
@given(**FUZZ_SIZES)
def test_ecfl_equals_loop_oracle(seed, k, t_obs, t_pred):
    rng = np.random.default_rng(seed)
    grid = rng.random((12, 9)) < rng.uniform(0.5, 1.0)
    env = NavEnvironment.from_grid(grid, 0.5, origin=tuple(rng.uniform(-1, 1, size=2)))
    x = rng.uniform(-1.5, 5.5, size=(k, t_obs + t_pred, 2))
    x[: k // 2, t_obs:] = x[: k // 2, t_obs:t_obs + 1]  # some samples sit still
    b = TrajBatch(x, t_obs, t_pred)
    assert ecfl(b, env) == ecfl_loop(b, env)


@settings(deadline=None, max_examples=200)
@given(n_bins=st.integers(1, 64), **FUZZ_SIZES)
def test_headings_and_mve_match_loop_oracle(seed, k, t_obs, t_pred, n_bins):
    rng = np.random.default_rng(seed)
    b = TrajBatch(fuzz_samples(rng, k, t_obs, t_pred), t_obs, t_pred)
    got, want = sample_headings(b), sample_headings_loop(b)
    steps = np.diff(b.samples[:, t_obs:], axis=1)
    all_long = (np.linalg.norm(steps, axis=2) >= HEADING_EPS).all(axis=1)
    assert got[all_long].tolist() == want[all_long].tolist()
    wrapped = np.angle(np.exp(1j * (got - want)))  # +pi and -pi are one heading
    assert np.abs(wrapped).max() <= 1e-12
    with mock.patch.object(metrics, "sample_headings", sample_headings_loop):
        want_mve = mve(b, n_bins=n_bins)
    assert mve(b, n_bins=n_bins) == want_mve


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 6), k=st.integers(2, 6),
    t_obs=st.integers(1, 4), t_pred=st.integers(1, 6),
    threshold=st.sampled_from([1.0, math.sqrt(2.0), 2.5, 5.0, math.sqrt(41.0)]),
)
def test_acfl_equals_loop_oracle(seed, n_agents, k, t_obs, t_pred, threshold):
    # On integer positions every distance is the rounded square root of an
    # integer, as are most thresholds here, so distances equal to the
    # threshold occur; offsets like (3, 4) give exactly 5.
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 7, size=(k, t_obs + t_pred, 2)).astype(float)
    offsets = [(3, 4), (4, -3), (0, 5), (-5, 0), (4, 5)]
    agents = []
    for _ in range(n_agents):
        if rng.random() < 0.5:
            x = base + offsets[rng.integers(len(offsets))]
        else:
            x = rng.integers(0, 7, size=base.shape).astype(float)
        agents.append(TrajBatch(x, t_obs, t_pred))
    assert acfl(agents, threshold) == acfl_loop(agents, threshold)


@pytest.mark.parametrize("n_bins", [True, 2.5, np.float64(3.0), "4"],
                         ids=["bool", "float", "numpy-float", "string"])
def test_mve_takes_n_bins_by_the_integer_rule(n_bins):
    preds = batch(np.random.default_rng(12).normal(size=(5, T, 2)))
    with pytest.raises(ValueError, match="n_bins must be an integer"):
        mve(preds, n_bins=n_bins)
    assert mve(preds, n_bins=np.int64(36)) == mve(preds, n_bins=36)
    with pytest.raises(ValueError, match="n_bins must be >= 1"):
        mve(preds, n_bins=0)


# ------------------------------------------------- earlier array forms, byte for byte
# The metrics as they were written before they worked on x and y planes: with
# np.linalg.norm / np.sum over the length-2 coordinate axis, np.std, and ACFL
# taking every agent against all the others. The plane forms must reproduce
# them bit for bit, not to a tolerance.

def ade_fde_norm(predictions, gt):
    t_obs = predictions.t_obs
    diff = predictions.samples[:, t_obs:, :] - gt[None, t_obs:, :]
    dists = np.linalg.norm(diff, axis=2)  # (K, T_pred)
    return float(dists.mean(axis=1).min()), float(dists[:, -1].min())


def kde_nll_norm(predictions, gt):
    t_obs = predictions.t_obs
    k = predictions.n_samples
    pts = np.ascontiguousarray(predictions.samples[:, t_obs:, :].transpose(1, 0, 2))
    h = np.std(pts, axis=1, ddof=1, keepdims=True) * k ** (-1.0 / 6.0)
    h = np.maximum(h, KDE_BANDWIDTH_FLOOR)  # (T_pred, 1, 2)
    z = (gt[t_obs:, None, :] - pts) / h
    kernels = np.exp(-0.5 * np.sum(z * z, axis=2)) / (2 * math.pi * h[..., 0] * h[..., 1])
    density = np.maximum(kernels.mean(axis=1), KDE_DENSITY_FLOOR)  # (T_pred,)
    return float(np.mean(-np.log(density)))


def sample_headings_norm(predictions):
    t_obs = predictions.t_obs
    steps = np.diff(predictions.samples[:, t_obs:, :], axis=1)  # (K, T_pred-1, 2)
    lengths = np.linalg.norm(steps, axis=2)
    angles = np.arctan2(steps[..., 1], steps[..., 0])
    valid = lengths >= HEADING_EPS
    s = np.where(valid, np.sin(angles), 0.0).sum(axis=1).tolist()
    c = np.where(valid, np.cos(angles), 0.0).sum(axis=1).tolist()
    return np.array([math.atan2(sk, ck) for sk, ck in zip(s, c)])


def nearest_norm(scene_predictions):
    """(A, K) distance from each agent's mode to the nearest mode of any other
    agent at any future frame, each agent taken against all the others."""
    t_obs = scene_predictions[0].t_obs
    futures = np.stack([b.samples[:, t_obs:, :] for b in scene_predictions])  # (A,K,Tp,2)
    nearest = []
    for a in range(futures.shape[0]):
        others = np.delete(futures, a, axis=0)  # (A-1, K, Tp, 2)
        d = np.linalg.norm(futures[a][:, None, None] - others[None], axis=-1)  # (K,A-1,K,Tp)
        nearest.append(d.min(axis=(1, 2, 3)))
    return np.stack(nearest)


def acfl_norm(scene_predictions, threshold):
    nearest = nearest_norm(scene_predictions)
    return int(np.count_nonzero(nearest >= threshold)) / nearest.size


@st.composite
def scenes(draw):
    """A = 2..8 agents of K = 1..20 modes over T_pred = 1..16 frames. Half the
    scenes sit on an integer grid with some agents offset from a shared base
    by 3-4-5 vectors, so pair distances equal to the threshold occur."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_agents, k = draw(st.integers(2, 8)), draw(st.integers(1, 20))
    t_obs, t_pred = draw(st.integers(1, 4)), draw(st.integers(1, 16))
    rng = np.random.default_rng(seed)
    shape = (k, t_obs + t_pred, 2)
    if draw(st.booleans()):
        base = rng.integers(0, 7, size=shape).astype(float)
        offsets = [(3, 4), (4, -3), (0, 5), (-5, 0), (4, 5)]
        samples = [base + offsets[rng.integers(len(offsets))] if rng.random() < 0.5
                   else rng.integers(0, 7, size=shape).astype(float)
                   for _ in range(n_agents)]
    else:
        scale = 10.0 ** rng.uniform(-3, 2)
        samples = [rng.normal(size=shape) * scale for _ in range(n_agents)]
    return [TrajBatch(x, t_obs, t_pred) for x in samples], rng


@settings(deadline=None, max_examples=300)
@given(scene=scenes())
def test_metrics_equal_their_norm_forms_byte_for_byte(scene):
    agents, rng = scene
    nearest = nearest_norm(agents)
    # Thresholds at a few modes' exact nearest distances and one ulp above
    # them put a mode on each side of the >= boundary.
    picks = rng.choice(nearest.ravel(), size=min(3, nearest.size), replace=False)
    thresholds = [1.0, 5.0, *(d for p in picks[picks > 0]
                              for d in (float(p), math.nextafter(float(p), math.inf)))]
    for threshold in thresholds:
        assert acfl(agents, threshold) == acfl_norm(agents, threshold), threshold
    gt = rng.normal(size=(agents[0].n_frames, 2)) * 10.0 ** rng.uniform(-3, 2)
    for b in agents:
        assert np.array(ade_fde(b, gt)).tobytes() == np.array(ade_fde_norm(b, gt)).tobytes()
        assert sample_headings(b).tobytes() == sample_headings_norm(b).tobytes()
        if b.n_samples >= 2:
            assert np.float64(kde_nll(b, gt)).tobytes() == np.float64(kde_nll_norm(b, gt)).tobytes()


def test_acfl_equals_its_norm_form_at_every_exact_nearest_distance():
    # Every mode's own nearest distance, and one ulp above it, as the threshold.
    rng = np.random.default_rng(13)
    agents = [batch(rng.normal(size=(6, T, 2)) * 2.0) for _ in range(4)]
    for d in np.unique(nearest_norm(agents)).tolist():
        for threshold in (d, math.nextafter(d, math.inf)):
            assert acfl(agents, threshold) == acfl_norm(agents, threshold), threshold
    assert type(acfl(agents, 1.0)) is float
