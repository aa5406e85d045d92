import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse.denoiser import ArchDescriptor, forward_with_cache, init_params
from trajdiffuse.diffusion import (
    ConditionSpec,
    check_intents,
    clamp_frames_batch,
    forward_noise,
    loss_and_grad,
    posterior_mean,
    reverse_step,
)
from trajdiffuse.schedule import build_cosine_schedule

T_OBS, T_PRED = 8, 12
T = T_OBS + T_PRED


def make_batch(rng, k=4):
    return rng.normal(size=(k, T, 2))


def make_cond(rng, values=None):
    frames = list(range(T_OBS)) + [11, 15, T - 1]
    if values is None:  # draw order: history, waypoints, goal
        anchors = np.vstack([rng.normal(size=(T_OBS, 2)), rng.normal(size=(2, 2)),
                             rng.normal(size=2)])
    else:
        anchors = values[frames]
    return ConditionSpec(frames, anchors)


def clamp(traj, cond):
    """Clamp every sample of traj to the spec's values."""
    values = np.broadcast_to(cond.values, (traj.shape[0],) + cond.values.shape)
    return clamp_frames_batch(traj, cond.frames, values)


def batch_loss(pred, target, i, sched, weighting="simple"):
    """Batch loss at one step index shared by every sample."""
    loss, _ = loss_and_grad(pred, target, T_OBS, np.full(pred.shape[0], i), sched, weighting)
    return loss


# ---------------------------------------------------------------- forward_noise

def test_forward_noise_zero_noise():
    rng = np.random.default_rng(0)
    clean = make_batch(rng)
    sched = build_cosine_schedule(20)
    out = forward_noise(clean, np.full(len(clean), 7), np.zeros_like(clean), sched)
    np.testing.assert_array_equal(out, np.sqrt(sched.alpha_bars[6]) * clean)


def test_forward_noise_zero_signal_single_step():
    rng = np.random.default_rng(1)
    sched = build_cosine_schedule(1)
    clean = np.zeros((3, T, 2))
    noise = rng.normal(size=(3, T, 2))
    out = forward_noise(clean, np.full(3, 1), noise, sched)
    np.testing.assert_array_equal(out, np.sqrt(1 - sched.alpha_bars[0]) * noise)


def test_forward_noise_marginal_moments_monte_carlo():
    # statistical oracle for the stated Gaussian marginal
    rng = np.random.default_rng(2)
    sched = build_cosine_schedule(20)
    i = 9
    clean_val = np.array([1.5, -0.7])
    n = 100_000
    clean = np.tile(clean_val, (n, 2, 1))
    noise = rng.standard_normal((n, 2, 2))
    out = forward_noise(clean, np.full(n, i), noise, sched)
    ab = sched.alpha_bars[i - 1]
    mean = out.mean(axis=0)
    var = out.var(axis=0)
    se = np.sqrt((1 - ab) / n)
    assert np.all(np.abs(mean - np.sqrt(ab) * clean_val) < 4 * se)
    assert np.all(np.abs(var - (1 - ab)) < 0.05 * (1 - ab))


def test_forward_noise_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    clean = make_batch(rng)
    sched = build_cosine_schedule(10)
    with pytest.raises(ValueError):
        forward_noise(clean, np.full(4, 3), np.zeros((2, T, 2)), sched)
    with pytest.raises(ValueError):  # one step per sample, not one for the batch
        forward_noise(clean, 3, np.zeros_like(clean), sched)
    with pytest.raises(IndexError):
        forward_noise(clean, np.full(4, 11), np.zeros_like(clean), sched)
    with pytest.raises(IndexError):
        forward_noise(clean, np.array([3, 11, 5, 1]), np.zeros_like(clean), sched)
    with pytest.raises(IndexError):
        forward_noise(clean, np.array([0, 2, 5, 1]), np.zeros_like(clean), sched)
    with pytest.raises(ValueError):
        forward_noise(clean, np.array([3, 5]), np.zeros_like(clean), sched)


def test_forward_noise_per_sample_steps_match_single_row_calls():
    rng = np.random.default_rng(21)
    sched = build_cosine_schedule(10)
    clean = make_batch(rng, k=5)
    noise = rng.normal(size=clean.shape)
    steps = np.array([1, 4, 10, 4, 7])
    out = forward_noise(clean, steps, noise, sched)
    for row, i in enumerate(steps):
        single = forward_noise(clean[row:row + 1], steps[row:row + 1], noise[row:row + 1], sched)
        np.testing.assert_array_equal(out[row:row + 1], single)


def test_iterated_single_steps_match_marginal():
    # iterate the one-step kernel i times and compare moments to the marginal
    rng = np.random.default_rng(4)
    sched = build_cosine_schedule(10)
    i = 6
    n = 100_000
    x = np.full((n,), 0.9)
    for j in range(1, i + 1):
        a = sched.alphas[j - 1]
        x = np.sqrt(a) * x + np.sqrt(1 - a) * rng.standard_normal(n)
    ab = sched.alpha_bars[i - 1]
    assert abs(x.mean() - np.sqrt(ab) * 0.9) < 4 * np.sqrt((1 - ab) / n)
    assert abs(x.var() - (1 - ab)) < 0.05 * (1 - ab)


# ------------------------------------------------------------ clamp_frames_batch

def test_full_clamp_overwrites_everything():
    rng = np.random.default_rng(5)
    traj = make_batch(rng)
    values = rng.normal(size=(T, 2))
    cond = ConditionSpec(np.arange(T), values)
    out = clamp(traj, cond)
    for k in range(traj.shape[0]):
        np.testing.assert_array_equal(out[k], values)


def test_idempotent_clamp_with_own_values():
    rng = np.random.default_rng(6)
    traj = rng.normal(size=(1, T, 2))
    cond = make_cond(rng, values=traj[0])
    out = clamp(traj, cond)
    np.testing.assert_array_equal(out, traj)


def test_clamped_and_unclamped_frames():
    rng = np.random.default_rng(7)
    traj = make_batch(rng)
    cond = make_cond(rng)
    out = clamp(traj, cond)
    clamped = set(cond.frames.tolist())
    for t in range(T):
        if t in clamped:
            j = cond.frames.tolist().index(t)
            for k in range(traj.shape[0]):
                np.testing.assert_array_equal(out[k, t], cond.values[j])
        else:
            np.testing.assert_array_equal(out[:, t], traj[:, t])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_conditioning_idempotence(seed):
    rng = np.random.default_rng(seed)
    traj = make_batch(rng, k=2)
    cond = make_cond(rng)
    once = clamp(traj, cond)
    twice = clamp(once, cond)
    np.testing.assert_array_equal(once, twice)


def check_one(frames, values, history):
    """check_intents on a single intent."""
    check_intents([ConditionSpec(frames, values)], history, T_PRED)


def test_condition_spec_validation():
    rng = np.random.default_rng(8)
    history = rng.normal(size=(T_OBS, 2))
    with pytest.raises(ValueError):
        # missing goal frame
        check_one(np.arange(T_OBS), rng.normal(size=(T_OBS, 2)), history)
    with pytest.raises(ValueError):
        # waypoint on the goal frame, outside the prediction window
        check_one(list(range(T_OBS)) + [T - 1, T - 1], rng.normal(size=(T_OBS + 2, 2)), history)
    with pytest.raises(IndexError):
        check_one(np.concatenate([np.arange(T_OBS), [T + 3]]), rng.normal(size=(T_OBS + 1, 2)),
                  history)


HISTORY = list(range(T_OBS))


@pytest.mark.parametrize("frames, n_values, error, message", [
    (HISTORY + [9, 9, 19], 11, ValueError, "clamp frames must be sorted and distinct"),
    (HISTORY + [10, 9, 19], 11, ValueError, "clamp frames must be sorted and distinct"),
    ([-1] + HISTORY + [19], 10, IndexError, "clamp frame out of range 0..19"),
    (HISTORY + [20], 9, IndexError, "clamp frame out of range 0..19"),
    (HISTORY[:-1] + [8, 19], 9, ValueError, "every observed frame 0..t_obs-1 must be clamped"),
    (HISTORY[:-1], 7, ValueError, "every observed frame 0..t_obs-1 must be clamped"),
    (HISTORY + [18], 9, ValueError, "the goal frame (last frame) must be clamped"),
    (HISTORY + [19], 8, ValueError, "frames and values must align one-to-one"),
])
def test_condition_spec_frame_errors(frames, n_values, error, message):
    with pytest.raises(error, match=re.escape(message)):
        check_one(np.array(frames, dtype=np.intp), np.zeros((n_values, 2)), np.zeros((T_OBS, 2)))


GOOD_FRAMES = HISTORY + [12, T - 1]


@pytest.mark.parametrize("values, message", [
    (np.zeros((len(GOOD_FRAMES), 3)), "clamp values has shape (10, 3), expected (None, 2)"),
    (np.zeros(len(GOOD_FRAMES)), "clamp values must have 2 dimensions, got 1"),
], ids=["three-columns", "one-dimensional"])
def test_check_intents_names_a_bad_values_shape(values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_one(GOOD_FRAMES, values, np.zeros((T_OBS, 2)))


def test_check_intents_compares_the_k_intents():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(len(GOOD_FRAMES), 2))
    good = ConditionSpec(GOOD_FRAMES, values)
    history = values[:T_OBS]
    check_intents([good] * 3, history, T_PRED)
    other = ConditionSpec(HISTORY + [13, T - 1], values)
    with pytest.raises(ValueError, match="intents do not share one clamp-frame layout"):
        check_intents([good, other, good], history, T_PRED)
    with pytest.raises(ValueError, match="intent history does not match"):
        check_intents([good, good], history + 1e-12, T_PRED)
    moved = values.copy()
    moved[3] += 1.0
    with pytest.raises(ValueError, match="intent history does not match"):
        check_intents([good, ConditionSpec(GOOD_FRAMES, moved)], history, T_PRED)
    # a bad layout in a later intent is named by the rule it breaks
    late = ConditionSpec(HISTORY + [T], values)
    with pytest.raises(IndexError, match=re.escape(f"clamp frame out of range 0..{T - 1}")):
        check_intents([good, late], history, T_PRED)


def test_check_intents_needs_at_least_one_intent():
    with pytest.raises(ValueError, match="request carries no intents"):
        check_intents([], np.zeros((T_OBS, 2)), T_PRED)


def test_condition_spec_holds_two_arrays_and_checks_no_layout():
    assert [f.name for f in dataclasses.fields(ConditionSpec)] == ["frames", "values"]
    spec = ConditionSpec([5, 3], [[1.0, 2.0, 3.0]])  # typed and frozen, not a valid layout
    assert spec.frames.dtype == np.intp and spec.values.dtype == np.float64
    with pytest.raises(ValueError, match="frames and values must align one-to-one"):
        check_intents([ConditionSpec([[0, 1]], np.zeros((2, 2)))], np.zeros((2, 2)), 2)


@pytest.mark.parametrize("frames", [
    HISTORY + [12.5, 19],
    HISTORY + [12.0, 19],
    HISTORY[:-1] + [True, 12, 19],
    np.array(HISTORY + [12, 19], dtype=np.float64),
    [True] * 10,
], ids=["fraction", "integral-float", "bool-in-list", "float-array", "all-bool"])
def test_condition_spec_frames_must_be_integers(frames):
    with pytest.raises(ValueError, match="clamp frames must be integers"):
        ConditionSpec(frames, np.zeros((len(frames), 2)))


def test_condition_spec_copies_the_callers_arrays():
    rng = np.random.default_rng(12)
    frames = np.concatenate([np.arange(T_OBS), [12, T - 1]]).astype(np.intp)
    values = rng.normal(size=(frames.size, 2))
    cond = ConditionSpec(frames, values)
    assert frames.flags.writeable and values.flags.writeable
    assert not cond.frames.flags.writeable and not cond.values.flags.writeable
    kept_frames, kept_values = cond.frames.copy(), cond.values.copy()
    frames[-2] = 13
    values[:] = 0.0
    np.testing.assert_array_equal(cond.frames, kept_frames)
    np.testing.assert_array_equal(cond.values, kept_values)


# ---------------------------------------------------------------- posterior_mean

def test_posterior_mean_collapses_at_step_one():
    rng = np.random.default_rng(9)
    sched = build_cosine_schedule(20)
    x0 = make_batch(rng)
    xi = make_batch(rng)
    out = posterior_mean(x0, xi, 1, sched)
    np.testing.assert_allclose(out, x0, rtol=0, atol=1e-15)


def test_posterior_mean_matches_scalar_recomputation():
    rng = np.random.default_rng(10)
    sched = build_cosine_schedule(20)
    x0 = make_batch(rng, k=2)
    xi = make_batch(rng, k=2)
    i = 7
    out = posterior_mean(x0, xi, i, sched)
    a = sched.alphas[i - 1]
    ab = sched.alpha_bars[i - 1]
    ab_prev = sched.alpha_bars[i - 2]
    for k in range(2):
        for t in range(T):
            for d in range(2):
                expected = (
                    np.sqrt(a) * (1 - ab_prev) * xi[k, t, d]
                    + np.sqrt(ab_prev) * (1 - a) * x0[k, t, d]
                ) / (1 - ab)
                assert out[k, t, d] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------------ reverse_step

def test_reverse_step_is_deterministic_at_step_one():
    rng = np.random.default_rng(11)
    sched = build_cosine_schedule(20)
    x0 = make_batch(rng)
    xi = make_batch(rng)
    out = reverse_step(xi, x0, 1, sched, rng.normal(size=xi.shape) * 1e6)
    np.testing.assert_allclose(out, x0, rtol=0, atol=1e-15)


def test_reverse_step_zero_noise_gives_posterior_mean():
    rng = np.random.default_rng(12)
    sched = build_cosine_schedule(20)
    x0, xi = make_batch(rng), make_batch(rng)
    out = reverse_step(xi, x0, 5, sched, np.zeros_like(xi))
    np.testing.assert_array_equal(out, posterior_mean(x0, xi, 5, sched))


def test_reverse_step_variance_monte_carlo():
    rng = np.random.default_rng(13)
    sched = build_cosine_schedule(20)
    i = 8
    n = 100_000
    x0 = np.zeros((n, 2, 2))
    xi = np.ones((n, 2, 2))
    noise = rng.standard_normal((n, 2, 2))
    out = reverse_step(xi, x0, i, sched, noise)
    var = out.var(axis=0)
    expected = sched.posterior_vars[i - 1]
    assert np.all(np.abs(var - expected) < 0.05 * expected)


def test_reverse_step_determinism():
    rng = np.random.default_rng(14)
    sched = build_cosine_schedule(20)
    x0, xi = make_batch(rng), make_batch(rng)
    noise = rng.normal(size=xi.shape)
    a = reverse_step(xi, x0, 9, sched, noise)
    b = reverse_step(xi, x0, 9, sched, noise)
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------- loss_and_grad

def test_loss_zero_for_perfect_prediction():
    rng = np.random.default_rng(15)
    sched = build_cosine_schedule(20)
    x = make_batch(rng)
    assert batch_loss(x, x, 5, sched) == 0.0


def test_simple_loss_constant_offset():
    rng = np.random.default_rng(16)
    sched = build_cosine_schedule(20)
    x = make_batch(rng)
    d = 0.37
    pred = x.copy()
    pred[:, T_OBS:, :] += d
    assert batch_loss(pred, x, 5, sched) == pytest.approx(d * d, rel=1e-12)


def test_paper_loss_is_weighted_simple_loss():
    rng = np.random.default_rng(17)
    sched = build_cosine_schedule(20)
    x, pred = make_batch(rng), make_batch(rng)
    i = 10
    simple = batch_loss(pred, x, i, sched, "simple")
    paper = batch_loss(pred, x, i, sched, "paper")
    w = sched.loss_weights[i - 1] / (2 * sched.posterior_vars[i - 1])
    assert paper == pytest.approx(simple * w, rel=1e-12)


def test_paper_loss_rejects_first_step():
    rng = np.random.default_rng(18)
    sched = build_cosine_schedule(20)
    x = make_batch(rng)
    with pytest.raises(ValueError, match=re.escape("paper weighting requires i >= 2")):
        batch_loss(x, x, 1, sched, "paper")


def test_loss_ignores_observed_frames():
    rng = np.random.default_rng(19)
    sched = build_cosine_schedule(20)
    x = make_batch(rng)
    pred = x.copy()
    pred[:, :T_OBS, :] += 100.0
    assert batch_loss(pred, x, 5, sched) == 0.0


def test_loss_and_grad_matches_finite_difference():
    rng = np.random.default_rng(20)
    sched = build_cosine_schedule(20)
    target = rng.normal(size=(3, T, 2))
    pred = rng.normal(size=(3, T, 2))
    i_steps = np.array([3, 10, 17])
    loss, grad = loss_and_grad(pred, target, T_OBS, i_steps, sched, "paper")
    h = 1e-6
    for idx in [(0, 2, 0), (1, T_OBS, 1), (2, T - 1, 0)]:
        p = pred.copy()
        p[idx] += h
        lp, _ = loss_and_grad(p, target, T_OBS, i_steps, sched, "paper")
        p[idx] -= 2 * h
        lm, _ = loss_and_grad(p, target, T_OBS, i_steps, sched, "paper")
        fd = (lp - lm) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)
    assert np.all(grad[:, :T_OBS, :] == 0.0)



LOSS_INPUT_ERRORS = {
    "target-shape": ({"target": np.zeros((1, T, 2))}, ValueError, "does not match"),
    "t_obs-negative": ({"t_obs": -1}, ValueError, "t_obs -1 out of range"),
    "t_obs-past-end": ({"t_obs": T}, ValueError, f"t_obs {T} out of range"),
    "step-above-n": ({"i_steps": np.array([9, 2, 3, 4])}, IndexError, "out of range 1..5"),
    "step-zero": ({"i_steps": np.array([0, 2, 3, 4])}, IndexError, "out of range 1..5"),
    "steps-length": ({"i_steps": np.array([1, 2])}, ValueError, r"expected \(4,\)"),
    "steps-float": ({"i_steps": np.array([1.0, 2.0, 3.0, 4.0])}, ValueError,
                    "steps must be integers, got dtype float64"),
    "weighting-unknown": ({"weighting": "mse"}, ValueError, "unknown weighting 'mse'"),
}


@pytest.mark.parametrize("case", sorted(LOSS_INPUT_ERRORS))
def test_loss_and_grad_rejects_bad_inputs(case):
    override, error, match = LOSS_INPUT_ERRORS[case]
    pred = make_batch(np.random.default_rng(21))
    args = {"pred": pred, "target": pred.copy(), "t_obs": T_OBS,
            "i_steps": np.array([1, 2, 3, 4]), "schedule": build_cosine_schedule(5)}
    with pytest.raises(error, match=match):
        loss_and_grad(**{**args, **override})


# ------------------------------------------------------------------- step index

STEP_NET = init_params(ArchDescriptor(widths=(4,), emb_dim=8, t_obs=4, t_pred=4, n_steps=10))
STEP_X = np.zeros((2, 8, 2))
STEP_SCHED = build_cosine_schedule(10)
STEP_CALLS = {  # each entry point that takes steps, as a function of one step value
    "forward_with_cache": lambda i: forward_with_cache(STEP_NET, STEP_X, i),
    "forward_with_cache-per-sample": lambda i: forward_with_cache(STEP_NET, STEP_X,
                                                                  np.full(2, i)),
    "reverse_step": lambda i: reverse_step(STEP_X, STEP_X, i, STEP_SCHED, STEP_X),
    "posterior_mean": lambda i: posterior_mean(STEP_X, STEP_X, i, STEP_SCHED),
    "forward_noise": lambda i: forward_noise(STEP_X, np.full(2, i), STEP_X, STEP_SCHED),
    "loss_and_grad": lambda i: loss_and_grad(STEP_X, STEP_X, 4, np.full(2, i), STEP_SCHED),
}


@pytest.mark.parametrize("step, error, match", [
    (2.7, ValueError, "integer"),
    (True, ValueError, "integer"),
    (0, IndexError, "out of range 1..10"),
    (11, IndexError, "out of range 1..10"),
])
@pytest.mark.parametrize("call", sorted(STEP_CALLS))
def test_every_step_entry_point_applies_one_rule(call, step, error, match):
    STEP_CALLS[call](3)
    with pytest.raises(error, match=match):
        STEP_CALLS[call](step)
