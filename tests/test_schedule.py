import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse.diffusion import posterior_mean
from trajdiffuse.schedule import (
    ALPHA_MAX,
    ALPHA_MIN,
    build_cosine_schedule,
    from_alphas,
)


def cosine_profile_oracle(n_steps, offset):
    """Independent scalar recomputation of the clipped cosine schedule."""
    def f(t):
        return math.cos(((t / n_steps) + offset) / (1 + offset) * math.pi / 2) ** 2

    alphas = []
    for i in range(1, n_steps + 1):
        a = (f(i) / f(0)) / (f(i - 1) / f(0))
        a = min(max(a, ALPHA_MIN), ALPHA_MAX)
        alphas.append(a)
    alpha_bars = []
    prod = 1.0
    for a in alphas:
        prod *= a
        alpha_bars.append(prod)
    return alphas, alpha_bars


def test_single_step_degenerate_case():
    s = build_cosine_schedule(1, 0.008)
    assert s.alpha_bars[0] == s.alphas[0]
    assert s.posterior_vars[0] == 0.0


def test_cosine_profile_matches_oracle_elementwise():
    s = build_cosine_schedule(25)
    alphas, alpha_bars = cosine_profile_oracle(25, 0.008)
    np.testing.assert_allclose(s.alphas, alphas, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.alpha_bars, alpha_bars, rtol=0, atol=1e-12)
    assert s.alpha_bars[-1] < 0.01
    assert np.all(np.diff(s.alpha_bars) < 0)


def test_loss_weights_match_closed_form():
    s = build_cosine_schedule(20)
    for i in range(1, 21):
        a = s.alphas[i - 1]
        ab_prev = 1.0 if i == 1 else s.alpha_bars[i - 2]
        ab = s.alpha_bars[i - 1]
        expected = ab_prev * (1 - a) ** 2 / (1 - ab) ** 2
        assert s.loss_weights[i - 1] == pytest.approx(expected, abs=1e-15)


def test_posterior_var_first_step_is_exactly_zero():
    for n in (1, 5, 25):
        assert build_cosine_schedule(n).posterior_vars[0] == 0.0


def test_schedule_vectors_identity_and_midpoint():
    s = build_cosine_schedule(20)
    sab, s1m = np.sqrt(s.alpha_bars[19]), np.sqrt(1.0 - s.alpha_bars[19])
    assert abs(sab**2 + s1m**2 - 1.0) < 1e-12

    sab, s1m = np.sqrt(s.alpha_bars[9]), np.sqrt(1.0 - s.alpha_bars[9])
    var = s.posterior_vars[9]
    # brute-force cumulative product oracle
    prod = 1.0
    for j in range(10):
        prod *= s.alphas[j]
    prod_prev = prod / s.alphas[9]
    assert sab == pytest.approx(math.sqrt(prod), abs=1e-12)
    assert s1m == pytest.approx(math.sqrt(1 - prod), abs=1e-12)
    assert var == pytest.approx((1 - s.alphas[9]) * (1 - prod_prev) / (1 - prod), abs=1e-15)

    assert s.posterior_vars[0] == 0.0


def test_index_and_argument_rejection():
    s = build_cosine_schedule(5)
    x = np.zeros((1, 2, 2))
    with pytest.raises(IndexError):
        posterior_mean(x, x, 0, s)
    with pytest.raises(IndexError):
        posterior_mean(x, x, 6, s)
    with pytest.raises(ValueError):
        build_cosine_schedule(0)
    with pytest.raises(ValueError):
        build_cosine_schedule(10, offset=0.0)
    with pytest.raises(ValueError):
        build_cosine_schedule(10, offset=-1.0)


@settings(deadline=None, max_examples=40)
@given(
    n_steps=st.integers(min_value=1, max_value=200),
    offset=st.floats(min_value=1e-4, max_value=0.05),
)
def test_schedule_invariants(n_steps, offset):
    s = build_cosine_schedule(n_steps, offset)
    assert np.all(s.alpha_bars > 0) and np.all(s.alpha_bars < 1)
    ab_full = np.concatenate(([1.0], s.alpha_bars))
    assert np.all(np.diff(ab_full) < 0)
    np.testing.assert_allclose(s.alpha_bars, s.alpha_bars_prev * s.alphas, rtol=1e-15)
    assert np.all(s.posterior_vars >= 0)
    assert s.posterior_vars[0] == 0.0
    assert np.all(np.isfinite(s.loss_weights)) and np.all(s.loss_weights >= 0)
    sq = np.sqrt(s.alpha_bars) ** 2 + np.sqrt(1.0 - s.alpha_bars) ** 2
    np.testing.assert_allclose(sq, 1.0, atol=1e-12)


def test_from_alphas_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_alphas(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        from_alphas(np.array([]))
