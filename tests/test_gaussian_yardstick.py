"""An exact yardstick for the reverse chain.

For Gaussian data x0 ~ N(mu, Sigma), the ideal clamped denoiser
E[x0 | x_i, clamped frames] is affine in x_i, so the whole chain is affine
plus Gaussian noise and the law of its output can be propagated exactly,
mean and covariance, step by step. These tests rebind
`pipeline.forward_with_cache` to that denoiser, so `pipeline.predict` runs
its own loop unchanged, and check its output against the propagated law.
`test_unguided_predict_matches_ddpm_oracle` stays the byte-level reference.
"""

import numpy as np
import pytest

import trajdiffuse.pipeline as pipeline
from trajdiffuse.denoiser import ArchDescriptor, init_params
from trajdiffuse.diffusion import ConditionSpec
from trajdiffuse.schedule import build_cosine_schedule
from trajdiffuse.synth import IntentOracleConfig, generate_dataset

T_OBS, T_PRED, SCALE, N_STEPS = 8, 12, 5.0, 25
T = T_OBS + T_PRED
CLAMPED = np.r_[np.arange(T_OBS), T - 1]  # the history and the goal
FREE = np.setdiff1d(np.arange(T), CLAMPED)
# The chain's output variance as a share of the true conditional variance, at
# N = 25 steps on this data (ROADMAP item 12). A sampler change restates it.
VARIANCE_SHARE_25 = 0.5476


def _dims(frames):
    return (frames[:, None] * 2 + np.arange(2)).ravel()  # (T, 2) flattened row-major


@pytest.fixture(scope="module")
def gauss():
    """One agent's clamped values and the conditional law N(mu_c, sigma_c) of
    its free frames, standardized, under a Gaussian fitted to synthetic tracks."""
    scenes = generate_dataset(
        ["maze", "corridor", "rooms"], n_scenes=48, n_agents=4, size=(32, 32),
        resolution=0.5, t_obs=T_OBS, t_pred=T_PRED, frame_dt=0.4, speed_range=(0.6, 1.4),
        intent_cfg=IntentOracleConfig(n_waypoints=0), k_intents=1, seed=100,
    )
    tracks = np.stack([agent.trajectory for scene in scenes for agent in scene.agents])
    flat = ((tracks - tracks[:, T_OBS - 1:T_OBS]) / SCALE).reshape(len(tracks), -1)
    mu = flat.mean(axis=0)
    sigma = np.cov(flat, rowvar=False) + 1e-4 * np.eye(2 * T)
    c, f = _dims(CLAMPED), _dims(FREE)
    gain = np.linalg.solve(sigma[np.ix_(c, c)], sigma[np.ix_(c, f)]).T
    mu_c = mu[f] + gain @ (flat[0, c] - mu[c])
    sigma_c = sigma[np.ix_(f, f)] - gain @ sigma[np.ix_(c, f)]
    return tracks[0], mu_c, (sigma_c + sigma_c.T) / 2


def _posterior(sched, i, sigma_c):
    """sqrt(ab_i) and the gain G_i of E[x0 | x_i] = mu_c + G_i (x_i - sqrt(ab_i) mu_c)."""
    ab = sched.alpha_bars[i - 1]
    noisy = ab * sigma_c + (1 - ab) * np.eye(len(sigma_c))
    return np.sqrt(ab), np.sqrt(ab) * np.linalg.solve(noisy, sigma_c).T


def propagate(n_steps, mu_c, sigma_c, exact_variance=False):
    """Mean and covariance of the chain's output over the free dimensions.

    The chain starts from N(0, I) and adds sigma_q^2(i) I per step, as
    `predict` does. With `exact_variance` it starts from the true marginal
    q(x_N) and adds the exact reverse variance sigma_q^2 I + c2^2 Cov[x0 | x_i],
    so every step is the true q(x_{i-1} | x_i) and the output is N(mu_c, sigma_c).
    """
    sched = build_cosine_schedule(n_steps)
    eye = np.eye(len(mu_c))
    ab_n = sched.alpha_bars[-1]
    m, cov = ((np.sqrt(ab_n) * mu_c, ab_n * sigma_c + (1 - ab_n) * eye) if exact_variance
              else (np.zeros(len(mu_c)), eye))
    for i in range(n_steps, 0, -1):
        a, ab, ab_prev = sched.alphas[i - 1], sched.alpha_bars[i - 1], sched.alpha_bars_prev[i - 1]
        c1 = np.sqrt(a) * (1 - ab_prev) / (1 - ab)  # posterior_mean's coefficients
        c2 = np.sqrt(ab_prev) * (1 - a) / (1 - ab)
        root_ab, gain = _posterior(sched, i, sigma_c)
        step = c1 * eye + c2 * gain
        m = step @ m + c2 * (mu_c - root_ab * gain @ mu_c)
        cov = step @ cov @ step.T + sched.posterior_vars[i - 1] * eye
        if exact_variance:
            cov += c2 ** 2 * (sigma_c - root_ab * gain @ sigma_c)
        cov = (cov + cov.T) / 2
    return m, cov


def kl_to(m, cov, mu_c, sigma_c):
    """KL(N(m, cov) || N(mu_c, sigma_c))."""
    diff = mu_c - m
    return 0.5 * (np.trace(np.linalg.solve(sigma_c, cov)) + diff @ np.linalg.solve(sigma_c, diff)
                  - len(m) + np.linalg.slogdet(sigma_c)[1] - np.linalg.slogdet(cov)[1])


def test_unguided_predict_matches_the_propagated_law(gauss, monkeypatch):
    track, mu_c, sigma_c = gauss
    sched = build_cosine_schedule(N_STEPS)
    posteriors = {i: _posterior(sched, i, sigma_c) for i in range(1, N_STEPS + 1)}

    def gaussian_denoiser(params, x, i, keep_cache=True):
        root_ab, gain = posteriors[i]
        free = x[:, FREE, :].reshape(len(x), -1)
        out = x.copy()  # the clamped frames hold their clean values
        out[:, FREE, :] = (mu_c + (free - root_ab * mu_c) @ gain.T).reshape(len(x), -1, 2)
        return out, None

    monkeypatch.setattr(pipeline, "forward_with_cache", gaussian_denoiser)
    desc = ArchDescriptor(widths=(4,), kernel_len=3, gn_groups=2, emb_dim=4, t_obs=T_OBS,
                          t_pred=T_PRED, n_steps=N_STEPS, coord_scale=SCALE)
    k = 3000
    spec = ConditionSpec(CLAMPED, track[CLAMPED])
    samples = pipeline.predict(init_params(desc, seed=0), track[:T_OBS], [spec] * k,
                               seed=3, guidance_steps=0).trajectories.samples
    z = ((samples - track[T_OBS - 1]) / SCALE)[:, FREE, :].reshape(k, -1)

    def worst_z(m, cov):
        """Largest Monte Carlo z-score of the sample mean and covariance against (m, cov)."""
        var = np.diag(cov)
        mean_z = (z.mean(axis=0) - m) / np.sqrt(var / k)
        cov_z = (np.cov(z, rowvar=False) - cov) / np.sqrt((np.outer(var, var) + cov ** 2) / k)
        return max(np.abs(mean_z).max(), np.abs(cov_z).max())

    assert worst_z(*propagate(N_STEPS, mu_c, sigma_c)) < 4.5
    assert worst_z(mu_c, sigma_c) > 20  # and the test can tell the chain from the true law


def test_the_exact_reverse_variance_reproduces_the_conditional_law(gauss):
    _, mu_c, sigma_c = gauss
    for n_steps in (5, N_STEPS):
        m, cov = propagate(n_steps, mu_c, sigma_c, exact_variance=True)
        assert abs(kl_to(m, cov, mu_c, sigma_c)) < 1e-9


def test_the_chain_draws_about_half_the_conditional_variance_at_25_steps(gauss):
    _, mu_c, sigma_c = gauss
    m, cov = propagate(N_STEPS, mu_c, sigma_c)
    np.testing.assert_allclose(m, mu_c, rtol=0, atol=1e-6)  # the mean is right
    assert np.trace(cov) / np.trace(sigma_c) == pytest.approx(VARIANCE_SHARE_25, abs=5e-4)
    shares = [np.trace(propagate(n, mu_c, sigma_c)[1]) / np.trace(sigma_c) for n in (100, 400)]
    assert VARIANCE_SHARE_25 < shares[0] < shares[1] < 1  # more steps, less under-dispersion
