"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL line.

A1  math-core oracles (schedule, noising moments, posterior, loss weighting)
A2  analytic gradients vs central finite differences on 10 seeded tiny nets
A3  guidance efficacy on a trained toy model (guided ECFL >= 0.99 and at
    least one point above unguided, identical seeds)
A4  conditioning exactness over >= 1000 sampled trajectories
A5  distance-transform exactness vs the brute-force oracle
A6  metric implementations vs naive reference implementations
A7  byte-level determinism of prediction and training logs
A8  25-step sampling sanity and linear cost scaling in the step count

The toy model (24 corridor/rooms training scenes, 200 epochs, widths
16/32/64, N = 25) trains in about a minute; the whole module stays far
inside the 15-minute budget. Baseline calibration: train-loss ratio 0.003,
unguided ECFL 0.76, guided ECFL 1.00.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trajdiffuse.cli import main as cli_main
from trajdiffuse.denoiser import DenoiserParams, init_params, save_checkpoint
from trajdiffuse.denoiser.net import backward_from_cache, forward_with_cache
from trajdiffuse.denoiser import ArchDescriptor
from trajdiffuse.diffusion import (
    TrajBatch,
    forward_noise,
    loss_and_grad,
    posterior_mean,
    reverse_step,
)
from trajdiffuse.mapguide import distance_transform
from trajdiffuse.metrics import acfl, ade_fde, ecfl, kde_nll, mve
from trajdiffuse.pipeline import TrainConfig, predict, train
from trajdiffuse.schedule import build_cosine_schedule
from trajdiffuse.synth import IntentOracleConfig, generate_dataset, write_dataset

T_OBS, T_PRED = 8, 12
N_STEPS = 25

DATA_KW = dict(
    size=(32, 32), resolution=0.5, t_obs=T_OBS, t_pred=T_PRED, frame_dt=0.4,
    speed_range=(0.6, 1.4), k_intents=20,
)


@pytest.fixture(scope="module")
def toy_run():
    """Data generation, 200-epoch training, guided + unguided sweeps; timed."""
    wall_start = time.perf_counter()
    train_scenes = generate_dataset(
        ["corridor", "rooms"], n_scenes=24, n_agents=4,
        intent_cfg=IntentOracleConfig(goal_noise_sigma=0.5), seed=100, **DATA_KW,
    )
    cfg = TrainConfig(
        n_epochs=200, batch_size=32, lr=1e-3, n_steps=N_STEPS, seed=0,
        widths=(16, 32, 64), coord_scale=5.0,
    )
    params, log = train(train_scenes, cfg)
    schedule = build_cosine_schedule(N_STEPS)

    test_scenes = generate_dataset(
        ["corridor", "rooms"], n_scenes=20, n_agents=3,
        intent_cfg=IntentOracleConfig(goal_noise_sigma=0.5, diversify=True),
        seed=777, **DATA_KW,
    )

    guided = []
    unguided = []
    for si, scene in enumerate(test_scenes):
        for agent in scene.agents:
            args = (params, agent.trajectory[:T_OBS], agent.intents, scene.env)
            seed = 1000 + si * 31 + agent.agent_id
            guided.append((scene, agent, predict(*args, seed=seed, guidance_steps=10)))
            unguided.append((scene, agent, predict(*args, seed=seed, guidance_steps=0)))
    wall = time.perf_counter() - wall_start
    return {
        "params": params,
        "schedule": schedule,
        "log": log,
        "train_scenes": train_scenes,
        "test_scenes": test_scenes,
        "guided": guided,
        "unguided": unguided,
        "wall_seconds": wall,
    }


# --------------------------------------------------------------------------- A1

def test_a1_math_core_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    # schedule coefficients vs independent cumulative-product recomputation
    sched = build_cosine_schedule(20)
    prod = 1.0
    for i in range(1, 21):
        prod_prev = prod
        prod *= sched.alphas[i - 1]
        sab = np.sqrt(sched.alpha_bars[i - 1])
        s1m = np.sqrt(1.0 - sched.alpha_bars[i - 1])
        var = sched.posterior_vars[i - 1]
        w = sched.loss_weights[i - 1]
        assert abs(sab - math.sqrt(prod)) <= 1e-10
        assert abs(s1m - math.sqrt(1 - prod)) <= 1e-10
        expected_var = (1 - sched.alphas[i - 1]) * (1 - prod_prev) / (1 - prod)
        expected_w = prod_prev * (1 - sched.alphas[i - 1]) ** 2 / (1 - prod) ** 2
        assert abs(var - expected_var) <= 1e-10
        assert abs(w - expected_w) <= 1e-10
    assert sched.posterior_vars[0] == 0.0

    # forward-noise moments against the closed-form marginal (Monte Carlo)
    n = 100_000
    i = 11
    clean_val = np.array([0.8, -1.1])
    clean = np.tile(clean_val, (n, 2, 1))
    noise = rng.standard_normal((n, 2, 2))
    ab = sched.alpha_bars[i - 1]
    noised = forward_noise(clean, np.full(n, i), noise, sched)
    se = math.sqrt((1 - ab) / n)
    assert np.all(np.abs(noised.mean(axis=0) - np.sqrt(ab) * clean_val) < 4 * se)
    assert np.all(np.abs(noised.var(axis=0) - (1 - ab)) < 0.05 * (1 - ab))

    # posterior mean: elementwise scalar recomputation
    x0 = rng.normal(size=(3, 4, 2))
    xi = rng.normal(size=(3, 4, 2))
    i = 7
    out = posterior_mean(x0, xi, i, sched)
    a = sched.alphas[i - 1]
    abi = sched.alpha_bars[i - 1]
    abp = sched.alpha_bars[i - 2]
    expected = (
        math.sqrt(a) * (1 - abp) * xi + math.sqrt(abp) * (1 - a) * x0
    ) / (1 - abi)
    assert np.abs(out - expected).max() <= 1e-10

    # reverse-step variance (Monte Carlo) and the deterministic final step
    i = 9
    x0b = np.zeros((n, 2, 2))
    xib = np.ones((n, 2, 2))
    stepped = reverse_step(xib, x0b, i, sched, rng.standard_normal((n, 2, 2)))
    var = stepped.var(axis=0)
    assert np.all(np.abs(var - sched.posterior_vars[i - 1]) < 0.05 * sched.posterior_vars[i - 1])
    final = reverse_step(xib, x0b, 1, sched, rng.standard_normal((n, 2, 2)) * 1e9)
    assert np.abs(final - x0b).max() == 0.0

    # loss weighting: paper mode = simple mode * lambda / (2 sigma^2)
    p = rng.normal(size=(4, 4, 2))
    q = rng.normal(size=(4, 4, 2))
    i = 10
    steps = np.full(4, i)
    simple, _ = loss_and_grad(p, q, 2, steps, sched, "simple")
    paper, _ = loss_and_grad(p, q, 2, steps, sched, "paper")
    w = sched.loss_weights[i - 1] / (2 * sched.posterior_vars[i - 1])
    assert abs(paper - simple * w) <= 1e-10 * max(1.0, abs(paper))

    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------- A2

def test_a2_gradient_check_ten_seeded_networks():
    start = time.perf_counter()
    desc = ArchDescriptor(
        widths=(4,), kernel_len=5, gn_groups=8, emb_dim=8,
        t_obs=4, t_pred=4, n_steps=10, coord_scale=5.0,
    )
    h = 1e-4
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_params(desc, seed=seed)
        params.tensors["out.w"] = (
            (rng.standard_normal(params.tensors["out.w"].shape) * 0.1)
            .astype(np.float32).astype(np.float64)
        )
        assert params.n_params <= 5000
        x = rng.normal(size=(1, desc.traj_len, 2))
        upstream = rng.normal(size=x.shape)
        i = int(rng.integers(1, desc.n_steps + 1))
        _, cache = forward_with_cache(params, x, i)
        grads, _ = backward_from_cache(params, cache, upstream)
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            g_flat = grads[name].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                yp, _ = forward_with_cache(params, x, i)
                flat[j] = orig - h
                ym, _ = forward_with_cache(params, x, i)
                flat[j] = orig
                fd = float(((yp - ym) * upstream).sum()) / (2 * h)
                rel = abs(g_flat[j] - fd) / max(abs(g_flat[j]) + abs(fd), 1e-3)
                worst = max(worst, rel)
                assert rel < 1e-4, f"seed {seed}, {name}[{j}]"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"


# --------------------------------------------------------------------------- A3

def test_a3_guidance_efficacy_directional(toy_run):
    log = toy_run["log"]
    assert log[-1]["mean_loss"] < 0.25 * log[0]["mean_loss"]

    ecfl_on = np.mean([res.per_sample_ecfl.mean() for _, _, res in toy_run["guided"]])
    ecfl_off = np.mean([res.per_sample_ecfl.mean() for _, _, res in toy_run["unguided"]])
    assert ecfl_on >= 0.99, f"guided ECFL {ecfl_on:.4f}"
    assert ecfl_on >= ecfl_off + 0.01, f"guided {ecfl_on:.4f} vs unguided {ecfl_off:.4f}"
    assert toy_run["wall_seconds"] < 900.0


# --------------------------------------------------------------------------- A4

def test_a4_conditioning_exactness_over_1000_samples(toy_run):
    total = 0
    for scene, agent, result in toy_run["guided"]:
        samples = result.trajectories.samples
        for k, spec in enumerate(agent.intents):
            np.testing.assert_array_equal(samples[k, :T_OBS], agent.trajectory[:T_OBS])
            np.testing.assert_array_equal(samples[k, spec.frames], spec.values)
            total += 1
    assert total >= 1000


# --------------------------------------------------------------------------- A5

def test_a5_distance_transform_exactness_100_grids():
    rng = np.random.default_rng(5)
    for trial in range(100):
        h = int(rng.integers(4, 65))
        w = int(rng.integers(4, 65))
        grid = rng.random((h, w)) < float(rng.uniform(0.15, 0.85))
        if not grid.any():
            grid[rng.integers(h), rng.integers(w)] = True
        res = float(rng.uniform(0.1, 2.0))
        got = distance_transform(grid, res)
        rows, cols = np.nonzero(grid)
        rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        d2 = (rr[..., None] - rows) ** 2 + (cc[..., None] - cols) ** 2
        expected = np.sqrt(d2.min(axis=-1).astype(np.float64)) * res
        np.testing.assert_array_equal(got, expected, err_msg=f"trial {trial}")


# --------------------------------------------------------------------------- A6

def test_a6_metric_oracles():
    rng = np.random.default_rng(6)
    t_obs, t_pred = 4, 6
    t = t_obs + t_pred

    # trivial anchors
    gt = rng.normal(size=(t, 2))
    assert ade_fde(TrajBatch(gt[None], t_obs, t_pred), gt) == (0.0, 0.0)
    n_bins = 8
    headings = -math.pi + (np.arange(n_bins) + 0.5) * (2 * math.pi / n_bins)
    spread = np.stack([
        np.cumsum(np.tile([math.cos(hd), math.sin(hd)], (t, 1)), axis=0) for hd in headings
    ])
    assert mve(TrajBatch(spread, t_obs, t_pred), n_bins=n_bins) == pytest.approx(
        math.log2(n_bins), abs=1e-12
    )

    # randomized fixtures vs naive references
    preds = rng.normal(size=(5, t, 2))
    batch = TrajBatch(preds, t_obs, t_pred)
    ades, fdes = [], []
    for k in range(5):
        ds = [math.dist(preds[k, f], gt[f]) for f in range(t_obs, t)]
        ades.append(sum(ds) / len(ds))
        fdes.append(ds[-1])
    a, f = ade_fde(batch, gt)
    assert abs(a - min(ades)) <= 1e-10 and abs(f - min(fdes)) <= 1e-10

    total = 0.0
    for frame in range(t_obs, t):
        hx = max(np.std(preds[:, frame, 0], ddof=1) * 5 ** (-1 / 6), 1e-3)
        hy = max(np.std(preds[:, frame, 1], ddof=1) * 5 ** (-1 / 6), 1e-3)
        dens = sum(
            math.exp(-0.5 * (((gt[frame, 0] - preds[j, frame, 0]) / hx) ** 2
                             + ((gt[frame, 1] - preds[j, frame, 1]) / hy) ** 2))
            / (2 * math.pi * hx * hy)
            for j in range(5)
        ) / 5
        total += -math.log(max(dens, 1e-12))
    assert abs(kde_nll(batch, gt) - total / t_pred) <= 1e-10

    from trajdiffuse.mapguide import NavEnvironment

    grid = rng.random((10, 10)) < 0.6
    grid[0, 0] = True
    env = NavEnvironment.from_grid(grid, 0.5, origin=(0.0, 0.0))
    free = 0
    for k in range(5):
        ok = True
        for frame in range(t_obs, t):
            px, py = preds[k, frame] / 0.5
            col = int(math.copysign(math.floor(abs(px) + 0.5), px))
            row = int(math.copysign(math.floor(abs(py) + 0.5), py))
            ok = ok and 0 <= row < 10 and 0 <= col < 10 and bool(grid[row, col])
        free += ok
    assert abs(ecfl(batch, env) - free / 5) <= 1e-10

    n_bins = 36
    got_mve = mve(batch, n_bins=n_bins)
    headings = []
    for k in range(5):
        s = c = 0.0
        for frame in range(t_obs, t - 1):
            dx, dy = preds[k, frame + 1] - preds[k, frame]
            if math.hypot(dx, dy) >= 1e-9:
                s += math.sin(math.atan2(dy, dx))
                c += math.cos(math.atan2(dy, dx))
        headings.append(math.atan2(s, c))
    counts = [0] * n_bins
    for hd in headings:
        counts[int((hd + math.pi) // (2 * math.pi / n_bins)) % n_bins] += 1
    entropy = -sum(ci / 5 * math.log2(ci / 5) for ci in counts if ci)
    assert abs(got_mve - entropy) <= 1e-10

    agents = [TrajBatch(rng.uniform(0, 3, size=(2, t, 2)), t_obs, t_pred) for _ in range(3)]
    thr = 1.0
    free = 0
    for a_i in range(3):
        for ka in range(2):
            clear = True
            for b_i in range(3):
                if b_i == a_i:
                    continue
                for kb in range(2):
                    for frame in range(t_obs, t):
                        if math.dist(agents[a_i].samples[ka, frame],
                                     agents[b_i].samples[kb, frame]) < thr:
                            clear = False
            free += clear
    assert abs(acfl(agents, threshold=thr) - free / 6) <= 1e-10


# --------------------------------------------------------------------------- A7

def test_a7_determinism(toy_run, tmp_path):
    # byte-identical CLI prediction runs off a saved checkpoint
    data_dir = tmp_path / "data"
    write_dataset(toy_run["test_scenes"][:2], data_dir)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(toy_run["params"], toy_run["schedule"], ckpt)
    outs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        code = cli_main([
            "predict", "--checkpoint", str(ckpt), "--data", str(data_dir),
            "--out", str(out), "--k", "5", "--guidance", "on", "--seed", "9",
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # training log reproducible per seed
    cfg = TrainConfig(n_epochs=2, batch_size=16, lr=1e-3, n_steps=N_STEPS, seed=3,
                      widths=(8,), coord_scale=5.0)
    subset = toy_run["train_scenes"][:3]
    _, log_a = train(subset, cfg)
    _, log_b = train(subset, cfg)
    assert log_a == log_b


# --------------------------------------------------------------------------- A8

def test_a8_step_count_sanity_and_linear_cost(toy_run):
    # N = 25 completed the A3/A4 runs
    assert toy_run["params"].arch.n_steps == 25
    assert toy_run["schedule"].n_steps == 25
    assert len(toy_run["guided"]) > 0

    scenes = toy_run["test_scenes"][:2]
    tensors = toy_run["params"].tensors

    def run_once(n_steps):
        desc = replace(toy_run["params"].arch, n_steps=n_steps)
        params = DenoiserParams(tensors, desc)
        start = time.perf_counter()
        for si, scene in enumerate(scenes):
            for agent in scene.agents:
                predict(params, agent.trajectory[:T_OBS], agent.intents, scene.env,
                        seed=si, guidance_steps=10)
        return time.perf_counter() - start

    run_once(20)  # warm caches before timing
    t20, t40 = [], []
    for _ in range(3):  # interleaved, so drift in the machine's speed lands on both sides
        t20.append(run_once(20))
        t40.append(run_once(40))
    ratio = np.median(t40) / np.median(t20)
    assert 1.5 <= ratio <= 2.5, f"cost ratio 40/20 steps = {ratio:.2f}"
