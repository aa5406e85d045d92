import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from trajdiffuse.denoiser import (
    ArchDescriptor,
    backward_from_cache,
    forward_with_cache,
    init_params,
)
from trajdiffuse.diffusion import ConditionSpec
from trajdiffuse.mapguide import NavEnvironment, ecfl_check
from trajdiffuse.pipeline import TrainConfig, predict, train
from trajdiffuse.schedule import build_cosine_schedule
from trajdiffuse.synth import AgentTrack, Scene, read_dataset, write_dataset

T_OBS, T_PRED = 4, 4
T = T_OBS + T_PRED
TINY_TRAIN = dict(
    n_epochs=3, batch_size=8, lr=1e-3, n_steps=5, seed=0,
    widths=(4,), kernel_len=3, gn_groups=2, emb_dim=8, coord_scale=2.0,
)


def open_env():
    grid = np.ones((24, 24), dtype=bool)
    grid[:2] = grid[-2:] = False
    grid[:, :2] = grid[:, -2:] = False
    return NavEnvironment(grid, 0.5, origin=(0.0, 0.0))


def straight_track(rng, agent_id):
    start = rng.uniform(2.0, 6.0, size=2)
    step = rng.uniform(-0.5, 0.5, size=2)
    traj = start + np.arange(T)[:, None] * step
    frames = list(range(T_OBS)) + [T_OBS + 1, T - 1]
    cond = ConditionSpec(frames, traj[frames])
    return AgentTrack(agent_id, traj, [cond])


def tiny_scenes(n_scenes=2, n_agents=4, seed=0):
    rng = np.random.default_rng(seed)
    env = open_env()
    return [
        Scene(f"scene_{s:04d}", env, [straight_track(rng, a) for a in range(n_agents)],
              T_OBS, T_PRED, 0.4)
        for s in range(n_scenes)
    ]


@pytest.fixture(scope="module")
def fitted():
    scenes = tiny_scenes()
    params, log = train(scenes, TrainConfig(**TINY_TRAIN))
    return scenes, params


def make_request(scenes, seed=0, guidance=True, k=3):
    """Keyword arguments of `predict` for the first agent, K copies of its intent."""
    agent = scenes[0].agents[0]
    intents = agent.intents * k if len(agent.intents) == 1 else agent.intents[:k]
    return dict(
        observed=agent.trajectory[:T_OBS], intents=list(intents),
        env=scenes[0].env, seed=seed, guidance_steps=10 if guidance else 0,
    )


# -------------------------------------------------------------------- predict

def test_predict_is_bit_reproducible(fitted):
    scenes, params = fitted
    for guidance in (False, True):
        req = make_request(scenes, guidance=guidance)
        a = predict(params, **req)
        b = predict(params, **req)
        np.testing.assert_array_equal(a.trajectories.samples, b.trajectories.samples)
        np.testing.assert_array_equal(a.per_sample_ecfl, b.per_sample_ecfl)


def test_default_streams_differ_per_sample(fitted):
    scenes, params = fitted
    req = make_request(scenes, k=3)
    out = predict(params, **req).trajectories.samples
    assert np.abs(out[0] - out[1]).max() > 0


def test_observed_history_and_goal_are_bit_exact(fitted):
    scenes, params = fitted
    agent = scenes[0].agents[0]
    req = make_request(scenes, k=3)
    out = predict(params, **req).trajectories.samples
    spec = agent.intents[0]
    for j in range(3):
        np.testing.assert_array_equal(out[j, :T_OBS], agent.trajectory[:T_OBS])
        np.testing.assert_array_equal(out[j, T - 1], spec.values[-1])
        # the interior waypoint anchor is exact, too
        np.testing.assert_array_equal(out[j, T_OBS + 1], spec.values[T_OBS])


def test_seed_isolation_changes_only_unclamped_frames(fitted):
    scenes, params = fitted
    a = predict(params, **make_request(scenes, seed=0)).trajectories.samples
    b = predict(params, **make_request(scenes, seed=1)).trajectories.samples
    clamped = scenes[0].agents[0].intents[0].frames
    np.testing.assert_array_equal(a[:, clamped], b[:, clamped])
    free = [t for t in range(T) if t not in set(clamped.tolist())]
    assert np.abs(a[:, free] - b[:, free]).max() > 0


def test_guidance_flag_changes_only_unclamped_frames(fitted):
    scenes, params = fitted
    on = predict(params, **make_request(scenes, guidance=True)).trajectories.samples
    off = predict(params, **make_request(scenes, guidance=False)).trajectories.samples
    clamped = scenes[0].agents[0].intents[0].frames
    np.testing.assert_array_equal(on[:, clamped], off[:, clamped])


def test_predict_validation_errors(fitted):
    scenes, params = fitted
    req = make_request(scenes)
    req["env"] = None
    with pytest.raises(ValueError, match="guidance requires an environment"):
        predict(params, **req)
    bad = make_request(scenes)
    bad["observed"] = bad["observed"] + 1.0
    with pytest.raises(ValueError, match="history does not match"):
        predict(params, **bad)
    bad = make_request(scenes)
    bad["guidance_steps"] = -1
    with pytest.raises(ValueError, match="guidance_steps must be >= 0, got -1"):
        predict(params, **bad)
    nan_params = type(params)(
        {k: v.copy() for k, v in params.tensors.items()}, params.arch
    )
    nan_params.tensors["out.w"][0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        predict(nan_params, **make_request(scenes))


def test_predict_needs_at_least_one_intent(fitted):
    scenes, params = fitted
    with pytest.raises(ValueError, match="request carries no intents"):
        predict(params, **{**make_request(scenes), "intents": []})


@pytest.mark.parametrize("seed, error", [
    (2.7, "seed must be an integer, got 2.7"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be >= 0, got -1"),
])
def test_predict_seed_is_a_non_negative_integer(fitted, seed, error):
    scenes, params = fitted
    with pytest.raises(ValueError, match=re.escape(error)):
        predict(params, **make_request(scenes, seed=seed))


def test_unguided_predict_flags_samples_and_needs_no_environment(fitted):
    scenes, params = fitted
    req = make_request(scenes, guidance=False, k=3)
    with_env = predict(params, **req)
    flags = ecfl_check(req["env"], with_env.trajectories.samples, T_OBS)
    np.testing.assert_array_equal(with_env.per_sample_ecfl, flags)
    without = predict(params, **{**req, "env": None})
    assert without.per_sample_ecfl is None
    np.testing.assert_array_equal(without.trajectories.samples, with_env.trajectories.samples)


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "unguided"])
def test_predict_calls_the_names_the_benchmark_traces(fitted, monkeypatch, guided):
    """perfbench times predict by rebinding `pipeline.forward_with_cache` and
    `pipeline.guidance_delta`, reading x from args[1] and t_obs from args[2],
    and counts guidance's checks and descent steps by rebinding
    `NavEnvironment.is_navigable_point` and `mapguide.sample_gradient`; a
    predict that bypassed any of these names would leave its spans or
    counters empty."""
    import trajdiffuse.mapguide as mapguide
    import trajdiffuse.pipeline as pipeline

    scenes, params = fitted
    traced = {"forward_with_cache": pipeline, "guidance_delta": pipeline,
              "is_navigable_point": NavEnvironment, "sample_gradient": mapguide}
    calls = {name: [] for name in traced}
    for name, owner in traced.items():
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    k, n_steps = 3, params.arch.n_steps
    predict(params, **make_request(scenes, guidance=guided, k=k))

    assert len(calls["forward_with_cache"]) == n_steps
    assert all(args[1].shape == (k, T, 2) for args in calls["forward_with_cache"])
    if guided:
        assert len(calls["guidance_delta"]) == k * n_steps
        assert all(args[2] == T_OBS for args in calls["guidance_delta"])
        assert calls["is_navigable_point"] and calls["sample_gradient"]
    else:
        assert calls["guidance_delta"] == calls["is_navigable_point"] == []
        assert calls["sample_gradient"] == []


def _set(key, index, value, intents=slice(None)):
    """An edit that sets frames[index], or the x of values[index], in the chosen intents."""
    def edit(raw):
        for spec in raw[intents]:
            if key == "frames":
                spec["frames"][index] = value
            else:
                spec["values"][index][0] = value
    return edit


def _layout(frames, intents=slice(None)):
    """An edit that gives the chosen intents `frames`, each keeping its value
    of every frame it shares and taking the goal's value for a new one."""
    def edit(raw):
        for spec in raw[intents]:
            by_frame = dict(zip(spec["frames"], spec["values"]))
            spec["frames"] = list(frames)
            spec["values"] = [by_frame.get(f, spec["values"][-1]) for f in frames]
    return edit


def _drop_last_value(raw):
    for spec in raw:
        spec["values"].pop()


# The layout of `straight_track` is [0, 1, 2, 3, 5, 7]: history, a waypoint, the goal.
CLAMP_SET_FAULTS = [
    pytest.param(_set("frames", 4, 5.0), ValueError, "clamp frames must be integers",
                 id="float-frame"),
    pytest.param(_set("frames", 1, True), ValueError, "clamp frames must be integers",
                 id="bool-frame"),
    pytest.param(_drop_last_value, ValueError, "frames and values must align one-to-one",
                 id="misaligned"),
    pytest.param(_layout([0, 1, 2, 3, 7, 5]), ValueError,
                 "clamp frames must be sorted and distinct", id="unsorted"),
    pytest.param(_layout([0, 1, 2, 3, 5, 5, 7]), ValueError,
                 "clamp frames must be sorted and distinct", id="repeated"),
    pytest.param(_layout([0, 1, 2, 3, 5, 8]), IndexError, "clamp frame out of range 0..7",
                 id="out-of-range"),
    pytest.param(_layout([0, 1, 2, 5, 7]), ValueError,
                 "every observed frame 0..t_obs-1 must be clamped", id="observed-missing"),
    pytest.param(_layout([0, 1, 2, 3, 5, 6]), ValueError,
                 "the goal frame (last frame) must be clamped", id="goal-missing"),
    pytest.param(_set("values", -1, float("inf")), ValueError,
                 "clamp values contains non-finite values", id="non-finite"),
    pytest.param(_layout([0, 1, 2, 3, 6, 7], intents=slice(1, 2)), ValueError,
                 "intents do not share one clamp-frame layout", id="two-layouts"),
    pytest.param(_set("values", 2, 0.125, intents=slice(1, 2)), ValueError,
                 "intent history does not match the record's first t_obs frames",
                 id="history-differs"),
    # laid out for t_obs 3 and t_pred 5: its history is one frame short
    pytest.param(_layout([0, 1, 2, 7]), ValueError,
                 "every observed frame 0..t_obs-1 must be clamped", id="other-split"),
]


@pytest.mark.parametrize("boundary", ["read_dataset", "predict", "train"])
@pytest.mark.parametrize("edit, error, message", CLAMP_SET_FAULTS)
def test_every_boundary_rejects_a_bad_clamp_set(fitted, tmp_path, boundary, edit, error,
                                                message):
    _, params = fitted
    scenes = tiny_scenes()
    agent = scenes[0].agents[0]
    raw = [{"frames": spec.frames.tolist(), "values": spec.values.tolist()}
           for spec in agent.intents * 3]
    edit(raw)
    if boundary == "read_dataset":
        write_dataset(scenes, tmp_path)
        jsonl = tmp_path / "scene_0000" / "agents.jsonl"
        lines = jsonl.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), "intents": raw}) + "\n"
        jsonl.write_text("".join(lines))
        where = f"{jsonl}:1: malformed agent record: {message}"
        with pytest.raises(ValueError, match=re.escape(where)):
            read_dataset(tmp_path)
        return
    with pytest.raises(error, match=re.escape(message)):
        intents = [ConditionSpec(spec["frames"], spec["values"]) for spec in raw]
        if boundary == "predict":
            predict(params, agent.trajectory[:T_OBS], intents, guidance_steps=0)
        else:
            agent.intents = intents
            train(scenes, TrainConfig(**{**TINY_TRAIN, "n_epochs": 1}))


def test_unguided_predict_matches_ddpm_oracle():
    # the chain written out with the DDPM posterior inline, clamping as predict does
    desc = ArchDescriptor(widths=(4,), kernel_len=3, gn_groups=2, emb_dim=8,
                          t_obs=T_OBS, t_pred=T_PRED, n_steps=5, coord_scale=2.0)
    rng = np.random.default_rng(23)
    params = init_params(desc, seed=23)
    params.tensors["out.w"] = rng.standard_normal(params.tensors["out.w"].shape) * 0.1
    sched = build_cosine_schedule(desc.n_steps)
    req = make_request(tiny_scenes(), seed=4, guidance=False, k=3)
    out = predict(params, **req).trajectories.samples

    frames = req["intents"][0].frames
    center = req["observed"][-1]
    values_world = np.stack([spec.values for spec in req["intents"]])
    values = (values_world - center) / desc.coord_scale
    streams = [np.random.default_rng(np.random.SeedSequence([4, j])) for j in range(3)]
    tau = np.stack([r.standard_normal((T, 2)) for r in streams])
    moved = 0.0
    for i in range(desc.n_steps, 0, -1):
        tau[:, frames] = values
        x0, _ = forward_with_cache(params, tau, i)
        moved = max(moved, np.abs(x0 - tau).max())
        noise = np.stack([r.standard_normal((T, 2)) for r in streams])
        a = sched.alphas[i - 1]
        ab = sched.alpha_bars[i - 1]
        ab_prev = sched.alpha_bars_prev[i - 1]
        mean = (np.sqrt(a) * (1 - ab_prev) * tau + np.sqrt(ab_prev) * (1 - a) * x0) / (1 - ab)
        sigma = np.sqrt(sched.posterior_vars[i - 1])
        tau = mean if sigma == 0.0 else mean + sigma * noise
    tau[:, frames] = values
    world = tau * desc.coord_scale + center
    world[:, frames] = values_world
    assert moved > 0.0  # the network is not the identity
    np.testing.assert_array_equal(out, world)


def test_guidance_moves_offmap_samples_toward_navigable(fitted):
    scenes, params = fitted
    req_on = make_request(scenes, guidance=True, k=6)
    req_off = make_request(scenes, guidance=False, k=6)
    on = predict(params, **req_on)
    off = predict(params, **req_off)
    assert on.per_sample_ecfl.mean() >= off.per_sample_ecfl.mean()


# ---------------------------------------------------------------------- train

def test_zero_learning_rate_keeps_params_at_init(fitted):
    scenes = tiny_scenes()
    cfg = TrainConfig(**{**TINY_TRAIN, "lr": 0.0, "n_epochs": 2})
    params, _ = train(scenes, cfg)
    from trajdiffuse.denoiser import init_params
    from trajdiffuse.denoiser.net import ArchDescriptor

    fresh = init_params(params.arch, seed=cfg.seed)
    for name in fresh.tensors:
        np.testing.assert_array_equal(params.tensors[name], fresh.tensors[name])


def test_training_log_is_deterministic():
    scenes = tiny_scenes()
    cfg = TrainConfig(**{**TINY_TRAIN, "n_epochs": 1})
    _, log_a = train(scenes, cfg)
    _, log_b = train(scenes, cfg)
    assert log_a == log_b
    assert len(log_a) == 1 and log_a[0]["epoch"] == 0


def test_loss_decreases_on_tiny_corpus():
    scenes = tiny_scenes(n_scenes=3, n_agents=6)
    cfg = TrainConfig(**{**TINY_TRAIN, "n_epochs": 30, "lr": 3e-3})
    _, log = train(scenes, cfg)
    assert log[-1]["mean_loss"] < log[0]["mean_loss"]


def test_paper_weighting_trains():
    scenes = tiny_scenes()
    cfg = TrainConfig(**{**TINY_TRAIN, "weighting": "paper", "n_epochs": 1})
    _, log = train(scenes, cfg)
    assert np.isfinite(log[0]["mean_loss"])


def test_paper_weighting_trains_from_its_first_step():
    # with n_steps 2, every step drawn is 2, the paper weighting's first
    scenes = tiny_scenes()
    cfg = TrainConfig(**{**TINY_TRAIN, "weighting": "paper", "n_steps": 2, "n_epochs": 1})
    _, log = train(scenes, cfg)
    assert np.isfinite(log[0]["mean_loss"])


@pytest.mark.parametrize("weighting, n_steps", [("paper", 1), ("mse", 5)])
def test_a_weighting_without_a_step_to_train_on_fails_at_the_door(weighting, n_steps):
    # checked before the dataset: an empty one would fail otherwise
    message = f"weighting {weighting!r} with n_steps {n_steps}: n_steps must reach"
    cfg = TrainConfig(**{**TINY_TRAIN, "weighting": weighting, "n_steps": n_steps})
    with pytest.raises(ValueError, match=re.escape(message)):
        train([], cfg)


def test_agents_without_intents_train_under_the_dataset_layout():
    # the intents clamp one waypoint; an agent without intents must not
    # bring a layout of its own
    scenes = tiny_scenes()
    scenes[1].agents[2].intents = []
    _, log = train(scenes, TrainConfig(**{**TINY_TRAIN, "n_epochs": 1}))
    assert np.isfinite(log[0]["mean_loss"])


def test_dataset_without_intents_is_rejected():
    scenes = tiny_scenes()
    for agent in (a for scene in scenes for a in scene.agents):
        agent.intents = []
    with pytest.raises(ValueError, match="no intents"):
        train(scenes, TrainConfig(**TINY_TRAIN))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], TrainConfig(**TINY_TRAIN))


def test_dataset_without_agents_is_rejected():
    scenes = tiny_scenes()
    for scene in scenes:
        scene.agents = []
    with pytest.raises(ValueError, match="dataset contains no agents"):
        train(scenes, TrainConfig(**TINY_TRAIN))


@pytest.mark.parametrize("coord_scale, problem", [
    (0.0, "coord_scale must be positive and finite, got 0.0"),
    ("5", "coord_scale must be a number, got '5'"),
])
def test_coord_scale_is_checked_before_any_trajectory_is_scaled(coord_scale, problem):
    cfg = TrainConfig(**{**TINY_TRAIN, "coord_scale": coord_scale})
    with pytest.raises(ValueError, match=re.escape(problem)):
        train(tiny_scenes(), cfg)


def test_a_negative_learning_rate_is_reported_before_the_data_is_read():
    scenes = tiny_scenes()
    for scene in scenes:
        scene.agents = []
    with pytest.raises(ValueError, match=re.escape("lr must be >= 0 and finite, got -0.001")):
        train(scenes, TrainConfig(**{**TINY_TRAIN, "lr": -1e-3}))


def test_scenes_with_different_frame_splits_are_rejected():
    scenes = tiny_scenes()
    scenes[1].t_obs, scenes[1].t_pred = T_OBS + 1, T_PRED - 1
    with pytest.raises(ValueError, match="all scenes must share the same frame split"):
        train(scenes, TrainConfig(**TINY_TRAIN))


def test_agents_with_different_clamp_layouts_are_rejected():
    scenes = tiny_scenes()
    agent = scenes[1].agents[2]
    frames = list(range(T_OBS)) + [T_OBS + 2, T - 1]  # a valid layout, not the dataset's
    agent.intents = [ConditionSpec(frames, agent.trajectory[frames])]
    with pytest.raises(ValueError, match="agents disagree on the clamp-frame layout"):
        train(scenes, TrainConfig(**TINY_TRAIN))


SKIP_CFG = {**TINY_TRAIN, "batch_size": 4}  # 8 trajectories: two steps per epoch


def test_a_step_with_a_non_finite_gradient_is_skipped_and_counted(monkeypatch):
    import trajdiffuse.pipeline as pipeline

    bad_step = 2  # the first step of epoch 1
    steps = {"backward": 0}
    real_backward, real_adam = pipeline.backward_from_cache, pipeline.adam_update

    def backward(params, cache, upstream):
        grads, dx = real_backward(params, cache, upstream)
        if steps["backward"] == bad_step:
            grads["out.b"][0] = np.nan
        steps["backward"] += 1
        return grads, dx

    around = []  # per Adam call: (tensors, step counter) just before and just after

    def adam(tensors, grads, state, lr):
        before = ({k: v.copy() for k, v in tensors.items()}, state.step)
        try:
            return real_adam(tensors, grads, state, lr)
        finally:
            around.append((before, ({k: v.copy() for k, v in tensors.items()}, state.step)))

    monkeypatch.setattr(pipeline, "backward_from_cache", backward)
    monkeypatch.setattr(pipeline, "adam_update", adam)
    _, log = train(tiny_scenes(), TrainConfig(**SKIP_CFG))
    assert [entry["skipped_steps"] for entry in log] == [0, 1, 0]
    assert all(np.isfinite(entry["mean_loss"]) for entry in log)
    assert len(around) == 6
    for call, ((tensors, step), (tensors_after, step_after)) in enumerate(around):
        unchanged = all(np.array_equal(tensors[k], tensors_after[k]) for k in tensors)
        assert unchanged == (call == bad_step)
        assert step_after == step + (call != bad_step)


def test_a_non_finite_loss_aborts_naming_epoch_lr_and_weighting(monkeypatch):
    import trajdiffuse.pipeline as pipeline

    calls = []
    real = pipeline.loss_and_grad

    def loss_and_grad(*args):
        loss, grad = real(*args)
        calls.append(loss)
        return (np.nan if len(calls) == 3 else loss), grad  # the first step of epoch 1

    monkeypatch.setattr(pipeline, "loss_and_grad", loss_and_grad)
    cfg = TrainConfig(**{**SKIP_CFG, "lr": 2e-3, "weighting": "paper"})
    message = "non-finite training loss at epoch 1 (lr=0.002, weighting=paper); aborting"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        train(tiny_scenes(), cfg)
    assert len(calls) == 3


def test_resume_with_mismatched_architecture_rejected(fitted):
    scenes, params = fitted
    cfg = TrainConfig(**{**TINY_TRAIN, "widths": (6,), "n_epochs": 1})
    with pytest.raises(ValueError, match="architecture does not match"):
        train(scenes, cfg, init=params)


def test_resume_continues_from_checkpoint(fitted):
    scenes, params = fitted
    cfg = TrainConfig(**{**TINY_TRAIN, "n_epochs": 1})
    resumed, log = train(scenes, cfg, init=params)
    assert len(log) == 1
    changed = any(
        not np.array_equal(resumed.tensors[k], params.tensors[k]) for k in params.tensors
    )
    assert changed


TRAIN_32 = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "train-32"


def _distinct_bytes(obj) -> int:
    """Bytes of the distinct buffers behind the arrays of a nested tuple/list."""
    owners = {}
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            owners[id(item)] = item.nbytes
    return sum(owners.values())


@pytest.mark.parametrize("widths", [(16, 32, 64), (32, 64, 128)])
def test_a_training_epoch_holds_one_tape(widths):
    """Beyond the parameters, Adam's two moments and one set of gradients
    (4x the parameter bytes), training holds about one batch's tape: a loop
    that keeps the last step's tape while the next forward builds its own
    reads about 2 tapes, and so does a conv that caches its im2col columns."""
    scenes = read_dataset(TRAIN_32)
    cfg = TrainConfig(n_epochs=1, widths=widths)
    desc = ArchDescriptor(widths=widths, t_obs=scenes[0].t_obs, t_pred=scenes[0].t_pred)
    params = init_params(desc)
    x = np.random.default_rng(0).normal(size=(cfg.batch_size, desc.traj_len, 2))
    _, cache = forward_with_cache(params, x, 3)
    tape = _distinct_bytes(cache)
    del cache
    param_bytes = sum(t.nbytes for t in params.tensors.values())
    peak = traced_peak(lambda: train(scenes, cfg))
    assert peak - 4 * param_bytes <= 1.5 * tape, (peak, param_bytes, tape)


def test_a_forward_tape_keeps_only_what_the_backward_cannot_rebuild():
    """A B = 32 tape at widths 32/64/128 holds, per residual block, conv1's
    padded input and the two group-norm xhat arrays; it read 24.0 MB when it
    also kept both Mish inputs and their exponentials, conv2's padded input,
    the skip conv's input and attention's softmax weights."""
    desc = ArchDescriptor(widths=(32, 64, 128))
    x = np.random.default_rng(0).normal(size=(32, desc.traj_len, 2))
    _, cache = forward_with_cache(init_params(desc), x, 3)
    assert _distinct_bytes(cache) <= 10.5 * 2**20


def test_the_denoiser_and_training_leave_no_reference_cycles():
    """A cycle keeps its arrays, a step's gradients among them, until the cycle
    collector runs; a self-recursive closure for the U-Net level is one."""
    desc = ArchDescriptor(widths=(4, 6, 8), kernel_len=3, gn_groups=2, emb_dim=8,
                          t_obs=T_OBS, t_pred=T_PRED, n_steps=5)
    params = init_params(desc, seed=1)
    x = np.random.default_rng(1).normal(size=(3, desc.traj_len, 2))
    scenes = tiny_scenes()
    gc.collect()
    gc.disable()
    try:
        _, cache = forward_with_cache(params, x, 2)
        backward_from_cache(params, cache, x)
        forward_with_cache(params, x, 2, keep_cache=False)
        train(scenes, TrainConfig(**{**TINY_TRAIN, "n_epochs": 1, "widths": (4, 6, 8)}))
        assert gc.collect() == 0
    finally:
        gc.enable()
