"""End-to-end guided prediction and the training loop.

Both loops call the diffusion math in `diffusion` and the network in
`denoiser`; this module only orchestrates them.

Prediction runs the reverse diffusion chain per intent: condition the noisy
trajectory on the observed history and the intent anchors, predict the clean
signal, take a stochastic reverse step (`reverse_step`), optionally apply the
map guidance in world coordinates, and re-condition. The returned
trajectories carry the observed history and the intent anchors bit-exactly (a
final conditioning pass runs in world coordinates).

Training draws a per-sample step index, noises the clean trajectory with the
closed-form marginal (`forward_noise`), clamps the conditioned frames to
their clean values (matching inference), and regresses the network output
onto the clean trajectory over future frames (`loss_and_grad`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .diffusion import (
    FIRST_STEP,
    TrajBatch,
    check_intents,
    clamp_frames_batch,
    forward_noise,
    loss_and_grad,
    reverse_step,
)
from .denoiser import (
    AdamState,
    ArchDescriptor,
    DenoiserParams,
    NonFiniteGradientError,
    adam_update,
    backward_from_cache,
    forward_with_cache,
    init_params,
)
from .mapguide import NavEnvironment, ecfl_check, guidance_delta
from .schedule import DEFAULT_COSINE_OFFSET, build_cosine_schedule
from .validation import as_float_array, as_int, check_non_negative


@dataclass(eq=False)
class PredictionResult:
    trajectories: TrajBatch  # (K, T, 2), world meters
    per_sample_ecfl: np.ndarray | None  # (K,) booleans, None without an env


def predict(params: DenoiserParams, observed, intents: list,
            env: NavEnvironment | None = None, *, seed: int = 0,
            guidance_steps: int) -> PredictionResult:
    """Sample one trajectory per intent through the guided denoising chain.

    `observed` is the agent's (t_obs, 2) history in world meters and
    `intents` its K ConditionSpec, all with one clamp-frame layout. The chain
    runs the cosine schedule of the model's n_steps. Sample j draws its noise
    from SeedSequence([seed, j]). Guidance takes `guidance_steps` one-pixel
    steps per frame (0: none) and needs `env`; without one, the returned
    per-sample ECFL flags are None. The network forward keeps no backward
    cache.
    """
    desc = params.arch
    if not params.all_finite():
        raise ValueError("model parameters contain non-finite values (untrained or corrupt)")
    observed = as_float_array(observed, "observed", shape=(desc.t_obs, 2))
    frames, values_world = check_intents(intents, observed, desc.t_pred)
    seed = as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if as_int(guidance_steps, "guidance_steps") < 0:
        raise ValueError(f"guidance_steps must be >= 0, got {guidance_steps}")
    if guidance_steps and env is None:
        raise ValueError("guidance requires an environment")
    schedule = build_cosine_schedule(desc.n_steps)

    t_obs, t_total = desc.t_obs, desc.traj_len
    k = len(intents)
    center = observed[-1]
    scale = desc.coord_scale
    values_std = (values_world - center) / scale

    streams = [np.random.default_rng(np.random.SeedSequence([seed, j])) for j in range(k)]
    tau = np.stack([rng.standard_normal((t_total, 2)) for rng in streams])
    tau = clamp_frames_batch(tau, frames, values_std)
    for i in range(schedule.n_steps, 0, -1):
        x0_pred, _ = forward_with_cache(params, tau, i, keep_cache=False)
        noise = np.stack([rng.standard_normal((t_total, 2)) for rng in streams])
        tau = reverse_step(tau, x0_pred, i, schedule, noise)
        if guidance_steps > 0:
            world = tau * scale + center
            for j in range(k):
                world[j] += guidance_delta(env, world[j], t_obs, guidance_steps)
            tau = (world - center) / scale
        tau = clamp_frames_batch(tau, frames, values_std)

    world = tau * scale + center
    world = clamp_frames_batch(world, frames, values_world)  # exactness contract
    batch = TrajBatch(world, t_obs, desc.t_pred)
    flags = ecfl_check(env, world, t_obs) if env is not None else None
    return PredictionResult(trajectories=batch, per_sample_ecfl=flags)


# ----------------------------------------------------------------- training

@dataclass(eq=False, kw_only=True)
class TrainConfig:
    n_epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    n_steps: int = ArchDescriptor.n_steps
    weighting: str = "simple"
    seed: int = 0
    widths: tuple = ArchDescriptor.widths
    kernel_len: int = ArchDescriptor.kernel_len
    gn_groups: int = ArchDescriptor.gn_groups
    emb_dim: int = ArchDescriptor.emb_dim
    coord_scale: float = ArchDescriptor.coord_scale
    cosine_offset: ClassVar[float] = DEFAULT_COSINE_OFFSET  # fixed, as in Improved DDPM


# The TrainConfig fields that are ArchDescriptor fields of the same name, in its order.
ARCH_FIELDS = tuple(f.name for f in fields(ArchDescriptor)
                    if f.name in {g.name for g in fields(TrainConfig)})


def _collect_training_arrays(scenes: list, desc: ArchDescriptor):
    """Clean trajectories standardized by `desc.coord_scale`, plus the
    clamp-frame layout of the dataset's intents, which agents without intents
    train under too. Every scene must have `desc`'s frame split."""
    t_obs, t_pred = desc.t_obs, desc.t_pred
    frames = None
    x0 = []
    for scene in scenes:
        if scene.t_obs != t_obs or scene.t_pred != t_pred:
            raise ValueError("all scenes must share the same frame split")
        for agent in scene.agents:
            if agent.intents:
                layout, _ = check_intents(agent.intents, agent.trajectory[:t_obs], t_pred)
                if frames is not None and not np.array_equal(frames, layout):
                    raise ValueError("agents disagree on the clamp-frame layout")
                frames = layout
            center = agent.trajectory[t_obs - 1]
            x0.append((agent.trajectory - center) / desc.coord_scale)
    if not x0:
        raise ValueError("dataset contains no agents")
    if frames is None:
        raise ValueError("dataset holds no intents to take the clamp-frame layout from")
    return np.stack(x0), frames


def _train_step(params, state, x_i, x0, i_steps, t_obs, schedule, config):
    """Forward, loss, backward and an in-place Adam step on one batch.

    Returns the loss; a non-finite loss returns before the backward, and a
    non-finite gradient raises NonFiniteGradientError with nothing updated.
    The forward's tape and the gradients are locals, freed on return, so the
    next batch's forward never runs beside them.
    """
    pred, cache = forward_with_cache(params, x_i, i_steps)
    loss, dpred = loss_and_grad(pred, x0, t_obs, i_steps, schedule, config.weighting)
    if np.isfinite(loss):
        grads, _ = backward_from_cache(params, cache, dpred)
        adam_update(params.tensors, grads, state, config.lr)
    return loss


def train(scenes: list, config: TrainConfig,
          init: DenoiserParams | None = None) -> tuple[DenoiserParams, list]:
    """Train the denoiser on ground-truth trajectories; returns (params, log).

    The log has one entry per epoch: {"epoch", "mean_loss", "skipped_steps"}.
    Steps with non-finite gradients are skipped and counted; a non-finite
    loss aborts with a diagnostic.
    """
    for name, minimum in (("n_epochs", 1), ("batch_size", 1), ("seed", 0)):
        if as_int(getattr(config, name), name) < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {getattr(config, name)}")
    first = FIRST_STEP.get(config.weighting)
    if first is None or as_int(config.n_steps, "n_steps") < first:
        raise ValueError(
            f"weighting {config.weighting!r} with n_steps {config.n_steps}: n_steps must "
            f"reach the weighting's first step, one of {FIRST_STEP}")
    check_non_negative(config.lr, "lr")
    if not scenes:
        raise ValueError("training dataset is empty")
    desc = ArchDescriptor(t_obs=scenes[0].t_obs, t_pred=scenes[0].t_pred,
                          **{name: getattr(config, name) for name in ARCH_FIELDS})
    x0_all, frames = _collect_training_arrays(scenes, desc)
    if init is not None:
        if init.arch != desc:
            raise ValueError("resume checkpoint architecture does not match the config")
        params = DenoiserParams({k: v.copy() for k, v in init.tensors.items()}, desc)
    else:
        params = init_params(desc, seed=config.seed)
    schedule = build_cosine_schedule(config.n_steps)
    state = AdamState(params.tensors)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 555]))

    n = x0_all.shape[0]
    log = []
    for epoch in range(config.n_epochs):
        order = rng.permutation(n)
        losses, weights = [], []
        skipped = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x0 = x0_all[idx]
            bsz = x0.shape[0]
            i_steps = rng.integers(first, config.n_steps + 1, size=bsz)
            eps = rng.standard_normal(x0.shape)
            x_i = forward_noise(x0, i_steps, eps, schedule)
            x_i = clamp_frames_batch(x_i, frames, x0[:, frames, :])  # clean values, as at inference
            try:
                loss = _train_step(params, state, x_i, x0, i_steps, desc.t_obs, schedule, config)
            except NonFiniteGradientError:
                skipped += 1
                continue
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch} (lr={config.lr}, "
                    f"weighting={config.weighting}); aborting"
                )
            losses.append(loss)
            weights.append(bsz)
        mean_loss = float(np.average(losses, weights=weights)) if losses else float("nan")
        log.append({"epoch": epoch, "mean_loss": mean_loss, "skipped_steps": skipped})
    return params, log
