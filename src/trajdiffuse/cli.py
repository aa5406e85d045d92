"""Command-line interface: data generation, training, prediction, evaluation,
and SVG rendering.

Every run is deterministic given its flags and seed, writes a JSON config
echo next to its outputs, and uses exit codes 0 (success), 1 (runtime
failure), 2 (usage error). A flag value of the wrong type or outside its
range, such as `--epochs 0` or `--log-level bogus`, is a usage error that
argparse reports before any file is read or written.

`eval` and `render` read a predictions file through one loader, which checks
every record against the dataset (trajectories through `TrajBatch`) and names
the record's file and line when it rejects one.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .diffusion import TrajBatch
from .estimator import TrajDiffuse
from .metrics import acfl, ade_fde, ecfl, kde_nll, mve
from .synth import (
    ENV_KINDS, MIN_SIZE, IntentOracleConfig, generate_dataset, read_dataset, write_dataset,
)
from .validation import as_int, check_non_negative, check_positive, read_jsonl

log = logging.getLogger("trajdiffuse")


def _size_type(text: str) -> tuple:
    try:
        h, w = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--size must look like 32x32, got {text!r}") from exc
    if h < MIN_SIZE or w < MIN_SIZE:
        raise argparse.ArgumentTypeError(
            f"--size must be at least {MIN_SIZE}x{MIN_SIZE}, got {text}")
    return h, w


def _kinds_type(text: str) -> list:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    for k in kinds:
        if k not in ENV_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown kind {k!r}; choose from {', '.join(ENV_KINDS)}"
            )
    if not kinds:
        raise argparse.ArgumentTypeError("--kind must name at least one environment kind")
    return kinds


def _int_flag(flag: str, minimum: int = 1, maximum: int | None = None):
    """An argparse type for `flag`: an int of at least `minimum` (and at most
    `maximum` when one is given)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"{flag} must be <= {maximum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _widths_type(text: str) -> tuple:
    try:
        return tuple(map(_int_flag("--widths"), text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("--widths must be ints like 32,64,128") from exc


def _float_flag(flag: str, check=check_positive):
    """An argparse type for `flag`: a float that `check` (check_positive or
    check_non_negative) accepts."""
    def parse(text: str) -> float:
        value = float(text)
        try:
            return check(value, flag)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = "float"
    return parse


def _echo_config(args: argparse.Namespace, target: Path) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    target.write_text(json.dumps(resolved, sort_keys=True, default=str) + "\n")


# the largest predict --seed: base * 1_000_003 then leaves 2**62 of the int64
# range for the scene and agent terms of _agent_seed
MAX_PREDICT_SEED = 2**62 // 1_000_003


def _agent_seed(base: int, scene_idx: int, agent_id: int) -> int:
    return base * 1_000_003 + scene_idx * 1009 + agent_id


# ------------------------------------------------------------------ gen-data

def cmd_gen_data(args) -> int:
    intent_cfg = IntentOracleConfig(
        n_waypoints=args.waypoints, goal_noise_sigma=args.goal_noise,
        diversify=args.diversify,
    )
    try:
        intent_cfg.resolved_frames(args.t_obs, args.t_pred)
    except ValueError as exc:
        raise ValueError(
            f"--waypoints {args.waypoints} does not fit in --t-pred {args.t_pred}: {exc}"
        ) from exc
    scenes = generate_dataset(
        kinds=args.kind, n_scenes=args.n_scenes, n_agents=args.agents_per_scene,
        size=args.size, resolution=args.resolution, t_obs=args.t_obs,
        t_pred=args.t_pred, frame_dt=args.dt, speed_range=(args.speed_min, args.speed_max),
        intent_cfg=intent_cfg, k_intents=args.k_intents, seed=args.seed,
    )
    out = Path(args.out)
    write_dataset(scenes, out)
    _echo_config(args, out / "gen-data.config.json")
    n_agents = sum(len(s.agents) for s in scenes)
    log.info("wrote %d scenes, %d agent records to %s", len(scenes), n_agents, out)
    return 0


# --------------------------------------------------------------------- train

def cmd_train(args) -> int:
    scenes = read_dataset(args.data)
    model = TrajDiffuse(
        n_epochs=args.epochs, batch_size=args.batch, lr=args.lr, n_steps=args.steps,
        weighting=args.weighting, seed=args.seed, widths=args.widths,
        coord_scale=args.coord_scale,
    )
    model.fit(scenes, init=TrajDiffuse.load(args.resume).model_params_ if args.resume else None)
    training_log = model.training_log_

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.ckpt")
    with open(out / "loss.csv", "w") as fh:
        fh.write("epoch,mean_loss\n")
        for entry in training_log:
            fh.write(f"{entry['epoch']},{entry['mean_loss']!r}\n")
    _echo_config(args, out / "train.config.json")
    log.info(
        "trained %d epochs: loss %.6f -> %.6f; checkpoint at %s",
        len(training_log), training_log[0]["mean_loss"], training_log[-1]["mean_loss"],
        out / "model.ckpt",
    )
    return 0


# ------------------------------------------------------------------- predict

def cmd_predict(args) -> int:
    model = TrajDiffuse.load(args.checkpoint).set_params(guidance_steps=args.grad_steps)
    scenes = read_dataset(args.data)
    records = []
    for scene_idx, scene in enumerate(scenes):
        for agent in scene.agents:
            intents = agent.intents[: args.k]
            if len(intents) < args.k:
                raise ValueError(
                    f"{scene.scene_id} agent {agent.agent_id} has {len(agent.intents)} "
                    f"intents, need --k {args.k}"
                )
            result = model.predict(
                agent.trajectory[: scene.t_obs], intents, env=scene.env,
                seed=_agent_seed(args.seed, scene_idx, agent.agent_id),
                guidance=(args.guidance == "on"),
            )
            records.append({
                "scene_id": scene.scene_id,
                "agent_id": agent.agent_id,
                "t_obs": scene.t_obs,
                "trajectories": result.trajectories.samples.tolist(),
                "ecfl": [bool(v) for v in result.per_sample_ecfl],
            })

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _echo_config(args, out.with_name(out.name + ".config.json"))
    log.info("wrote %d prediction records to %s", len(records), out)
    return 0


# ---------------------------------------------------------------------- eval

_RECORD_KEYS = ("scene_id", "agent_id", "trajectories")


def _load_predictions(path, scenes: dict) -> list:
    """The records of a predictions file, checked against the dataset, as
    (where, scene, agent, batch) in file order.

    `scenes` maps scene_id to Scene and `where` is the record's
    "<path>:<line>". Each record names an agent of the dataset, at most once,
    its t_obs (when given) is the scene's as a JSON integer, and its
    trajectories must make a TrajBatch of the scene's frame split. A file
    without records is rejected.
    """
    records = []
    first_seen = {}
    for where, record in read_jsonl(path, "prediction record", _RECORD_KEYS):
        scene_id = record["scene_id"]
        scene = scenes.get(scene_id) if isinstance(scene_id, str) else None
        if scene is None:
            raise ValueError(f"{where}: scene_id {scene_id!r} is not in the dataset")
        try:
            agent_id = as_int(record["agent_id"], "agent_id")
            t_obs = as_int(record.get("t_obs", scene.t_obs), "t_obs")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        agent = next((a for a in scene.agents if a.agent_id == agent_id), None)
        if agent is None:
            raise ValueError(f"{where}: agent_id {agent_id!r} is not in scene {scene_id!r}")
        if (scene_id, agent_id) in first_seen:
            raise ValueError(
                f"{where}: scene_id {scene_id!r} agent_id {agent_id!r} repeats the record "
                f"at {first_seen[scene_id, agent_id]}"
            )
        first_seen[scene_id, agent_id] = where
        if t_obs != scene.t_obs:
            raise ValueError(f"{where}: t_obs {t_obs!r} differs from the scene's {scene.t_obs}")
        try:
            batch = TrajBatch(record["trajectories"], scene.t_obs, scene.t_pred)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{where}: bad trajectories: {exc}") from exc
        records.append((where, scene, agent, batch))
    if not records:
        raise ValueError(f"{path}:1: no prediction record in the file")  # where the first belongs
    return records


def cmd_eval(args) -> int:
    scenes = {s.scene_id: s for s in read_dataset(args.data)}
    records = _load_predictions(args.predictions, scenes)

    per_scene: dict = {}
    for where, scene, _, batch in records:
        scene_rows = per_scene.setdefault(scene.scene_id, [])
        if scene_rows and batch.n_samples != scene_rows[0][1].n_samples:
            first_where, first_batch = scene_rows[0]
            raise ValueError(
                f"{where}: scene {scene.scene_id!r} has K={batch.n_samples} samples, but "
                f"{first_where} has K={first_batch.n_samples}; "
                f"ACFL needs the same K for every agent of a scene"
            )
        scene_rows.append((where, batch))
    errors = [ade_fde(batch, agent.trajectory) for _, _, agent, batch in records]
    nlls = [kde_nll(batch, agent.trajectory)
            for _, _, agent, batch in records if batch.n_samples >= 2]
    acfl_values = [
        acfl([batch for _, batch in scene_rows], threshold=args.acfl_threshold)
        for scene_rows in per_scene.values()
        if len(scene_rows) >= 2
    ]
    report = json.dumps({
        "ade": float(np.mean([ade for ade, _ in errors])),
        "fde": float(np.mean([fde for _, fde in errors])),
        "kde_nll": float(np.mean(nlls)) if nlls else None,
        "ecfl": float(np.mean([ecfl(batch, scene.env) for _, scene, _, batch in records])),
        "mve": float(np.mean([mve(batch, n_bins=args.mve_bins) for *_, batch in records])),
        "acfl": float(np.mean(acfl_values)) if acfl_values else None,
        "config": {
            "mve_bins": args.mve_bins,
            "acfl_threshold": args.acfl_threshold,
            "kde_bandwidth_rule": "scott_per_dim",
            "n_agents": len(records),
        },
    }, sort_keys=True, indent=2)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report + "\n")
    _echo_config(args, out.with_name(out.name + ".config.json"))
    print(report)
    return 0


# -------------------------------------------------------------------- render

CELL_PX = 10


def _svg_point(env, pos) -> str:
    px, py = env.world_to_pixel(pos)
    return f"{(px + 0.5) * CELL_PX:.2f},{(py + 0.5) * CELL_PX:.2f}"


def _render_scene(scene, records) -> str:
    env = scene.env
    h, w = env.shape
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * CELL_PX}" '
        f'height="{h * CELL_PX}" viewBox="0 0 {w * CELL_PX} {h * CELL_PX}">',
        f'<rect width="{w * CELL_PX}" height="{h * CELL_PX}" fill="#30343c"/>',
    ]
    for r, c in np.argwhere(env.nav_grid):
        lines.append(
            f'<rect x="{c * CELL_PX}" y="{r * CELL_PX}" width="{CELL_PX}" '
            f'height="{CELL_PX}" fill="#e8e6e0"/>'
        )
    for agent, batch in records:
        gt = " ".join(_svg_point(env, p) for p in agent.trajectory)
        lines.append(
            f'<polyline points="{gt}" fill="none" stroke="#2f5ed8" '
            f'stroke-width="2" stroke-dasharray="6,4"/>'
        )
        for sample in batch.samples:
            pts = " ".join(_svg_point(env, p) for p in sample)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="#d83a2f" '
                f'stroke-width="1.2" opacity="0.75"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    scenes = {s.scene_id: s for s in read_dataset(args.data)}
    by_scene: dict = {}
    for _, scene, agent, batch in _load_predictions(args.predictions, scenes):
        by_scene.setdefault(scene.scene_id, []).append((agent, batch))

    if args.scene and args.scene not in scenes:
        raise ValueError(f"scene {args.scene!r} not present in the dataset")
    targets = [args.scene] if args.scene else sorted(by_scene)
    out = Path(args.out)
    if args.scene:
        out.parent.mkdir(parents=True, exist_ok=True)
        paths = {args.scene: out}
    else:
        out.mkdir(parents=True, exist_ok=True)
        paths = {sid: out / f"{sid}.svg" for sid in targets}
    for sid in targets:
        paths[sid].write_text(_render_scene(scenes[sid], by_scene.get(sid, [])))
    echo_at = out.with_name(out.name + ".config.json") if args.scene else out / "render.config.json"
    _echo_config(args, echo_at)
    log.info("rendered %d scene(s)", len(targets))
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajdiffuse",
        description="Map-guided conditional diffusion for trajectory prediction",
    )
    parser.add_argument("--log-level", type=str.upper, default="WARNING", help="logging level",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--kind", type=_kinds_type, default=["corridor"],
                   help="environment kind(s), comma-separated; scenes cycle through them")
    p.add_argument("--n-scenes", type=_int_flag("--n-scenes"), default=8)
    p.add_argument("--agents-per-scene", type=_int_flag("--agents-per-scene"), default=3)
    p.add_argument("--size", type=_size_type, default=(32, 32),
                   help=f"grid size HxW, min {MIN_SIZE}x{MIN_SIZE}")
    p.add_argument("--resolution", type=_float_flag("--resolution"), default=0.5,
                   help="meters per pixel")
    p.add_argument("--t-obs", type=_int_flag("--t-obs"), default=8)
    p.add_argument("--t-pred", type=_int_flag("--t-pred"), default=12)
    p.add_argument("--dt", type=_float_flag("--dt"), default=0.4, help="seconds per frame")
    p.add_argument("--speed-min", type=_float_flag("--speed-min"), default=0.6)
    p.add_argument("--speed-max", type=_float_flag("--speed-max"), default=1.4)
    p.add_argument("--waypoints", type=_int_flag("--waypoints", 0), default=2,
                   help="interior waypoint anchors (the goal is always clamped)")
    p.add_argument("--goal-noise", type=_float_flag("--goal-noise", check_non_negative),
                   default=0.5, help="sigma (meters) of anchor perturbation")
    p.add_argument("--diversify", action="store_true",
                   help="give intents 1..K-1 alternate reachable goals")
    p.add_argument("--k-intents", type=_int_flag("--k-intents"), default=20)
    p.add_argument("--seed", type=_int_flag("--seed", 0), default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoint and loss log")
    p.add_argument("--epochs", type=_int_flag("--epochs"), default=TrajDiffuse.n_epochs)
    p.add_argument("--batch", type=_int_flag("--batch"), default=TrajDiffuse.batch_size)
    p.add_argument("--lr", type=_float_flag("--lr", check_non_negative), default=TrajDiffuse.lr)
    p.add_argument("--steps", type=_int_flag("--steps"), default=TrajDiffuse.n_steps,
                   help="denoising steps N")
    p.add_argument("--weighting", choices=("simple", "paper"), default=TrajDiffuse.weighting)
    p.add_argument("--widths", type=_widths_type, default=TrajDiffuse.widths)
    p.add_argument("--coord-scale", type=_float_flag("--coord-scale"),
                   default=TrajDiffuse.coord_scale)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=_int_flag("--seed", 0), default=TrajDiffuse.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="sample trajectory predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--k", type=_int_flag("--k"), default=20, help="samples per agent")
    p.add_argument("--guidance", choices=("on", "off"), default="on")
    p.add_argument("--grad-steps", type=_int_flag("--grad-steps"),
                   default=TrajDiffuse.guidance_steps)
    p.add_argument("--seed", type=_int_flag("--seed", 0, MAX_PREDICT_SEED), default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument("--mve-bins", type=_int_flag("--mve-bins"), default=36)
    p.add_argument("--acfl-threshold", type=_float_flag("--acfl-threshold"), default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render scenes with predictions to SVG")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scene", default=None, help="scene id; omit to render all")
    p.add_argument("--out", required=True, help="SVG file (with --scene) or directory")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure: report and exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
