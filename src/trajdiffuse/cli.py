"""Command-line interface: data generation, training, prediction, evaluation,
and SVG rendering.

Every run is deterministic given its flags and seed, writes a JSON config
echo next to its outputs, and uses exit codes 0 (success), 1 (runtime
failure), 2 (usage error). TRAJDIFFUSE_LOG sets the default log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .diffusion import TrajBatch
from .estimator import TrajDiffuse
from .metrics import acfl, ade_fde, ecfl, kde_nll, mve
from .synth import ENV_KINDS, IntentOracleConfig, generate_dataset, read_dataset, write_dataset
from .validation import check_non_negative, check_positive

log = logging.getLogger("trajdiffuse")


def _size_type(text: str) -> tuple:
    try:
        h, w = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--size must look like 32x32, got {text!r}") from exc
    if h < 16 or w < 16:
        raise argparse.ArgumentTypeError(f"--size must be at least 16x16, got {text}")
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


def _widths_type(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--widths must be ints like 32,64,128") from exc


def _echo_config(args: argparse.Namespace, target: Path) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    for key, value in resolved.items():
        if isinstance(value, (tuple, Path)):
            resolved[key] = str(value) if isinstance(value, Path) else list(value)
    target.write_text(json.dumps(resolved, sort_keys=True, default=str) + "\n")


def _check_counts(args: argparse.Namespace, *flags: str, minimum: int = 1) -> None:
    """Reject an integer flag below `minimum`, by name, before any file is touched."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < minimum:
            raise ValueError(f"{flag} must be >= {minimum}, got {value}")


def _check_gen_data_floats(args: argparse.Namespace) -> None:
    """Reject gen-data's float flags outside their ranges, by name, before any file is touched."""
    for flag in ("--dt", "--resolution", "--speed-min", "--speed-max"):
        check_positive(getattr(args, flag[2:].replace("-", "_")), flag)
    if args.speed_min > args.speed_max:
        raise ValueError(
            f"--speed-min must be <= --speed-max, got {args.speed_min} > {args.speed_max}"
        )
    check_non_negative(args.goal_noise, "--goal-noise")


def _agent_seed(base: int, scene_idx: int, agent_id: int) -> int:
    return base * 1_000_003 + scene_idx * 1009 + agent_id


# ------------------------------------------------------------------ gen-data

def cmd_gen_data(args) -> int:
    _check_counts(args, "--n-scenes", "--agents-per-scene", "--t-obs", "--t-pred", "--k-intents")
    _check_counts(args, "--waypoints", "--seed", minimum=0)
    _check_gen_data_floats(args)
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
    _check_counts(args, "--epochs", "--batch", "--steps")
    _check_counts(args, "--seed", minimum=0)
    check_non_negative(args.lr, "--lr")
    check_positive(args.coord_scale, "--coord-scale")
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
    _check_counts(args, "--k", "--grad-steps")
    _check_counts(args, "--seed", minimum=0)
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


def _load_predictions(path) -> list:
    """Prediction records as ("<path>:<line>", record) pairs, in file order;
    each (scene_id, agent_id) may appear once."""
    records = []
    first_seen = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
                raise ValueError(f"{where}: malformed prediction record: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{where}: prediction record is not a JSON object")
            missing = [key for key in _RECORD_KEYS if key not in record]
            if missing:
                raise ValueError(
                    f"{where}: prediction record lacks {', '.join(map(repr, missing))}"
                )
            ids = (record["scene_id"], record["agent_id"])
            if not isinstance(ids[0], str):
                raise ValueError(f"{where}: scene_id {ids[0]!r} is not a string")
            if isinstance(ids[1], bool) or not isinstance(ids[1], int):
                raise ValueError(f"{where}: agent_id {ids[1]!r} is not an integer")
            if ids in first_seen:
                raise ValueError(
                    f"{where}: scene_id {ids[0]!r} agent_id {ids[1]!r} repeats the record "
                    f"at {first_seen[ids]}"
                )
            first_seen[ids] = where
            records.append((where, record))
    return records


def _resolve_record(scene, where, record):
    """The agent of `scene` that a prediction record names, and its (K, T, 2)
    samples, checked against the scene; `where` is the record's file:line."""
    for agent in scene.agents:
        if agent.agent_id == record["agent_id"]:
            break
    else:
        raise ValueError(
            f"{where}: agent_id {record['agent_id']!r} is not in scene {scene.scene_id!r}"
        )
    t_obs = record.get("t_obs", scene.t_obs)
    if t_obs != scene.t_obs:
        raise ValueError(f"{where}: t_obs {t_obs!r} differs from the scene's {scene.t_obs}")
    t_len = scene.t_obs + scene.t_pred
    expected = f"(K >= 1, {t_len}, 2)"
    try:
        samples = np.asarray(record["trajectories"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: trajectories is not a {expected} array: {exc}") from exc
    if samples.ndim != 3 or len(samples) < 1 or samples.shape[1:] != (t_len, 2):
        raise ValueError(f"{where}: trajectories has shape {samples.shape}, expected {expected}")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{where}: trajectories holds non-finite values")
    return agent, samples


def _eval_one(where, record, scenes, mve_bins):
    scene = scenes.get(record["scene_id"])
    if scene is None:
        raise ValueError(f"{where}: scene_id {record['scene_id']!r} is not in the dataset")
    agent, samples = _resolve_record(scene, where, record)
    batch = TrajBatch(samples, scene.t_obs, scene.t_pred)
    a, f = ade_fde(batch, agent.trajectory)
    nll = kde_nll(batch, agent.trajectory) if batch.n_samples >= 2 else None
    return {
        "where": where,
        "scene_id": record["scene_id"],
        "batch": batch,
        "ade": a,
        "fde": f,
        "nll": nll,
        "ecfl": ecfl(batch, scene.env),
        "mve": mve(batch, n_bins=mve_bins),
    }


def cmd_eval(args) -> int:
    check_positive(args.acfl_threshold, "--acfl-threshold")
    _check_counts(args, "--mve-bins")
    scenes = {s.scene_id: s for s in read_dataset(args.data)}
    records = _load_predictions(args.predictions)

    rows = [_eval_one(where, r, scenes, args.mve_bins) for where, r in records]

    ades = [r["ade"] for r in rows]
    fdes = [r["fde"] for r in rows]
    nlls = [r["nll"] for r in rows if r["nll"] is not None]
    ecfls = [r["ecfl"] for r in rows]
    mves = [r["mve"] for r in rows]
    per_scene: dict = {}
    for row in rows:
        scene_rows = per_scene.setdefault(row["scene_id"], [])
        if scene_rows and row["batch"].n_samples != scene_rows[0]["batch"].n_samples:
            first = scene_rows[0]
            raise ValueError(
                f"{row['where']}: scene {row['scene_id']!r} has K={row['batch'].n_samples} "
                f"samples, but {first['where']} has K={first['batch'].n_samples}; "
                f"ACFL needs the same K for every agent of a scene"
            )
        scene_rows.append(row)

    acfl_values = [
        acfl([row["batch"] for row in scene_rows], threshold=args.acfl_threshold)
        for scene_rows in per_scene.values()
        if len(scene_rows) >= 2
    ]
    report = json.dumps({
        "ade": float(np.mean(ades)),
        "fde": float(np.mean(fdes)),
        "kde_nll": float(np.mean(nlls)) if nlls else None,
        "ecfl": float(np.mean(ecfls)),
        "mve": float(np.mean(mves)),
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
    for where, record in records:
        agent, samples = _resolve_record(scene, where, record)
        gt = " ".join(_svg_point(env, p) for p in agent.trajectory)
        lines.append(
            f'<polyline points="{gt}" fill="none" stroke="#2f5ed8" '
            f'stroke-width="2" stroke-dasharray="6,4"/>'
        )
        for sample in samples:
            pts = " ".join(_svg_point(env, p) for p in sample)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="#d83a2f" '
                f'stroke-width="1.2" opacity="0.75"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    scenes = {s.scene_id: s for s in read_dataset(args.data)}
    records = _load_predictions(args.predictions)
    by_scene: dict = {}
    for where, record in records:
        by_scene.setdefault(record["scene_id"], []).append((where, record))

    targets = [args.scene] if args.scene else sorted(by_scene)
    out = Path(args.out)
    if args.scene:
        out.parent.mkdir(parents=True, exist_ok=True)
        paths = {args.scene: out}
    else:
        out.mkdir(parents=True, exist_ok=True)
        paths = {sid: out / f"{sid}.svg" for sid in targets}
    for sid in targets:
        if sid not in scenes:
            raise ValueError(f"scene {sid!r} not present in the dataset")
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
    parser.add_argument(
        "--log-level", default=os.environ.get("TRAJDIFFUSE_LOG", "WARNING"),
        help="logging level (or set TRAJDIFFUSE_LOG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--kind", type=_kinds_type, default=["corridor"],
                   help="environment kind(s), comma-separated; scenes cycle through them")
    p.add_argument("--n-scenes", type=int, default=8)
    p.add_argument("--agents-per-scene", type=int, default=3)
    p.add_argument("--size", type=_size_type, default=(32, 32), help="grid size HxW, min 16x16")
    p.add_argument("--resolution", type=float, default=0.5, help="meters per pixel")
    p.add_argument("--t-obs", type=int, default=8)
    p.add_argument("--t-pred", type=int, default=12)
    p.add_argument("--dt", type=float, default=0.4, help="seconds per frame")
    p.add_argument("--speed-min", type=float, default=0.6)
    p.add_argument("--speed-max", type=float, default=1.4)
    p.add_argument("--waypoints", type=int, default=2,
                   help="interior waypoint anchors (the goal is always clamped)")
    p.add_argument("--goal-noise", type=float, default=0.5,
                   help="sigma (meters) of anchor perturbation")
    p.add_argument("--diversify", action="store_true",
                   help="give intents 1..K-1 alternate reachable goals")
    p.add_argument("--k-intents", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoint and loss log")
    p.add_argument("--epochs", type=int, default=TrajDiffuse.n_epochs)
    p.add_argument("--batch", type=int, default=TrajDiffuse.batch_size)
    p.add_argument("--lr", type=float, default=TrajDiffuse.lr)
    p.add_argument("--steps", type=int, default=TrajDiffuse.n_steps, help="denoising steps N")
    p.add_argument("--weighting", choices=("simple", "paper"), default=TrajDiffuse.weighting)
    p.add_argument("--widths", type=_widths_type, default=TrajDiffuse.widths)
    p.add_argument("--coord-scale", type=float, default=TrajDiffuse.coord_scale)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=TrajDiffuse.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="sample trajectory predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--k", type=int, default=20, help="samples per agent")
    p.add_argument("--guidance", choices=("on", "off"), default="on")
    p.add_argument("--grad-steps", type=int, default=TrajDiffuse.guidance_steps)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.add_argument("--mve-bins", type=int, default=36)
    p.add_argument("--acfl-threshold", type=float, default=0.5)
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
    logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.WARNING))
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure: report and exit 1
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
