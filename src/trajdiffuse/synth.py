"""Synthetic navigation scenes: environments, agent trajectories, intents.

Environments are obstacle-rich navigable layouts (an L-shaped corridor, a
room grid with doorways, or a carved maze) on a binary pixel grid. Agent
trajectories follow shortest paths between random navigable endpoints,
resampled to a fixed frame rate, lightly smoothed and jittered, and are
guaranteed navigable. The intent oracle turns a ground-truth trajectory
into K conditioning sets (observed history plus waypoint/goal anchors,
optionally perturbed and re-projected onto navigable cells, optionally
diversified over alternate reachable goals).

All generators are pure functions of (config, seed). Walls and obstacles
are kept at least 2 px thick so the distance field has a usable gradient
everywhere off the navigable region.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import ConditionSpec, check_intents
from .mapguide import NavEnvironment, ecfl_check, load_environment, save_environment
from .validation import (
    as_float_array, as_int, as_int_array, check_object, check_positive, read_jsonl,
)

ENV_KINDS = ("corridor", "rooms", "maze")
MIN_COVERAGE = 0.20
MIN_SIZE = 16  # smallest map side, in pixels
PROJECTION_RADIUS_CELLS = 10
TRAJECTORY_RETRIES = 50


@dataclass
class AgentTrack:
    agent_id: int
    trajectory: np.ndarray  # (T, 2) world meters
    intents: list  # list[ConditionSpec]


@dataclass
class Scene:
    scene_id: str
    env: NavEnvironment
    agents: list
    t_obs: int
    t_pred: int
    frame_dt: float


@dataclass(frozen=True)
class IntentOracleConfig:
    """How ground truth is turned into conditioning anchors.

    n_waypoints counts interior waypoints, evenly spaced over the prediction
    horizon; the goal anchor at the final frame is always present on top of
    them.
    """

    n_waypoints: int = 2
    goal_noise_sigma: float = 0.5
    diversify: bool = False

    def resolved_frames(self, t_obs: int, t_pred: int) -> list[int]:
        n = self.n_waypoints
        frames = [t_obs + round((s + 1) * t_pred / (n + 1)) for s in range(n)]
        goal = t_obs + t_pred - 1
        for f in frames:
            if not t_obs <= f < goal:
                raise ValueError(f"waypoint frame {f} outside ({t_obs - 1}, {goal})")
        return frames


# ------------------------------------------------------------- environments

def _corridor_grid(h, w, rng):
    # arm thickness and placement bounds keep coverage above MIN_COVERAGE
    th = max(5, min(h, w) // 4)
    margin = 2
    r0 = int(rng.integers(margin, max(margin + 1, h // 3)))
    c1 = int(rng.integers(w // 2, w - th - margin))
    grid = np.zeros((h, w), dtype=bool)
    grid[r0:r0 + th, margin:c1 + th] = True          # horizontal arm
    grid[r0:h - margin, c1:c1 + th] = True           # vertical arm down
    if rng.random() < 0.5:
        grid = grid[::-1]
    if rng.random() < 0.5:
        grid = grid[:, ::-1]
    return np.ascontiguousarray(grid)


def _rooms_grid(h, w, rng):
    wall = 2
    n_rooms = 3 if min(h, w) >= 48 else 2
    grid = np.zeros((h, w), dtype=bool)
    r_edges = np.linspace(wall, h - wall, n_rooms + 1).astype(int)
    c_edges = np.linspace(wall, w - wall, n_rooms + 1).astype(int)
    for i in range(n_rooms):
        for j in range(n_rooms):
            grid[r_edges[i] + (wall if i else 0):r_edges[i + 1],
                 c_edges[j] + (wall if j else 0):c_edges[j + 1]] = True
    door = 4
    for i in range(n_rooms):          # doors through vertical walls
        for j in range(1, n_rooms):
            lo, hi = r_edges[i] + wall, r_edges[i + 1] - door
            pos = int(rng.integers(lo, max(lo + 1, hi)))
            grid[pos:pos + door, c_edges[j]:c_edges[j] + wall] = True
    for i in range(1, n_rooms):       # doors through horizontal walls
        for j in range(n_rooms):
            lo, hi = c_edges[j] + wall, c_edges[j + 1] - door
            pos = int(rng.integers(lo, max(lo + 1, hi)))
            grid[r_edges[i]:r_edges[i] + wall, pos:pos + door] = True
    return grid


def _maze_grid(h, w, rng):
    cell, wall = 4, 2
    pitch = cell + wall
    n_r = max(2, (h - wall) // pitch)
    n_c = max(2, (w - wall) // pitch)
    grid = np.zeros((h, w), dtype=bool)

    def carve_cell(i, j):
        r = wall + i * pitch
        c = wall + j * pitch
        grid[r:r + cell, c:c + cell] = True

    def carve_wall(i, j, di, dj):
        r = wall + i * pitch
        c = wall + j * pitch
        if di:
            rr = r + cell if di > 0 else r - wall
            grid[rr:rr + wall, c:c + cell] = True
        else:
            cc = c + cell if dj > 0 else c - wall
            grid[r:r + cell, cc:cc + wall] = True

    visited = np.zeros((n_r, n_c), dtype=bool)
    stack = [(0, 0)]
    visited[0, 0] = True
    carve_cell(0, 0)
    while stack:
        i, j = stack[-1]
        options = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n_r and 0 <= nj < n_c and not visited[ni, nj]:
                options.append((ni, nj, di, dj))
        if not options:
            stack.pop()
            continue
        ni, nj, di, dj = options[rng.integers(len(options))]
        carve_wall(i, j, di, dj)
        carve_cell(ni, nj)
        visited[ni, nj] = True
        stack.append((ni, nj))
    # a few extra openings so the maze offers alternative routes
    for _ in range(n_r * n_c // 3):
        i = int(rng.integers(0, n_r))
        j = int(rng.integers(0, n_c - 1))
        carve_wall(i, j, 0, 1)
    return grid


def generate_environment(kind: str, size: tuple, resolution: float, seed: int) -> NavEnvironment:
    """Deterministic synthetic environment; connected, >= 20% navigable."""
    h, w = as_int_array(size, "size", shape=(2,)).tolist()
    if h < MIN_SIZE or w < MIN_SIZE:
        raise ValueError(f"environment size must be at least {MIN_SIZE}x{MIN_SIZE}, got {h}x{w}")
    if kind not in ENV_KINDS:
        raise ValueError(f"unknown environment kind {kind!r}; pick one of {ENV_KINDS}")
    rng = np.random.default_rng(np.random.SeedSequence([ENV_KINDS.index(kind), seed]))
    grid = {"corridor": _corridor_grid, "rooms": _rooms_grid, "maze": _maze_grid}[kind](h, w, rng)
    # a diagonal step needs both orthogonal neighbours, so Dijkstra reaches
    # exactly the 4-connected component of its start
    reach, _ = _dijkstra(grid, tuple(np.argwhere(grid)[0]), 1.0)
    if not np.isfinite(reach[grid]).all():
        raise RuntimeError(f"{kind} layout came out disconnected (seed {seed})")
    coverage = grid.mean()
    if coverage < MIN_COVERAGE:
        raise RuntimeError(f"{kind} layout covers only {coverage:.0%} (seed {seed})")
    return NavEnvironment.from_grid(grid, resolution, origin=(0.0, 0.0))


# ------------------------------------------------------------- trajectories

def _dijkstra(grid: np.ndarray, start: tuple, resolution: float):
    """Shortest-path distances (meters) and predecessors on the pixel graph.

    8-connected; diagonal moves require both orthogonal neighbors navigable
    so paths cannot cut through blocked corners.
    """
    # flat indices into the grid padded with a blocked border: no move needs
    # a bounds check, and heap ties still break in (row, col) order
    h, stride = grid.shape[0] + 2, grid.shape[1] + 2
    free = np.pad(grid.astype(bool), 1).ravel().tolist()
    dist, pred = [np.inf] * len(free), [-1] * len(free)
    src = (int(start[0]) + 1) * stride + int(start[1]) + 1
    dist[src] = 0.0
    heap = [(0.0, src)]
    step, diag = float(resolution), float(resolution * np.sqrt(2.0))
    moves = [(dr * stride + dc, dr * stride, dc)
             for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for move, vert, horiz in moves:
            v = u + move
            if not free[v] or (vert and horiz and not (free[u + vert] and free[u + horiz])):
                continue
            nd = d + (diag if vert and horiz else step)
            if nd < dist[v]:
                dist[v], pred[v] = nd, u
                heapq.heappush(heap, (nd, v))
    pred = np.array(pred).reshape(h, stride)[1:-1, 1:-1]
    cells = np.stack(np.divmod(pred, stride), axis=-1) - 1
    cells[pred < 0] = -1
    return np.array(dist).reshape(h, stride)[1:-1, 1:-1], cells


def _walk_back(pred, start, goal):
    path = [goal]
    node = goal
    while node != start:
        node = tuple(pred[node])
        path.append(node)
    return path[::-1]


def _resample_by_arclength(points: np.ndarray, spacings: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    out = np.empty((spacings.size, 2))
    out[:, 0] = np.interp(spacings, cum, points[:, 0])
    out[:, 1] = np.interp(spacings, cum, points[:, 1])
    return out


def _moving_average3(traj: np.ndarray) -> np.ndarray:
    padded = np.vstack([traj[:1], traj, traj[-1:]])
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def generate_trajectory(env: NavEnvironment, t_total: int, frame_dt: float,
                        speed_range: tuple, seed: int) -> np.ndarray:
    """Navigable (T, 2) trajectory along a shortest path at a sampled speed."""
    rng = np.random.default_rng(np.random.SeedSequence([2617, seed]))
    nav_cells = np.argwhere(env.nav_grid)
    sigma = 0.05 * env.resolution
    failures = 0
    while failures <= TRAJECTORY_RETRIES:
        start = tuple(nav_cells[rng.integers(len(nav_cells))])
        speed = float(rng.uniform(*speed_range))
        needed = (t_total - 1) * frame_dt * speed
        dist, pred = _dijkstra(env.nav_grid, start, env.resolution)
        reachable = np.isfinite(dist)
        candidates = np.argwhere(reachable & (dist >= needed) & (dist <= 1.6 * needed))
        if candidates.size == 0:
            candidates = np.argwhere(reachable & (dist >= needed))
        if candidates.size == 0:
            failures += 1
            continue
        goal = tuple(candidates[rng.integers(len(candidates))])
        cells = np.array(_walk_back(pred, start, goal))
        points = env.pixel_to_world(cells[:, 0], cells[:, 1])
        base = _moving_average3(
            _resample_by_arclength(points, np.arange(t_total) * frame_dt * speed)
        )
        for _ in range(5):
            noise = np.clip(rng.normal(0.0, sigma, size=base.shape), -2 * sigma, 2 * sigma)
            traj = base + noise
            if ecfl_check(env, traj, t_obs=0):
                return traj
            failures += 1
            if failures > TRAJECTORY_RETRIES:
                break
    raise RuntimeError(f"no navigable trajectory after {TRAJECTORY_RETRIES} retries")


# ------------------------------------------------------------- intent oracle

def _project_to_navigable(env: NavEnvironment, pos: np.ndarray) -> np.ndarray | None:
    """Center of the nearest navigable cell within PROJECTION_RADIUS_CELLS, or None."""
    row, col = env.nearest_pixel(pos)
    h, w = env.shape
    rad = PROJECTION_RADIUS_CELLS
    r_lo, r_hi = max(0, row - rad), min(h, row + rad + 1)
    c_lo, c_hi = max(0, col - rad), min(w, col + rad + 1)
    window = env.nav_grid[r_lo:r_hi, c_lo:c_hi]
    cells = np.argwhere(window)
    if cells.size == 0:
        return None
    centers = env.pixel_to_world(cells[:, 0] + r_lo, cells[:, 1] + c_lo)
    j = int(np.argmin(np.linalg.norm(centers - pos, axis=1)))
    return centers[j]


def intent_oracle(trajectory: np.ndarray, t_obs: int, cfg: IntentOracleConfig,
                  env: NavEnvironment, k_samples: int, seed: int, frame_dt: float) -> list:
    """K conditioning sets for one ground-truth trajectory.

    Anchors are the ground-truth positions at the configured frames plus the
    goal, perturbed by goal_noise_sigma and projected to the nearest
    navigable cell center. With diversify, intents 1..K-1 swap the goal for
    distinct alternate endpoints reachable within the prediction horizon.
    Intents whose anchors cannot be projected are dropped, so fewer than K
    may come back.
    """
    traj = as_float_array(trajectory, "trajectory", shape=(None, 2))
    t_total = traj.shape[0]
    t_pred = t_total - t_obs
    wframes = cfg.resolved_frames(t_obs, t_pred)
    goal_frame = t_total - 1
    frames = list(range(t_obs)) + wframes + [goal_frame]
    rng = np.random.default_rng(np.random.SeedSequence([9041, seed]))

    alt_goals = []
    if cfg.diversify and k_samples > 1:
        dist, _ = _dijkstra(env.nav_grid, env.nearest_pixel(traj[t_obs - 1]), env.resolution)
        steps = np.linalg.norm(np.diff(traj[:t_obs], axis=0), axis=1)
        v_est = max(float(steps.mean()) / frame_dt, 0.1) if steps.size else 1.0
        budget = v_est * t_pred * frame_dt
        cells = np.argwhere(np.isfinite(dist) & (dist >= 0.4 * budget) & (dist <= 1.2 * budget))
        if cells.size:
            order = rng.permutation(len(cells))[: k_samples - 1]
            alt_goals = [env.pixel_to_world(*cells[j]) for j in order]

    intents = []
    for k in range(k_samples):
        anchors = traj[wframes + [goal_frame]] + rng.normal(
            0.0, cfg.goal_noise_sigma, size=(len(wframes) + 1, 2)
        )
        projected = [_project_to_navigable(env, a) for a in anchors]
        if any(p is None for p in projected):
            continue  # projection failed: this intent is aborted
        if cfg.diversify and k >= 1 and alt_goals:
            projected[-1] = alt_goals[(k - 1) % len(alt_goals)]
        values = np.vstack([traj[:t_obs], *projected])
        intents.append(ConditionSpec(frames, values))
    return intents


# ------------------------------------------------------------------ datasets

def generate_dataset(kinds, n_scenes: int, n_agents: int, size, resolution,
                     t_obs: int, t_pred: int, frame_dt: float, speed_range,
                     intent_cfg: IntentOracleConfig, k_intents: int, seed: int) -> list:
    """n_scenes scenes cycling through the list `kinds`; deterministic per seed."""
    scenes = []
    for s in range(n_scenes):
        seed_s = seed * 7919 + s
        env = generate_environment(kinds[s % len(kinds)], size, resolution, seed_s)
        agents = []
        for a in range(n_agents):
            agent_seed = seed_s * 1009 + a
            traj = generate_trajectory(env, t_obs + t_pred, frame_dt, speed_range, agent_seed)
            intents = intent_oracle(traj, t_obs, intent_cfg, env, k_intents, agent_seed, frame_dt)
            agents.append(AgentTrack(agent_id=a, trajectory=traj, intents=intents))
        scenes.append(Scene(f"scene_{s:04d}", env, agents, t_obs, t_pred, frame_dt))
    return scenes


def write_dataset(scenes: list, out_dir) -> None:
    """Write scenes under `out_dir`. dataset.json holds one frame split and
    frame_dt, so every scene must share the first's; a scene that does not is
    refused before anything is written, and so is an empty list."""
    if not scenes:
        raise ValueError("no scene to write: read_dataset needs at least one scene")
    split = {key: getattr(scenes[0], key) for key in ("t_obs", "t_pred", "frame_dt")}
    for scene in scenes:
        theirs = {key: getattr(scene, key) for key in split}
        if theirs != split:
            raise ValueError(f"scene {scene.scene_id!r} has {theirs}, not the {split} of scene "
                             f"{scenes[0].scene_id!r}: dataset.json holds one split")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {**split, "scene_ids": [s.scene_id for s in scenes]}
    (out_dir / "dataset.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    for scene in scenes:
        sdir = out_dir / scene.scene_id
        sdir.mkdir(exist_ok=True)
        save_environment(scene.env, sdir / "map.pgm", sdir / "map.json")
        with open(sdir / "agents.jsonl", "w") as fh:
            for agent in scene.agents:
                record = {
                    "scene_id": scene.scene_id,
                    "agent_id": agent.agent_id,
                    "frames": agent.trajectory.tolist(),
                    "intents": [
                        {"frames": spec.frames.tolist(), "values": spec.values.tolist()}
                        for spec in agent.intents
                    ],
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _read_meta(meta_path: Path) -> tuple:
    """(t_obs, t_pred, frame_dt, scene_ids) from a dataset's dataset.json."""
    try:
        meta = json.loads(meta_path.read_text())
        t_obs, t_pred = (as_int(meta[key], key) for key in ("t_obs", "t_pred"))
        frame_dt = check_positive(meta["frame_dt"], "frame_dt")
        for key, value in (("t_obs", t_obs), ("t_pred", t_pred)):
            if value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
        scene_ids = meta["scene_ids"]
        if type(scene_ids) is not list or not scene_ids:
            raise ValueError(f"scene_ids must be a non-empty list, got {scene_ids!r}")
        for sid in scene_ids:
            if type(sid) is not str or "/" in sid or sid in ("", ".", ".."):
                raise ValueError(f"scene id {sid!r} does not name a subdirectory")
        if len(set(scene_ids)) < len(scene_ids):
            raise ValueError(f"scene_ids list {Counter(scene_ids).most_common(1)[0][0]!r} twice")
    except KeyError as exc:
        raise ValueError(f"{meta_path}: lacks {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # not JSON, not an object, or a bad value
        raise ValueError(f"{meta_path}: {exc}") from exc
    return t_obs, t_pred, frame_dt, scene_ids


def _read_intents(intents) -> list:
    """An agent record's `intents` as ConditionSpecs, each entry checked to
    be a {"frames", "values"} object and named by its 0-based index."""
    if not isinstance(intents, list):
        raise ValueError("intents must be a list")
    specs = []
    for i, spec in enumerate(intents):
        check_object(spec, ("frames", "values"), f"intent {i}")
        specs.append(ConditionSpec(spec["frames"], spec["values"]))
    return specs


def read_dataset(data_dir) -> list:
    """Read scenes back; raises with file/line context on malformed records.

    The frame split and the scenes, in order, come from dataset.json. A
    directory it does not list is ignored, a listed scene without its
    directory is skipped, and each scene (map, then agents.jsonl) is read
    before the next, so the first fault in scene order is raised. Every
    record's `scene_id` must name its directory, its frames must span the
    split, and its intents, a list of {"frames", "values"} objects, must pass
    `check_intents`; a bad intent is named by its 0-based index.
    """
    data_dir = Path(data_dir)
    meta_path = data_dir / "dataset.json"
    t_obs, t_pred, frame_dt, scene_ids = _read_meta(meta_path)
    scenes = []
    for sdir in filter(Path.is_dir, (data_dir / sid for sid in scene_ids)):
        env = load_environment(sdir / "map.pgm", sdir / "map.json")
        agents = []
        first_seen = {}  # agent_id -> "<file>:<line>" of its record
        for where, record in read_jsonl(sdir / "agents.jsonl", "agent record",
                                        ("scene_id", "agent_id", "frames", "intents")):
            try:
                traj = as_float_array(record["frames"], "frames", shape=(t_obs + t_pred, 2))
                intents = _read_intents(record["intents"])
                if intents:
                    check_intents(intents, traj[:t_obs], t_pred)
                agent_id = as_int(record["agent_id"], "agent_id")
                first = first_seen.setdefault(agent_id, where)
                if first != where:
                    raise ValueError(f"agent_id {agent_id} repeats the record on line "
                                     f"{first.rpartition(':')[2]}")
                if record["scene_id"] != sdir.name:
                    raise ValueError(f"scene_id {record['scene_id']!r} is not {sdir.name!r}")
                agents.append(AgentTrack(agent_id, traj, intents))
            except (LookupError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{where}: malformed agent record: {exc}") from exc
        scenes.append(Scene(sdir.name, env, agents, t_obs, t_pred, frame_dt))
    if not scenes:
        raise FileNotFoundError(f"{meta_path}: none of its scene_ids is a directory in {data_dir}")
    return scenes
