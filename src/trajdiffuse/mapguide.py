"""Navigability maps and gradient-based trajectory guidance.

A NavEnvironment wraps a binary navigability grid with its exact Euclidean
distance field (meters to the nearest navigable pixel center, zero inside
navigable cells), the central-difference gradient of that field, and the
world <-> pixel transform. Guidance walks each future frame of a trajectory
down the distance field and shifts all later frames along with it, so the
local shape of the prediction is preserved while collisions are removed.

Grid convention: nav_grid[row, col] with row <-> y and col <-> x; `origin`
is the world coordinate of pixel (0, 0)'s center. World positions map to
pixels by nearest center, rounding halves away from zero; positions outside
the grid count as collisions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .validation import as_float_array, as_int, as_number, check_positive


def _column_sq_dist(nav: np.ndarray) -> np.ndarray:
    """Squared pixel distance to the nearest navigable pixel in the same column
    of the (H, W) map `nav`: the nearest navigable row above is a running
    maximum down the column, the nearest below a running minimum up it. A
    column with no navigable pixel gets H**2 + W**2, above any true value."""
    h, w = nav.shape
    rows = np.arange(h).reshape(h, 1)
    above = np.maximum.accumulate(np.where(nav, rows, -h), axis=0)
    below = np.minimum.accumulate(np.where(nav, rows, 2 * h)[::-1], axis=0)[::-1]
    gap = np.minimum(rows - above, below - rows)  # >= h only where the column is all blocked
    return np.where(gap < h, gap * gap, h * h + w * w)


def _row_sq_dist(col_d2: np.ndarray) -> np.ndarray:
    """min over columns c' of col_d2[r, c'] + (c - c')**2, one offset
    d = c - c' at a time from each side. A row is done once d**2 reaches its
    largest value, as no farther column can lower it; the rows still running
    are gathered every 4 offsets."""
    out = col_d2.copy()
    live = np.arange(out.shape[0])  # rows still running
    f, g = col_d2, out  # their column pass and their values so far
    d = 1
    while live.size and d < out.shape[1]:
        if d % 4 == 1:
            done = g.max(axis=1) <= d * d
            out[live[done]] = g[done]
            live, f, g = live[~done], f[~done], g[~done]
        np.minimum(g[:, d:], f[:, :-d] + d * d, out=g[:, d:])
        np.minimum(g[:, :-d], f[:, d:] + d * d, out=g[:, :-d])
        d += 1
    out[live] = g
    return out


def distance_transform(nav_grid: np.ndarray, resolution: float) -> np.ndarray:
    """Exact Euclidean distance (meters) to the nearest navigable pixel center
    of one (H, W) map. Two cumulative scans per column, then a shifted
    minimum along the rows, all in integers. The row pass costs O(H * W * D),
    D the largest distance on the map in pixels, so a large map with few
    navigable pixels is slow.
    """
    nav_grid = np.asarray(nav_grid, dtype=bool)
    check_positive(resolution, "resolution")
    if nav_grid.ndim != 2 or nav_grid.size == 0:
        raise ValueError("nav_grid must be a non-empty (H, W) boolean array, "
                         f"got shape {nav_grid.shape}")
    if not nav_grid.any():
        raise ValueError("nav_grid has no navigable pixel")
    return np.sqrt(_row_sq_dist(_column_sq_dist(nav_grid))) * resolution


def gradient_field(dist_field: np.ndarray, resolution: float) -> np.ndarray:
    """Central-difference gradient of the distance field, (H, W, 2) as (d/dx, d/dy).

    One-sided differences at the borders, and zero along an axis of length 1;
    slopes are dimensionless (meters of distance per meter of world
    displacement).
    """
    dist = as_float_array(dist_field, "dist_field")
    check_positive(resolution, "resolution")
    gx, gy = (np.gradient(dist, resolution, axis=axis) if dist.shape[axis] > 1
              else np.zeros_like(dist) for axis in (1, 0))
    return np.stack([gx, gy], axis=-1)


def _check_extent(shape: tuple, resolution: float, origin: np.ndarray) -> None:
    """Raise unless the world <-> pixel transform of every pixel stays finite."""
    h, w = shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = origin / resolution
        far = origin + resolution * np.array([w - 1, h - 1], dtype=np.float64)
    if not (np.isfinite(scaled).all() and np.isfinite(far).all()):
        raise ValueError(f"origin {origin.tolist()} with {w}x{h} px at {resolution} m/px "
                         "overflows the world <-> pixel transform")


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(v) + 0.5), v)


def _round_half_away_int(v: float) -> int:
    """`_round_half_away` of one float, as an int, by the same IEEE ops. NaN
    raises ValueError and +-inf OverflowError, as int() of the array rule's
    result does."""
    r = math.floor(abs(v) + 0.5)
    return -r if v < 0 else r


@dataclass(frozen=True)
class NavEnvironment:
    """Immutable navigability grid with precomputed distance and gradient fields."""

    nav_grid: np.ndarray
    resolution: float
    origin: np.ndarray  # world (x, y) of pixel (0, 0)'s center
    dist_field: np.ndarray
    grad_field: np.ndarray

    def __post_init__(self):
        self.nav_grid.setflags(write=False)
        self.dist_field.setflags(write=False)
        self.grad_field.setflags(write=False)
        self.origin.setflags(write=False)

    @classmethod
    def from_grid(cls, nav_grid, resolution: float, origin=(0.0, 0.0)) -> "NavEnvironment":
        nav_grid = np.array(nav_grid, dtype=bool)
        resolution = check_positive(resolution, "resolution")
        dist = distance_transform(nav_grid, resolution)  # checks the map's shape
        origin = np.array(origin, dtype=np.float64).reshape(2)
        _check_extent(nav_grid.shape, resolution, origin)
        return cls(nav_grid, resolution, origin, dist, gradient_field(dist, resolution))

    @property
    def shape(self) -> tuple[int, int]:
        return self.nav_grid.shape

    def world_to_pixel(self, pos) -> np.ndarray:
        """Continuous pixel coordinates (px, py) of a point or a (..., 2) array of points."""
        return (np.asarray(pos, dtype=np.float64) - self.origin) / self.resolution

    def pixel_to_world(self, row, col) -> np.ndarray:
        """World (x, y) of pixel centers; row and col may be equal-shape arrays."""
        return self.origin + self.resolution * np.stack([col, row], axis=-1, dtype=np.float64)

    def _pixel_floats(self, pos) -> tuple[float, float]:
        """`world_to_pixel` of one (x, y) point as two Python floats, by the
        same IEEE ops; a float at a time costs a fraction of numpy's per-call
        overhead on a 2-element array."""
        x, y = np.asarray(pos, dtype=np.float64).tolist()
        ox, oy = self.origin.tolist()
        return (x - ox) / self.resolution, (y - oy) / self.resolution

    def nearest_pixel(self, pos) -> tuple[int, int]:
        """(row, col) of the nearest pixel center, halves rounded away from zero."""
        px, py = self._pixel_floats(pos)
        return _round_half_away_int(py), _round_half_away_int(px)

    def is_navigable_point(self, pos) -> bool:
        """Whether one (x, y) point's nearest pixel is on the map and navigable:
        the point rule of `ecfl_check`, a float at a time."""
        row, col = self.nearest_pixel(pos)
        h, w = self.nav_grid.shape
        return 0 <= row < h and 0 <= col < w and self.nav_grid.item(row, col)


def sample_gradient(env: NavEnvironment, pos) -> np.ndarray:
    """Gradient of the distance-to-navigable field at a world position.

    Inside the interpolable grid this is the bilinear interpolation of the
    gradient field. Outside it, where the distance grows with the distance
    from the map, it is the unit vector from the grid center to the point.
    Either way, stepping along the negative gradient heads for navigable
    ground. A non-finite pixel position raises what `nearest_pixel` raises.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(2)
    h, w = env.shape
    px, py = env._pixel_floats(pos)
    if not (0.0 <= px <= w - 1 and 0.0 <= py <= h - 1):
        if not (math.isfinite(px) and math.isfinite(py)):
            env.nearest_pixel(pos)  # ValueError for NaN, OverflowError for inf
        center = env.pixel_to_world((h - 1) / 2.0, (w - 1) / 2.0)
        delta = pos - center
        return delta / np.linalg.norm(delta)
    c0 = math.floor(px)
    r0 = math.floor(py)
    c1 = min(c0 + 1, w - 1)
    r1 = min(r0 + 1, h - 1)
    fx = px - c0
    fy = py - r0
    # the four weights and the left-to-right sum of the (2,)-array formula
    # (1-fx)(1-fy) g[r0,c0] + fx(1-fy) g[r0,c1] + (1-fx)fy g[r1,c0] + fx fy g[r1,c1],
    # one component at a time: the same IEEE ops in the same order
    w00, w01, w10, w11 = (1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy
    g = env.grad_field.item
    return np.array([
        w00 * g(r0, c0, 0) + w01 * g(r0, c1, 0) + w10 * g(r1, c0, 0) + w11 * g(r1, c1, 0),
        w00 * g(r0, c0, 1) + w01 * g(r0, c1, 1) + w10 * g(r1, c0, 1) + w11 * g(r1, c1, 1),
    ])


def _check_t_obs(t_obs, t_total: int) -> int:
    """`t_obs` by the integer rule, in 0..t_total (t_total: no future frame)."""
    t_obs = as_int(t_obs, "t_obs")
    if not 0 <= t_obs <= t_total:
        raise ValueError(f"t_obs {t_obs} out of range for {t_total} frames")
    return t_obs


def guidance_delta(env: NavEnvironment, traj: np.ndarray, t_obs: int,
                   n_grad_steps: int) -> np.ndarray:
    """Correction that drags colliding future frames onto navigable ground.

    Frames are processed in time order; each takes up to n_grad_steps steps of
    one pixel (env.resolution) times the negative distance gradient. A step at
    frame f also shifts every later frame by the same amount (suffix shift), so
    downstream shape is preserved. Frames whose nearest cell is already
    navigable take no step; observed frames are untouched.
    """
    n_grad_steps = as_int(n_grad_steps, "n_grad_steps")
    if n_grad_steps < 1:
        raise ValueError(f"n_grad_steps must be >= 1, got {n_grad_steps}")
    traj = as_float_array(traj, "trajectory", shape=(None, 2))
    t_total = traj.shape[0]
    t_obs = _check_t_obs(t_obs, t_total)
    step = env.resolution
    work = traj.copy()
    for f in range(t_obs, t_total):
        for _ in range(n_grad_steps):
            if env.is_navigable_point(work[f]):
                break  # this frame's remaining steps are all zero
            work[f:] -= step * sample_gradient(env, work[f])
    return work - traj


def ecfl_check(env: NavEnvironment, trajs, t_obs: int = 0) -> np.ndarray:
    """One flag per trajectory of a (..., T, 2) array: True iff every frame
    from t_obs on has its nearest pixel on the map and navigable (off the map
    counts as blocked). A (T, 2) trajectory gives a 0-d bool."""
    trajs = as_float_array(trajs, "trajectories")
    if trajs.ndim < 2 or trajs.shape[-1] != 2 or trajs.shape[-2] < 1:
        raise ValueError(f"trajectories must have shape (..., T >= 1, 2), got {trajs.shape}")
    future = trajs[..., _check_t_obs(t_obs, trajs.shape[-2]):, :]
    pixel = _round_half_away(env.world_to_pixel(future)).astype(np.intp)
    cols, rows = pixel[..., 0], pixel[..., 1]
    h, w = env.shape
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    navigable = np.zeros(ok.shape, dtype=bool)
    navigable[ok] = env.nav_grid[rows[ok], cols[ok]]
    return navigable.all(axis=-1)


# ------------------------------------------------------------------ map files

def write_pgm(path, nav_grid: np.ndarray) -> None:
    """Binary PGM (P5), 255 = navigable, 0 = blocked."""
    nav_grid = np.asarray(nav_grid, dtype=bool)
    h, w = nav_grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((nav_grid.astype(np.uint8) * 255).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read P2 (ASCII) or P5 (binary) PGM; only values 0 and 255 are accepted."""
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a P2/P5 PGM file")
    binary = data[:2] == b"P5"

    # strip comments, then tokenize the header
    header_tokens: list[int] = []
    pos = 2
    while len(header_tokens) < 3:
        match = re.match(rb"\s*(#[^\n]*\n|\S+)", data[pos:])
        if match is None:
            raise ValueError(f"{path}: truncated PGM header")
        token = match.group(1)
        pos += match.end()
        if not token.startswith(b"#"):
            try:
                header_tokens.append(int(token))
            except ValueError as exc:
                raise ValueError(f"{path}: PGM header token {token!r} is not an integer") from exc
    w, h, maxval = header_tokens
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM dimensions must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    if binary:
        # the payload is everything after the single whitespace that ends the header
        pixels = np.frombuffer(data[pos + 1:], dtype=np.uint8)
    else:
        try:
            pixels = np.array(data[pos:].split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: P2 pixel values must be integers: {exc}") from exc
    if pixels.size != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, got {pixels.size}")
    values = np.unique(pixels)
    if not np.isin(values, (0, 255)).all():
        raise ValueError(f"{path}: pixel values must be 0 or 255, found {values.tolist()}")
    return (pixels.reshape(h, w) == 255)


def save_environment(env: NavEnvironment, pgm_path, json_path) -> None:
    write_pgm(pgm_path, env.nav_grid)
    meta = {
        "resolution_m_per_px": env.resolution,
        "origin_x_m": float(env.origin[0]),
        "origin_y_m": float(env.origin[1]),
    }
    Path(json_path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def _read_map_meta(json_path) -> tuple[float, np.ndarray]:
    """(resolution, origin) from a map's JSON sidecar."""
    if not Path(json_path).exists():
        raise FileNotFoundError(f"missing map metadata: {json_path}")
    try:
        meta = json.loads(Path(json_path).read_text())
        resolution = check_positive(meta["resolution_m_per_px"], "resolution_m_per_px")
        origin = as_float_array(
            [as_number(meta[key], key) for key in ("origin_x_m", "origin_y_m")], "origin")
    except KeyError as exc:
        raise ValueError(f"{json_path}: map metadata lacks {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{json_path}: bad map metadata: {exc}") from exc
    return resolution, origin


def load_environment(pgm_path, json_path) -> NavEnvironment:
    """The NavEnvironment that `save_environment` wrote to these two files. Both
    are read and checked before `from_grid` builds its fields, so each error names its file."""
    resolution, origin = _read_map_meta(json_path)
    nav_grid = read_pgm(pgm_path)
    try:
        _check_extent(nav_grid.shape, resolution, origin)
    except ValueError as exc:
        raise ValueError(f"{json_path}: bad map metadata: {exc}") from exc
    if not nav_grid.any():
        raise ValueError(f"{pgm_path}: nav_grid has no navigable pixel")
    return NavEnvironment.from_grid(nav_grid, resolution, origin)
