import re
from dataclasses import FrozenInstanceError, fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse.mapguide import (
    NavEnvironment,
    distance_transform,
    ecfl_check,
    gradient_field,
    guidance_delta,
    load_environment,
    read_pgm,
    sample_gradient,
    save_environment,
    write_pgm,
)


def brute_force_distance(grid, res):
    """O(H^2 W^2) oracle: min squared pixel distance to any navigable pixel."""
    h, w = grid.shape
    rows, cols = np.nonzero(grid)
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    d2 = (rr[..., None] - rows) ** 2 + (cc[..., None] - cols) ** 2
    return np.sqrt(d2.min(axis=-1).astype(np.float64)) * res


def half_plane_env(width=20, height=5, res=1.0):
    """Navigable where x < 0; cell boundary exactly at x = 0."""
    grid = np.zeros((height, width), dtype=bool)
    grid[:, : width // 2] = True
    origin = ((-(width // 2) + 0.5) * res, -(height // 2) * res)
    return NavEnvironment(grid, res, origin)


# ---------------------------------------------------------- distance transform

def test_all_navigable_gives_zeros():
    grid = np.ones((6, 7), dtype=bool)
    np.testing.assert_array_equal(distance_transform(grid, 0.5), np.zeros((6, 7)))


def test_single_navigable_pixel_definition():
    grid = np.zeros((5, 6), dtype=bool)
    grid[0, 0] = True
    res = 0.25
    d = distance_transform(grid, res)
    for i in range(5):
        for j in range(6):
            assert d[i, j] == res * np.sqrt(i * i + j * j)


def test_distance_matches_brute_force_on_random_grids():
    rng = np.random.default_rng(0)
    for _ in range(30):
        grid = rng.random((8, 8)) < 0.4
        if not grid.any():
            grid[rng.integers(8), rng.integers(8)] = True
        res = float(rng.uniform(0.1, 2.0))
        np.testing.assert_array_equal(
            distance_transform(grid, res), brute_force_distance(grid, res)
        )

    blocked_lines = rng.random((9, 11)) < 0.4
    blocked_lines[4, :] = False
    blocked_lines[:, 6] = False  # no navigable pixel: H**2 + W**2 after the column pass
    blocked_lines[0, 0] = True
    corner = np.zeros((40, 150), dtype=bool)
    corner[39, 149] = True
    edge_shapes = [
        np.ones((1, 1), dtype=bool),
        (np.arange(13) % 5 == 2).reshape(1, 13),
        (np.arange(17) % 7 == 0).reshape(17, 1),
        blocked_lines,
        corner,
    ]
    for grid in edge_shapes:
        np.testing.assert_array_equal(
            distance_transform(grid, 0.3), brute_force_distance(grid, 0.3)
        )


def random_stack(rng, n, h, w):
    """n random (h, w) maps, some with columns that hold no navigable pixel."""
    stack = rng.random((n, h, w)) < float(rng.uniform(0.05, 0.6))
    stack[:, :, rng.random(w) < 0.3] = False
    for grid in stack:
        if not grid.any():
            grid[rng.integers(h), rng.integers(w)] = True
    return stack


def test_distance_matches_brute_force_per_map():
    rng = np.random.default_rng(21)
    shapes = [(1, 1), (1, 9), (12, 1), (2, 3), (7, 7), (13, 5), (6, 31)]
    for trial in range(40):
        h, w = shapes[trial] if trial < len(shapes) else rng.integers(1, 20, 2)
        stack = random_stack(rng, int(rng.integers(1, 6)), int(h), int(w))
        res = float(rng.uniform(0.1, 2.0))
        for i, grid in enumerate(stack):
            np.testing.assert_array_equal(distance_transform(grid, res),
                                          brute_force_distance(grid, res),
                                          err_msg=f"trial {trial}, map {i}")


@pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
def test_distance_from_one_corner_pixel_of_a_non_square_map(corner):
    # the largest distance a map of this shape can hold: the row pass runs longest
    grid = np.zeros((23, 37), dtype=bool)
    grid[corner] = True
    np.testing.assert_array_equal(distance_transform(grid, 0.7), brute_force_distance(grid, 0.7))


@pytest.mark.parametrize("col", [0, 9, 30])
def test_distance_from_one_navigable_column(col):
    # every row reaches its largest distance at the far end of the row
    grid = np.zeros((14, 31), dtype=bool)
    grid[:, col] = True
    np.testing.assert_array_equal(distance_transform(grid, 0.4), brute_force_distance(grid, 0.4))


def test_a_stack_of_maps_is_rejected():
    with pytest.raises(ValueError, match=re.escape("(H, W) boolean array, got shape (3, 4, 5)")):
        distance_transform(np.ones((3, 4, 5), dtype=bool), 1.0)


def test_all_blocked_grid_rejected():
    with pytest.raises(ValueError):
        distance_transform(np.zeros((4, 4), dtype=bool), 1.0)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 16), w=st.integers(2, 16))
def test_distance_is_lipschitz_and_zero_iff_navigable(seed, h, w):
    rng = np.random.default_rng(seed)
    grid = rng.random((h, w)) < 0.35
    if not grid.any():
        grid[rng.integers(h), rng.integers(w)] = True
    res = 0.5
    d = distance_transform(grid, res)
    np.testing.assert_array_equal(d == 0.0, grid)
    # 1-Lipschitz between 4-neighbors in world units
    assert np.all(np.abs(np.diff(d, axis=0)) <= res + 1e-12)
    assert np.all(np.abs(np.diff(d, axis=1)) <= res + 1e-12)


# ------------------------------------------------------------- gradient field

def test_constant_field_has_zero_gradient():
    g = gradient_field(np.full((5, 5), 3.0), 1.0)
    np.testing.assert_array_equal(g, np.zeros((5, 5, 2)))


def test_half_plane_ramp_interior_gradient():
    env = half_plane_env()
    h, w = env.shape
    interior = env.grad_field[1:-1, w // 2 + 1:-1]
    np.testing.assert_allclose(interior[..., 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(interior[..., 1], 0.0, atol=1e-12)


def test_gradient_matches_scalar_central_difference_oracle():
    rng = np.random.default_rng(1)
    res = 0.5
    for shape in [(6, 7), (1, 7), (6, 1), (2, 2)]:
        dist = rng.random(shape)
        g = gradient_field(dist, res)
        h, w = dist.shape
        for r in range(h):
            for c in range(w):
                if w == 1:
                    gx = 0.0
                elif 0 < c < w - 1:
                    gx = (dist[r, c + 1] - dist[r, c - 1]) / (2 * res)
                elif c == 0:
                    gx = (dist[r, 1] - dist[r, 0]) / res
                else:
                    gx = (dist[r, c] - dist[r, c - 1]) / res
                if h == 1:
                    gy = 0.0
                elif 0 < r < h - 1:
                    gy = (dist[r + 1, c] - dist[r - 1, c]) / (2 * res)
                elif r == 0:
                    gy = (dist[1, c] - dist[0, c]) / res
                else:
                    gy = (dist[r, c] - dist[r - 1, c]) / res
                assert g[r, c, 0] == gx and g[r, c, 1] == gy, (shape, r, c)


def test_gradient_zero_strictly_inside_navigable():
    rng = np.random.default_rng(2)
    grid = rng.random((12, 12)) < 0.5
    grid[4:8, 4:8] = True
    env = NavEnvironment(grid, 1.0)
    np.testing.assert_array_equal(env.grad_field[5:7, 5:7], np.zeros((2, 2, 2)))


# ----------------------------------------------------------------- the map

def test_the_constructor_is_the_one_way_in_and_keeps_the_gradient_only():
    grid = np.random.default_rng(4).random((6, 9)) < 0.5
    grid[2, 3] = True
    env = NavEnvironment(grid, 0.25, origin=[-1, 2])
    assert [f.name for f in fields(env)] == ["nav_grid", "resolution", "origin", "grad_field"]
    assert not hasattr(env, "from_grid") and not hasattr(env, "dist_field")
    want = gradient_field(distance_transform(grid, 0.25), 0.25)
    assert env.grad_field.tobytes() == want.tobytes() and env.grad_field.shape == (6, 9, 2)
    assert env.origin.tolist() == [-1.0, 2.0] and env.resolution == 0.25
    for array in (env.nav_grid, env.origin, env.grad_field):
        assert not array.flags.writeable
    assert grid.flags.writeable and not np.shares_memory(grid, env.nav_grid)
    with pytest.raises(FrozenInstanceError):
        env.resolution = 0.5
    with pytest.raises(TypeError):
        NavEnvironment(env.nav_grid, env.resolution, env.origin, want, env.grad_field)


@pytest.mark.parametrize("grid, resolution, origin, problem", [
    (np.ones((3, 4)), 0.0, (0, 0), "resolution must be positive and finite, got 0.0"),
    (np.ones((3, 4)), True, (0, 0), "resolution must be a number, got True"),
    (np.ones((3, 4, 5)), 1.0, (0, 0), "(H, W) boolean array, got shape (3, 4, 5)"),
    (np.ones((0, 4)), 1.0, (0, 0), "(H, W) boolean array, got shape (0, 4)"),
    (np.zeros((3, 4)), 1.0, (0, 0), "nav_grid has no navigable pixel"),
    (np.ones((3, 4)), 1.0, (0, 0, 0), "cannot reshape array of size 3 into shape (2,)"),
    (np.ones((3, 4)), 1e-300, (1e300, 0), "overflows the world <-> pixel transform"),
])
def test_the_constructor_checks_the_map(grid, resolution, origin, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        NavEnvironment(grid, resolution, origin)


# ------------------------------------------------------------ grid convention

def test_pixel_world_transforms_take_arrays_of_points():
    env = NavEnvironment(np.ones((4, 5), dtype=bool), 0.5, origin=(-1.0, 2.0))
    rows, cols = np.array([0, 3, 2]), np.array([4, 0, 1])
    points = env.pixel_to_world(rows, cols)
    assert points.shape == (3, 2)
    for point, row, col in zip(points, rows, cols):
        np.testing.assert_array_equal(point, env.pixel_to_world(row, col))
        np.testing.assert_array_equal(point, env.origin + 0.5 * np.array([col, row]))
    np.testing.assert_array_equal(env.world_to_pixel(points), np.column_stack([cols, rows]))


# ------------------------------------ the one-point rules against the array rules

def array_nearest_pixel(env, pos):
    """nearest_pixel in (2,)-array arithmetic: the array rule of
    ecfl_check, and the reference for the float-at-a-time one."""
    v = env.world_to_pixel(pos)
    px, py = np.copysign(np.floor(np.abs(v) + 0.5), v)
    return int(py), int(px)


def array_sample_gradient(env, pos):
    """sample_gradient in (2,)-array arithmetic, the reference for the
    float-at-a-time one."""
    pos = np.asarray(pos, dtype=np.float64).reshape(2)
    h, w = env.shape
    px, py = env.world_to_pixel(pos)
    if not (0.0 <= px <= w - 1 and 0.0 <= py <= h - 1):
        center = env.pixel_to_world((h - 1) / 2.0, (w - 1) / 2.0)
        delta = pos - center
        return delta / np.linalg.norm(delta)
    c0 = int(np.floor(px))
    r0 = int(np.floor(py))
    c1 = min(c0 + 1, w - 1)
    r1 = min(r0 + 1, h - 1)
    fx = px - c0
    fy = py - r0
    g = env.grad_field
    return (
        (1 - fx) * (1 - fy) * g[r0, c0]
        + fx * (1 - fy) * g[r0, c1]
        + (1 - fx) * fy * g[r1, c0]
        + fx * fy * g[r1, c1]
    )


def lattice_envs():
    """A 7x9 map at an exact and at an inexact resolution and origin, and at the origin."""
    grid = np.random.default_rng(8).random((7, 9)) < 0.5
    grid[3, 4] = True
    return [NavEnvironment(grid, res, origin)
            for res, origin in ((0.5, (-1.0, 2.0)), (0.1, (0.3, -0.7)), (0.25, (0.0, 0.0)))]


LATTICE_ENVS = lattice_envs()


def lattice_points(env):
    """Pixel coordinates every quarter pixel from 3 px before the map to 3 px
    past it (so every half, on both signs, and every edge), their neighbouring
    floats, and far off-grid points, as world positions; with -0.0 and the
    origin's own neighbours."""
    h, w = env.shape
    px = np.arange(-12, 4 * (w + 2) + 1) / 4
    py = np.arange(-12, 4 * (h + 2) + 1) / 4
    px = np.concatenate([px, np.nextafter(px, -np.inf), np.nextafter(px, np.inf),
                         [-1e15, -1e6, 1e6, 1e15]])
    py = np.concatenate([py, np.nextafter(py, -np.inf), np.nextafter(py, np.inf),
                         [-1e15, 1e6]])
    xx, yy = np.meshgrid(env.origin[0] + env.resolution * px,
                         env.origin[1] + env.resolution * py)
    ox, oy = env.origin
    extra = [[-0.0, -0.0], [-0.0, 0.0], [ox, oy], [np.nextafter(ox, -1), np.nextafter(oy, -1)]]
    return np.concatenate([np.column_stack([xx.ravel(), yy.ravel()]), extra])


@pytest.mark.parametrize("env", LATTICE_ENVS, ids=["exact", "inexact", "at-origin"])
def test_point_rule_equals_the_array_rule_on_a_dense_lattice(env):
    points = lattice_points(env)
    mask = ecfl_check(env, points[:, None, :])  # each point a one-frame trajectory
    assert mask.any() and not mask.all()
    for pos, navigable in zip(points, mask):
        row, col = env.nearest_pixel(pos)
        assert (row, col) == array_nearest_pixel(env, pos)
        assert type(row) is int and type(col) is int
        assert env.is_navigable_point(pos) is bool(navigable)


@given(x=st.floats(-3.0, 12.0), y=st.floats(-3.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_point_rule_equals_the_array_rule_anywhere_near_the_map(x, y):
    for env in LATTICE_ENVS:
        assert env.nearest_pixel([x, y]) == array_nearest_pixel(env, [x, y])
        assert env.is_navigable_point([x, y]) is bool(ecfl_check(env, [[x, y]]))


@given(x=st.floats(-1e300, 1e300), y=st.floats(-1e300, 1e300))
@settings(max_examples=200, deadline=None)
def test_point_rule_equals_the_array_rule_at_any_finite_distance(x, y):
    # pixel coordinates far past the intp range are off the map, with no cast
    for env in LATTICE_ENVS:
        for pos in ([x, y], [x, 1.0], [1.0, y]):
            assert env.is_navigable_point(pos) is bool(ecfl_check(env, [pos]))


def test_a_pixel_coordinate_past_the_float_range_is_off_the_map():
    env = LATTICE_ENVS[1]  # 0.1 m/px: x / 0.1 overflows to inf
    x, y = env.pixel_to_world(3, 4).tolist()  # a navigable pixel
    for far in (1.7e308, -1.7e308):
        trajs = [[[x, y], [x, y]], [[x, y], [far, y]], [[x, y], [x, far]]]
        assert ecfl_check(env, trajs).tolist() == [True, False, False]


def bits(a) -> bytes:
    a = np.asarray(a)
    assert a.shape == (2,) and a.dtype == np.float64
    return a.tobytes()


@pytest.mark.parametrize("env", LATTICE_ENVS, ids=["exact", "inexact", "at-origin"])
def test_sample_gradient_equals_the_array_formula_bit_for_bit(env):
    rng = np.random.default_rng(9)
    h, w = env.shape
    pixels = [rng.uniform([0, 0], [w - 1, h - 1]) for _ in range(300)]
    pixels += [[w - 1, h - 1], [0, 0], [w - 1, 0], [0, h - 1]]  # corners: c1/r1 clamps
    pixels += [[w - 1, y] for y in rng.uniform(0, h - 1, 20)]  # last column
    pixels += [[x, h - 1] for x in rng.uniform(0, w - 1, 20)]  # last row
    pixels += [[np.nextafter(w - 1, np.inf), 2.0], [2.0, np.nextafter(h - 1, np.inf)],
               [np.nextafter(0, -1), 2.0], [-30.0, 50.0], [1e6, -1e6]]  # just past, far off
    points = [env.origin + env.resolution * np.asarray(p, dtype=np.float64) for p in pixels]
    points += [rng.uniform(-5, 10, 2) for _ in range(100)]
    for pos in points:
        assert bits(sample_gradient(env, pos)) == bits(array_sample_gradient(env, pos))
    assert bits(sample_gradient(env, list(points[0]))) == bits(array_sample_gradient(env, points[0]))


@given(x=st.floats(-3.0, 12.0), y=st.floats(-3.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_sample_gradient_equals_the_array_formula_anywhere_near_the_map(x, y):
    for env in LATTICE_ENVS:
        assert bits(sample_gradient(env, [x, y])) == bits(array_sample_gradient(env, [x, y]))


@pytest.mark.parametrize("pos, error", [
    ((np.nan, 0.5), ValueError), ((0.5, np.nan), ValueError), ((np.nan, np.nan), ValueError),
    ((np.inf, 0.5), OverflowError), ((-np.inf, 0.5), OverflowError),
    ((0.5, np.inf), OverflowError), ((0.5, -np.inf), OverflowError),
    ((np.inf, -np.inf), OverflowError), ((1e308, 0.5), OverflowError),  # /0.1 overflows
    ((np.nan, np.inf), OverflowError), ((np.inf, np.nan), ValueError),  # the row comes first
])
def test_non_finite_positions_fail_as_the_array_rule_does(pos, error):
    env = LATTICE_ENVS[1]
    for rule in (partial(array_nearest_pixel, env), env.nearest_pixel, env.is_navigable_point,
                 partial(sample_gradient, env)):
        with pytest.raises(error) as got, np.errstate(over="ignore"):
            rule(pos)
        assert type(got.value) is error


# ------------------------------------------------------------ sample_gradient

def test_sample_gradient_at_pixel_center():
    env = half_plane_env()
    pos = env.pixel_to_world(2, 14)
    np.testing.assert_allclose(sample_gradient(env, pos), env.grad_field[2, 14], atol=1e-12)


def test_sample_gradient_midpoint_of_two_pixels():
    env = half_plane_env()
    a = env.pixel_to_world(2, 13)
    b = env.pixel_to_world(2, 14)
    mid = (a + b) / 2
    expected = (env.grad_field[2, 13] + env.grad_field[2, 14]) / 2
    np.testing.assert_allclose(sample_gradient(env, mid), expected, atol=1e-12)


def test_sample_gradient_matches_four_corner_oracle():
    rng = np.random.default_rng(3)
    grid = rng.random((10, 10)) < 0.5
    grid[0, 0] = True
    env = NavEnvironment(grid, 0.5, origin=(-1.0, 2.0))
    for _ in range(50):
        px = rng.uniform(0, 9)
        py = rng.uniform(0, 9)
        pos = env.origin + 0.5 * np.array([px, py])
        c0, r0 = int(np.floor(px)), int(np.floor(py))
        fx, fy = px - c0, py - r0
        g = env.grad_field
        expected = (
            (1 - fx) * (1 - fy) * g[r0, c0]
            + fx * (1 - fy) * g[r0, min(c0 + 1, 9)]
            + (1 - fx) * fy * g[min(r0 + 1, 9), c0]
            + fx * fy * g[min(r0 + 1, 9), min(c0 + 1, 9)]
        )
        np.testing.assert_allclose(sample_gradient(env, pos), expected, atol=1e-12)


def test_sample_gradient_out_of_bounds_points_outward():
    env = half_plane_env()
    center = env.pixel_to_world((env.shape[0] - 1) / 2, (env.shape[1] - 1) / 2)
    for pos in ([50.0, 0.0], [-50.0, 3.0], [0.0, 40.0]):
        g = sample_gradient(env, pos)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        assert g @ (np.asarray(pos) - center) > 0


# ------------------------------------------------------------- guidance_delta

def test_guidance_noop_on_navigable_trajectory():
    env = half_plane_env()
    traj = np.column_stack([np.linspace(-8, -1, 10), np.zeros(10)])
    delta = guidance_delta(env, traj, t_obs=3, n_grad_steps=10)
    np.testing.assert_array_equal(delta, np.zeros_like(traj))


@pytest.mark.parametrize("n_grad_steps", [0, -1])
def test_guidance_rejects_fewer_than_one_step(n_grad_steps):
    env = half_plane_env()
    traj = np.array([[-2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="n_grad_steps must be >= 1"):
        guidance_delta(env, traj, 1, n_grad_steps)


@pytest.mark.parametrize("t_obs, n_grad_steps, problem", [
    (1, True, "n_grad_steps must be an integer, got True"),
    (1, 2.0, "n_grad_steps must be an integer, got 2.0"),
    (1, "3", "n_grad_steps must be an integer, got '3'"),
    (True, 3, "t_obs must be an integer, got True"),
    (1.0, 3, "t_obs must be an integer, got 1.0"),
    (-1, 3, "t_obs -1 out of range for 2 frames"),
    (3, 3, "t_obs 3 out of range for 2 frames"),
])
def test_guidance_counts_follow_the_integer_rule(t_obs, n_grad_steps, problem):
    env = half_plane_env()
    traj = np.array([[-2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(problem)):
        guidance_delta(env, traj, t_obs, n_grad_steps)
    # numpy integers are integers, and t_obs = T leaves no frame to correct
    reference = guidance_delta(env, traj, 1, 3)
    assert np.array_equal(guidance_delta(env, traj, np.int64(1), np.int32(3)), reference)
    assert not guidance_delta(env, traj, 2, 3).any()


def test_half_plane_descent_matches_scalar_oracle():
    kg, s = 10, 0.1
    env = half_plane_env(res=s)  # one descent step is one pixel
    x0 = 0.6 * kg * s
    traj = np.array([[-2.0, 0.0], [x0, 0.0]])
    delta = guidance_delta(env, traj, t_obs=1, n_grad_steps=kg)

    # closed-form 1-D descent on the ramp: grad is 0.5..1 across the boundary
    # cell, 1 beyond it (in pixel coordinates the navigable half ends at 9.5)
    def ramp_grad(px):
        if px <= 9.0:
            return max(0.0, (px - 8.0)) * 0.5
        if px <= 10.0:
            return 0.5 + (px - 9.0) * 0.5
        return 1.0

    x = x0
    for _ in range(kg):
        px = x / s + 9.5
        if round(px) <= 9:  # nearest cell navigable: descent stops
            break
        x -= s * ramp_grad(px)
    assert x <= 0.0, "oracle: frame must reach the navigable half-plane"
    assert delta[1, 0] == pytest.approx(x - x0, abs=1e-12)
    assert delta[1, 0] < 0
    assert traj[1, 0] + delta[1, 0] <= 0.0
    np.testing.assert_array_equal(delta[0], [0.0, 0.0])


def test_suffix_shift_two_future_frames():
    env = half_plane_env(width=200, res=0.1)  # spans x in [-10, 10], as at res 1
    traj = np.array([[-3.0, 0.0], [0.8, 0.0], [-5.0, 0.0]])
    delta = guidance_delta(env, traj, t_obs=1, n_grad_steps=10)
    assert delta[1, 0] < 0  # first future frame was off-map and got corrected
    # second frame receives exactly the shift (equal up to addition rounding)
    np.testing.assert_allclose(delta[1], delta[2], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(delta[0], [0.0, 0.0])


def test_suffix_shift_structure_replay():
    # replay the per-frame descent independently and rebuild the delta as the
    # running sum of own-corrections
    rng = np.random.default_rng(4)
    grid = rng.random((16, 16)) < 0.55
    grid[6:10, 6:10] = True
    kg, s = 5, 0.2
    env = NavEnvironment(grid, s, origin=(0.0, 0.0))
    traj = rng.uniform(0.0, 15 * s, size=(8, 2))
    t_obs = 2
    delta = guidance_delta(env, traj, t_obs, kg)

    work = traj.copy()
    own = np.zeros_like(traj)
    for f in range(t_obs, traj.shape[0]):
        for _ in range(kg):
            if env.is_navigable_point(work[f]):
                break
            d = -sample_gradient(env, work[f])
            own[f] += s * d
            work[f:] += s * d
    np.testing.assert_allclose(delta, np.cumsum(own, axis=0), atol=1e-12)
    np.testing.assert_array_equal(delta[:t_obs], np.zeros((t_obs, 2)))


def test_offgrid_descent_matches_center_rule_byte_for_byte():
    # a frame far outside the grid walks toward the grid center until it is
    # inside, then down the interpolated field; replay that rule with the
    # off-grid direction written out, and require the same bits
    kg, s = 40, 0.5
    env = half_plane_env(res=s)
    traj = np.array([[-3.0, 0.0], [14.0, 6.5], [15.0, 7.0]])
    delta = guidance_delta(env, traj, t_obs=1, n_grad_steps=kg)

    h, w = env.shape
    center = env.pixel_to_world((h - 1) / 2.0, (w - 1) / 2.0)
    work = traj.copy()
    outside = 0
    for f in range(1, traj.shape[0]):
        for _ in range(kg):
            if env.is_navigable_point(work[f]):
                break
            px, py = env.world_to_pixel(work[f])
            if 0.0 <= px <= w - 1 and 0.0 <= py <= h - 1:
                work[f:] += s * -sample_gradient(env, work[f])
            else:
                toward = center - work[f]
                work[f:] += s * (toward / np.linalg.norm(toward))
                outside += 1
    assert outside >= 3  # the frame started well outside the grid
    assert env.is_navigable_point(traj[1] + delta[1])
    assert np.array_equal(delta, work - traj)


def test_monotone_improvement_on_half_plane():
    env = half_plane_env(width=100, height=25, res=0.2)  # the res-1 extent
    rng = np.random.default_rng(5)
    traj = np.column_stack([rng.uniform(-4, 6, size=12), rng.uniform(-1.5, 1.5, size=12)])
    delta = guidance_delta(env, traj, t_obs=0, n_grad_steps=10)
    after = traj + delta
    dist = distance_transform(env.nav_grid, env.resolution)

    def dist_at(pos):
        row, col = env.nearest_pixel(pos)
        h, w = env.shape
        if not (0 <= row < h and 0 <= col < w):
            return np.inf
        return dist[row, col]

    for f in range(12):
        assert dist_at(after[f]) <= dist_at(traj[f]) + 1e-12


# ------------------------------------------------------------------ ecfl_check

def test_ecfl_check_basic():
    env = half_plane_env()
    good = np.array([[-3.0, 0.0], [-2.0, 0.5], [-1.0, -0.5]])
    assert ecfl_check(env, good)
    bad = good.copy()
    bad[2] = [4.0, 0.0]
    assert not ecfl_check(env, bad)
    assert ecfl_check(env, bad, t_obs=3)  # only observed frames are bad-free


def test_ecfl_boundary_rounding_rule():
    grid = np.zeros((3, 4), dtype=bool)
    grid[:, :2] = True
    env = NavEnvironment(grid, 1.0, origin=(0.0, 0.0))
    # x = 1.5 sits on the boundary between cols 1 (navigable) and 2 (blocked);
    # halves round away from zero, so it lands on col 2
    assert not ecfl_check(env, np.array([[1.5, 1.0]]))
    assert ecfl_check(env, np.array([[1.4999, 1.0]]))
    # out of bounds counts as collision
    assert not ecfl_check(env, np.array([[-3.0, 0.0]]))


def test_batched_ecfl_check_equals_per_trajectory_calls():
    rng = np.random.default_rng(3)
    grid = rng.random((10, 12)) < 0.85
    env = NavEnvironment(grid, 0.5, origin=(-0.3, 0.2))
    trajs = rng.uniform(-0.6, 5.6, size=(3, 5, 6, 2))
    for t_obs in (0, 3, 6):
        flags = ecfl_check(env, trajs, t_obs)
        assert flags.shape == (3, 5) and flags.dtype == bool
        for a in range(3):
            for k in range(5):
                one = ecfl_check(env, trajs[a, k], t_obs)
                assert one.shape == () and flags[a, k] == one
                assert one == all(env.is_navigable_point(p) for p in trajs[a, k, t_obs:])
    flags = ecfl_check(env, trajs, 3)
    assert flags.any() and not flags.all()
    for t_obs, problem in ((7, "t_obs 7 out of range for 6 frames"),
                           (99, "t_obs 99 out of range for 6 frames"),
                           (-1, "t_obs -1 out of range for 6 frames"),
                           (True, "t_obs must be an integer, got True"),
                           (2.0, "t_obs must be an integer, got 2.0")):
        with pytest.raises(ValueError, match=re.escape(problem)):
            ecfl_check(env, trajs, t_obs)
    assert np.array_equal(ecfl_check(env, trajs, np.int64(3)), flags)
    for bad in (np.zeros(2), np.zeros((0, 2)), np.zeros((4, 3)), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="trajectories"):
            ecfl_check(env, bad)


# -------------------------------------------------------------------- map I/O

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    grid = rng.random((9, 13)) < 0.5
    grid[0, 0] = True
    path = tmp_path / "map.pgm"
    write_pgm(path, grid)
    np.testing.assert_array_equal(read_pgm(path), grid)


def test_pgm_ascii_variant_with_comments(tmp_path):
    path = tmp_path / "map.pgm"
    path.write_text("P2\n# a comment\n3 2\n255\n255 0 255\n0 255 0\n")
    grid = read_pgm(path)
    np.testing.assert_array_equal(
        grid, np.array([[True, False, True], [False, True, False]])
    )


def test_pgm_rejects_other_values(tmp_path):
    path = tmp_path / "map.pgm"
    path.write_text("P2\n2 1\n255\n255 128\n")
    with pytest.raises(ValueError, match="0 or 255"):
        read_pgm(path)


@pytest.mark.parametrize("content, problem", [
    (b"P5\nxx 4\n255\n" + b"\xff" * 16, "header token b'xx' is not an integer"),
    (b"P2\n2 1\n255\n255 zz\n", "P2 pixel values must be integers"),
    (b"P5\n-4 -4\n255\n" + b"\xff" * 16, "dimensions must be positive, got -4x-4"),
    (b"P5\n2 4\n255\n" + b"\xff" * 16, "expected 8 pixels, got 16"),
    (b"P5\n2 4\n255\n" + b"\xff" * 7, "expected 8 pixels, got 7"),
    (b"P5\n2 4\n15\n" + b"\x0f" * 8, "expected maxval 255, got 15"),
], ids=["header-token", "p2-pixel", "negative-size", "p5-extra-bytes", "p5-short",
        "maxval-15"])
def test_pgm_format_errors_name_the_file(tmp_path, content, problem):
    path = tmp_path / "map.pgm"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: ")
    assert problem in str(info.value)


@pytest.mark.parametrize("meta, problem", [
    ("{not json", "bad map metadata"),
    ('{"origin_x_m": 0.0, "origin_y_m": 0.0}', "lacks 'resolution_m_per_px'"),
    ('{"resolution_m_per_px": -0.5, "origin_x_m": 0.0, "origin_y_m": 0.0}',
     "resolution_m_per_px must be positive"),
    ('{"resolution_m_per_px": 1e999, "origin_x_m": 0.0, "origin_y_m": 0.0}',
     "resolution_m_per_px must be positive and finite, got inf"),
    ('{"resolution_m_per_px": 0.5, "origin_x_m": 1e999, "origin_y_m": 0.0}',
     "origin contains non-finite values"),
    ('{"resolution_m_per_px": 1' + "0" * 400 + ', "origin_x_m": 0.0, "origin_y_m": 0.0}',
     "int too large to convert to float"),
    (b'{"resolution_m_per_px": 0.5, "origin_x_m": 0.0, "origin_y_m": 0.0}\xff'.decode("latin-1"),
     "'utf-8' codec can't decode byte 0xff"),
    ('{"resolution_m_per_px": 0.5, "origin_x_m": 1e308, "origin_y_m": 0.0}',
     "overflows the world <-> pixel transform"),
    ('{"resolution_m_per_px": 1e307, "origin_x_m": 0.0, "origin_y_m": 0.0}',
     "overflows the world <-> pixel transform"),
    ('{"resolution_m_per_px": true, "origin_x_m": 0.0, "origin_y_m": 0.0}',
     "resolution_m_per_px must be a number, got True"),
    ('{"resolution_m_per_px": 0.5, "origin_x_m": false, "origin_y_m": 0.0}',
     "origin_x_m must be a number, got False"),
    ('{"resolution_m_per_px": 0.5, "origin_x_m": 0.0, "origin_y_m": true}',
     "origin_y_m must be a number, got True"),
], ids=["not-json", "no-resolution", "negative-resolution", "infinite-resolution",
        "infinite-origin", "huge-integer-resolution", "not-utf8", "extreme-origin",
        "extreme-far-corner", "bool-resolution", "bool-origin-x", "bool-origin-y"])
def test_map_metadata_errors_name_the_file(tmp_path, meta, problem):
    save_environment(half_plane_env(), tmp_path / "m.pgm", tmp_path / "m.json")
    (tmp_path / "m.json").write_bytes(meta.encode("latin-1"))
    with pytest.raises(ValueError) as info:
        load_environment(tmp_path / "m.pgm", tmp_path / "m.json")
    assert str(info.value).startswith(f"{tmp_path / 'm.json'}: ")
    assert problem in str(info.value)


def test_map_without_a_navigable_pixel_names_the_pgm(tmp_path):
    save_environment(half_plane_env(), tmp_path / "m.pgm", tmp_path / "m.json")
    write_pgm(tmp_path / "m.pgm", np.zeros((4, 5), dtype=bool))
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'm.pgm'}: nav_grid has no "
                                                   "navigable pixel")):
        load_environment(tmp_path / "m.pgm", tmp_path / "m.json")


def test_environment_round_trip_and_missing_sidecar(tmp_path):
    env = half_plane_env()
    save_environment(env, tmp_path / "m.pgm", tmp_path / "m.json")
    loaded = load_environment(tmp_path / "m.pgm", tmp_path / "m.json")
    np.testing.assert_array_equal(loaded.nav_grid, env.nav_grid)
    np.testing.assert_array_equal(loaded.origin, env.origin)
    assert loaded.resolution == env.resolution
    with pytest.raises(FileNotFoundError, match="map metadata"):
        load_environment(tmp_path / "m.pgm", tmp_path / "missing.json")
