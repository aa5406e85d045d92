import dataclasses
import json
import re
import shutil
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from trajdiffuse.mapguide import NavEnvironment, ecfl_check, write_pgm
from trajdiffuse.synth import (
    IntentOracleConfig,
    _dijkstra,
    _project_to_navigable,
    generate_dataset,
    generate_environment,
    generate_trajectory,
    intent_oracle,
    read_dataset,
    write_dataset,
)

T_OBS, T_PRED, DT = 8, 12, 0.4
T = T_OBS + T_PRED


def flood_fill_count(grid):
    rows, cols = np.nonzero(grid)
    seen = np.zeros_like(grid, dtype=bool)
    queue = deque([(int(rows[0]), int(cols[0]))])
    seen[rows[0], cols[0]] = True
    h, w = grid.shape
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < h and 0 <= cc < w and grid[rr, cc] and not seen[rr, cc]:
                seen[rr, cc] = True
                queue.append((rr, cc))
    return int(seen.sum())


# -------------------------------------------------------------- environments

def test_corridor_is_connected_l_band():
    env = generate_environment("corridor", (32, 32), 0.5, seed=3)
    grid = env.nav_grid
    assert flood_fill_count(grid) == grid.sum()
    assert grid.mean() >= 0.20
    # an L band has navigable cells in at least two distinct row/col extents
    rows = np.nonzero(grid.any(axis=1))[0]
    cols = np.nonzero(grid.any(axis=0))[0]
    assert rows.size > 8 and cols.size > 8


def test_same_seed_gives_identical_grid():
    a = generate_environment("rooms", (32, 32), 0.5, seed=11)
    b = generate_environment("rooms", (32, 32), 0.5, seed=11)
    np.testing.assert_array_equal(a.nav_grid, b.nav_grid)
    c = generate_environment("rooms", (32, 32), 0.5, seed=12)
    assert not np.array_equal(a.nav_grid, c.nav_grid)


@pytest.mark.parametrize("kind", ["corridor", "rooms", "maze"])
def test_connectivity_and_coverage_over_seeds(kind):
    for seed in range(20):
        env = generate_environment(kind, (64, 64) if kind == "rooms" else (32, 32), 0.5, seed)
        grid = env.nav_grid
        assert flood_fill_count(grid) == grid.sum(), f"{kind} seed {seed} disconnected"
        assert grid.mean() >= 0.20, f"{kind} seed {seed} under-covered"


def test_dijkstra_steps_diagonally_only_past_free_corners():
    grid = np.array([[1, 1, 0, 0],
                     [1, 1, 0, 1],
                     [0, 0, 1, 0]], dtype=bool)
    dist, pred = _dijkstra(grid, (0, 0), 0.5)
    assert dist[0, 0] == 0.0 and dist[0, 1] == dist[1, 0] == 0.5
    assert dist[1, 1] == 0.5 * np.sqrt(2.0) and tuple(pred[1, 1]) == (0, 0)
    # (2, 2) touches (1, 1) only through a blocked corner; (1, 3) is cut off
    assert np.isinf(dist[2, 2]) and np.isinf(dist[1, 3])
    assert tuple(pred[2, 2]) == tuple(pred[1, 3]) == (-1, -1)
    assert pred.shape == (3, 4, 2) and tuple(pred[0, 1]) == (0, 0)


def test_environment_size_and_kind_validation():
    with pytest.raises(ValueError):
        generate_environment("corridor", (4, 4), 0.5, 0)
    with pytest.raises(ValueError):
        generate_environment("swamp", (32, 32), 0.5, 0)


@pytest.mark.parametrize("size, error", [
    ((16.7, 20.9), "size must be integers, got 16.7"),
    ((32, 32.0), "size must be integers, got 32.0"),
    ((True, 32), "size must be integers, got True"),
    ((32, 32, 32), "size has shape (3,), expected (2,)"),
])
def test_environment_size_is_two_integers(size, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        generate_environment("corridor", size, 0.5, 0)


# -------------------------------------------------------------- trajectories

def test_trajectories_are_navigable_and_right_length():
    env = generate_environment("corridor", (32, 32), 0.5, seed=4)
    for seed in range(100):
        traj = generate_trajectory(env, T, DT, (0.6, 1.4), seed)
        assert traj.shape == (T, 2)
        assert ecfl_check(env, traj, t_obs=0)


def test_trajectory_progress_is_monotone_in_straight_corridor():
    from trajdiffuse.mapguide import NavEnvironment

    grid = np.zeros((16, 48), dtype=bool)
    grid[5:11, :] = True
    env = NavEnvironment(grid, 0.5, origin=(0.0, 0.0))
    traj = generate_trajectory(env, T, DT, (0.8, 1.2), seed=1)
    axis_progress = np.diff(traj[:, 0])
    # straight corridor: motion stays along one axis direction
    assert np.all(axis_progress > 0) or np.all(axis_progress < 0)


def test_trajectory_determinism():
    env = generate_environment("rooms", (32, 32), 0.5, seed=5)
    a = generate_trajectory(env, T, DT, (0.6, 1.4), seed=9)
    b = generate_trajectory(env, T, DT, (0.6, 1.4), seed=9)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------- intent oracle

def make_scene_bits(seed=6):
    env = generate_environment("rooms", (32, 32), 0.5, seed=seed)
    traj = generate_trajectory(env, T, DT, (0.6, 1.4), seed=seed)
    return env, traj


def test_noiseless_oracle_reproduces_ground_truth_anchors():
    env, traj = make_scene_bits()
    cfg = IntentOracleConfig(goal_noise_sigma=0.0, diversify=False)
    intents = intent_oracle(traj, T_OBS, cfg, env, k_samples=4, seed=0, frame_dt=DT)
    assert len(intents) == 4
    frames = cfg.resolved_frames(T_OBS, T_PRED) + [T - 1]
    for spec in intents:
        np.testing.assert_array_equal(spec.values[:T_OBS], traj[:T_OBS])
        anchors = spec.values[T_OBS:]
        # zero noise: anchors are the ground truth snapped to its own (navigable) cell
        for frame, value in zip(frames, anchors):
            assert np.linalg.norm(value - traj[frame]) <= env.resolution * np.sqrt(2)


def test_oracle_anchors_lie_on_navigable_cells():
    env, traj = make_scene_bits(seed=7)
    cfg = IntentOracleConfig(goal_noise_sigma=1.0, diversify=False)
    for spec in intent_oracle(traj, T_OBS, cfg, env, k_samples=6, seed=1, frame_dt=DT):
        for value in spec.values[T_OBS:]:
            assert env.is_navigable_point(value)


def test_diversify_produces_distinct_goals():
    env, traj = make_scene_bits(seed=8)
    cfg = IntentOracleConfig(goal_noise_sigma=0.25, diversify=True)
    intents = intent_oracle(traj, T_OBS, cfg, env, k_samples=5, seed=2, frame_dt=DT)
    goals = {tuple(np.round(spec.values[-1], 6)) for spec in intents}
    assert len(goals) >= 2


def test_oracle_history_is_bit_exact():
    env, traj = make_scene_bits(seed=9)
    cfg = IntentOracleConfig(goal_noise_sigma=0.5)
    for spec in intent_oracle(traj, T_OBS, cfg, env, k_samples=3, seed=3, frame_dt=DT):
        np.testing.assert_array_equal(spec.values[:T_OBS], traj[:T_OBS])


def from_anchors_replay(history, waypoint_frames, waypoint_values, goal_value, t_pred):
    """Frames and values as the former ConditionSpec.from_anchors built them:
    concatenate history, waypoints and goal, then sort by frame."""
    t_obs = history.shape[0]
    waypoint_values = (np.asarray(waypoint_values, dtype=np.float64).reshape(-1, 2)
                       if len(waypoint_frames) else np.zeros((0, 2)))
    frames = np.concatenate(
        [np.arange(t_obs), np.asarray(waypoint_frames, dtype=int), [t_obs + t_pred - 1]])
    values = np.concatenate(
        [history, waypoint_values, np.asarray(goal_value, dtype=np.float64).reshape(1, 2)])
    order = np.argsort(frames)
    return frames[order], values[order]


def oracle_replay(traj, t_obs, cfg, env, k_samples, seed, frame_dt):
    """intent_oracle's draws, with each intent built through from_anchors_replay."""
    t_pred = traj.shape[0] - t_obs
    wframes = cfg.resolved_frames(t_obs, t_pred)
    rng = np.random.default_rng(np.random.SeedSequence([9041, seed]))
    alt_goals = []
    if cfg.diversify and k_samples > 1:
        dist, _ = _dijkstra(env.nav_grid, env.nearest_pixel(traj[t_obs - 1]), env.resolution)
        steps = np.linalg.norm(np.diff(traj[:t_obs], axis=0), axis=1)
        v_est = max(float(steps.mean()) / frame_dt, 0.1) if steps.size else 1.0
        budget = v_est * t_pred * frame_dt
        cells = np.argwhere(np.isfinite(dist) & (dist >= 0.4 * budget) & (dist <= 1.2 * budget))
        if cells.size:
            alt_goals = [env.pixel_to_world(*cells[j])
                         for j in rng.permutation(len(cells))[: k_samples - 1]]
    out = []
    for k in range(k_samples):
        anchors = traj[wframes + [traj.shape[0] - 1]] + rng.normal(
            0.0, cfg.goal_noise_sigma, size=(len(wframes) + 1, 2))
        projected = [_project_to_navigable(env, a) for a in anchors]
        if any(p is None for p in projected):
            continue
        goal = projected[-1]
        if cfg.diversify and k >= 1 and alt_goals:
            goal = alt_goals[(k - 1) % len(alt_goals)]
        wvals = np.array(projected[:-1]).reshape(len(wframes), 2)
        out.append(from_anchors_replay(traj[:t_obs], wframes, wvals, goal, t_pred))
    return out


@pytest.mark.parametrize("diversify", [False, True], ids=["fixed-goal", "diversify"])
@pytest.mark.parametrize("n_waypoints", [0, 2, 3])
def test_oracle_matches_the_from_anchors_replay_byte_for_byte(n_waypoints, diversify):
    env, traj = make_scene_bits(seed=10 + n_waypoints)
    cfg = IntentOracleConfig(n_waypoints=n_waypoints, goal_noise_sigma=0.5, diversify=diversify)
    intents = intent_oracle(traj, T_OBS, cfg, env, k_samples=5, seed=4, frame_dt=DT)
    replayed = oracle_replay(traj, T_OBS, cfg, env, k_samples=5, seed=4, frame_dt=DT)
    assert len(intents) == len(replayed) == 5
    for spec, (frames, values) in zip(intents, replayed):
        assert spec.frames.tobytes() == frames.astype(np.intp).tobytes()
        assert spec.values.dtype == values.dtype == np.float64
        assert spec.values.tobytes() == values.tobytes()
    if diversify:
        assert len({tuple(spec.values[-1]) for spec in intents}) >= 2


def test_default_waypoint_frames_are_thirds_of_horizon():
    cfg = IntentOracleConfig()
    assert cfg.resolved_frames(8, 12) == [12, 16]
    with pytest.raises(ValueError, match="waypoint frame 19 outside"):
        IntentOracleConfig(n_waypoints=12).resolved_frames(8, 12)  # the last one hits the goal


# ------------------------------------------------------------------ datasets

def small_dataset(seed=0):
    return generate_dataset(
        ["corridor", "rooms"], n_scenes=2, n_agents=2, size=(32, 32), resolution=0.5,
        t_obs=T_OBS, t_pred=T_PRED, frame_dt=DT, speed_range=(0.6, 1.4),
        intent_cfg=IntentOracleConfig(), k_intents=3, seed=seed,
    )


def test_dataset_round_trip(tmp_path):
    scenes = small_dataset()
    write_dataset(scenes, tmp_path)
    loaded = read_dataset(tmp_path)
    assert [s.scene_id for s in loaded] == [s.scene_id for s in scenes]
    for orig, back in zip(scenes, loaded):
        np.testing.assert_array_equal(orig.env.nav_grid, back.env.nav_grid)
        assert back.t_obs == T_OBS and back.t_pred == T_PRED
        for a, b in zip(orig.agents, back.agents):
            assert a.agent_id == b.agent_id
            np.testing.assert_array_equal(a.trajectory, b.trajectory)
            assert len(a.intents) == len(b.intents)
            for sa, sb in zip(a.intents, b.intents):
                np.testing.assert_array_equal(sa.frames, sb.frames)
                np.testing.assert_array_equal(sa.values, sb.values)


@pytest.mark.parametrize("change", [{"t_obs": 10, "t_pred": 10}, {"t_pred": 13}, {"frame_dt": 0.5}],
                         ids=["10+10", "t_pred", "frame_dt"])
def test_write_dataset_refuses_scenes_of_another_split(tmp_path, change):
    scenes = small_dataset()
    scenes[1] = dataclasses.replace(scenes[1], **change)
    theirs = {"t_obs": T_OBS, "t_pred": T_PRED, "frame_dt": DT, **change}
    with pytest.raises(ValueError, match=re.escape(f"scene 'scene_0001' has {theirs}, not the")):
        write_dataset(scenes, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _same_scene_id(scenes):
    scenes[1] = dataclasses.replace(scenes[1], scene_id=scenes[0].scene_id)


def _empty_scene_id(scenes):
    scenes[0] = dataclasses.replace(scenes[0], scene_id="")


def _negative_frame_dt(scenes):
    scenes[:] = [dataclasses.replace(scene, frame_dt=-0.4) for scene in scenes]


def _agent_id_twice(scenes):
    agents = scenes[0].agents
    agents[1] = dataclasses.replace(agents[1], agent_id=agents[0].agent_id)


@pytest.mark.parametrize("spoil, message", [
    (_same_scene_id, "scene_ids list 'scene_0000' twice"),
    (_empty_scene_id, "scene id '' does not name a subdirectory"),
    (_negative_frame_dt, "frame_dt must be positive and finite, got -0.4"),
    (_agent_id_twice, "scene 'scene_0000' lists agent_id 0 twice"),
], ids=["same-scene-id", "empty-scene-id", "negative-frame-dt", "agent-id-twice"])
def test_write_dataset_refuses_what_read_dataset_would_refuse(tmp_path, spoil, message):
    scenes = small_dataset()
    spoil(scenes)
    with pytest.raises(ValueError, match=re.escape(message)):
        write_dataset(scenes, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"speed_range": (-1.0, -2.0)}, "speed_range must be two positive speeds"),
    ({"speed_range": (2.0, 1.0)}, "speed_range must be two positive speeds"),
    ({"speed_range": (0.0, 1.0)}, "speed_range must be two positive speeds"),
    ({"speed_range": (0.6, np.inf)}, "speed_range contains non-finite values"),
    ({"speed_range": (0.6, 1.0, 1.4)}, "speed_range has shape (3,)"),
    ({"frame_dt": -0.4}, "frame_dt must be positive and finite, got -0.4"),
], ids=["negative", "min-above-max", "zero", "inf", "three", "frame-dt"])
def test_generate_dataset_checks_speeds_and_frame_dt_before_any_map(monkeypatch, change, message):
    import trajdiffuse.synth as synth

    def no_map(*args):
        raise AssertionError("a map was made before the arguments were checked")

    monkeypatch.setattr(synth, "generate_environment", no_map)
    kwargs = dict(kinds=["corridor"], n_scenes=1, n_agents=1, size=(32, 32), resolution=0.5,
                  t_obs=T_OBS, t_pred=T_PRED, frame_dt=DT, speed_range=(0.6, 1.4),
                  intent_cfg=IntentOracleConfig(), k_intents=1, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_dataset(**{**kwargs, **change})


def test_missing_map_sidecar_is_reported(tmp_path):
    scenes = small_dataset()
    write_dataset(scenes, tmp_path)
    (tmp_path / scenes[0].scene_id / "map.json").unlink()
    with pytest.raises(FileNotFoundError, match="map metadata"):
        read_dataset(tmp_path)


def test_malformed_record_reports_file_and_line(tmp_path):
    scenes = small_dataset()
    write_dataset(scenes, tmp_path)
    jsonl = tmp_path / scenes[0].scene_id / "agents.jsonl"
    lines = jsonl.read_text().splitlines()
    lines[1] = '{"scene_id": "x", "agent_id": 0}'
    jsonl.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"agents\.jsonl:2"):
        read_dataset(tmp_path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    write_dataset(small_dataset(), root)
    return root


def copy_of(written, tmp_path):
    return Path(shutil.copytree(written, tmp_path / "data"))


@pytest.mark.parametrize("edit, problem", [
    (lambda rec: rec.update(scene_id="scene_9999"),
     "scene_id 'scene_9999' is not 'scene_0000'"),
    (lambda rec: rec.pop("scene_id"), "agent record lacks 'scene_id'"),
    (lambda rec: rec.update(scene_id=0), "scene_id 0 is not 'scene_0000'"),
], ids=["another-scene", "no-scene_id", "not-a-string"])
def test_a_record_must_name_its_scene_directory(written, tmp_path, edit, problem):
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0000" / "agents.jsonl"
    lines = jsonl.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    jsonl.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{jsonl}:2: ") + ".*" + re.escape(problem)):
        read_dataset(data)


@pytest.mark.parametrize("text, problem", [
    ("{not json", "Expecting property name"),
    ('{"t_pred": 12, "frame_dt": 0.4}', "lacks 't_obs'"),
    ('[8, 12, 0.4]', "list indices must be integers"),
    ('{"t_obs": 0, "t_pred": 12, "frame_dt": 0.4}', "t_obs must be an integer >= 1, got 0"),
    ('{"t_obs": 8, "t_pred": 0, "frame_dt": 0.4}', "t_pred must be an integer >= 1, got 0"),
    ('{"t_obs": 8.5, "t_pred": 12, "frame_dt": 0.4}', "t_obs must be an integer, got 8.5"),
    ('{"t_obs": 8, "t_pred": 12, "frame_dt": -0.4}', "frame_dt must be positive and finite"),
    ('{"t_obs": 8, "t_pred": 12, "frame_dt": NaN}', "frame_dt must be positive and finite"),
    pytest.param('{"t_obs": 8, "t_pred": 12, "frame_dt": 1' + "0" * 400 + "}",
                 "int too large to convert to float", id="huge-integer-frame_dt"),
    pytest.param('{"t_obs": 8, "t_pred": 12, "frame_dt": true, "scene_ids": ["scene_0000"]}',
                 "frame_dt must be a number, got True", id="bool-frame_dt"),
    pytest.param('{"t_obs": 8, "t_pred": 12, "frame_dt": 0.4}', "lacks 'scene_ids'",
                 id="no-scene_ids"),
    pytest.param('{"t_obs": 8, "t_pred": 12, "frame_dt": 0.4, "scene_ids": []}',
                 "scene_ids must be a non-empty list, got []", id="empty-scene_ids"),
    pytest.param('{"t_obs": 8, "t_pred": 12, "frame_dt": 0.4, "scene_ids": "scene_0000"}',
                 "scene_ids must be a non-empty list, got 'scene_0000'", id="scene_ids-string"),
])
def test_bad_dataset_json_is_named(written, tmp_path, text, problem):
    data = copy_of(written, tmp_path)
    (data / "dataset.json").write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{data / 'dataset.json'}: {problem}")):
        read_dataset(data)


def with_scene_ids(data, scene_ids):
    meta = json.loads((data / "dataset.json").read_text())
    (data / "dataset.json").write_text(json.dumps({**meta, "scene_ids": scene_ids}))


def test_scenes_come_from_scene_ids_in_their_order(written, tmp_path):
    data = copy_of(written, tmp_path)
    # a directory the list does not name is not a scene, even one without a map
    (data / "preds").mkdir()
    (data / "preds" / "predictions.jsonl").write_text("")
    both = read_dataset(data)
    assert [s.scene_id for s in both] == ["scene_0000", "scene_0001"]
    with_scene_ids(data, ["scene_0001", "scene_0000"])
    swapped = read_dataset(data)
    assert [s.scene_id for s in swapped] == ["scene_0001", "scene_0000"]
    for a, b in zip(swapped, both[::-1]):
        assert a.env.grad_field.tobytes() == b.env.grad_field.tobytes()
        assert [x.trajectory.tobytes() for x in a.agents] == [
            x.trajectory.tobytes() for x in b.agents]
    with_scene_ids(data, ["scene_0001"])
    assert [s.scene_id for s in read_dataset(data)] == ["scene_0001"]


@pytest.mark.parametrize("scene_ids, problem", [
    (["scene_0000", 7], "scene id 7 does not name a subdirectory"),
    (["scene_0000/agents.jsonl"], "scene id 'scene_0000/agents.jsonl' does not name a"),
    (["/scene_0000"], "scene id '/scene_0000' does not name a subdirectory"),
    (["."], "scene id '.' does not name a subdirectory"),
    ([".."], "scene id '..' does not name a subdirectory"),
    ([""], "scene id '' does not name a subdirectory"),
    (["scene_0000", "scene_0001", "scene_0000"], "scene_ids list 'scene_0000' twice"),
], ids=["not-a-string", "a-path", "absolute", "dot", "dot-dot", "empty", "repeated"])
def test_bad_scene_ids_are_named(written, tmp_path, scene_ids, problem):
    data = copy_of(written, tmp_path)
    with_scene_ids(data, scene_ids)
    with pytest.raises(ValueError, match=re.escape(f"{data / 'dataset.json'}: {problem}")):
        read_dataset(data)


def test_listed_scenes_without_a_directory_are_skipped(written, tmp_path):
    # a copy of dataset.json with one of its scenes reads as that scene
    data = copy_of(written, tmp_path)
    shutil.rmtree(data / "scene_0000")
    (data / "scene_0002").write_text("a file, not a scene directory")
    with_scene_ids(data, ["scene_0000", "scene_0001", "scene_0002"])
    assert [s.scene_id for s in read_dataset(data)] == ["scene_0001"]
    shutil.rmtree(data / "scene_0001")
    message = f"{data / 'dataset.json'}: none of its scene_ids is a directory in {data}"
    with pytest.raises(FileNotFoundError, match=re.escape(message)):
        read_dataset(data)


@pytest.mark.parametrize("edit, problem", [
    pytest.param(lambda r: r.update(frames=r["frames"][:-4], intents=[]),
                 "frames has shape (16, 2), expected (20, 2)", id="short-no-intents"),
    pytest.param(lambda r: r["frames"][3].__setitem__(0, float("nan")),
                 "frames contains non-finite values", id="nan"),
    pytest.param(lambda r: r["intents"][1]["values"][3].__setitem__(0, 1.5),
                 "intent history does not match the record's first t_obs frames",
                 id="intent-history-differs"),
    pytest.param(lambda r: [r["intents"][1][key].pop(T_OBS) for key in ("frames", "values")],
                 "intents do not share one clamp-frame layout", id="two-layouts"),
    pytest.param(lambda r: r["intents"][2].pop("values"), "intent 2 lacks 'values'",
                 id="intent-without-values"),
    pytest.param(lambda r: r["intents"].__setitem__(0, {}), "intent 0 lacks 'frames', 'values'",
                 id="intent-without-keys"),
    pytest.param(lambda r: r["intents"].__setitem__(2, r["intents"][2]["frames"]),
                 "intent 2 is not a JSON object", id="intent-a-list"),
    pytest.param(lambda r: r.update(intents=r["intents"][0]), "intents must be a list",
                 id="intents-an-object"),
    pytest.param(lambda r: r.update(intents="0"), "intents must be a list",
                 id="intents-a-string"),
])
def test_agent_frames_must_span_the_split(written, tmp_path, edit, problem):
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0001" / "agents.jsonl"
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    edit(records[1])
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = f"{jsonl}:2: malformed agent record: {problem}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_dataset(data)


@pytest.mark.parametrize("agent_id, problem", [
    pytest.param(0, "agent_id 0 repeats the record on line 1", id="repeated"),
    pytest.param(1.7, "agent_id must be an integer, got 1.7", id="float"),
    pytest.param("1", "agent_id must be an integer, got '1'", id="string"),
    pytest.param(True, "agent_id must be an integer, got True", id="bool"),
])
def test_agent_id_is_a_unique_integer(written, tmp_path, agent_id, problem):
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0001" / "agents.jsonl"
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert records[0]["agent_id"] == 0
    records[1]["agent_id"] = agent_id
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = f"{jsonl}:2: malformed agent record: {problem}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_dataset(data)


@pytest.mark.parametrize("frame", [12.7, 12.0, True], ids=["fraction", "integral-float", "bool"])
def test_clamp_frames_must_be_integers(written, tmp_path, frame):
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0001" / "agents.jsonl"
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    records[1]["intents"][0]["frames"][T_OBS] = frame
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = f"{jsonl}:2: malformed agent record: clamp frames must be integers"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_dataset(data)


def four_scenes(written, tmp_path):
    """A copy of the two-scene dataset with each scene repeated once more."""
    data = copy_of(written, tmp_path)
    for i in (0, 1):
        shutil.copytree(data / f"scene_000{i}", data / f"scene_000{i + 2}")
        jsonl = data / f"scene_000{i + 2}" / "agents.jsonl"  # records name their directory
        jsonl.write_text(jsonl.read_text().replace(f'"scene_000{i}"', f'"scene_000{i + 2}"'))
    scene_ids = [f"scene_000{i}" for i in range(4)]
    with_scene_ids(data, scene_ids)
    return data, [data / sid for sid in scene_ids]


def test_maps_of_several_shapes_and_resolutions_match_per_map_builds(written, tmp_path):
    data, scene_dirs = four_scenes(written, tmp_path)
    rng = np.random.default_rng(4)
    for i, sdir in enumerate(scene_dirs):
        if i % 2:  # a second map shape
            grid = rng.random((20, 28)) < 0.3
            grid[0, 0] = True
            write_pgm(sdir / "map.pgm", grid)
        if i >= 2:  # a second resolution
            (sdir / "map.json").write_text(
                '{"resolution_m_per_px": 0.25, "origin_x_m": -1.5, "origin_y_m": 2.0}')
    scenes = read_dataset(data)
    assert {(s.env.shape, s.env.resolution) for s in scenes} == {
        ((32, 32), 0.5), ((20, 28), 0.5), ((32, 32), 0.25), ((20, 28), 0.25)}
    for scene in scenes:
        env = scene.env
        alone = NavEnvironment(env.nav_grid, env.resolution, env.origin)
        assert env.grad_field.tobytes() == alone.grad_field.tobytes()


def test_blocked_map_in_the_middle_of_a_dataset_names_its_pgm(written, tmp_path):
    data, _ = four_scenes(written, tmp_path)
    pgm = data / "scene_0001" / "map.pgm"
    write_pgm(pgm, np.zeros((32, 32), dtype=bool))
    with pytest.raises(ValueError, match=re.escape(f"{pgm}: nav_grid has no navigable pixel")):
        read_dataset(data)


def test_the_first_fault_in_scene_order_is_raised(written, tmp_path):
    """Each scene is read whole, map then records, before the next one."""
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0000" / "agents.jsonl"
    pgm = data / "scene_0001" / "map.pgm"
    jsonl.write_text("[1, 2]\n")
    write_pgm(pgm, np.zeros((32, 32), dtype=bool))
    with pytest.raises(ValueError, match=re.escape(f"{jsonl}:1: agent record is not a JSON")):
        read_dataset(data)
    with_scene_ids(data, ["scene_0001", "scene_0000"])
    with pytest.raises(ValueError, match=re.escape(f"{pgm}: nav_grid has no navigable pixel")):
        read_dataset(data)


def test_read_dataset_loads_each_map_through_the_name_the_benchmark_traces(
        written, tmp_path, monkeypatch):
    """perfbench times map loading by rebinding `synth.load_environment`; a
    read_dataset that built its maps another way would leave that span empty."""
    import trajdiffuse.synth as synth

    calls = []
    original = synth.load_environment

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(synth, "load_environment", counting)
    data = copy_of(written, tmp_path)
    with_scene_ids(data, ["scene_0001", "scene_9999", "scene_0000"])  # scene_9999 has no directory
    scenes = read_dataset(data)
    assert [s.scene_id for s in scenes] == ["scene_0001", "scene_0000"]
    assert calls == [(data / sid / "map.pgm", data / sid / "map.json")
                     for sid in ("scene_0001", "scene_0000")]


def test_an_empty_dataset_is_refused_before_anything_is_written(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="no scene to write"):
        write_dataset([], out)
    assert not out.exists()


def test_undecodable_agent_line_names_file_and_line(written, tmp_path):
    data = copy_of(written, tmp_path)
    jsonl = data / "scene_0001" / "agents.jsonl"
    lines = jsonl.read_bytes().splitlines(keepends=True)
    jsonl.write_bytes(lines[0] + lines[1][:55] + b"\xff" + lines[1][56:])
    message = f"{jsonl}:2: malformed agent record: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_dataset(data)


def test_missing_dataset_json_is_named(written, tmp_path):
    data = copy_of(written, tmp_path)
    (data / "dataset.json").unlink()
    with pytest.raises(FileNotFoundError, match=re.escape(str(data / "dataset.json"))):
        read_dataset(data)


def test_handwritten_two_agent_fixture(tmp_path):
    (tmp_path / "dataset.json").write_text(
        '{"t_obs": 2, "t_pred": 2, "frame_dt": 0.4, "scene_ids": ["scene_0000"]}')
    sdir = tmp_path / "scene_0000"
    sdir.mkdir()
    (sdir / "map.pgm").write_text("P2\n16 16\n255\n" + ("255 " * 256).strip() + "\n")
    (sdir / "map.json").write_text(
        '{"resolution_m_per_px": 1.0, "origin_x_m": 0.0, "origin_y_m": 0.0}'
    )
    frames = [[float(t), 0.0] for t in range(4)]
    # a waypoint on frame t_obs makes the clamped prefix longer than the history
    intents = [{"frames": [0, 1, 2, 3], "values": frames}]
    with open(sdir / "agents.jsonl", "w") as fh:
        for aid in (0, 1):
            record = {"scene_id": "scene_0000", "agent_id": aid,
                      "frames": frames, "intents": intents}
            fh.write(json.dumps(record) + "\n")
    scenes = read_dataset(tmp_path)
    assert len(scenes) == 1 and len(scenes[0].agents) == 2
    assert (scenes[0].t_obs, scenes[0].t_pred, scenes[0].frame_dt) == (2, 2, 0.4)
    assert scenes[0].agents[1].agent_id == 1
    np.testing.assert_array_equal(scenes[0].agents[0].trajectory, np.asarray(frames))
    np.testing.assert_array_equal(scenes[0].agents[0].intents[0].frames, [0, 1, 2, 3])


def test_dataset_generation_is_deterministic(tmp_path):
    a = small_dataset(seed=5)
    b = small_dataset(seed=5)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.env.nav_grid, sb.env.nav_grid)
        for aa, ab in zip(sa.agents, sb.agents):
            np.testing.assert_array_equal(aa.trajectory, ab.trajectory)
