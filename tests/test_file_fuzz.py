"""Hypothesis fuzzing of the map and dataset readers.

Every corrupt input either loads or raises a ValueError (FileNotFoundError
for a missing sidecar) whose message names the file, and for JSONL files the
line. Inputs start from valid files and are corrupted two ways: byte edits
and truncation, or, for JSON, one value swapped for an arbitrary JSON value.
A number swapped for a bool or a string never loads: the reader raises.
"""

import json
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajdiffuse.cli import _load_predictions
from trajdiffuse.mapguide import load_environment, read_pgm
from trajdiffuse.synth import IntentOracleConfig, generate_dataset, read_dataset, write_dataset

FUZZ = settings(deadline=None, max_examples=200)

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.integers(-10 ** 400, 10 ** 400),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def corrupt_bytes(data, good: bytes) -> bytes:
    """`good` truncated, or with a few bytes overwritten or inserted."""
    n = len(good)
    if data.draw(st.booleans(), label="truncate"):
        return good[: data.draw(st.integers(0, n - 1), label="length")]
    buf = bytearray(good)
    for _ in range(data.draw(st.integers(1, 6), label="edits")):
        at = data.draw(st.integers(0, len(buf) - 1), label="at")
        value = data.draw(st.integers(0, 255), label="value")
        if data.draw(st.booleans(), label="insert"):
            buf.insert(at, value)
        else:
            buf[at] = value
    return bytes(buf)


def corrupt_json(data, record):
    """A copy of `record` with one value, at any depth, replaced or deleted."""
    record = json.loads(json.dumps(record))
    node = record
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys), label="key")
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans(), label="down"):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
            del node[key]
        else:
            node[key] = data.draw(json_values, label="value")
        return record


# a bool, or a string that may spell a number ("0.4", "nan")
not_numbers = st.booleans() | st.text(max_size=4) | st.floats().map(str)


def number_paths(node, path=()) -> list:
    """The path to every number of a parsed JSON value; a bool is not a number."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path] if type(node) in (int, float) else []
    return [p for key, child in children for p in number_paths(child, path + (key,))]


def swap_number(data, record):
    """A copy of `record` with one number, at any depth, swapped for a bool or a string."""
    record = json.loads(json.dumps(record))
    *parents, key = data.draw(st.sampled_from(number_paths(record)), label="number")
    node = record
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(not_numbers, label="value")
    return record


def swap_number_in_jsonl(data, good: bytes) -> tuple:
    """`good` with one number of one record swapped, and that record's 1-based line."""
    lines = good.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[i] = json.dumps(swap_number(data, json.loads(lines[i]))).encode() + b"\n"
    return b"".join(lines), i + 1


def corrupt_jsonl(data, good: bytes) -> bytes:
    if data.draw(st.booleans(), label="bytes"):
        return corrupt_bytes(data, good)
    lines = good.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[i] = json.dumps(corrupt_json(data, json.loads(lines[i]))).encode() + b"\n"
    return b"".join(lines)


def assert_names(exc, path, line=False):
    where = re.escape(str(path)) + (r":\d+: " if line else "")
    assert re.search(where, str(exc)), str(exc)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A pristine two-scene dataset and a scratch directory to corrupt copies in."""
    root = tmp_path_factory.mktemp("fuzz")
    scenes = generate_dataset(
        ["corridor"], n_scenes=1, n_agents=2, size=(16, 16), resolution=0.5, t_obs=4,
        t_pred=6, frame_dt=0.4, speed_range=(0.6, 1.4), intent_cfg=IntentOracleConfig(),
        k_intents=2, seed=3,
    )
    write_dataset(scenes, root / "good")
    return root / "good", root / "work"


def fresh_copy(dataset):
    good, work = dataset
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(good, work)
    return work / "scene_0000"


@pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
@FUZZ
@given(data=st.data())
def test_corrupt_pgm_loads_or_names_the_file(dataset, binary, data):
    sdir = fresh_copy(dataset)
    path = sdir / "map.pgm"
    grid = read_pgm(path)
    if binary:
        good = path.read_bytes()
    else:
        h, w = grid.shape
        pixels = " ".join("255" if v else "0" for v in grid.ravel())
        good = f"P2\n# a comment\n{w} {h}\n255\n{pixels}\n".encode()
    path.write_bytes(corrupt_bytes(data, good))
    try:
        load_environment(path, sdir / "map.json")  # read_pgm, then the grid's own checks
    except ValueError as exc:
        assert_names(exc, path)


@FUZZ
@given(data=st.data())
def test_corrupt_map_json_loads_or_names_the_file(dataset, data):
    sdir = fresh_copy(dataset)
    path = sdir / "map.json"
    good = path.read_bytes()
    if data.draw(st.booleans(), label="bytes"):
        path.write_bytes(corrupt_bytes(data, good))
    else:
        path.write_text(json.dumps(corrupt_json(data, json.loads(good))))
    try:
        load_environment(sdir / "map.pgm", path)
    except ValueError as exc:
        assert_names(exc, path)


@FUZZ
@given(data=st.data())
def test_corrupt_agents_jsonl_loads_or_names_file_and_line(dataset, data):
    sdir = fresh_copy(dataset)
    path = sdir / "agents.jsonl"
    path.write_bytes(corrupt_jsonl(data, path.read_bytes()))
    try:
        read_dataset(sdir.parent)
    except ValueError as exc:
        assert_names(exc, path, line=True)


@FUZZ
@given(data=st.data())
def test_a_number_swapped_in_map_json_never_loads(dataset, data):
    sdir = fresh_copy(dataset)
    path = sdir / "map.json"
    path.write_text(json.dumps(swap_number(data, json.loads(path.read_bytes()))))
    with pytest.raises(ValueError) as info:
        load_environment(sdir / "map.pgm", path)
    assert_names(info.value, path)


@FUZZ
@given(data=st.data())
def test_a_number_swapped_in_agents_jsonl_never_loads(dataset, data):
    sdir = fresh_copy(dataset)
    path = sdir / "agents.jsonl"
    bad, line = swap_number_in_jsonl(data, path.read_bytes())
    path.write_bytes(bad)
    with pytest.raises(ValueError) as info:
        read_dataset(sdir.parent)
    assert_names(info.value, f"{path}:{line}")


@pytest.fixture(scope="module")
def predictions(dataset, tmp_path_factory):
    """A predictions file for the pristine dataset, its good bytes and the
    dataset's scenes by id."""
    good, _ = dataset
    scene = read_dataset(good)[0]
    records = [
        {"scene_id": scene.scene_id, "agent_id": agent.agent_id, "t_obs": scene.t_obs,
         "trajectories": [agent.trajectory.tolist()] * 2, "ecfl": [True, True]}
        for agent in scene.agents
    ]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
    return path, text.encode(), {scene.scene_id: scene}


@FUZZ
@given(data=st.data())
def test_corrupt_predictions_load_or_name_file_and_line(predictions, data):
    path, good, scenes = predictions
    path.write_bytes(corrupt_jsonl(data, good))
    try:
        _load_predictions(path, scenes)  # checks each record against the dataset too
    except ValueError as exc:
        assert_names(exc, path, line=True)


@FUZZ
@given(data=st.data())
def test_a_number_swapped_in_predictions_never_loads(predictions, data):
    path, good, scenes = predictions
    bad, line = swap_number_in_jsonl(data, good)
    path.write_bytes(bad)
    with pytest.raises(ValueError) as info:
        _load_predictions(path, scenes)
    assert_names(info.value, f"{path}:{line}")
