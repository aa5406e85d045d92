"""The integer rule and the number rule, and every file field they guard.

Integers (`as_int_array`) refuse a bool, also inside a list, a float, a
string and a value past intp's range. Numbers (`as_numbers`) refuse a bool,
a string and null, also inside a list. Each field a file reads is checked
with a numeric string and a bool, and the error names the file, and for a
JSONL file the line. The counts the library takes without a file (a
trajectory batch's split, the training loop's, guidance's and the
schedule's) follow the integer rule too.
"""

import json
import re
import shutil

import numpy as np
import pytest

from trajdiffuse import TrajDiffuse
from trajdiffuse.cli import _load_predictions
from trajdiffuse.denoiser import ArchDescriptor, init_params
from trajdiffuse.diffusion import ConditionSpec, TrajBatch, forward_noise
from trajdiffuse.mapguide import load_environment
from trajdiffuse.pipeline import TrainConfig, predict, train
from trajdiffuse.schedule import build_cosine_schedule
from trajdiffuse.synth import IntentOracleConfig, generate_dataset, read_dataset, write_dataset
from trajdiffuse.validation import (
    as_float_array,
    as_int,
    as_int_array,
    as_number,
    as_numbers,
    check_steps,
)

PAST_INTP = re.escape(f"past the {np.dtype(np.intp)} range")

# ----------------------------------------------------------------- the rules


@pytest.mark.parametrize("steps, bad", [
    ([1, True], "True"), ([1, 2.0], "2.0"), (["1", 2], "'1'"),
    (np.array([1.0, 2.0]), "dtype float64"), (np.array([True, True]), "dtype bool"),
], ids=["bool-in-list", "float-in-list", "string-in-list", "float-array", "bool-array"])
def test_step_lists_are_integers(steps, bad):
    with pytest.raises(ValueError, match=re.escape(f"steps must be integers, got {bad}")):
        check_steps(steps, 25, shape=(2,))
    x = np.zeros((2, 4, 2))
    with pytest.raises(ValueError, match="steps must be integers"):
        forward_noise(x, steps[::-1], x, build_cosine_schedule(25))


@pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 2 ** 64])
def test_an_integer_past_intp_is_refused_not_wrapped(value):
    with pytest.raises(ValueError, match=PAST_INTP):
        check_steps(value, 25)
    with pytest.raises(ValueError, match=f"clamp frames holds {value}, {PAST_INTP}"):
        ConditionSpec([0, 1, 2, value], np.zeros((4, 2)))
    with pytest.raises(ValueError, match=PAST_INTP):
        ArchDescriptor(n_steps=value)


def test_an_unsigned_array_past_intp_is_refused():
    with pytest.raises(ValueError, match=f"x holds {2 ** 63}, {PAST_INTP}"):
        as_int_array(np.array([1, 2 ** 63], dtype=np.uint64), "x")
    assert as_int_array(np.array([1, 2], dtype=np.uint64), "x").dtype == np.intp


@pytest.mark.parametrize("widths, bad", [
    ((16.7, 32, 64), "16.7"), ((16.7, True, 64), "16.7"), ((16, True, 64), "True"),
    ((16.0, 32, 64), "16.0"), (("16", 32, 64), "'16'"),
], ids=["fraction", "fraction-and-bool", "bool", "integral-float", "string"])
def test_descriptor_widths_are_integers(widths, bad):
    with pytest.raises(ValueError, match=re.escape(f"widths must be integers, got {bad}")):
        ArchDescriptor(widths=widths)


@pytest.mark.parametrize("field", ["kernel_len", "gn_groups", "emb_dim", "in_channels", "t_obs",
                                   "t_pred", "n_steps"])
@pytest.mark.parametrize("value", [True, 5.0, "5"], ids=["bool", "float", "string"])
def test_descriptor_counts_are_integers(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        ArchDescriptor(**{field: value})


@pytest.mark.parametrize("fields, error", [
    ({"widths": (0, 8)}, "widths must be a non-empty tuple of positive ints"),
    ({"emb_dim": 7}, "emb_dim must be a positive even integer"),
    ({"widths": (4, 8, 16), "t_obs": 8, "t_pred": 10},
     "trajectory length 18 not divisible by the total downsampling factor 4"),
], ids=["zero-width", "odd-emb_dim", "indivisible-length"])
def test_descriptor_refuses_integers_out_of_range(fields, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        ArchDescriptor(**fields)


def test_descriptor_keeps_valid_integers_as_python_ints():
    desc = ArchDescriptor(widths=np.array([16, 32, 64], dtype=np.int32), n_steps=np.int64(25))
    assert desc == ArchDescriptor(widths=(16, 32, 64))
    assert type(desc.widths) is tuple and {type(w) for w in desc.widths} == {int}
    assert type(desc.n_steps) is int


@pytest.mark.parametrize("value, bad", [("0.4", "'0.4'"), (np.str_("3"), "np.str_('3')"),
                                        (None, "None")])
def test_one_number_is_not_a_string_or_null(value, bad):  # nor a bool, as before
    with pytest.raises(ValueError, match=re.escape(f"x must be a number, got {bad}")):
        as_number(value, "x")


@pytest.mark.parametrize("values, bad", [
    ([[1.0, 2.0], [True, False]], "True"),
    ([[1.0, 2.0], ["3", 4.0]], "'3'"),
    ([[1.0, None]], "None"),
    (np.array([[True, False]]), "dtype bool"),
    (np.array([["1.0", "2.0"]]), "dtype <U3"),
    (np.array([[1.0, 2.0]], dtype=object), "dtype object"),
], ids=["bool-in-list", "string-in-list", "null-in-list", "bool-array", "string-array",
        "object-array"])
def test_number_arrays_hold_no_bool_string_or_null(values, bad):
    for check in (as_numbers, as_float_array):
        with pytest.raises(ValueError, match=re.escape(f"v must be numbers, got {bad}")):
            check(values, "v")
    with pytest.raises(ValueError, match=re.escape(f"clamp values must be numbers, got {bad}")):
        ConditionSpec([0], values)


def test_valid_numbers_and_integers_keep_their_values():
    assert as_int(np.int16(7), "x") == 7 and type(as_int(7, "x")) is int
    steps = as_int_array(np.array([3, 4], dtype=np.int32), "x")
    assert steps.dtype == np.intp and steps.tolist() == [3, 4]
    assert as_int_array([], "x").dtype == np.intp
    assert as_number(np.float32(0.5), "x") == 0.5 and as_number(3, "x") == 3.0
    big = as_numbers([1, 2 ** 70], "x")  # an integer past int64 is still a number
    assert big.dtype == np.float64 and big[1] == 2.0 ** 70
    ints = np.arange(4)
    assert as_numbers(ints, "x").tolist() == [0.0, 1.0, 2.0, 3.0]
    floats = np.ones(3)
    assert as_float_array(floats, "x") is floats  # an ndarray is only judged by its dtype


def test_a_float_array_checked_against_a_shape_is_non_empty():
    assert as_float_array([], "x").shape == (0,)
    with pytest.raises(ValueError, match=re.escape("x must be non-empty, got shape (0,)")):
        as_float_array([], "x", shape=(None,))


# ------------------------------------------------------------- file fields

T_OBS, T_PRED = 4, 6


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A one-scene dataset and a predictions file for it."""
    root = tmp_path_factory.mktemp("rules")
    scenes = generate_dataset(
        ["corridor"], n_scenes=1, n_agents=2, size=(16, 16), resolution=0.5, t_obs=T_OBS,
        t_pred=T_PRED, frame_dt=0.4, speed_range=(0.6, 1.4), intent_cfg=IntentOracleConfig(),
        k_intents=2, seed=3,
    )
    write_dataset(scenes, root / "data")
    preds = root / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"scene_id": "scene_0000", "agent_id": a.agent_id, "t_obs": T_OBS,
                    "trajectories": [a.trajectory.tolist()] * 2}) + "\n"
        for a in scenes[0].agents))
    return root


def test_an_estimator_with_fractional_widths_does_not_train(written):
    model = TrajDiffuse(widths=(16.7, 32, 64), n_epochs=1)
    with pytest.raises(ValueError, match="widths must be integers, got 16.7"):
        model.fit(read_dataset(written / "data"))
    assert not hasattr(model, "model_params_")


def not_numbers(value):
    """A numeric string and a bool in place of `value`."""
    return [str(value), bool(value)]


def assert_refused(read, where: str, name: str):
    with pytest.raises(ValueError) as info:
        read()
    message = str(info.value)
    assert message.startswith(f"{where}: ") and f"{name} must be " in message, message


def edit_json(path, edit, value):
    record = json.loads(path.read_text())
    edit(record, value)
    path.write_text(json.dumps(record))


def edit_jsonl_line2(path, edit, value):
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record, value)
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def setter(*keys):
    """edit(record, value) that sets record[k0][k1]...[kn] = value."""
    def edit(record, value):
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value
    return edit


def getter(record, keys):
    for key in keys:
        record = record[key]
    return record


def test_dataset_json_numbers_refuse_strings_and_bools(written, tmp_path):
    for key in ("frame_dt", "t_obs", "t_pred"):
        original = json.loads((written / "data" / "dataset.json").read_text())[key]
        for value in not_numbers(original):
            data = shutil.copytree(written / "data", tmp_path / "data", dirs_exist_ok=True)
            edit_json(data / "dataset.json", setter(key), value)
            assert_refused(lambda: read_dataset(data), data / "dataset.json", key)


def test_map_json_numbers_refuse_strings_and_bools(written, tmp_path):
    sdir = written / "data" / "scene_0000"
    for key in ("resolution_m_per_px", "origin_x_m", "origin_y_m"):
        original = json.loads((sdir / "map.json").read_text())[key]
        for value in not_numbers(original):
            meta = shutil.copy(sdir / "map.json", tmp_path / "map.json")
            edit_json(meta, setter(key), value)
            assert_refused(lambda: load_environment(sdir / "map.pgm", meta), meta, key)


AGENT_FIELDS = {  # path in an agents.jsonl record -> the name its error gives
    ("agent_id",): "agent_id",
    ("frames", 5, 0): "frames",
    ("intents", 1, "frames", T_OBS): "clamp frames",
    ("intents", 1, "values", -1, 1): "clamp values",  # the goal's y
}


def test_agents_jsonl_numbers_refuse_strings_and_bools(written, tmp_path):
    for keys, name in AGENT_FIELDS.items():
        good = written / "data" / "scene_0000" / "agents.jsonl"
        original = getter(json.loads(good.read_text().splitlines()[1]), keys)
        for value in not_numbers(original):
            data = shutil.copytree(written / "data", tmp_path / "data", dirs_exist_ok=True)
            jsonl = data / "scene_0000" / "agents.jsonl"
            edit_jsonl_line2(jsonl, setter(*keys), value)
            assert_refused(lambda: read_dataset(data), f"{jsonl}:2", name)


def test_agents_jsonl_refuses_a_bool_goal(written, tmp_path):
    data = shutil.copytree(written / "data", tmp_path / "data")
    jsonl = data / "scene_0000" / "agents.jsonl"

    def edit(record, value):
        record["frames"][-1] = value
        for spec in record["intents"]:
            spec["values"][-1] = value

    edit_jsonl_line2(jsonl, edit, [True, False])
    assert_refused(lambda: read_dataset(data), f"{jsonl}:2", "frames")


PREDICTION_FIELDS = {
    ("agent_id",): "agent_id",
    ("t_obs",): "t_obs",
    ("trajectories", 1, 5, 1): "samples",
}


def test_prediction_numbers_refuse_strings_and_bools(written, tmp_path):
    scenes = {s.scene_id: s for s in read_dataset(written / "data")}
    for keys, name in PREDICTION_FIELDS.items():
        original = getter(json.loads((written / "preds.jsonl").read_text().splitlines()[1]), keys)
        for value in not_numbers(original):
            preds = shutil.copy(written / "preds.jsonl", tmp_path / "preds.jsonl")
            edit_jsonl_line2(preds, setter(*keys), value)
            assert_refused(lambda: _load_predictions(preds, scenes), f"{preds}:2", name)


# ---------------------------------------------------- counts on the library path

TINY_ARCH = dict(widths=(4,), kernel_len=3, gn_groups=2, emb_dim=8, n_steps=5)


@pytest.mark.parametrize("t_obs, t_pred, error", [
    (True, 19, "t_obs must be an integer, got "), (8.0, 12, "t_obs must be an integer, got "),
    (8, np.float64(12.0), "t_pred must be an integer, got "),
    ("8", 12, "t_obs must be an integer, got "),
    (0, 20, "t_obs and t_pred must each be >= 1"), (20, 0, "t_obs and t_pred must each be >= 1"),
], ids=["bool", "float", "numpy-float", "string", "zero-t_obs", "zero-t_pred"])
def test_a_trajectory_batch_split_is_integers(t_obs, t_pred, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        TrajBatch(np.zeros((2, 20, 2)), t_obs, t_pred)
    batch = TrajBatch(np.zeros((2, 20, 2)), np.int32(8), 12)
    assert type(batch.t_obs) is int and batch.t_obs == 8


@pytest.mark.parametrize("name, value, error", [
    ("n_epochs", True, "n_epochs must be an integer, got True"),
    ("n_epochs", 2.0, "n_epochs must be an integer, got 2.0"),
    ("n_epochs", 0, "n_epochs must be at least 1, got 0"),
    ("batch_size", True, "batch_size must be an integer, got True"),
    ("batch_size", 0, "batch_size must be at least 1, got 0"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", -1, "seed must be at least 0, got -1"),
])
def test_training_counts_are_checked_before_training(written, name, value, error):
    scenes = read_dataset(written / "data")
    settings = {"n_epochs": 1, "batch_size": 4, **TINY_ARCH, name: value}
    with pytest.raises(ValueError, match=re.escape(error)):
        train(scenes, TrainConfig(**settings))
    model = TrajDiffuse(**{**settings, name: 1}).set_params(**{name: value})
    with pytest.raises(ValueError, match=re.escape(error)):
        model.fit(scenes)
    assert not hasattr(model, "model_params_")


@pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "string"])
def test_guidance_steps_are_an_integer(written, value):
    scene = read_dataset(written / "data")[0]
    agent = scene.agents[0]
    params = init_params(ArchDescriptor(t_obs=T_OBS, t_pred=T_PRED, **TINY_ARCH))
    with pytest.raises(ValueError, match=re.escape(f"guidance_steps must be an integer, "
                                                   f"got {value!r}")):
        predict(params, agent.trajectory[:T_OBS], agent.intents, scene.env,
                guidance_steps=value)


@pytest.mark.parametrize("n_steps", [2.7, True, 3.0, "3"], ids=["fraction", "bool",
                                                                 "integral-float", "string"])
def test_a_schedule_length_is_an_integer(n_steps):
    with pytest.raises(ValueError, match=re.escape(f"n_steps must be an integer, got {n_steps!r}")):
        build_cosine_schedule(n_steps)
    assert build_cosine_schedule(np.int64(3)).n_steps == 3
