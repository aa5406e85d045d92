import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from trajdiffuse.cli import MAX_PREDICT_SEED, _agent_seed, build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


def run_in_subprocess(*argv):
    """`python -m trajdiffuse *argv` in a subprocess: in-process,
    logging.basicConfig binds the stream and level of the first test that
    calls main, and keeps them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "trajdiffuse", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)


def test_a_runtime_failure_is_reported_once(tmp_path):
    out = tmp_path / "out"
    proc = run_in_subprocess("train", "--data", tmp_path / "missing", "--out", out)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing' / 'dataset.json'}'"]
    assert not out.exists()


@pytest.mark.parametrize("level", ["bogus", "basic_format"])
def test_an_unknown_log_level_is_a_usage_error(tmp_path, capsys, level):
    out = tmp_path / "out"
    _assert_usage_error(["--log-level", level, "gen-data", "--out", out],
                        f"argument --log-level: invalid choice: {level.upper()!r}", capsys)
    assert not out.exists()


def test_log_level_info_logs_at_info(tmp_path):
    out = tmp_path / "out"
    proc = run_in_subprocess("--log-level", "info", "gen-data", "--out", out, "--n-scenes", 1,
                             "--agents-per-scene", 1, "--k-intents", 2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"INFO:trajdiffuse:wrote 1 scenes, 1 agent records to {out}"]
    assert json.loads((out / "gen-data.config.json").read_text())["log_level"] == "INFO"


GEN_FLAGS = [
    "gen-data", "--kind", "corridor,rooms", "--n-scenes", 2, "--agents-per-scene", 3,
    "--size", "32x32", "--resolution", 0.5, "--k-intents", 3, "--seed", 7,
]
TRAIN_FLAGS = [
    "train", "--epochs", 2, "--batch", 8, "--lr", 1e-3, "--steps", 5,
    "--widths", "4", "--coord-scale", 4.0, "--seed", 1,
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(*GEN_FLAGS, "--out", data) == 0
    model = root / "model"
    assert run(*TRAIN_FLAGS, "--data", data, "--out", model) == 0
    preds = root / "preds.jsonl"
    assert run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", preds, "--k", 3, "--guidance", "on", "--seed", 5,
    ) == 0
    return root, data, model, preds


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


# ------------------------------------------------------------------- gen-data

def test_gen_data_layout_and_determinism(workspace, tmp_path):
    _, data, _, _ = workspace
    scene_dirs = sorted(p.name for p in data.iterdir() if p.is_dir())
    assert scene_dirs == ["scene_0000", "scene_0001"]
    records = []
    for sdir in scene_dirs:
        records += read_jsonl(data / sdir / "agents.jsonl")
    assert len(records) == 6
    assert (data / "gen-data.config.json").exists()

    other = tmp_path / "again"
    assert run(*GEN_FLAGS, "--out", other) == 0
    for sdir in scene_dirs:
        for name in ("map.pgm", "map.json", "agents.jsonl"):
            assert (other / sdir / name).read_bytes() == (data / sdir / name).read_bytes()


def test_gen_data_rejects_small_size(tmp_path, capsys):
    _assert_usage_error(["gen-data", "--out", tmp_path / "x", "--size", "4x4"],
                        "--size must be at least 16x16, got 4x4", capsys)
    assert not (tmp_path / "x").exists()


def test_gen_data_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--out", tmp_path / "x", "--kind", "swamp")
    assert exc.value.code == 2


# ---------------------------------------------------------------------- train

def test_train_outputs_and_determinism(workspace, tmp_path):
    root, data, model, _ = workspace
    loss_csv = (model / "loss.csv").read_text().splitlines()
    assert loss_csv[0] == "epoch,mean_loss"
    assert len(loss_csv) == 3  # header + one row per epoch
    assert (model / "model.ckpt").exists()
    assert (model / "train.config.json").exists()

    rerun = tmp_path / "model2"
    assert run(*TRAIN_FLAGS, "--data", data, "--out", rerun) == 0
    assert (rerun / "loss.csv").read_bytes() == (model / "loss.csv").read_bytes()


def test_train_resume_rejects_mismatched_checkpoint(workspace, tmp_path, capsys):
    _, data, model, _ = workspace
    code = run(
        "train", "--data", data, "--out", tmp_path / "resume", "--epochs", 1,
        "--batch", 8, "--steps", 5, "--widths", "6", "--coord-scale", 4.0,
        "--resume", model / "model.ckpt",
    )
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_train_paper_weighting_needs_two_steps(workspace, tmp_path, capsys):
    _, data, _, _ = workspace
    out = tmp_path / "out"
    _assert_rejected(["train", "--data", data, "--out", out, "--epochs", 1, "--widths", 4,
                      "--weighting", "paper", "--steps", 1],
                     "weighting 'paper' with n_steps 1: n_steps must reach", capsys)
    assert not out.exists()


def test_train_resume_accepts_matching_checkpoint(workspace, tmp_path):
    _, data, model, _ = workspace
    code = run(
        *TRAIN_FLAGS, "--epochs", 1, "--data", data, "--out", tmp_path / "resume_ok",
        "--resume", model / "model.ckpt",
    )
    assert code == 0


# -------------------------------------------------------------------- predict

def test_predict_records_structure(workspace):
    _, data, _, preds = workspace
    records = read_jsonl(preds)
    assert len(records) == 6
    for record in records:
        trajs = np.asarray(record["trajectories"])
        assert trajs.shape == (3, 20, 2)
        assert record["t_obs"] == 8
        assert len(record["ecfl"]) == 3
    assert Path(str(preds) + ".config.json").exists()


def test_predict_history_matches_dataset(workspace):
    _, data, _, preds = workspace
    from trajdiffuse.synth import read_dataset

    scenes = {s.scene_id: s for s in read_dataset(data)}
    for record in read_jsonl(preds):
        agent = next(
            a for a in scenes[record["scene_id"]].agents
            if a.agent_id == record["agent_id"]
        )
        trajs = np.asarray(record["trajectories"])
        for k in range(trajs.shape[0]):
            np.testing.assert_array_equal(trajs[k, :8], agent.trajectory[:8])


def test_predict_k1_single_trajectory(workspace, tmp_path):
    _, data, model, _ = workspace
    out = tmp_path / "k1.jsonl"
    assert run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", out, "--k", 1, "--seed", 5,
    ) == 0
    for record in read_jsonl(out):
        assert np.asarray(record["trajectories"]).shape[0] == 1


def test_predict_byte_identical_across_runs(workspace, tmp_path):
    _, data, model, preds = workspace
    again = tmp_path / "again.jsonl"
    assert run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", again, "--k", 3, "--guidance", "on", "--seed", 5,
    ) == 0
    assert again.read_bytes() == Path(preds).read_bytes()


def test_predict_guidance_off_differs_only_in_unclamped_frames(workspace, tmp_path):
    _, data, model, preds = workspace
    off = tmp_path / "off.jsonl"
    assert run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", off, "--k", 3, "--guidance", "off", "--seed", 5,
    ) == 0
    from trajdiffuse.synth import read_dataset

    scenes = {s.scene_id: s for s in read_dataset(data)}
    for rec_on, rec_off in zip(read_jsonl(preds), read_jsonl(off)):
        scene = scenes[rec_on["scene_id"]]
        agent = next(a for a in scene.agents if a.agent_id == rec_on["agent_id"])
        clamped = agent.intents[0].frames
        on = np.asarray(rec_on["trajectories"])
        offv = np.asarray(rec_off["trajectories"])
        np.testing.assert_array_equal(on[:, clamped], offv[:, clamped])


@pytest.mark.parametrize("seed", [MAX_PREDICT_SEED + 1, 10_000_000_000_000])
def test_predict_seed_beyond_the_per_agent_range_is_a_usage_error(tmp_path, capsys, seed):
    # each agent's seed is seed * 1_000_003 + scene and agent terms, an int64
    _assert_rejected_before_reading(tmp_path, capsys, "predict", "--seed", seed,
                                    f"--seed must be <= {MAX_PREDICT_SEED}, got {seed}")


def test_predict_accepts_the_largest_seed(workspace, tmp_path):
    _, data, model, _ = workspace
    assert _agent_seed(MAX_PREDICT_SEED, 10**6, 10**9) < 2**63
    out = tmp_path / "largest.jsonl"
    assert run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", out, "--k", 1, "--seed", MAX_PREDICT_SEED,
    ) == 0
    assert len(read_jsonl(out)) == 6


def test_predict_rejects_k_beyond_stored_intents(workspace, tmp_path, capsys):
    _, data, model, _ = workspace
    code = run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", tmp_path / "toomany.jsonl", "--k", 50, "--seed", 5,
    )
    assert code == 1
    assert "intents" in capsys.readouterr().err


def test_predict_records_equal_estimator_predictions(workspace):
    # the CLI writes exactly what TrajDiffuse.predict returns, agent by agent
    _, data, model, preds = workspace
    from trajdiffuse import TrajDiffuse
    from trajdiffuse.synth import read_dataset

    estimator = TrajDiffuse.load(model / "model.ckpt")
    expected = ""
    for scene_idx, scene in enumerate(read_dataset(data)):
        for agent in scene.agents:
            result = estimator.predict(
                agent.trajectory[: scene.t_obs], agent.intents[:3], env=scene.env,
                seed=_agent_seed(5, scene_idx, agent.agent_id), guidance=True,
            )
            record = {
                "scene_id": scene.scene_id,
                "agent_id": agent.agent_id,
                "t_obs": scene.t_obs,
                "trajectories": result.trajectories.samples.tolist(),
                "ecfl": [bool(v) for v in result.per_sample_ecfl],
            }
            expected += json.dumps(record, sort_keys=True) + "\n"
    assert Path(preds).read_bytes() == expected.encode()


def test_predict_rejects_bad_grad_steps_before_sampling(workspace, tmp_path, capsys):
    _, data, model, _ = workspace
    out = tmp_path / "bad.jsonl"
    argv = ["predict", "--checkpoint", model / "model.ckpt", "--data", data,
            "--out", out, "--k", 3, "--grad-steps", 0]
    _assert_usage_error(argv, "--grad-steps must be >= 1, got 0", capsys)
    assert not out.exists()


# ----------------------------------------------------------------------- eval

def test_eval_ground_truth_scores_perfectly(workspace, tmp_path):
    _, data, _, _ = workspace
    from trajdiffuse.synth import read_dataset

    gt_preds = tmp_path / "gt.jsonl"
    with open(gt_preds, "w") as fh:
        for scene in read_dataset(data):
            for agent in scene.agents:
                fh.write(json.dumps({
                    "scene_id": scene.scene_id, "agent_id": agent.agent_id,
                    "t_obs": scene.t_obs,
                    "trajectories": [agent.trajectory.tolist()],
                }) + "\n")
    out = tmp_path / "metrics.json"
    assert run("eval", "--predictions", gt_preds, "--data", data, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["ade"] == 0.0 and report["fde"] == 0.0
    assert report["ecfl"] == 1.0
    assert report["config"]["mve_bins"] == 36
    assert report["config"]["acfl_threshold"] == 0.5
    assert (tmp_path / "metrics.json.config.json").exists()


def test_eval_report_matches_metrics_module(workspace, tmp_path):
    _, data, _, preds = workspace
    out = tmp_path / "metrics.json"
    assert run("eval", "--predictions", preds, "--data", data, "--out", out) == 0
    report = json.loads(out.read_text())

    from trajdiffuse.diffusion import TrajBatch
    from trajdiffuse.metrics import ade_fde as module_ade_fde
    from trajdiffuse.synth import read_dataset

    scenes = {s.scene_id: s for s in read_dataset(data)}
    ades = []
    for record in read_jsonl(preds):
        scene = scenes[record["scene_id"]]
        agent = next(a for a in scene.agents if a.agent_id == record["agent_id"])
        batch = TrajBatch(np.asarray(record["trajectories"]), scene.t_obs, scene.t_pred)
        ades.append(module_ade_fde(batch, agent.trajectory)[0])
    assert report["ade"] == pytest.approx(np.mean(ades), abs=1e-12)
    assert report["acfl"] is not None  # two agents per scene


@pytest.mark.parametrize("field, value", [
    ("agent_id", 9999), ("scene_id", "nope"), ("agent_id", 1.5), ("scene_id", ["scene_0000"]),
])
def test_eval_unknown_id_names_file_line_and_id(workspace, tmp_path, capsys, field, value):
    _, data, _, preds = workspace
    bad = _bad_predictions(preds, tmp_path, lambda r: r.update({field: value}))
    problem = f"{field} {value!r}" if value != 1.5 else f"{field} must be an integer, got 1.5"
    _assert_eval_and_render_reject(data, bad, f"{bad}:2: {problem}", capsys)


def _bad_predictions(preds, tmp_path, edit, line=2):
    """A copy of the predictions with the record on `line` edited; returns its path."""
    records = read_jsonl(preds)
    edit(records[line - 1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    return bad


def _assert_rejected(argv, message, capsys):
    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(ValueError, match=re.escape(message)):
        args.func(args)
    assert run(*argv) == 1
    assert message in capsys.readouterr().err


def _assert_eval_and_render_reject(data, bad, message, capsys):
    """eval, render of all scenes and render of scene_0000 reject `bad` with `message`
    and write nothing."""
    out = bad.parent / "out"
    for argv in (["eval"], ["render"], ["render", "--scene", "scene_0000"]):
        _assert_rejected([*argv, "--predictions", bad, "--data", data, "--out", out],
                         message, capsys)
        assert not out.exists()


def _assert_usage_error(argv, message, capsys):
    """argparse rejects `argv` with exit code 2 and `message` on stderr."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["scene_id", "agent_id", "trajectories"])
def test_eval_record_missing_key_names_file_line_and_key(workspace, tmp_path, capsys, key):
    _, data, _, preds = workspace
    bad = _bad_predictions(preds, tmp_path, lambda r: r.pop(key))
    _assert_eval_and_render_reject(data, bad, f"{bad}:2: prediction record lacks {key!r}", capsys)


def test_eval_record_t_obs_mismatch_is_rejected(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    for t_obs, problem in ((7, "t_obs 7 differs from the scene's 8"),
                           (8.0, "t_obs must be an integer, got 8.0")):  # like agent_id

        def edit(record):
            record["t_obs"] = t_obs

        bad = _bad_predictions(preds, tmp_path, edit)
        _assert_eval_and_render_reject(data, bad, f"{bad}:2: {problem}", capsys)


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_predictions_without_records_are_rejected(workspace, tmp_path, capsys, text):
    _, data, _, _ = workspace
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    _assert_eval_and_render_reject(data, bad, f"{bad}:1: no prediction record in the file",
                                   capsys)


@pytest.mark.parametrize("edit, problem", [
    pytest.param(lambda r: [s.pop() for s in r["trajectories"]],
                 "samples have 19 frames, expected t_obs + t_pred = 20", id="short"),
    pytest.param(lambda r: r.update(trajectories=[]), "samples must have 3 dimensions, got 1",
                 id="no-samples"),
    pytest.param(lambda r: [p.append(0.0) for s in r["trajectories"] for p in s],
                 "samples has shape (3, 20, 3), expected (None, None, 2)", id="3d-points"),
    pytest.param(lambda r: r["trajectories"][0].pop(), "setting an array element with a sequence",
                 id="ragged"),
    pytest.param(lambda r: r["trajectories"][2][5].__setitem__(1, float("nan")),
                 "samples contains non-finite values", id="nan"),
    pytest.param(lambda r: r["trajectories"][0][0].__setitem__(0, float("-inf")),
                 "samples contains non-finite values", id="inf"),
    pytest.param(lambda r: r["trajectories"][0][0].__setitem__(0, 10 ** 400),
                 "int too large to convert to float", id="huge-int"),
])
def test_eval_record_bad_trajectories_are_rejected(workspace, tmp_path, capsys, edit, problem):
    _, data, _, preds = workspace
    bad = _bad_predictions(preds, tmp_path, edit)
    _assert_eval_and_render_reject(data, bad, f"{bad}:2: bad trajectories: {problem}", capsys)


def test_eval_mixed_k_in_a_scene_names_file_and_scene(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    bad = _bad_predictions(preds, tmp_path, lambda r: r["trajectories"].pop())
    argv = ["eval", "--predictions", bad, "--data", data, "--out", tmp_path / "m.json"]
    _assert_rejected(
        argv, f"{bad}:2: scene 'scene_0000' has K=2 samples, but {bad}:1 has K=3", capsys,
    )


def test_repeated_record_is_rejected_by_eval_and_render(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    lines = Path(preds).read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines + lines[:1]) + "\n")
    first = read_jsonl(preds)[0]
    message = (f"{bad}:{len(lines) + 1}: scene_id {first['scene_id']!r} agent_id "
               f"{first['agent_id']!r} repeats the record at {bad}:1")
    _assert_eval_and_render_reject(data, bad, message, capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--acfl-threshold", "nan", "--acfl-threshold must be positive and finite, got nan"),
    ("--acfl-threshold", "-1", "--acfl-threshold must be positive and finite, got -1.0"),
    ("--acfl-threshold", "inf", "--acfl-threshold must be positive and finite, got inf"),
    ("--mve-bins", "0", "--mve-bins must be >= 1, got 0"),
])
def test_eval_rejects_bad_settings_before_reading(tmp_path, capsys, flag, value, message):
    missing = tmp_path / "missing"
    argv = ["eval", "--predictions", missing / "p.jsonl", "--data", missing,
            "--out", tmp_path / "m.json", flag, value]
    _assert_usage_error(argv, message, capsys)
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("predict", "--k", -1),
    ("predict", "--k", 0),
    ("train", "--epochs", 0),
    ("train", "--batch", 0),
    ("train", "--steps", 0),
    ("gen-data", "--n-scenes", 0),
    ("gen-data", "--t-obs", 0),
])
def test_count_flags_below_one_are_rejected_before_reading(tmp_path, capsys, command, flag,
                                                           value):
    _assert_rejected_before_reading(tmp_path, capsys, command, flag, value,
                                    f"{flag} must be >= 1, got {value}")


@pytest.mark.parametrize("command, flag, value, message", [
    ("gen-data", "--seed", -1, "--seed must be >= 0, got -1"),
    ("train", "--seed", -1, "--seed must be >= 0, got -1"),
    ("predict", "--seed", -1, "--seed must be >= 0, got -1"),
    ("gen-data", "--waypoints", -3, "--waypoints must be >= 0, got -3"),
    ("train", "--lr", "nan", "--lr must be >= 0 and finite, got nan"),
    ("train", "--lr", "inf", "--lr must be >= 0 and finite, got inf"),
    ("train", "--lr", "-0.001", "--lr must be >= 0 and finite, got -0.001"),
    ("train", "--coord-scale", "0", "--coord-scale must be positive and finite, got 0.0"),
    ("train", "--coord-scale", "inf", "--coord-scale must be positive and finite, got inf"),
    ("train", "--widths", "0,16", "--widths must be >= 1, got 0"),
    ("train", "--widths", "a,b", "--widths must be ints like 32,64,128"),
    ("gen-data", "--size", "8by8", "--size must look like 32x32, got '8by8'"),
    ("gen-data", "--kind", ",", "--kind must name at least one environment kind"),
])
def test_settings_out_of_range_are_rejected_before_reading(tmp_path, capsys, command, flag,
                                                           value, message):
    _assert_rejected_before_reading(tmp_path, capsys, command, flag, value, message)


def _assert_rejected_before_reading(tmp_path, capsys, command, flag, value, message):
    """`command` with `flag value` is a usage error that names the flag, and
    nothing is read or written."""
    missing, out = tmp_path / "missing", tmp_path / "out"
    inputs = {
        "predict": ["--checkpoint", missing / "model.ckpt", "--data", missing],
        "train": ["--data", missing],
        "gen-data": [],
    }[command]
    argv = [command, *inputs, "--out", out, flag, value]
    _assert_usage_error(argv, message, capsys)
    assert not out.exists()


def test_render_checks_records_like_eval(workspace, tmp_path, capsys):
    # rendering scene_0000 alone still checks the records of every scene
    _, data, _, preds = workspace

    def edit(record):
        assert record["scene_id"] == "scene_0001"
        record["trajectories"][0][0][0] = float("nan")

    bad = _bad_predictions(preds, tmp_path, edit, line=5)
    _assert_eval_and_render_reject(
        data, bad, f"{bad}:5: bad trajectories: samples contains non-finite values", capsys,
    )


# --------------------------------------------------------------------- render

def test_render_single_scene_svg(workspace, tmp_path):
    _, data, _, preds = workspace
    out = tmp_path / "scene.svg"
    assert run(
        "render", "--predictions", preds, "--data", data,
        "--scene", "scene_0000", "--out", out,
    ) == 0
    svg = out.read_text()
    root = ET.fromstring(svg)  # well-formed XML
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 3 * (3 + 1)  # three agents, K+1 polylines each

    again = tmp_path / "again.svg"
    assert run(
        "render", "--predictions", preds, "--data", data,
        "--scene", "scene_0000", "--out", again,
    ) == 0
    assert again.read_bytes() == out.read_bytes()


def test_render_all_scenes(workspace, tmp_path):
    _, data, _, preds = workspace
    out = tmp_path / "svgs"
    assert run("render", "--predictions", preds, "--data", data, "--out", out) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == ["scene_0000.svg", "scene_0001.svg"]


def test_render_unknown_scene_fails(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    code = run(
        "render", "--predictions", preds, "--data", data,
        "--scene", "scene_0099", "--out", tmp_path / "d" / "sub" / "x.svg",
    )
    assert code == 1
    assert "not present" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()  # the scene is checked before any directory is made


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0"], "--dt must be positive and finite, got 0.0"),
    (["--dt", "-0.4"], "--dt must be positive and finite, got -0.4"),
    (["--dt", "nan"], "--dt must be positive and finite, got nan"),
    (["--resolution", "0"], "--resolution must be positive and finite, got 0.0"),
    (["--resolution", "inf"], "--resolution must be positive and finite, got inf"),
    (["--speed-min", "0"], "--speed-min must be positive and finite, got 0.0"),
    (["--speed-max", "inf"], "--speed-max must be positive and finite, got inf"),
    (["--speed-min", "2", "--speed-max", "1"], "--speed-min must be <= --speed-max, got 2.0 > 1.0"),
    (["--goal-noise", "-1"], "--goal-noise must be >= 0 and finite, got -1.0"),
    (["--goal-noise", "nan"], "--goal-noise must be >= 0 and finite, got nan"),
])
def test_gen_data_float_flags_are_checked_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    argv = ["gen-data", "--out", out, *flags]
    if len(flags) == 2:  # one flag out of its range: a usage error
        _assert_usage_error(argv, message, capsys)
    else:  # the two speeds are compared when the command runs
        _assert_rejected(argv, message, capsys)
    assert not out.exists()


def test_gen_data_accepts_equal_speeds_and_zero_goal_noise(tmp_path):
    out = tmp_path / "out"
    assert run("gen-data", "--out", out, "--n-scenes", 1, "--agents-per-scene", 1,
               "--k-intents", 2, "--speed-min", 1.0, "--speed-max", 1.0,
               "--goal-noise", 0) == 0
    assert (out / "dataset.json").exists()


@pytest.mark.parametrize("t_pred, waypoints", [(12, 8), (12, 12), (6, 4), (6, 6)])
def test_gen_data_waypoints_must_fit_the_horizon(tmp_path, capsys, t_pred, waypoints):
    out = tmp_path / "out"
    argv = ["gen-data", "--out", out, "--t-pred", t_pred, "--waypoints", waypoints]
    _assert_rejected(argv, f"--waypoints {waypoints} does not fit in --t-pred {t_pred}: ",
                     capsys)
    assert not out.exists()


@pytest.mark.parametrize("t_pred, waypoints", [(12, 7), (6, 3)])
def test_gen_data_accepts_the_most_waypoints_that_fit(tmp_path, t_pred, waypoints):
    out = tmp_path / "out"
    assert run("gen-data", "--out", out, "--n-scenes", 1, "--agents-per-scene", 1,
               "--k-intents", 2, "--t-pred", t_pred, "--waypoints", waypoints) == 0
    assert (out / "dataset.json").exists()


def test_eval_undecodable_line_names_file_and_line(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    lines = Path(preds).read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(lines[0] + lines[1][:40] + b"\xff" + lines[1][41:] + b"".join(lines[2:]))
    _assert_eval_and_render_reject(
        data, bad, f"{bad}:2: malformed prediction record: 'utf-8' codec can't decode", capsys,
    )
