import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from trajdiffuse.cli import build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


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
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--out", tmp_path / "x", "--size", "4x4")
    assert exc.value.code == 2


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
    from trajdiffuse.cli import _agent_seed
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
    code = run(
        "predict", "--checkpoint", model / "model.ckpt", "--data", data,
        "--out", out, "--k", 3, "--grad-steps", 0,
    )
    assert code == 1
    assert "n_grad_steps must be >= 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("field, value", [("agent_id", 9999), ("scene_id", "nope")])
def test_eval_unknown_id_names_file_line_and_id(workspace, tmp_path, capsys, field, value):
    _, data, _, preds = workspace
    records = read_jsonl(preds)
    records[1][field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = ["eval", "--predictions", bad, "--data", data, "--out", tmp_path / "m.json"]
    message = f"{bad}:2: {field} {value!r}"

    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(ValueError, match=re.escape(message)):
        args.func(args)
    assert run(*argv) == 1
    assert message in capsys.readouterr().err


def _eval_bad_record(data, preds, tmp_path, edit):
    """Run eval on the predictions with record 2 edited; return (argv, bad path)."""
    records = read_jsonl(preds)
    edit(records[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    return ["eval", "--predictions", bad, "--data", data, "--out", tmp_path / "m.json"], bad


def _assert_rejected(argv, message, capsys):
    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(ValueError, match=re.escape(message)):
        args.func(args)
    assert run(*argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["scene_id", "agent_id", "trajectories"])
def test_eval_record_missing_key_names_file_line_and_key(workspace, tmp_path, capsys, key):
    _, data, _, preds = workspace
    argv, bad = _eval_bad_record(data, preds, tmp_path, lambda r: r.pop(key))
    _assert_rejected(argv, f"{bad}:2: prediction record lacks {key!r}", capsys)


def test_eval_record_t_obs_mismatch_is_rejected(workspace, tmp_path, capsys):
    _, data, _, preds = workspace

    def edit(record):
        record["t_obs"] -= 1

    argv, bad = _eval_bad_record(data, preds, tmp_path, edit)
    _assert_rejected(argv, f"{bad}:2: t_obs 7 differs from the scene's 8", capsys)


@pytest.mark.parametrize("edit, problem", [
    pytest.param(lambda r: [s.pop() for s in r["trajectories"]], "has shape (3, 19, 2)",
                 id="short"),
    pytest.param(lambda r: r.update(trajectories=[]), "has shape (0,)", id="no-samples"),
    pytest.param(lambda r: [p.append(0.0) for s in r["trajectories"] for p in s],
                 "has shape (3, 20, 3)", id="3d-points"),
    pytest.param(lambda r: r["trajectories"][0].pop(), "is not a (K >= 1, 20, 2) array",
                 id="ragged"),
    pytest.param(lambda r: r["trajectories"][2][5].__setitem__(1, float("nan")),
                 "holds non-finite values", id="nan"),
    pytest.param(lambda r: r["trajectories"][0][0].__setitem__(0, float("-inf")),
                 "holds non-finite values", id="inf"),
])
def test_eval_record_bad_trajectories_are_rejected(workspace, tmp_path, capsys, edit, problem):
    _, data, _, preds = workspace
    argv, bad = _eval_bad_record(data, preds, tmp_path, edit)
    _assert_rejected(argv, f"{bad}:2: trajectories {problem}", capsys)


def test_eval_mixed_k_in_a_scene_names_file_and_scene(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    argv, bad = _eval_bad_record(data, preds, tmp_path, lambda r: r["trajectories"].pop())
    _assert_rejected(
        argv, f"{bad}:2: scene 'scene_0000' has K=2 samples, but {bad}:1 has K=3", capsys,
    )


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
    _assert_rejected(argv, message, capsys)
    assert not (tmp_path / "m.json").exists()


def test_render_checks_records_like_eval(workspace, tmp_path, capsys):
    _, data, _, preds = workspace
    _, bad = _eval_bad_record(data, preds, tmp_path, lambda r: r.pop("trajectories"))
    argv = ["render", "--predictions", bad, "--data", data, "--out", tmp_path / "svgs"]
    _assert_rejected(argv, f"{bad}:2: prediction record lacks 'trajectories'", capsys)

    def edit(record):
        record["trajectories"][0][0][0] = float("nan")

    _, bad = _eval_bad_record(data, preds, tmp_path, edit)
    argv = ["render", "--predictions", bad, "--data", data, "--out", tmp_path / "svgs"]
    _assert_rejected(argv, f"{bad}:2: trajectories holds non-finite values", capsys)


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
        "--scene", "scene_0099", "--out", tmp_path / "x.svg",
    )
    assert code == 1
    assert "not present" in capsys.readouterr().err
