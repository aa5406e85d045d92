import dataclasses
import importlib

import numpy as np
import pytest

import trajdiffuse
from trajdiffuse import NotFittedError, TrajDiffuse
from trajdiffuse.pipeline import TrainConfig, train
from tests.test_pipeline import T_OBS, T_PRED, TINY_TRAIN, tiny_scenes


def test_the_package_root_offers_the_estimator_and_its_types():
    # one front door: `predict` and `train` at the root would be a second
    # entry point beside TrajDiffuse, with another contract
    assert sorted(trajdiffuse.__all__) == sorted([
        "TrajDiffuse", "NotFittedError", "PredictionResult", "TrajBatch", "ConditionSpec",
        "NavEnvironment", "Scene", "IntentOracleConfig", "__version__"])
    assert all(hasattr(trajdiffuse, name) for name in trajdiffuse.__all__)
    for module, name in [("pipeline", "predict"), ("pipeline", "train"),
                         ("pipeline", "TrainConfig"), ("schedule", "NoiseSchedule"),
                         ("schedule", "build_cosine_schedule")]:
        assert not hasattr(trajdiffuse, name)
        assert hasattr(importlib.import_module(f"trajdiffuse.{module}"), name)


def tiny_model(**overrides):
    kwargs = dict(
        n_steps=TINY_TRAIN["n_steps"], widths=TINY_TRAIN["widths"],
        kernel_len=TINY_TRAIN["kernel_len"], gn_groups=TINY_TRAIN["gn_groups"],
        emb_dim=TINY_TRAIN["emb_dim"], coord_scale=TINY_TRAIN["coord_scale"],
        lr=TINY_TRAIN["lr"], n_epochs=TINY_TRAIN["n_epochs"],
        batch_size=TINY_TRAIN["batch_size"], seed=TINY_TRAIN["seed"],
    )
    kwargs.update(overrides)
    return TrajDiffuse(**kwargs)


def test_get_set_params_round_trip():
    model = tiny_model()
    params = model.get_params()
    assert params["n_steps"] == TINY_TRAIN["n_steps"]
    model.set_params(n_steps=7, guidance_steps=3)
    assert model.n_steps == 7 and model.guidance_steps == 3
    with pytest.raises(ValueError, match="invalid parameter"):
        model.set_params(bogus=1)
    clone = TrajDiffuse(**model.get_params())
    assert clone.get_params() == model.get_params()


def test_predict_before_fit_raises():
    model = tiny_model()
    with pytest.raises(NotFittedError):
        model.predict(np.zeros((T_OBS, 2)), intents=[])


def test_fit_predict_cycle():
    scenes = tiny_scenes()
    model = tiny_model().fit(scenes)
    assert len(model.training_log_) == TINY_TRAIN["n_epochs"]
    agent = scenes[0].agents[0]
    result = model.predict(
        agent.trajectory[:T_OBS], agent.intents * 2, env=scenes[0].env, seed=3
    )
    assert result.trajectories.samples.shape == (2, T_OBS + T_PRED, 2)
    np.testing.assert_array_equal(
        result.trajectories.samples[0, :T_OBS], agent.trajectory[:T_OBS]
    )


def test_guided_predict_needs_a_descent_step():
    scenes = tiny_scenes()
    model = tiny_model(guidance_steps=0).fit(scenes)
    agent = scenes[0].agents[0]
    args = (agent.trajectory[:T_OBS], agent.intents)
    with pytest.raises(ValueError, match="guidance_steps must be >= 1, got 0"):
        model.predict(*args, env=scenes[0].env, seed=3)
    unguided = model.predict(*args, env=scenes[0].env, seed=3, guidance=False)
    expected = model.set_params(guidance_steps=10).predict(
        *args, env=scenes[0].env, seed=3, guidance=False)
    np.testing.assert_array_equal(unguided.trajectories.samples, expected.trajectories.samples)


@pytest.mark.parametrize("steps", ["3", 2.5, True])
def test_guidance_steps_follow_the_integer_rule(steps):
    scenes = tiny_scenes()
    model = tiny_model(guidance_steps=steps).fit(scenes)
    agent = scenes[0].agents[0]
    with pytest.raises(ValueError, match="guidance_steps must be an integer"):
        model.predict(agent.trajectory[:T_OBS], agent.intents, env=scenes[0].env, seed=3)


def test_save_load_round_trip(tmp_path):
    scenes = tiny_scenes()
    model = tiny_model().fit(scenes)
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = TrajDiffuse.load(path)
    assert loaded.n_steps == model.n_steps
    assert loaded.model_params_.arch == model.model_params_.arch

    agent = scenes[0].agents[0]
    a = loaded.predict(agent.trajectory[:T_OBS], agent.intents, env=scenes[0].env, seed=1)
    b = TrajDiffuse.load(path).predict(
        agent.trajectory[:T_OBS], agent.intents, env=scenes[0].env, seed=1
    )
    np.testing.assert_array_equal(a.trajectories.samples, b.trajectories.samples)


def test_reloaded_model_predicts_exactly_what_the_fitted_one_did(tmp_path):
    scenes = tiny_scenes()
    model = tiny_model().fit(scenes)
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = TrajDiffuse.load(path)
    for name, tensor in model.model_params_.tensors.items():
        np.testing.assert_array_equal(loaded.model_params_.tensors[name], tensor)
    agent = scenes[0].agents[0]
    args = (agent.trajectory[:T_OBS], agent.intents * 3)
    for guidance in (False, True):
        fitted = model.predict(*args, env=scenes[0].env, seed=5, guidance=guidance)
        reloaded = loaded.predict(*args, env=scenes[0].env, seed=5, guidance=guidance)
        assert reloaded.trajectories.samples.tobytes() == fitted.trajectories.samples.tobytes()
        np.testing.assert_array_equal(reloaded.per_sample_ecfl, fitted.per_sample_ecfl)


def test_fit_trains_exactly_what_train_does_with_the_same_settings():
    scenes = tiny_scenes()
    model = tiny_model(weighting="paper").fit(scenes)
    settings = {**TINY_TRAIN, "weighting": "paper"}
    params, log = train(scenes, TrainConfig(**settings))
    assert model.model_params_.arch == params.arch
    assert list(model.model_params_.tensors) == list(params.tensors)
    for name, tensor in params.tensors.items():
        assert model.model_params_.tensors[name].tobytes() == tensor.tobytes()
    assert model.training_log_ == log


def test_estimator_is_a_keyword_only_train_config_with_identity_equality():
    model = TrajDiffuse()
    assert isinstance(model, TrainConfig)
    assert set(model.get_params()) == {f.name for f in dataclasses.fields(TrainConfig)} | {
        "guidance_steps"}
    assert model == model and model != TrajDiffuse()
    assert hash(model) == hash(model)
    assert len({model, TrajDiffuse()}) == 2
    with pytest.raises(TypeError):
        TrajDiffuse(25)


def test_fit_from_init_leaves_init_untouched():
    # training updates its tensors in place, on a copy of `init`
    scenes = tiny_scenes()
    init = tiny_model(n_epochs=1).fit(scenes).model_params_
    before = {k: t.tobytes() for k, t in init.tensors.items()}
    tuned = tiny_model(n_epochs=2).fit(scenes, init=init).model_params_
    assert {k: t.tobytes() for k, t in init.tensors.items()} == before
    assert any(tuned.tensors[k].tobytes() != before[k] for k in before)
