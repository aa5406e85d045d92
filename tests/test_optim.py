import numpy as np
import pytest

from trajdiffuse.denoiser.optim import AdamState, NonFiniteGradientError, adam_update


def test_zero_gradients_leave_params_unchanged():
    tensors = {"a": np.array([1.0, 2.0]), "b": np.ones((2, 2))}
    state = AdamState.for_params(tensors)
    grads = {k: np.zeros_like(v) for k, v in tensors.items()}
    new, state = adam_update(tensors, grads, state, lr=1e-3)
    for k in tensors:
        np.testing.assert_array_equal(new[k], tensors[k])
    assert state.step == 1


def reference_adam_scalar(g, steps, lr, b1=0.9, b2=0.999, eps=1e-8, x0=0.0):
    """Scalar reference trajectory for a constant gradient."""
    x, m, v = x0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        out.append(x)
    return out


def test_constant_gradient_matches_scalar_reference():
    tensors = {"x": np.array([0.0])}
    state = AdamState.for_params(tensors)
    g = 0.73
    lr = 0.01
    expected = reference_adam_scalar(g, 5, lr)
    for t in range(5):
        tensors, state = adam_update(tensors, {"x": np.array([g])}, state, lr=lr)
        assert tensors["x"][0] == pytest.approx(expected[t], rel=1e-12)


def test_tensors_update_independently():
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(size=3), "b": rng.normal(size=3)}
    state = AdamState.for_params(tensors)
    ga = rng.normal(size=3)
    joint, _ = adam_update(tensors, {"a": ga, "b": np.zeros(3)}, state, lr=0.1)

    solo_tensors = {"a": tensors["a"].copy()}
    solo_state = AdamState.for_params(solo_tensors)
    solo, _ = adam_update(solo_tensors, {"a": ga}, solo_state, lr=0.1)
    np.testing.assert_array_equal(joint["a"], solo["a"])
    np.testing.assert_array_equal(joint["b"], tensors["b"])


def test_zero_learning_rate_is_identity():
    rng = np.random.default_rng(1)
    tensors = {"a": rng.normal(size=4)}
    state = AdamState.for_params(tensors)
    for _ in range(3):
        tensors2, state = adam_update(tensors, {"a": rng.normal(size=4)}, state, lr=0.0)
        np.testing.assert_array_equal(tensors2["a"], tensors["a"])
        tensors = tensors2


def test_non_finite_gradients_rejected():
    tensors = {"a": np.zeros(2)}
    state = AdamState.for_params(tensors)
    with pytest.raises(NonFiniteGradientError):
        adam_update(tensors, {"a": np.array([1.0, np.nan])}, state, lr=0.1)
    with pytest.raises(NonFiniteGradientError):
        adam_update(tensors, {"a": np.array([np.inf, 0.0])}, state, lr=0.1)


@pytest.mark.parametrize("lr", [-0.1, float("nan"), float("inf")])
def test_learning_rate_must_be_non_negative_and_finite(lr):
    tensors = {"a": np.zeros(2)}
    state = AdamState.for_params(tensors)
    with pytest.raises(ValueError, match=f"lr must be >= 0 and finite, got {lr}"):
        adam_update(tensors, {"a": np.ones(2)}, state, lr=lr)

