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
    joint, _ = adam_update({k: t.copy() for k, t in tensors.items()},
                           {"a": ga, "b": np.zeros(3)}, state, lr=0.1)

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



def out_of_place_adam(tensors, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place form of one Adam step: new tensors and moments."""
    t = step + 1
    new_p, new_m, new_v = {}, {}, {}
    for name, p in tensors.items():
        g = grads[name]
        new_m[name] = b1 * m[name] + (1 - b1) * g
        new_v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = new_m[name] / (1 - b1**t)
        v_hat = new_v[name] / (1 - b2**t)
        new_p[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_p, new_m, new_v


def test_in_place_update_matches_the_out_of_place_formula_bit_for_bit():
    rng = np.random.default_rng(2)
    shapes = {"w": (4, 3, 5), "b": (4,), "s": ()}
    tensors = {k: rng.normal(size=s) for k, s in shapes.items()}
    state = AdamState.for_params(tensors)
    ref_p = {k: t.copy() for k, t in tensors.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    for step in range(5):
        grads = {k: rng.normal(size=s) * 10.0**(step - 2) for k, s in shapes.items()}
        ids = {k: id(t) for k, t in tensors.items()}
        out, out_state = adam_update(tensors, grads, state, lr=3e-3)
        ref_p, ref_m, ref_v = out_of_place_adam(ref_p, grads, ref_m, ref_v, step, 3e-3)
        assert out is tensors and out_state is state and state.step == step + 1
        assert {k: id(t) for k, t in tensors.items()} == ids  # updated in place
        for name in shapes:
            assert tensors[name].tobytes() == ref_p[name].tobytes()
            assert state.m[name].tobytes() == ref_m[name].tobytes()
            assert state.v[name].tobytes() == ref_v[name].tobytes()


def test_a_rejected_step_changes_nothing():
    tensors = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    state = AdamState.for_params(tensors)
    adam_update(tensors, {"a": np.ones(2), "b": np.ones(1)}, state, lr=0.1)
    before = [t.tobytes() for d in (tensors, state.m, state.v) for t in d.values()]
    with pytest.raises(NonFiniteGradientError):
        adam_update(tensors, {"a": np.ones(2), "b": np.array([np.nan])}, state, lr=0.1)
    assert [t.tobytes() for d in (tensors, state.m, state.v) for t in d.values()] == before
    assert state.step == 1
