"""Bias-corrected Adam over named parameter tensors."""

from __future__ import annotations

import numpy as np

from ..validation import check_non_negative

BETAS = (0.9, 0.999)  # decay rates of the first and second moment estimates
EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """Raised when a gradient tensor contains NaN or inf; the step is invalid."""


class AdamState:
    """First/second moment accumulators plus the step counter: zero moments
    of each tensor's shape, at step 0."""

    def __init__(self, tensors: dict):
        self.m = {k: np.zeros_like(t) for k, t in tensors.items()}
        self.v = {k: np.zeros_like(t) for k, t in tensors.items()}
        self.step = 0


def adam_update(tensors: dict, grads: dict, state: AdamState,
                lr: float) -> tuple[dict, AdamState]:
    """One Adam step, in place; returns the same `tensors` and `state`.

    Every tensor and both its moments are updated in place (the step counter
    too), with the operation order of the out-of-place formulas, so the
    values are bit-identical to them; a caller that needs the old tensors
    copies them first. `grads` holds a gradient for every tensor. Non-finite
    gradients raise NonFiniteGradientError before anything is changed, so
    the caller can skip and report the step.
    """
    check_non_negative(lr, "lr")
    b1, b2 = BETAS
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for {name!r}")
    t = state.step + 1
    for name, p in tensors.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    state.step = t
    return tensors, state
