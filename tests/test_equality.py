"""Types that hold arrays compare by identity; types of scalars by value.

A generated dataclass `__eq__` on arrays can only raise (an array's truth
value is ambiguous) and the generated `__hash__` of a frozen one raises on
its array fields, so every array holder compares and hashes by identity.
"""

import numpy as np
import pytest

from trajdiffuse.denoiser.net import ArchDescriptor, DenoiserParams
from trajdiffuse.denoiser.optim import AdamState
from trajdiffuse.diffusion import ConditionSpec, TrajBatch
from trajdiffuse.mapguide import NavEnvironment
from trajdiffuse.pipeline import PredictionResult
from trajdiffuse.schedule import NoiseSchedule
from trajdiffuse.synth import AgentTrack, IntentOracleConfig, Scene


def _batch():
    return TrajBatch(np.zeros((2, 4, 2)), 2, 2)


def _env():
    return NavEnvironment(np.ones((3, 4)), 0.5)


ARRAY_HOLDERS = {
    "TrajBatch": _batch,
    "ConditionSpec": lambda: ConditionSpec([0, 1], np.zeros((2, 2))),
    "NoiseSchedule": lambda: NoiseSchedule([0.5, 0.6]),
    "NavEnvironment": _env,
    "AgentTrack": lambda: AgentTrack(0, np.zeros((4, 2)), []),
    "Scene": lambda: Scene("scene_0000", _env(), [], 2, 2, 0.4),
    "DenoiserParams": lambda: DenoiserParams({"w": np.ones(3)}, ArchDescriptor()),
    "AdamState": lambda: AdamState({"w": np.ones(3)}),
    "PredictionResult": lambda: PredictionResult(_batch(), np.zeros(2, dtype=bool)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("make", [lambda: ArchDescriptor(widths=(4, 8)),
                                  lambda: IntentOracleConfig(n_waypoints=3)],
                         ids=["ArchDescriptor", "IntentOracleConfig"])
def test_scalar_holders_compare_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
