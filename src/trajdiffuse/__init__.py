"""Map-guided conditional diffusion for 2-D trajectory prediction.

The package trains a denoising-diffusion model that treats prediction as
inpainting between an observed history and intent anchors (waypoints plus a
goal), steers samples onto navigable ground with a distance-field gradient
guidance, and ships the synthetic benchmark generators, the evaluation
metric suite (ADE/FDE, KDE-NLL, ECFL, MVE, ACFL) and a CLI.
"""

from .diffusion import ConditionSpec, TrajBatch
from .estimator import NotFittedError, TrajDiffuse
from .mapguide import NavEnvironment
from .pipeline import PredictionResult
from .synth import IntentOracleConfig, Scene

__version__ = "0.1.0"

__all__ = [
    "ConditionSpec",
    "IntentOracleConfig",
    "NavEnvironment",
    "NotFittedError",
    "PredictionResult",
    "Scene",
    "TrajBatch",
    "TrajDiffuse",
    "__version__",
]
