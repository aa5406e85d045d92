"""Estimator-style front end: configure once, fit on scenes, predict agents.

The class follows the scikit-learn conventions (constructor stores
hyperparameters verbatim, ``fit`` returns ``self``, fitted state lives in
trailing-underscore attributes, ``get_params``/``set_params`` round-trip) so
it drops into pipelines and grid searches without scikit-learn itself being
a dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .denoiser import DenoiserParams, load_checkpoint, save_checkpoint
from .mapguide import NavEnvironment
from .pipeline import ARCH_FIELDS, PredictionResult, TrainConfig, predict, train
from .schedule import build_cosine_schedule
from .validation import as_int


class NotFittedError(RuntimeError):
    """predict() was called before fit() or load()."""


@dataclass(eq=False, kw_only=True)
class TrajDiffuse(TrainConfig):
    """Map-guided conditional diffusion model for trajectory prediction.

    Parameters
    ----------
    n_steps : int
        Denoising steps N in the reverse chain.
    widths : tuple of int
        Channel widths per U-Net resolution level.
    lr, batch_size, n_epochs, weighting, seed
        Training settings; `weighting` is "simple" (plain MSE) or "paper"
        (schedule-weighted).
    coord_scale : float
        Standardization scale in meters; trajectories are centered on the
        last observed position and divided by this before the network.
    guidance_steps : int
        Gradient-descent steps per frame for the map guidance at sampling
        time; each step is one map pixel long.

    The noise schedule is the squared-cosine one with the fixed offset
    `schedule.DEFAULT_COSINE_OFFSET`.
    """

    guidance_steps: int = 10

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for TrajDiffuse")
            setattr(self, name, value)
        return self

    # ------------------------------------------------------------------ fit

    def fit(self, scenes, init: DenoiserParams | None = None):
        """Train on a list of scenes; returns self."""
        self.model_params_, self.training_log_ = train(scenes, self, init=init)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_params_"):
            raise NotFittedError("call fit() or load() before predict()")

    # -------------------------------------------------------------- predict

    def predict(self, observed, intents, env: NavEnvironment | None = None,
                seed: int = 0, guidance: bool = True) -> PredictionResult:
        """Sample one trajectory per intent for a single agent."""
        self._check_fitted()
        if guidance and as_int(self.guidance_steps, "guidance_steps") < 1:
            raise ValueError(f"guidance_steps must be >= 1, got {self.guidance_steps}")
        return predict(self.model_params_, observed, list(intents), env,
                       seed=seed, guidance_steps=self.guidance_steps if guidance else 0)

    # ------------------------------------------------------------------ I/O

    def save(self, path) -> None:
        self._check_fitted()
        params = self.model_params_
        save_checkpoint(params, build_cosine_schedule(params.arch.n_steps), path)

    @classmethod
    def load(cls, path) -> "TrajDiffuse":
        params = load_checkpoint(path)
        model = cls(**{name: getattr(params.arch, name) for name in ARCH_FIELDS})
        model.model_params_ = params
        model.training_log_ = []
        return model
