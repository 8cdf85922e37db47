"""Hyperparameter grid search driven by validation rollout loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import RECORDED_ERRORS, TuningError
from ..models import LtvModel
from .cosmic import CosmicConfig, cosmic_fit
from .ltvmodels import LtvModelsConfig, ltvmodels_fit
from .predict import trajectory_prediction_loss
from .regression import lti_fit, perstep_ls_fit, trajectories_of
from .tvera import TveraConfig, tvera_fit

METHODS = ("cosmic", "cosmic-single", "ltvmodels", "tvera", "perstep", "lti")
LAMBDA_METHODS = ("cosmic", "cosmic-single", "ltvmodels")   # tuned over lam

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 4.0, 9).tolist())


def fit_method(method: str, train_data, params: dict | None = None) -> LtvModel:
    """Fit one identification method with the given hyperparameters."""
    params = dict(params or {})
    if method == "cosmic":
        return cosmic_fit(train_data, CosmicConfig(**params))
    if method == "cosmic-single":
        return cosmic_fit(train_data, CosmicConfig(single_trajectory=True, **params))
    if method == "ltvmodels":
        return ltvmodels_fit(train_data, LtvModelsConfig(**params))
    if method == "tvera":
        return tvera_fit(train_data, TveraConfig(**params))
    if method == "perstep":
        return perstep_ls_fit(train_data)
    if method == "lti":
        trajs = trajectories_of(train_data)
        pair = lti_fit(trajs)
        return LtvModel.from_constant(
            pair, n_steps=trajs[0].n_steps, dt=trajs[0].dt, method="lti"
        )
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class GridPoint:
    params: dict
    loss: float | None
    error: str | None = None


@dataclass
class TuneResult:
    method: str
    best_params: dict
    best_model: LtvModel
    best_loss: float
    rows: list


def _grid_sorted(grid) -> list:
    """Grids keyed by lam are evaluated in ascending order so exact-loss ties
    resolve toward the larger (smoother) lam."""
    points = [dict(g) if isinstance(g, dict) else {"lam": float(g)} for g in grid]
    if points and all("lam" in g for g in points):
        points.sort(key=lambda g: g["lam"])
    return points


def tune(method: str, grid, train_data, validation_data) -> TuneResult:
    """Fit each grid point on the training data, score the fitted models by
    the validation rollout loss in one batched rollout, and return the winner
    (ties go to the later/larger point).  A point whose fit fails or whose
    loss is not finite is recorded as failed and never wins."""
    points = _grid_sorted(grid)
    if not points:
        raise ValueError("empty hyperparameter grid")
    val_trajs = trajectories_of(validation_data)
    fitted, errors = {}, {}
    for i, params in enumerate(points):
        try:
            fitted[i] = fit_method(method, train_data, params)
        except RECORDED_ERRORS as exc:   # recorded, the sweep continues
            errors[i] = str(exc)
    losses = {}
    if fitted:
        try:
            scored = trajectory_prediction_loss(list(fitted.values()), val_trajs)
        except RECORDED_ERRORS as exc:   # the set itself cannot be scored
            errors.update(dict.fromkeys(fitted, str(exc)))
        else:
            for i, loss in zip(fitted, scored.tolist()):
                if np.isfinite(loss):
                    losses[i] = loss
                else:
                    errors[i] = f"validation loss is {loss}"
    rows = []
    best = None
    for i, params in enumerate(points):
        if i not in losses:
            rows.append(GridPoint(params=params, loss=None, error=errors[i]))
            continue
        rows.append(GridPoint(params=params, loss=losses[i]))
        if best is None or losses[i] <= best[0]:
            best = (losses[i], params, fitted[i])
    if best is None:
        raise TuningError(
            f"every {method} grid point failed to fit",
            diagnostics=[f"{row.params}: {row.error}" for row in rows],
        )
    return TuneResult(
        method=method,
        best_params=best[1],
        best_model=best[2],
        best_loss=best[0],
        rows=rows,
    )
