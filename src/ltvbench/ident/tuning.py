"""Hyperparameter grid search driven by validation rollout loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InputError, LtvBenchError, TuningError
from ..models import LtvModel
from .cosmic import CosmicConfig, cosmic_fit, cosmic_problem
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
        return lti_fit(train_data)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass
class GridPoint:
    params: dict
    loss: float | None
    error: str | None = None
    model: LtvModel | None = None   # the point's fit, kept when its loss failed


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
    points = [dict(g) for g in grid]
    if points and all("lam" in g for g in points):
        points.sort(key=lambda g: g["lam"])
    return points


def tune(method: str, grid, train_data, validation_data) -> TuneResult:
    """Fit each grid point on the training data, score the fitted models by
    the validation rollout loss in one batched rollout, and return the winner
    (ties go to the later/larger point).  A point whose fit fails or whose
    loss is not finite is recorded as failed and never wins; every row keeps
    its point's fit.

    The fits share one set-up: for ``cosmic`` and ``cosmic-single`` the
    lam-independent :func:`cosmic_problem`, built once for the grid.  Data
    that cannot be set up is passed on as it is, so that each point's fit
    raises and records the error."""
    points = _grid_sorted(grid)
    if not points:
        raise InputError("empty hyperparameter grid")
    val_trajs = trajectories_of(validation_data)
    shared = train_data
    if method in ("cosmic", "cosmic-single"):
        try:
            shared = cosmic_problem(train_data, single_trajectory=method == "cosmic-single")
        except LtvBenchError:
            pass
    fitted, errors = {}, {}
    for i, params in enumerate(points):
        try:
            fitted[i] = fit_method(method, shared, params)
        except LtvBenchError as exc:   # recorded, the sweep continues
            errors[i] = str(exc)
    del shared   # scoring needs none of the set-up; free it first
    losses = {}
    if fitted:
        try:
            scored = trajectory_prediction_loss(list(fitted.values()), val_trajs)
        except LtvBenchError as exc:   # the set itself cannot be scored
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
            rows.append(GridPoint(params, None, errors[i], fitted.get(i)))
            continue
        rows.append(GridPoint(params, losses[i], model=fitted[i]))
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
