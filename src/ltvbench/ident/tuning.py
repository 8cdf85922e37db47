"""The method table, ``METHODS``, and the grid search scored by validation
rollout loss.  A method's hyperparameters are the keyword arguments of its fit."""

from __future__ import annotations

from dataclasses import dataclass
from inspect import signature

import numpy as np

from ..exceptions import InputError, LtvBenchError, TuningError
from ..models import LtvModel
from .cosmic import CosmicProblem, cosmic_fit, cosmic_problem
from .ltvmodels import ltvmodels_fit
from .predict import trajectory_prediction_loss
from .regression import lti_fit, perstep_ls_fit, trajectories_of
from .tvera import tvera_fit


def _as_is(data):
    return data


def _first(data):
    """The first trajectory of ``data``; a set-up built from it passes through."""
    return data if isinstance(data, CosmicProblem) else trajectories_of(data)[:1]


# name -> (training data, set-up its tuning grid shares, fit)
METHODS = {
    "cosmic": (_as_is, cosmic_problem, cosmic_fit),
    "cosmic-single": (_first, cosmic_problem, cosmic_fit),
    "ltvmodels": (_first, _as_is, ltvmodels_fit),
    "tvera": (_as_is, _as_is, tvera_fit),
    "perstep": (_as_is, _as_is, perstep_ls_fit),
    "lti": (_as_is, _as_is, lti_fit),
}
# the methods tuned over lam: those whose fit takes it
LAMBDA_METHODS = tuple(
    name for name, (_, _, fit) in METHODS.items() if "lam" in signature(fit).parameters
)

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 4.0, 9).tolist())


def _method(name: str) -> tuple:
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; expected one of {tuple(METHODS)}")
    return METHODS[name]


def fit_method(method: str, train_data, params: dict | None = None) -> LtvModel:
    """Fit ``method`` on its training data out of ``train_data`` (or on
    :func:`tune`'s set-up), with ``params`` as the fit's keyword arguments (a
    name the fit does not take raises ``TypeError``); the model is named
    ``method``."""
    data, _, fit = _method(method)
    model = fit(data(train_data), **(params or {}))
    model.method = method
    return model


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

    The fits share the method's set-up from ``METHODS``, built once for the
    grid: for both cosmic methods the lam-independent :func:`cosmic_problem`.
    Data that cannot be set up is passed on as it is, so that each point's
    fit raises and records the error."""
    points = _grid_sorted(grid)
    if not points:
        raise InputError("empty hyperparameter grid")
    data, setup, _ = _method(method)
    val_trajs = trajectories_of(validation_data)
    try:
        shared = setup(data(train_data))
    except LtvBenchError:
        shared = train_data
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
    loss, params, model = best
    return TuneResult(method, best_params=params, best_model=model, best_loss=loss, rows=rows)
