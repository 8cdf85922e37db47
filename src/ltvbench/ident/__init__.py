"""LTV system identification: data checks, fits, rollouts, and tuning."""

from .cosmic import cosmic_fit, cosmic_objective, solve_block_tridiag
from .ltvmodels import ltvmodels_fit
from .predict import per_trajectory_losses, rollout_residuals, trajectory_prediction_loss
from .regression import check_excitation, lti_fit, perstep_ls_fit
from .tuning import DEFAULT_LAMBDA_GRID, LAMBDA_METHODS, METHODS, fit_method, tune
from .tvera import tvera_fit

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "LAMBDA_METHODS",
    "METHODS",
    "check_excitation",
    "cosmic_fit",
    "cosmic_objective",
    "fit_method",
    "lti_fit",
    "ltvmodels_fit",
    "per_trajectory_losses",
    "perstep_ls_fit",
    "rollout_residuals",
    "solve_block_tridiag",
    "trajectory_prediction_loss",
    "tune",
    "tvera_fit",
]
