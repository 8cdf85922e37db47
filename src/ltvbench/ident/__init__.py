"""LTV system identification: data checks, fits, rollouts, and tuning."""

from .cosmic import CosmicConfig, cosmic_fit, cosmic_objective
from .ltvmodels import LtvModelsConfig, ltvmodels_fit
from .predict import (
    per_trajectory_losses,
    predict_rollout,
    rollout_residuals,
    trajectory_prediction_loss,
)
from .regression import ExcitationReport, check_excitation, lti_fit, perstep_ls_fit
from .tridiag import apply_block_tridiag, solve_block_tridiag
from .tuning import (
    DEFAULT_LAMBDA_GRID,
    LAMBDA_METHODS,
    METHODS,
    TuneResult,
    fit_method,
    tune,
)
from .tvera import TveraConfig, tvera_fit

__all__ = [
    "CosmicConfig",
    "DEFAULT_LAMBDA_GRID",
    "ExcitationReport",
    "LAMBDA_METHODS",
    "LtvModelsConfig",
    "METHODS",
    "TuneResult",
    "TveraConfig",
    "apply_block_tridiag",
    "check_excitation",
    "cosmic_fit",
    "cosmic_objective",
    "fit_method",
    "lti_fit",
    "ltvmodels_fit",
    "per_trajectory_losses",
    "perstep_ls_fit",
    "predict_rollout",
    "rollout_residuals",
    "solve_block_tridiag",
    "trajectory_prediction_loss",
    "tune",
    "tvera_fit",
]
