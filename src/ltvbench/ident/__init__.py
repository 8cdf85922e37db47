"""LTV system identification: data checks, fits, rollouts, and tuning.

The exports are resolved on first use, so importing the package (as
``ltvbench.control`` does for ``ident.regression``) loads no fit module.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    "CosmicConfig": "cosmic",
    "DEFAULT_LAMBDA_GRID": "tuning",
    "LAMBDA_METHODS": "tuning",
    "LtvModelsConfig": "ltvmodels",
    "METHODS": "tuning",
    "TuneResult": "tuning",
    "TveraConfig": "tvera",
    "check_excitation": "regression",
    "cosmic_fit": "cosmic",
    "cosmic_objective": "cosmic",
    "fit_method": "tuning",
    "lti_fit": "regression",
    "ltvmodels_fit": "ltvmodels",
    "per_trajectory_losses": "predict",
    "perstep_ls_fit": "regression",
    "predict_rollout": "predict",
    "rollout_residuals": "predict",
    "solve_block_tridiag": "tridiag",
    "trajectory_prediction_loss": "predict",
    "tune": "tuning",
    "tvera_fit": "tvera",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
