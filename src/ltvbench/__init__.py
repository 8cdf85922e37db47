"""ltvbench: LTV identification, finite-horizon LQR, and tracking benchmarks
on perturbed and reconfiguring spring-mass-damper plants."""

__version__ = "0.1.0"

from .control import (
    CostWeights,
    GainSchedule,
    ReferenceSpec,
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    tracking_errors,
)
from .datagen import (
    Dataset,
    ExcitationSpec,
    Split,
    build_dataset,
    chirp,
    default_excitations,
    load_dataset,
    save_dataset,
    tvera_experiments,
)
from .dynamics import (
    BUILTIN_SCENARIOS,
    Kind,
    ScenarioSpec,
    Trajectory,
    discretize,
    ground_truth_ltv,
    params_at,
    scenario,
    simulate,
)
from .models import LtvModel, load_model, save_model

__all__ = [
    "BUILTIN_SCENARIOS",
    "CostWeights",
    "Dataset",
    "ExcitationSpec",
    "GainSchedule",
    "Kind",
    "LtvModel",
    "ReferenceSpec",
    "ScenarioSpec",
    "Split",
    "Trajectory",
    "build_dataset",
    "chirp",
    "closed_loop",
    "default_excitations",
    "default_reference",
    "default_weights",
    "discretize",
    "feedforward",
    "ground_truth_ltv",
    "load_dataset",
    "load_model",
    "lqr_ltv",
    "params_at",
    "save_dataset",
    "save_model",
    "scenario",
    "simulate",
    "tracking_errors",
    "tvera_experiments",
]
