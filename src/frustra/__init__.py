"""frustra: exact diagonalization and closed-form entanglement scaling for
frustrated spin-1/2 lattice models."""

__version__ = "0.1.0"

from .spin_core import (
    Bipartition,
    DegenerateCutError,
    OrthogonalInitialStateError,
    PauliOperator,
    SizeLimitError,
    StateVector,
    ValidationError,
    block_entropy,
    build_dense,
    diagonalize,
    product_state,
)
from .models import ModelSpec, build_model, default_initial_state
from .cooling import CooledState, EntropyReport, cool, cooled_entropy_scan
from .frustration import frustration_degree, frustration_degree_model, ising_limit
from .interference import InterferenceReport, rvb_interference_curve

__all__ = [
    "Bipartition",
    "CooledState",
    "DegenerateCutError",
    "EntropyReport",
    "InterferenceReport",
    "ModelSpec",
    "OrthogonalInitialStateError",
    "PauliOperator",
    "SizeLimitError",
    "StateVector",
    "ValidationError",
    "block_entropy",
    "build_dense",
    "build_model",
    "cool",
    "cooled_entropy_scan",
    "default_initial_state",
    "diagonalize",
    "frustration_degree",
    "frustration_degree_model",
    "ising_limit",
    "product_state",
    "rvb_interference_curve",
]
