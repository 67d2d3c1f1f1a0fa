"""Constructive a.e. prescription of higher-order derivatives with certified
moduli of continuity, and Heisenberg-group analysis of the resulting graphs.
"""

from .core import (
    BoxDomain,
    BumpPolySum,
    BuildCertificate,
    CutoffProfile,
    InfeasibleBudgetError,
    LogModulus,
    Modulus,
    PiecewiseLinearModulus,
    PowerModulus,
    StageReport,
    cell_derivative_bounds,
    cutoff_eval,
    enumerate_multiindices,
    modulus_from_dict,
    multiindices_upto,
)

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "BumpPolySum",
    "BuildCertificate",
    "CutoffProfile",
    "InfeasibleBudgetError",
    "LogModulus",
    "Modulus",
    "PiecewiseLinearModulus",
    "PowerModulus",
    "StageReport",
    "cell_derivative_bounds",
    "cutoff_eval",
    "enumerate_multiindices",
    "modulus_from_dict",
    "multiindices_upto",
    "__version__",
]
