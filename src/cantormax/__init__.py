"""Randomized sparse Cantor constructions, exact intersection/correlation
combinatorics, and desk-scale maximal-operator experiments."""

from .core import (
    CantorLevel,
    CantorSet,
    DimensionReport,
    MultiIndex,
    dim_bounds,
    dimension_limit_symbolic,
)
from .correlation import (
    CorrelationReport,
    c0_constant,
    classify_A,
    lambda_exact,
    lambda_sigma,
    sup_lambda_tr,
    trivial_bound,
)
from .grids import DiscretizationGrid
from .intersect import AffineTuple, count_internal
from .maxops import (
    AdjointAssignment,
    MaximalQuery,
    average,
    differentiation_experiment,
    l1_divergence_demo,
    mk_adjoint,
    mk_restricted_type_ratio,
    phi_star,
    restricted_type_ratio,
)
from .params import ConstructionParams, custom, fixed_dimension, one_dimensional
from .randomize import (
    GateReport,
    RngStream,
    bernoulli_layer,
    boundedness_check,
    construct,
    gate_correlation,
    gate_counts,
    gate_deviation,
    verify_set,
)
from .stepfn import PiecewiseLinear, StepFunction, product_integral

__version__ = "0.1.0"

__all__ = [
    "AdjointAssignment",
    "AffineTuple",
    "CantorLevel",
    "CantorSet",
    "ConstructionParams",
    "CorrelationReport",
    "DimensionReport",
    "DiscretizationGrid",
    "GateReport",
    "MaximalQuery",
    "MultiIndex",
    "PiecewiseLinear",
    "RngStream",
    "StepFunction",
    "average",
    "bernoulli_layer",
    "boundedness_check",
    "c0_constant",
    "classify_A",
    "construct",
    "count_internal",
    "custom",
    "differentiation_experiment",
    "dim_bounds",
    "dimension_limit_symbolic",
    "fixed_dimension",
    "gate_correlation",
    "gate_counts",
    "gate_deviation",
    "l1_divergence_demo",
    "lambda_exact",
    "lambda_sigma",
    "mk_adjoint",
    "mk_restricted_type_ratio",
    "one_dimensional",
    "phi_star",
    "product_integral",
    "restricted_type_ratio",
    "sup_lambda_tr",
    "trivial_bound",
    "verify_set",
]
