"""Selectivity estimation for inequality predicates over scalar and range columns.

Per-column statistics (equi-depth histogram, most-common values, null
fraction) feed restriction and join selectivity estimates for <, <=, >, >=
and for the positional range operators, with an exact counting oracle and
an experiment harness for error-versus-resolution studies.
"""

from .histogram import EquiDepthHistogram, cdf
from .mcv import MostCommonValues
from .operators import RangeOp, ScalarOp
from .stats import AttributeStats, analyze_column, load_stats, save_stats
from .estimator import join_selectivity, restriction_selectivity
from .ranges import (
    RangeColumn,
    RangeStats,
    RangeValue,
    analyze_range_column,
    load_range_stats,
    parse_range,
    range_join_selectivity,
    range_op_holds,
    save_range_stats,
)
from .oracle import ExactCount, exact_join, exact_range_join
from .harness import (
    ExperimentRow,
    generate_range_column,
    generate_scalar_column,
    run_sweep,
    write_results_csv,
)

__all__ = [
    "AttributeStats",
    "EquiDepthHistogram",
    "ExactCount",
    "ExperimentRow",
    "MostCommonValues",
    "RangeColumn",
    "RangeOp",
    "RangeStats",
    "RangeValue",
    "ScalarOp",
    "analyze_column",
    "analyze_range_column",
    "cdf",
    "exact_join",
    "exact_range_join",
    "generate_range_column",
    "generate_scalar_column",
    "join_selectivity",
    "load_range_stats",
    "load_stats",
    "parse_range",
    "range_join_selectivity",
    "range_op_holds",
    "restriction_selectivity",
    "run_sweep",
    "save_range_stats",
    "save_stats",
    "write_results_csv",
]
