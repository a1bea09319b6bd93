"""Variability and uncertainty indicators of discrete probability distributions.

Computes, for possibly incomplete probability vectors: the coefficient of
variation of the probabilities and its relative form, Shannon and order-1
Renyi entropy, and the equivalent-size numbers F = 2**H, D = 1/sum(p^2),
G = CV**2 + 1 tied together by D * G = N / p_total**2. Includes binomial
parameter sweeps, 8-direction ocean-area table processing, independent
Monte-Carlo/cross-path validators, and a CLI front end.
"""

__version__ = "0.1.0"

from . import errors
from .indicators import (
    Distribution,
    IndicatorReport,
    analyze,
    average_number_f,
    coefficient_of_variation,
    duality_check,
    equivalent_number_d,
    equivalent_number_g,
    mean_probability,
    reference_variance,
    relative_cv,
    relative_entropy_h,
    renyi1_entropy,
    shannon_entropy,
    total_probability,
    variance,
)
from .distributions import (
    SweepPoint,
    binomial,
    degenerate,
    from_counts,
    from_probabilities,
    sweep_binomial,
    uniform,
)
from .oracle import (
    OracleResult,
    cross_check_report,
    mc_max_variance,
    sample_simplex,
    verify_sum_squares_bounds,
)
from .waveclimate import (
    AreaIndicatorReport,
    AreaRecord,
    area_report,
    chart_data,
    find_area,
    format_area_table,
    parse_area_table,
    rank_areas,
    rose_data,
    sample_table_path,
)

__all__ = [
    "__version__",
    "errors",
    "Distribution",
    "IndicatorReport",
    "analyze",
    "average_number_f",
    "coefficient_of_variation",
    "duality_check",
    "equivalent_number_d",
    "equivalent_number_g",
    "mean_probability",
    "reference_variance",
    "relative_cv",
    "relative_entropy_h",
    "renyi1_entropy",
    "shannon_entropy",
    "total_probability",
    "variance",
    "SweepPoint",
    "binomial",
    "degenerate",
    "from_counts",
    "from_probabilities",
    "sweep_binomial",
    "uniform",
    "OracleResult",
    "cross_check_report",
    "mc_max_variance",
    "sample_simplex",
    "verify_sum_squares_bounds",
    "AreaIndicatorReport",
    "AreaRecord",
    "area_report",
    "chart_data",
    "find_area",
    "format_area_table",
    "parse_area_table",
    "rank_areas",
    "rose_data",
    "sample_table_path",
]
