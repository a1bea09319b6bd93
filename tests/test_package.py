"""The package's public names: each module's ``__all__`` decides, the package re-exports."""

import typing

import equivar
from equivar import cli, distributions, indicators, oracle, waveclimate

# Every name the package exported by hand before the module lists took over.
HAND_LISTED = [
    "__version__", "errors",
    "Distribution", "IndicatorReport", "analyze", "average_number_f",
    "coefficient_of_variation", "duality_check", "equivalent_number_d",
    "equivalent_number_g", "mean_probability", "reference_variance", "relative_cv",
    "relative_entropy_h", "renyi1_entropy", "shannon_entropy", "total_probability",
    "variance",
    "SweepPoint", "binomial", "degenerate", "from_counts", "from_probabilities",
    "sweep_binomial", "uniform",
    "OracleResult", "cross_check_report", "mc_max_variance", "sample_simplex",
    "verify_sum_squares_bounds",
    "AreaIndicatorReport", "AreaRecord", "area_report", "chart_data", "find_area",
    "format_area_table", "parse_area_table", "rank_areas", "rose_data",
    "sample_table_path",
]


def test_all_is_the_module_lists_in_order():
    assert equivar.__all__ == [
        "__version__",
        "errors",
        *indicators.__all__,
        *distributions.__all__,
        *oracle.__all__,
        *waveclimate.__all__,
    ]


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(equivar.__all__) == len(set(equivar.__all__))
    for name in equivar.__all__:
        getattr(equivar, name)


def test_all_keeps_every_hand_listed_name():
    assert len(HAND_LISTED) == 40
    assert set(HAND_LISTED) <= set(equivar.__all__)



def test_every_public_annotation_resolves():
    callables = [getattr(equivar, name) for name in equivar.__all__]
    callables = [obj for obj in callables if callable(obj)] + [cli.main]
    for obj in callables:
        typing.get_type_hints(obj)
        for attr in vars(obj).values() if isinstance(obj, type) else ():
            if callable(attr):
                # A staticmethod such as a record's __new__ is read through its function.
                typing.get_type_hints(getattr(attr, "__func__", attr))
