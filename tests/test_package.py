"""The package's public names: each module's ``__all__`` decides, the package re-exports."""

import os
import subprocess
import sys
import typing

import pytest

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


# ----------------------------------------------------------------------
# import footprint: each module loads on the first use of one of its names

# A fresh interpreter told where this checkout's package lies.
_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(equivar.__file__))}


def _modules_after(code: str) -> set[str]:
    """sys.modules of a fresh interpreter that ran code, read from the last line
    of its stderr, apart from what code writes to stdout. (-X importtime does
    not log a module the package's __getattr__ loads with import_module.)"""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_equivar_loads_no_module_of_its_own_no_json_and_no_numpy():
    # A dunder probe, such as doctest's for __test__, loads nothing either.
    loaded = _modules_after("import equivar; hasattr(equivar, '__test__')")
    assert "equivar" in loaded
    assert {m for m in loaded if m.startswith("equivar.") or m in ("json", "numpy")} == set()


def test_a_lookup_loads_the_exporters_up_to_its_own_module_and_no_numpy():
    # The package searches indicators, distributions, oracle, waveclimate in turn.
    loaded = _modules_after("from equivar import binomial")
    assert "equivar.distributions" in loaded
    assert loaded & {"equivar.oracle", "equivar.waveclimate", "numpy"} == set()
    loaded = _modules_after("import equivar; [getattr(equivar, n) for n in equivar.__all__]")
    assert {"equivar.oracle", "equivar.waveclimate"} <= loaded and "numpy" not in loaded


# Each command, and the modules of its own it may load besides cli,
# indicators and waveclimate, which every command loads (an upper bound).
_COMMANDS = {
    "analyze": (["analyze", "--probs", "0.5", "--probs", "0.5"], set()),
    "binomial-sweep": (["binomial-sweep", "--n", "3", "--p-steps", "5"], {"equivar.distributions"}),
    "gws": (["gws", "--input", equivar.sample_table_path()], set()),
    "rose": (["rose", "--input", equivar.sample_table_path(), "--area", "A64"], set()),
    "oracle-cross": (["oracle", "--check", "cross", "--probs", "0.5", "--probs", "0.5"],
                     {"equivar.oracle"}),
    "oracle-max-variance": (
        ["oracle", "--check", "max-variance", "--n", "3", "--p-total", "1", "--trials", "100"],
        {"equivar.oracle", "numpy"},
    ),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_cli_command_loads_only_the_modules_it_uses(command):
    args, allowed = _COMMANDS[command]
    # What `python -m equivar ARGS` runs, less the runpy that starts it.
    argv = [*args, "--no-timestamp"]
    loaded = _modules_after(f"from equivar.cli import main\nassert main({argv!r}) == 0")
    assert {"equivar.cli", "equivar.indicators", "equivar.waveclimate"} <= loaded
    optional = {"equivar.distributions", "equivar.oracle", "numpy"}
    assert loaded & optional <= allowed, loaded & optional


def test_dir_lists_every_export():
    assert set(dir(equivar)) >= set(equivar.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from equivar import *", namespace)
    for name in equivar.__all__:
        assert namespace[name] is getattr(equivar, name)


def test_an_export_is_bound_into_the_package_on_first_use(monkeypatch):
    monkeypatch.delitem(vars(equivar), "analyze", raising=False)
    assert equivar.analyze is indicators.analyze
    assert vars(equivar)["analyze"] is indicators.analyze


def test_an_unknown_name_is_an_attribute_error():
    for name in ("no_such_export", "__wrapped__"):
        assert not hasattr(equivar, name)
