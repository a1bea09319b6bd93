"""Value semantics of the public records: immutable, compared and hashed by
field, copied and pickled whole, and serialized in a fixed key order."""

import copy
import math
import pickle
import re

import pytest

from equivar import (
    analyze,
    from_probabilities,
    sweep_binomial,
    uniform,
    verify_sum_squares_bounds,
)
from equivar.errors import (
    AllImpossible,
    BadFieldCount,
    EmptyInput,
    LabelLengthMismatch,
    NegativeProbability,
    NonFinite,
    ProbabilityAboveOne,
    SumExceedsOne,
    ValidationFailure,
)
from equivar.indicators import Distribution
from equivar.waveclimate import DIRECTION_LABELS, AreaRecord, area_report, chart_data

from conftest import A64_PROBS

REPORT_KEYS = [
    "n_outcomes", "p_total", "p_mean", "variance", "ref_variance", "cv", "cv_rel",
    "entropy_bits", "entropy_rel", "avg_number_f", "equiv_number_d",
    "equiv_number_g", "duality_residual",
]
ORACLE_KEYS = ["target", "value_found", "reference_value", "residual", "trials", "seed"]

# Each factory builds a new record from scratch, so two calls give equal
# records that are not the same object. Each entry names one field and,
# where the record has to_dict, its pinned key order.
RECORDS = {
    "Distribution": (lambda: Distribution(A64_PROBS, tuple("abcdefgh")), "probs", None),
    "IndicatorReport": (lambda: analyze(from_probabilities(A64_PROBS)), "cv", REPORT_KEYS),
    "SweepPoint": (lambda: sweep_binomial([3], 3)[1], "p", None),
    "OracleResult": (
        lambda: verify_sum_squares_bounds(from_probabilities((0.5, 0.25, 0.25))), "residual",
        ORACLE_KEYS,
    ),
    "AreaRecord": (lambda: AreaRecord("A64", from_probabilities(A64_PROBS), "P"), "region", None),
    "AreaIndicatorReport": (
        lambda: area_report(AreaRecord("A64", from_probabilities(A64_PROBS))), "area_id",
        ["area_id", "report"],
    ),
    "ChartRow": (
        lambda: chart_data([AreaRecord("A64", from_probabilities(A64_PROBS))])[0], "d", None,
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, field, keys = RECORDS[request.param]
    rec = make()
    assert type(rec).__name__ == request.param
    return make, rec, field, keys


def test_fields_can_be_neither_assigned_nor_deleted(record):
    _, rec, field, _ = record
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, 0)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.not_a_field = 0
    assert getattr(rec, field) is before


def test_equal_fields_give_equal_records_and_hashes(record):
    make, rec, _, _ = record
    other = make()
    assert other is not rec
    assert other == rec and not other != rec
    assert hash(other) == hash(rec)


@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_round_trip_to_an_equal_record(record, clone):
    _, rec, _, _ = record
    twin = clone(rec)
    assert type(twin) is type(rec)
    assert twin == rec and hash(twin) == hash(rec)


def test_to_dict_keys_come_in_the_pinned_order(record):
    _, rec, _, keys = record
    if keys is None:
        assert not hasattr(rec, "to_dict")
        return
    doc = rec.to_dict()
    assert type(doc) is dict and list(doc) == keys
    if "report" in doc:
        assert list(doc["report"]) == REPORT_KEYS


def test_records_of_different_types_or_fields_differ():
    d = Distribution((0.5, 0.5))
    assert d != Distribution((0.5, 0.25))
    assert d != Distribution((0.5, 0.5), ("a", "b"))
    assert d != (0.5, 0.5)
    assert AreaRecord("A", uniform(8)) != AreaRecord("A", uniform(8), "P")


def test_repr_names_every_field():
    assert repr(Distribution((0.5, 0.25))) == "Distribution(probs=(0.5, 0.25), labels=None)"
    assert repr(AreaRecord("A", uniform(8), "P")).startswith(
        "AreaRecord(area_id='A', directions=Distribution(probs=(0.125, "
    )
    assert repr(AreaRecord("A", uniform(8), "P")).endswith(", region='P')")


def test_constructors_take_keywords_and_normalize_fields():
    d = Distribution(probs=[1, 0], labels=["a", 7])
    assert d.probs == (1.0, 0.0) and d.labels == ("a", "7")
    rec = AreaRecord(area_id="A", directions=uniform(8))
    assert rec.region is None and rec.directions.labels == DIRECTION_LABELS


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Distribution(()), EmptyInput, "a distribution needs at least one outcome"),
        (lambda: Distribution((0.5, math.nan)), NonFinite, "probability 1 is nan"),
        (lambda: Distribution((-0.25,)), NegativeProbability, "probability 0 is -0.25"),
        (lambda: Distribution((1.5,)), ProbabilityAboveOne, "probability 0 is 1.5"),
        (lambda: Distribution((0.75, 0.5)), SumExceedsOne,
         "probabilities sum to 1.25, above 1 + 1e-09"),
        (lambda: Distribution((0.5, 0.5), ("a",)), LabelLengthMismatch,
         "1 labels for 2 probabilities"),
        (lambda: AreaRecord("", uniform(8)), ValidationFailure, "empty area id"),
        (lambda: AreaRecord("A", uniform(2)), BadFieldCount, "area 'A' has 2 directions, need 8"),
        (lambda: AreaRecord("A", Distribution((0.125,) * 8, tuple("abcdefgh"))),
         ValidationFailure, "area 'A' labels must be N,NE,E,SE,S,SW,W,NW"),
    ],
    ids=["empty", "nan", "negative", "above-one", "sum", "labels", "area-id", "area-count",
         "area-labels"],
)
def test_invalid_arguments_raise_the_typed_error_and_message(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize(
    "probs",
    [A64_PROBS, [0.5, 0.0, 1e-300, 0.25], [5e-324, 0.0], [0.0, 0.0]],
    ids=["a64", "wide-zero-padded", "subnormal", "all-zero"],
)
def test_copies_of_a_distribution_analyze_to_the_same_bits(clone, probs):
    def bits(report):
        return tuple(v.hex() if isinstance(v, float) else v for v in report)

    dist = from_probabilities(probs)
    twin = clone(dist)
    # The copy is rebuilt through the constructor, which finds the extremes anew.
    assert twin._extremes == dist._extremes
    if not any(probs):
        with pytest.raises(AllImpossible):
            analyze(twin)
        return
    assert bits(analyze(twin)) == bits(analyze(dist))


def test_construction_and_unpickling_call_the_patched_post_init(monkeypatch):
    seen = []
    validate = Distribution.__post_init__

    def spy(self):
        seen.append(self)
        validate(self)

    monkeypatch.setattr(Distribution, "__post_init__", spy)
    d = Distribution((0.5, 0.5))
    assert seen == [d] and seen[0] is d
    assert pickle.loads(pickle.dumps(d)) == d and len(seen) == 2
    with pytest.raises(ProbabilityAboveOne):
        Distribution((2.0,))
    assert len(seen) == 3


def test_a_post_init_wrapper_can_read_probs_after_the_call(monkeypatch):
    # A tracing wrapper reads len(self.probs) once __post_init__ has
    # returned or raised, so probs is set before validation starts.
    lengths = []
    validate = Distribution.__post_init__

    def wrapper(self):
        try:
            validate(self)
        finally:
            lengths.append(len(self.probs))

    monkeypatch.setattr(Distribution, "__post_init__", wrapper)
    pickle.loads(pickle.dumps(Distribution([0.5, 0.5])))
    with pytest.raises(SumExceedsOne):
        Distribution([0.7, 0.6])
    assert lengths == [2, 2, 2]
