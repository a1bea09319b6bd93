"""Unit tests for area-table parsing, reports, rankings, and plot data."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    AreaRecord,
    area_report,
    chart_data,
    find_area,
    format_area_table,
    from_probabilities,
    parse_area_table,
    rank_areas,
    rose_data,
    sample_table_path,
    uniform,
)
from equivar.errors import (
    BadFieldCount,
    DuplicateAreaId,
    EmptyInput,
    MalformedHeader,
    NegativeProbability,
    NonNumericProbability,
    ParseError,
    SumExceedsOne,
    UnknownArea,
    ValidationFailure,
)
from equivar.waveclimate import CSV_HEADER, DIRECTION_LABELS, read_vector

from conftest import A64_PROBS, A86_PROBS

A64_ROW = "A64,0.0042,0.0098,0.1151,0.6081,0.2110,0.0234,0.0049,0.0033"
A86_ROW = "A86,0.1192,0.0941,0.1157,0.1125,0.1299,0.1370,0.1489,0.1152"


def table(*rows: str) -> bytes:
    return ("\n".join([CSV_HEADER, *rows]) + "\n").encode()


@pytest.fixture
def sample_records():
    with open(sample_table_path(), "rb") as fh:
        return parse_area_table(fh.read(), "csv")


# ----------------------------------------------------------------------
# parsing


def test_parse_observed_rows():
    records = parse_area_table(table(A64_ROW, "", A86_ROW), "csv")  # a blank row is skipped
    assert [r.area_id for r in records] == ["A64", "A86"]
    assert records[0].directions.probs == A64_PROBS
    assert math.fsum(records[0].directions.probs) == pytest.approx(0.9798, abs=1e-15)
    assert math.fsum(records[1].directions.probs) == pytest.approx(0.9725, abs=1e-15)
    assert records[0].directions.labels == DIRECTION_LABELS


def test_parse_accepts_crlf():
    data = (CSV_HEADER + "\r\n" + A64_ROW + "\r\n").encode()
    assert parse_area_table(data, "csv")[0].area_id == "A64"


def test_parse_accepts_open_file_object():
    with open(sample_table_path(), "rb") as fh:
        records = parse_area_table(fh, "csv")
    assert [r.area_id for r in records][:2] == ["A64", "A86"]


@pytest.mark.parametrize(
    "source, refused",
    [
        (lambda: open(sample_table_path(), encoding="utf-8"), None),
        (lambda: io.StringIO(Path(sample_table_path()).read_text("utf-8")), None),
        (lambda: contextlib.nullcontext(None), "NoneType"),
        (lambda: contextlib.nullcontext(5), "int"),
    ],
    ids=["text-mode-file", "string-io", "none", "int"],
)
def test_readers_take_text_files_and_refuse_other_objects(source, refused, sample_records):
    with source() as data:
        if refused is None:
            assert parse_area_table(data, "csv") == sample_records
        else:
            for reader in (parse_area_table, read_vector):
                with pytest.raises(ParseError, match=f"^input must be .*, not {refused}$"):
                    reader(data, "csv")


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedHeader, match="^header must be 'area,dN,.*', got 'area,dN'$"):
        parse_area_table(b"area,dN\nA1,0.5\n", "csv")


def test_parse_rejects_short_row():
    row = "A01,0.1,0.1,0.1,0.1,0.1,0.1,0.1"  # 7 probabilities
    with pytest.raises(BadFieldCount, match="row 2"):
        parse_area_table(table(row), "csv")


def test_parse_rejects_non_numeric():
    row = "A01,0.1,0.1,x,0.1,0.1,0.1,0.1,0.1"
    with pytest.raises(NonNumericProbability, match="row 2"):
        parse_area_table(table(row), "csv")


@pytest.mark.parametrize("cell", ["0.2_5", "\u0660.\u0665", "1_0", "0.5\u00a0"])
def test_parse_csv_takes_ascii_numbers_without_underscores(cell):
    row = f"A01,{cell},0.1,0.1,0.1,0.1,0.1,0.1,0.1"
    with pytest.raises(NonNumericProbability, match="row 2: dN is not a number"):
        parse_area_table(table(row), "csv")


@pytest.mark.parametrize(
    "area", [[1, 2], True, 5, None, {"id": "A1"}], ids=["array", "true", "number", "null", "object"]
)
def test_parse_json_area_id_must_be_a_string(area):
    doc = [{"area": "A0", "directions": [0.1] * 8}, {"area": area, "directions": [0.1] * 8}]
    with pytest.raises(ParseError, match="entry 2: area id is not a string"):
        parse_area_table(json.dumps(doc), "json")


@pytest.mark.parametrize(
    "area",
    ["A,1", "A1\nB", "A\r1", 'A"1', "A\t1", "A\x001", "A\x7f", "A\x851", "A\u20281", "A\u2029B",
     "\ud800", "A\udfff"],
)
def test_json_area_id_holds_no_chart_breaking_character(area):
    doc = [{"area": area, "directions": [0.1] * 8}]
    with pytest.raises(ParseError, match="entry 1: area id .* holds a comma"):
        parse_area_table(json.dumps(doc), "json")


@pytest.mark.parametrize("area", ['A"1', '"A1"', "A\t1", "A\x001", "A\x7f", "A\x9f1"])
def test_csv_area_id_holds_no_chart_breaking_character(area):
    with pytest.raises(ParseError, match="row 3: area id .* holds a comma"):
        parse_area_table(table(A64_ROW, f"{area},0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"), "csv")


def test_area_ids_may_hold_other_unicode():
    doc = [{"area": " \u00e9t\u00e9 \u2192 \U0001f30a ", "directions": [0.1] * 8}]
    assert parse_area_table(json.dumps(doc), "json")[0].area_id == "\u00e9t\u00e9 \u2192 \U0001f30a"


def test_parse_rejects_duplicate_area():
    with pytest.raises(DuplicateAreaId, match="^row 3: duplicate area 'A64'$"):
        parse_area_table(table(A64_ROW, A64_ROW), "csv")


def test_parse_propagates_validation_with_row():
    row = "A01,0.9,0.9,0,0,0,0,0,0"
    with pytest.raises(SumExceedsOne, match="row 2"):
        parse_area_table(table(row), "csv")
    row = "A01,-0.1,0.2,0.1,0.1,0.1,0.1,0.1,0.1"
    with pytest.raises(NegativeProbability, match="row 2"):
        parse_area_table(table(row), "csv")
    with pytest.raises(ParseError, match="^row 3: empty area id$"):
        parse_area_table(table(A64_ROW, " ,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1"), "csv")


def test_parse_json():
    doc = [
        {"area": "A64", "directions": list(A64_PROBS), "region": "eastern Pacific"},
        {"area": "A86", "directions": list(A86_PROBS)},
    ]
    records = parse_area_table(json.dumps(doc), "json")
    assert records[0].region == "eastern Pacific"
    assert records[1].region is None
    assert records[0].directions.probs == A64_PROBS
    # Written back, a region is kept and an absent one stays absent.
    text = format_area_table(records, "json")
    assert json.loads(text) == doc
    assert parse_area_table(text, "json") == records


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_area_table(b"{not json", "json")
    with pytest.raises(BadFieldCount, match="^entry 1: 'directions' must hold 8 numbers$"):
        parse_area_table(json.dumps([{"area": "A1", "directions": [0.5]}]), "json")
    for entry in ({"area": "A1"}, {"directions": [0.1] * 8}, [0.1] * 8):
        with pytest.raises(
            BadFieldCount, match="^entry 1: need an object with 'area' and 'directions'$"
        ):
            parse_area_table(json.dumps([entry]), "json")
    with pytest.raises(ParseError, match="^entry 1: empty area id$"):
        parse_area_table(json.dumps([{"area": " ", "directions": [0.1] * 8}]), "json")
    with pytest.raises(NonNumericProbability):
        doc = [{"area": "A1", "directions": [0.1] * 7 + ["x"]}]
        parse_area_table(json.dumps(doc), "json")
    with pytest.raises(DuplicateAreaId, match="^entry 2: duplicate area 'A1'$"):
        doc = [
            {"area": "A1", "directions": [0.1] * 8},
            {"area": "A1", "directions": [0.1] * 8},
        ]
        parse_area_table(json.dumps(doc), "json")


@pytest.mark.parametrize(
    "text, error, match",
    [
        (
            '[{"area": "A1", "directions": [0.1, 0.1, 0.1, 1' + "0" * 400 + ", 0.1, 0.1, 0.1, 0.1]}]",
            NonNumericProbability,
            "entry 1: dSE is past the float range",
        ),
        ('[{"area": "A1", "directions": [1' + "0" * 5000 + "]}]", ParseError, "invalid JSON"),
        ("[" * 100_000 + "]" * 100_000, ParseError, "invalid JSON"),
    ],
    ids=["int-past-float-range", "int-literal-too-long", "nested-too-deep"],
)
def test_parse_json_rejects_numbers_and_nesting_json_cannot_hold(text, error, match):
    with pytest.raises(error, match=match):
        parse_area_table(text, "json")


def test_read_vector_csv_and_json():
    assert read_vector(b"0.25, 0.5\n\n0.25\n", "csv") == ([0.25, 0.5, 0.25], None)
    assert read_vector("[0.5, 1, 0]", "json") == ([0.5, 1.0, 0.0], None)
    doc = {"probs": [0.5, 0.5], "labels": ["H", 7], "note": "ignored"}
    assert read_vector(json.dumps(doc), "json") == ([0.5, 0.5], ["H", "7"])
    with pytest.raises(NonNumericProbability, match="row 2: probability 2 is not a number: 'x'"):
        read_vector("0.1,0.1\n x \n", "csv")
    with pytest.raises(NonNumericProbability, match="^JSON probability 1 is not a number: null$"):
        read_vector("[0.5, null]", "json")
    with pytest.raises(NonNumericProbability, match="^JSON probability 2 is past the float range$"):
        read_vector("[0.5, 0.5, 1" + "0" * 400 + "]", "json")
    with pytest.raises(ParseError, match="unknown format"):
        read_vector("0.5", "xml")


@pytest.mark.parametrize(
    "reader, data, fmt",
    [
        (read_vector, b"0.5,0.25\n0.25\n", "csv"),
        (read_vector, b'{"probs": [0.5, 0.5], "labels": ["H", "T"]}', "json"),
        (parse_area_table, table(A64_ROW, A86_ROW), "csv"),
        (parse_area_table, b'[{"area": "A1", "directions": [0.125, 0.125, 0.125, 0.125,'
         b' 0.125, 0.125, 0.125, 0.125], "region": "P"}]', "json"),
    ],
    ids=["vector-csv", "vector-json", "table-csv", "table-json"],
)
def test_every_input_reads_the_same_after_a_byte_order_mark(reader, data, fmt, tmp_path):
    marked = b"\xef\xbb\xbf" + data
    path = tmp_path / "marked"
    path.write_bytes(marked)
    want = reader(data, fmt)
    assert reader(marked, fmt) == want
    assert reader(marked.decode("utf-8"), fmt) == want
    assert reader(io.BytesIO(marked), fmt) == want
    with open(path, encoding="utf-8") as text_file:  # keeps the mark, as utf-8-sig would not
        assert reader(text_file, fmt) == want
    # Only one mark is skipped, on every path alike.
    for twice in (b"\xef\xbb\xbf" + marked, "\ufeff" + marked.decode("utf-8")):
        with pytest.raises(ParseError):
            reader(twice, fmt)


@pytest.mark.parametrize(
    "directions, match",
    [
        ([0.1] * 7 + ["0.1"], 'entry 1: dNW is not a number: "0.1"'),
        ([0.1] * 7 + [True], "entry 1: dNW is not a number: true"),
        ([None] + [0.1] * 7, "entry 1: dN is not a number: null"),
        ([[0.1]] + [0.1] * 7, "entry 1: dN is not a number: an array"),
    ],
    ids=["numeric-string", "boolean", "null", "array"],
)
def test_parse_json_takes_only_json_numbers(directions, match):
    doc = [{"area": "A1", "directions": directions}]
    with pytest.raises(NonNumericProbability, match=match):
        parse_area_table(json.dumps(doc), "json")


def test_round_trip_is_lossless(sample_records):
    records = [rec._replace(region=None if i == 1 else f"basin {i}")
               for i, rec in enumerate(sample_records)]
    assert parse_area_table(format_area_table(records, "json"), "json") == records
    # The CSV form has no region column: ids and probability bits come back,
    # and every region as None.
    back = parse_area_table(format_area_table(records, "csv"), "csv")
    assert [(r.area_id, [p.hex() for p in r.directions.probs], r.region) for r in back] == [
        (r.area_id, [p.hex() for p in r.directions.probs], None) for r in records
    ]
    with pytest.raises(ParseError, match="unknown format 'xml'"):
        format_area_table(sample_records, "xml")


def test_area_record_requires_eight_directions():
    with pytest.raises(BadFieldCount):
        AreaRecord("A1", from_probabilities((0.5, 0.5)))


def test_area_record_is_a_named_tuple_that_validates_every_copy():
    rec = AreaRecord("A", uniform(8), "P")
    assert isinstance(rec, tuple) and rec == ("A", rec.directions, "P")
    assert rec._replace(region=None) == AreaRecord("A", uniform(8))
    with pytest.raises(ValidationFailure, match="^empty area id$"):
        rec._replace(area_id="")
    with pytest.raises(BadFieldCount, match="^area 'A' has 2 directions, need 8$"):
        AreaRecord._make(("A", uniform(2), None))


@pytest.mark.parametrize("region", [5, 0.5, b"P", ["P"], True])
def test_area_record_refuses_a_region_that_is_not_a_string(region):
    message = rf"^area 'A' region must be a string or None, got {re.escape(repr(region))}$"
    with pytest.raises(ValidationFailure, match=message):
        AreaRecord("A", uniform(8), region)
    with pytest.raises(ValidationFailure, match=message):
        AreaRecord("A", uniform(8))._replace(region=region)


@pytest.mark.parametrize("region", [None, "P", "", " eastern Pacific ", "\u00e9\n\ud800"])
def test_area_record_comes_back_from_a_json_table_as_it_was(region):
    rec = AreaRecord("A", uniform(8), region)
    assert parse_area_table(format_area_table([rec], "json"), "json") == [rec]


# Ids a table reader refuses ("a,b" also splits its CSV row, "a\u2028b" its
# CSV line), in the reader's words, or gives back changed (" pad " comes
# back stripped). A falsy non-string such as 0 is not called empty.
_UNWRITABLE = "holds a comma, a double quote, a control character, a line separator or a lone surrogate"
_NOT_STRIPPED = [" pad ", "pad\u3000", "\u00a0pad", 7, b"A", 0, None]


@pytest.mark.parametrize(
    "area_id",
    ["a,b", 'a"b', "a\nb", "a\tb", "a\x85b", "a\u2028b", "a\u2029b", "\ud800", "a\udfff",
     *_NOT_STRIPPED],
)
def test_area_record_refuses_an_id_a_reader_would_not_give_back(area_id):
    fault = "must be a string with no surrounding whitespace" if area_id in _NOT_STRIPPED else _UNWRITABLE
    message = rf"^area id {re.escape(repr(area_id))} {fault}$"
    with pytest.raises(ValidationFailure, match=message):
        AreaRecord(area_id, uniform(8))
    with pytest.raises(ValidationFailure, match=message):
        AreaRecord("A", uniform(8))._replace(area_id=area_id)


# Any code point, lone surrogates included.
_ANY_CHAR = st.characters(exclude_categories=()) | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF
)


@settings(max_examples=200, deadline=None)
@given(area_id=st.text(_ANY_CHAR, min_size=1, max_size=5))
@example(area_id="a,b")
@example(area_id=" pad ")
@example(area_id="a\u2028b")
@example(area_id="\u00e9t\u00e9 \u2192 \U0001f30a")
def test_an_id_area_record_takes_is_one_both_readers_give_back(area_id):
    doc = json.dumps([{"area": area_id, "directions": [0.125] * 8}])
    try:
        rec = AreaRecord(area_id, uniform(8))
    except ValidationFailure:
        # The JSON reader refuses the id or gives back another one.
        with contextlib.suppress(ParseError):
            assert parse_area_table(doc, "json")[0].area_id != area_id
        return
    for fmt in ("csv", "json"):
        back = parse_area_table(format_area_table([rec], fmt), fmt)
        assert [r.area_id for r in back] == [area_id], fmt
    assert parse_area_table(doc, "json") == [rec]


# ----------------------------------------------------------------------
# reports and rankings


def test_area_report_golden_values(sample_records):
    by_id = {r.area_id: r for r in sample_records}
    a64 = area_report(by_id["A64"]).report
    assert a64.equiv_number_d == pytest.approx(2.33, abs=0.01)
    assert a64.avg_number_f == pytest.approx(3.01, abs=0.02)
    assert a64.equiv_number_g == pytest.approx(3.57, abs=0.02)
    assert a64.entropy_bits == pytest.approx(1.59, abs=0.01)
    a86 = area_report(by_id["A86"]).report
    assert a86.equiv_number_d == pytest.approx(8.32, abs=0.01)
    assert a86.avg_number_f == pytest.approx(8.16, abs=0.02)
    assert a86.equiv_number_g == pytest.approx(1.017, abs=0.01)
    assert a86.entropy_bits == pytest.approx(3.03, abs=0.01)


def test_area_report_uniform_area():
    rec = AreaRecord("UNIF", uniform(8))
    rep = area_report(rec).report
    assert rep.equiv_number_d == pytest.approx(8.0, rel=1e-12)
    assert rep.avg_number_f == pytest.approx(8.0, rel=1e-12)
    assert rep.equiv_number_g == 1.0


def test_rank_two_observed_areas():
    records = parse_area_table(table(A64_ROW, A86_ROW), "csv")
    assert [r.area_id for r in rank_areas(records, "d")] == ["A86", "A64"]
    assert [r.area_id for r in rank_areas(records, "cv_rel")] == ["A64", "A86"]
    single = rank_areas(records[:1], "d")
    assert [r.area_id for r in single] == ["A64"]


def test_rank_opposite_orderings():
    records = parse_area_table(table(A64_ROW, A86_ROW), "csv")
    by_d = [r.area_id for r in rank_areas(records, "d")]
    by_cv = [r.area_id for r in rank_areas(records, "cv_rel")]
    assert by_cv == list(reversed(by_d))


def test_rank_d_and_f_agree_on_sample(sample_records):
    by_d = [r.area_id for r in rank_areas(sample_records, "d")]
    by_f = [r.area_id for r in rank_areas(sample_records, "f")]
    assert by_d == by_f


def test_rank_ties_break_by_area_id():
    rows = [
        f"T{i},0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125" for i in (2, 1, 3)
    ]
    records = parse_area_table(table(*rows), "csv")
    assert [r.area_id for r in rank_areas(records, "d")] == ["T1", "T2", "T3"]


def test_rank_rejects_empty_and_bad_key(sample_records):
    with pytest.raises(EmptyInput):
        rank_areas([], "d")
    with pytest.raises(ParseError):
        rank_areas(sample_records, "sigma")


# ----------------------------------------------------------------------
# rose and chart data


def test_rose_a64_peak(sample_records):
    rec = find_area(sample_records, "A64")
    pairs = rose_data(rec)
    assert len(pairs) == 8
    assert pairs[3] == (135.0, 0.6081)
    assert max(pairs, key=lambda bp: bp[1])[0] == 135.0
    # east, south-east, and south together carry about 90%
    assert 0.89 <= pairs[2][1] + pairs[3][1] + pairs[4][1] <= 0.94


def test_rose_uniform_spokes():
    pairs = rose_data(AreaRecord("UNIF", uniform(8)))
    assert [b for b, _ in pairs] == [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]
    assert all(p == 0.125 for _, p in pairs)


def test_rose_a86_spread(sample_records):
    pairs = rose_data(find_area(sample_records, "A86"))
    values = [p for _, p in pairs]
    assert min(values) == 0.0941 and max(values) == 0.1489


def test_find_area_unknown(sample_records):
    with pytest.raises(UnknownArea):
        find_area(sample_records, "A99")


def test_chart_data_rows(sample_records):
    rows = chart_data(sample_records)
    assert [r.area_id for r in rows] == sorted(r.area_id for r in sample_records)
    by_id = {r.area_id: r for r in rows}
    assert by_id["A64"].d == pytest.approx(2.33, abs=0.01)
    assert by_id["A86"].f == pytest.approx(8.16, abs=0.02)
    assert by_id["A64"].p_total == pytest.approx(0.9798, abs=1e-15)
    with pytest.raises(EmptyInput):
        chart_data([])


def test_chart_data_scales_to_many_areas():
    rng = np.random.default_rng(64)
    rows = []
    for i in range(104):
        e = rng.standard_exponential(8)
        probs = e / e.sum() * float(rng.uniform(0.9, 1.0))
        rows.append("B%03d," % i + ",".join(repr(float(p)) for p in probs))
    records = parse_area_table(table(*rows), "csv")
    chart = chart_data(records)
    assert len(chart) == 104
    assert [r.area_id for r in chart] == sorted(r.area_id for r in records)
    # deterministic: a second pass gives the identical table
    assert chart == chart_data(records)
