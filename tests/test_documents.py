"""Input document parsing and exact report round-trips."""

import json
from fractions import Fraction

import pytest

from hopforder.documents import (
    ParseError,
    dump_report,
    format_rational,
    load_document,
    parse_coordinates,
    parse_document,
    parse_rational,
    parse_ring,
    parse_ring_flag,
    rational_rows,
)
from hopforder.linalg import CoefficientRing, Matrix

from conftest import fixture_path, load


def test_parse_rational_strings_and_ints():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        parse_rational("x/y")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(True)


def test_format_parse_round_trip():
    for x in (Fraction(0), Fraction(-3, 7), Fraction(22), Fraction(1, 2)):
        assert parse_rational(format_rational(x)) == x


def test_parse_ring():
    assert parse_ring({"kind": "integers"}) == CoefficientRing.integers()
    assert parse_ring({"kind": "local", "prime": 3}) == CoefficientRing.localized_at(3)
    with pytest.raises(ParseError):
        parse_ring({"kind": "local", "prime": 4})
    with pytest.raises(ParseError):
        parse_ring({"kind": "field"})


def test_parse_ring_flag():
    assert parse_ring_flag("z") == CoefficientRing.integers()
    assert parse_ring_flag("zp:5") == CoefficientRing.localized_at(5)
    with pytest.raises(ParseError):
        parse_ring_flag("q")


def test_parse_coordinates():
    assert parse_coordinates("0,1/2,-3", 3, "t") == (0, Fraction(1, 2), -3)
    with pytest.raises(ParseError):
        parse_coordinates("1,2", 3, "t")


@pytest.mark.parametrize("s", ["1,,0", "1,0,", ",1,0", "1, ,0", ""])
def test_parse_coordinates_rejects_empty_coordinates(s):
    # with the empty part dropped, "1,,0" would read as two coordinates
    for n in (2, 3):
        with pytest.raises(ParseError):
            parse_coordinates(s, n, "t")


def test_fixture_documents_all_parse():
    for name in (
        "quadratic",
        "cubic_eisenstein",
        "cubic_eisenstein_alt",
        "quadratic_i_local3",
        "quadratic_sqrtm3_local3",
        "trivial",
    ):
        doc = load(name)
        assert doc.field is not None and doc.hopf is not None
        doc.field.validate()
    for name in ("group_s3", "group_c2", "group_c2xc2"):
        assert load(name).group is not None


def test_truncated_json_is_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"ring": {"kind": "integers"')
    with pytest.raises(ParseError):
        load_document(str(p))


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        load_document("/nonexistent/path.json")


def test_shape_errors_carry_location():
    obj = json.loads(open(fixture_path("quadratic")).read())
    obj["field"]["structure_constants"][0][0] = ["1"]
    with pytest.raises(ParseError, match="structure_constants"):
        parse_document(obj)


def test_group_generators_form():
    doc = parse_document(
        {
            "group": {
                "order": 6,
                "generators": [[1, 2, 0, 4, 5, 3], [3, 5, 4, 0, 2, 1]],
            }
        }
    )
    assert doc.group.order == 6


def test_group_generators_order_mismatch():
    with pytest.raises(ParseError):
        parse_document({"group": {"order": 4, "generators": [[1, 2, 0]]}})


def test_report_round_trip_is_exact():
    m = Matrix([[Fraction(1, 3), Fraction(-5, 6)], [0, 2]])
    report = {"matrix": rational_rows(m), "verdict": True}
    text = dump_report(report)
    back = json.loads(text)
    rebuilt = Matrix(
        [[parse_rational(x) for x in row] for row in back["matrix"]]
    )
    assert rebuilt == m
    # serialization is deterministic
    assert dump_report(back) == text
