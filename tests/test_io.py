import json

import pytest

from krein.exceptions import NotHermitian, SchemaError, SingularH
from krein.pairdoc import (
    SCHEMA_VERSION,
    pair_to_doc,
    parse_document,
    parse_pair,
    pretty_format,
    serialize_pair,
)
from krein.witnesses import ALL_FAMILIES, admissible_ks, build_witness


def test_round_trip_is_bit_exact_for_all_families():
    for family in ALL_FAMILIES:
        for k in admissible_ks(family, 3):
            pair = build_witness(family, k, {}).pair
            text = serialize_pair(pair, {"family": family, "k": k})
            reparsed = parse_pair(text)
            assert reparsed == pair
            assert serialize_pair(reparsed, {"family": family, "k": k}) == text


def test_round_trip_preserves_metadata():
    pair = build_witness("complex-b", 2, {}).pair
    text = serialize_pair(pair, {"note": "hello", "k": 2})
    _, meta = parse_document(text)
    assert meta == {"note": "hello", "k": 2}


def _doc(pair):
    return pair_to_doc(pair)


def test_rejects_non_hermitian_h_with_entry_diagnostic():
    pair = build_witness("complex-b", 1, {}).pair
    doc = _doc(pair)
    doc["H"][0][1] = "2"  # no longer the conjugate of H[1][0] = 1
    with pytest.raises(NotHermitian) as err:
        parse_document(json.dumps(doc))
    assert "H[0][1]" in str(err.value)


def test_rejects_singular_h():
    pair = build_witness("complex-b", 1, {}).pair
    doc = _doc(pair)
    doc["H"] = [["0", "0"], ["0", "0"]]
    with pytest.raises(SingularH):
        parse_document(json.dumps(doc))


def test_rejects_complex_entry_in_real_document():
    pair = build_witness("real-d", 2, {}).pair
    doc = _doc(pair)
    doc["N"][0][0] = "1i"
    with pytest.raises(SchemaError):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.update(n=-1),
        lambda d: d.update(field="rational"),
        lambda d: d.update(schema_version="99"),
        lambda d: d.update(N=[["0"]]),
        lambda d: d["N"][0].__setitem__(0, "zebra"),
        lambda d: d["N"][0].__setitem__(0, 7),
        lambda d: d.update(metadata=[1, 2]),
    ],
)
def test_schema_violations(mutate):
    doc = _doc(build_witness("complex-b", 1, {}).pair)
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("cell", ["1/0", "0/0", "3/0i", "1/2+3/0i"])
def test_zero_denominator_is_a_schema_error_naming_the_cell(cell):
    doc = _doc(build_witness("complex-b", 1, {}).pair)
    doc["N"][1][0] = cell
    with pytest.raises(SchemaError, match=r"^N\[1\]\[0\]: zero denominator"):
        parse_document(json.dumps(doc))


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_pair(b"{not json")


def test_schema_version_constant():
    doc = _doc(build_witness("complex-b", 1, {}).pair)
    assert doc["schema_version"] == SCHEMA_VERSION


def test_pretty_format_mentions_both_matrices():
    pair = build_witness("real-e", 2, {}).pair
    text = pretty_format(pair, {"family": "e"})
    assert "N (4x4, real):" in text
    assert "H (4x4, real):" in text
    assert text.count("[") == 8
