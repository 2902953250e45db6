import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein.exceptions import NotHermitian, SchemaError, SingularH
from krein.matrices import COMPLEX, REAL, Matrix
from krein.pairdoc import (
    SCHEMA_VERSION,
    _parse_matrix,
    matrix_to_rows,
    pair_to_doc,
    parse_document,
    parse_pair,
    pretty_format,
    serialize_pair,
)
from krein.scalars import (
    ONE,
    GaussianRational,
    format_integer_parts,
    format_scalar,
    parse_scalar,
    scalar_parts,
)
from krein.spaces import MatrixPair
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


# --- integer-form parse and serialize ----------------------------------------------


_PARTS = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.sampled_from([Fraction(10**40), Fraction(-(10**40), 7), Fraction(1, 1000003), Fraction(-2, 1000003)]),
)


def _matrices(n, field):
    part = _PARTS.map(GaussianRational) if field == REAL else st.builds(GaussianRational, _PARTS, _PARTS)
    return st.lists(part, min_size=n * n, max_size=n * n).map(lambda ents: Matrix(n, n, ents, field))


def _unit_upper(n, field):
    # a unit upper triangular T, so T* D T is nonsingular for every sign diagonal D
    return _matrices(n, field).map(
        lambda m: Matrix(
            n, n, [ONE if i == j else m[i, j] if j > i else 0 for i in range(n) for j in range(n)], field
        )
    )


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 5))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    t = draw(_unit_upper(n, field))
    d = Matrix.diagonal(draw(st.lists(st.sampled_from([1, -1, 2]), min_size=n, max_size=n)), field)
    return MatrixPair.from_matrices(draw(_matrices(n, field)), t.conj_transpose() @ d @ t)


@settings(max_examples=60, deadline=None)
@given(_pairs())
def test_serialize_parse_round_trip_and_reference_paths(pair):
    text = serialize_pair(pair)
    assert parse_pair(text) == pair
    doc = json.loads(text)
    for name, m in (("N", pair.n_op), ("H", pair.space.h)):
        rows = doc[name]
        # the serializer formats each entry as format_scalar does
        assert rows == [[format_scalar(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
        # the integer parse gives the matrix the scalar parse builds
        reference = Matrix(pair.n, pair.n, [parse_scalar(c) for row in rows for c in row], pair.field)
        assert _parse_matrix(rows, pair.n, pair.field, name) == reference == m


def _cell(p, q, r, s):
    if r is None:
        return f"{p}/{q}"
    return f"{p}/{q}{'-' if r < 0 else '+'}{abs(r)}/{s}i"


_INTS = st.one_of(st.integers(-6, 6), st.sampled_from([10**40, -(10**40), 1000003]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.lists(st.tuples(_INTS, st.integers(1, 6) | st.just(1000003), _INTS, st.integers(1, 6)), min_size=4, max_size=4),
)
def test_integer_parse_of_unreduced_cells_matches_the_scalar_parse(field, parts):
    # cells like "4/6-2/4i" are not in lowest terms; the parse must reduce them
    cells = [_cell(p, q, None if field == REAL else r, s) for p, q, r, s in parts]
    rows = [cells[:2], cells[2:]]
    reference = Matrix(2, 2, [parse_scalar(c) for c in cells], field)
    assert _parse_matrix(rows, 2, field, "N") == reference
    assert matrix_to_rows(reference) == [[format_scalar(z) for z in reference.row_list(i)] for i in range(2)]


@pytest.mark.parametrize(
    "cell, field, message",
    [
        ("1/0", COMPLEX, "N[1][0]: zero denominator in scalar string '1/0'"),
        ("3/0i", COMPLEX, "N[1][0]: zero denominator in scalar string '3/0i'"),
        ("zebra", COMPLEX, "N[1][0]: cannot parse scalar string 'zebra'"),
        ("1/2i", REAL, "N[1][0] = '1/2i' is complex but the document declares a real field"),
    ],
)
def test_cell_errors_name_the_cell(cell, field, message):
    family = "complex-b" if field == COMPLEX else "real-d"
    doc = _doc(build_witness(family, 1 if field == COMPLEX else 2, {}).pair)
    doc["N"][1][0] = cell
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(doc))
    assert str(err.value) == message


# --- each distinct cell parsed and formatted once per matrix ------------------------

# several spellings of one value ("1", "+1", " 1"; "1/2", "2/4"), so equal values
# do not mean equal strings; the long cells are past a machine word
_REAL_CELLS = ["0", "-0", "0/7", "1", "+1", " 1", "-1", "1/2", "2/4", "-3/6", "7", str(10**40), f"-1/{10**40}"]
_COMPLEX_CELLS = _REAL_CELLS + ["i", "-i", "+i", "2i", "0+1i", "1/2-3/4i", "2/4-6/8i", f"1+{10**40}i", "-1-1i"]


def _reference_matrix(rows, field):
    """The matrix of ``rows`` with ``scalar_parts`` called on every cell."""
    parts = [scalar_parts(cell) for row in rows for cell in row]
    entries = [GaussianRational(Fraction(p, q), Fraction(r, s)) for (p, q), (r, s) in parts]
    return Matrix(len(rows), len(rows), entries, field)


def _reference_rows(m):
    """The cells of ``m`` with ``format_integer_parts`` called on every cell."""
    im = m._im or [0] * len(m._re)
    cells = [format_integer_parts(x, y, m._d) for x, y in zip(m._re, im)]
    return [cells[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]


@st.composite
def _repetitive_documents(draw):
    n = draw(st.integers(1, 6))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    cells = _REAL_CELLS if field == REAL else _COMPLEX_CELLS
    palette = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    n_rows = [[draw(st.sampled_from(palette)) for _ in range(n)] for _ in range(n)]
    # a diagonal H: nonzero reals on the diagonal, zeros spelled several ways off it
    units = ["1", "-1", "+1", "2/4", "-3/6", str(10**40)]
    diag = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    zeros = draw(st.lists(st.sampled_from(["0", "-0", "0/7"]), min_size=1, max_size=3))
    h_rows = [[diag[i] if i == j else draw(st.sampled_from(zeros)) for j in range(n)] for i in range(n)]
    return {"schema_version": SCHEMA_VERSION, "field": field, "n": n, "N": n_rows, "H": h_rows}


@settings(max_examples=80, deadline=None)
@given(_repetitive_documents())
def test_parse_and_serialize_of_repeated_cells_match_a_cell_by_cell_reference(doc):
    field = doc["field"]
    pair, _ = parse_document(json.dumps(doc))
    n_ref, h_ref = _reference_matrix(doc["N"], field), _reference_matrix(doc["H"], field)
    assert pair.n_op == n_ref and pair.space.h == h_ref
    reference = {"schema_version": SCHEMA_VERSION, "field": field, "n": doc["n"],
                 "N": _reference_rows(n_ref), "H": _reference_rows(h_ref)}
    assert serialize_pair(pair) == json.dumps(reference, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "cell, field, message",
    [
        ("zebra", COMPLEX, "N[0][1]: cannot parse scalar string 'zebra'"),
        ("1/0", COMPLEX, "N[0][1]: zero denominator in scalar string '1/0'"),
        ("1/2i", REAL, "N[0][1] = '1/2i' is complex but the document declares a real field"),
    ],
)
def test_a_repeated_bad_cell_is_reported_at_its_first_place(cell, field, message):
    # the good cell "1" repeats before, between and after the bad one
    n_rows = [["1", cell, "1"], [cell, "1", cell], ["1", "1", cell]]
    h_rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc = {"schema_version": SCHEMA_VERSION, "field": field, "n": 3, "N": n_rows, "H": h_rows}
    with pytest.raises(SchemaError) as err:
        parse_document(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("cell", [1, 1.0, True, None, ["1"]])
def test_a_cell_that_is_not_a_string_fails_after_the_same_value_as_a_string(cell):
    # "1" is known by the time the cell is reached; the cell must still be a string
    n_rows, h_rows = [["1", "1"], [cell, "1"]], [["1", "0"], ["0", "1"]]
    doc = {"schema_version": SCHEMA_VERSION, "field": REAL, "n": 2, "N": n_rows, "H": h_rows}
    with pytest.raises(SchemaError) as err:
        parse_document(doc)
    assert str(err.value) == "N[1][0] must be a scalar string"
