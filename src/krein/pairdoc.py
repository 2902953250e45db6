"""JSON interchange for matrix pairs.

A pair document stores the operator and the Gram matrix as nested arrays of
exact scalar strings ("p/q" or "p/q+r/si"), never floats, so serialization
round trips are bit-exact. Parsing validates shape, field purity, Hermitian
symmetry (naming the offending entry) and nonsingularity of H. Cells are
read straight into the integer form of a ``Matrix`` and written from it, so
no cell is boxed into a scalar on the way in or out. Each distinct cell is
handled once per matrix: parsing keeps a dict from cell string to its
checked integer parts, and writing a dict from integer parts to text, both
local to one matrix. A string enters the parse dict only after it has
passed every check, so an error still names the first cell that fails.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Optional

from .exceptions import NotHermitian, SchemaError, SingularH
from .matrices import COMPLEX, REAL, Matrix
from .scalars import format_integer_parts, format_scalar, scalar_parts
from .spaces import IndefiniteSpace, MatrixPair

SCHEMA_VERSION = "1"


def matrix_to_rows(m: Matrix) -> list[list[str]]:
    """The cells of ``m`` as scalar strings, formatted from its integer form,
    each distinct (x, y) once."""
    d, c, im = m._d, m.cols, m._im
    text = {}  # x, or (x, y) when some y is nonzero -> its cell
    cells = []
    for key in zip(m._re, im) if im else m._re:
        cell = text.get(key)
        if cell is None:
            cell = text[key] = format_integer_parts(*key, d) if im else format_integer_parts(key, 0, d)
        cells.append(cell)
    return [cells[i * c : (i + 1) * c] for i in range(m.rows)]


def pair_to_doc(pair: MatrixPair, metadata: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": pair.field,
        "n": pair.n,
        "N": matrix_to_rows(pair.n_op),
        "H": matrix_to_rows(pair.space.h),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def serialize_pair(pair: MatrixPair, metadata: Optional[dict] = None) -> str:
    return json.dumps(pair_to_doc(pair, metadata), indent=2, sort_keys=True)


def _cell_parts(cell, field: str, name: str, i: int, j: int) -> tuple[int, int, int, int]:
    """The integer parts (p, q, r, s), the value p/q + (r/s)i, of the checked
    cell ``name[i][j]``."""
    if not isinstance(cell, str):
        raise SchemaError(f"{name}[{i}][{j}] must be a scalar string")
    try:
        (p, q), (r, s) = scalar_parts(cell)
    except (SchemaError, ValueError) as exc:  # ValueError: past int's digit limit
        raise SchemaError(f"{name}[{i}][{j}]: {exc}") from None
    if field == REAL and r:
        raise SchemaError(f"{name}[{i}][{j}] = {cell!r} is complex but the document declares a real field")
    return p, q, r, s


def _parse_matrix(rows, n: int, field: str, name: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(f"{name} must be a list of {n} rows")
    # each distinct cell string -> its integer parts; a string enters only once
    # it has passed every check, so a bad cell fails again at its first place
    known: dict[str, tuple[int, int, int, int]] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{name}[{i}] must be a list of {n} scalar strings")
        for j, cell in enumerate(row):
            if not isinstance(cell, str) or cell not in known:
                known[cell] = _cell_parts(cell, field, name, i, j)
    # the cells over the lcm of their denominators; _from_ints makes the form canonical
    parts = known.values()
    d = lcm(*{q for _, q, _, _ in parts}, *{s for _, _, _, s in parts})
    re_of = {cell: p * (d // q) for cell, (p, q, _, _) in known.items()}
    re = [re_of[cell] for row in rows for cell in row]
    im = []
    if any(r for _, _, r, _ in parts):
        im_of = {cell: r * (d // s) for cell, (_, _, r, s) in known.items()}
        im = [im_of[cell] for row in rows for cell in row]
    return Matrix._from_ints(n, n, d, re, im, field)


def doc_to_pair(doc: dict) -> tuple[MatrixPair, dict]:
    """Validate a parsed JSON document and build the pair; returns (pair, metadata)."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    field = doc.get("field")
    if field not in (REAL, COMPLEX):
        raise SchemaError(f"field must be 'real' or 'complex', got {field!r}")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise SchemaError(f"n must be a positive integer, got {n!r}")
    n_mat = _parse_matrix(doc.get("N"), n, field, "N")
    h_mat = _parse_matrix(doc.get("H"), n, field, "H")
    if not h_mat.is_hermitian():
        i, j = next((i, j) for i in range(n) for j in range(i, n) if h_mat[i, j] != h_mat[j, i].conjugate())
        raise NotHermitian(
            f"H[{i}][{j}] = {format_scalar(h_mat[i, j])} is not the conjugate "
            f"of H[{j}][{i}] = {format_scalar(h_mat[j, i])}"
        )
    try:
        space = IndefiniteSpace(h_mat)
    except SingularH:
        raise SingularH("H is singular") from None
    meta = doc.get("metadata") or {}
    if not isinstance(meta, dict):
        raise SchemaError("metadata must be an object when present")
    return MatrixPair(n_mat, space), meta


def parse_pair(data) -> MatrixPair:
    """Parse JSON bytes/string (or an already-decoded dict) into a pair."""
    pair, _ = parse_document(data)
    return pair


def parse_document(data) -> tuple[MatrixPair, dict]:
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except ValueError as exc:  # a JSONDecodeError, or a number past int's digit limit
            raise SchemaError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError("document nests too deeply") from None
    else:
        doc = data
    return doc_to_pair(doc)


def pretty_format(pair: MatrixPair, metadata: Optional[dict] = None) -> str:
    """Aligned plain-text rendering of N and H for eyeball comparison."""
    out = []
    if metadata:
        head = ", ".join(f"{k}={v}" for k, v in sorted(metadata.items()) if not isinstance(v, (dict, list)))
        if head:
            out.append(f"# {head}")
    for name, m in (("N", pair.n_op), ("H", pair.space.h)):
        rows = matrix_to_rows(m)
        widths = [max(len(rows[i][j]) for i in range(m.rows)) for j in range(m.cols)]
        out.append(f"{name} ({m.rows}x{m.cols}, {m.field}):")
        for row in rows:
            out.append("  [ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]")
    return "\n".join(out)
