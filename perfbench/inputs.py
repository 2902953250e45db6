"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
the same witness parameters, the same congruences and byte-identical pair
documents. The program under test only ever receives the generated inputs.

Hiding: a pair (N, H) is replaced by the congruent pair (T^-1 N T, T* H T)
where T is a product of integer elementary shears I + c e_i e_j^T, c = +-1,
one along each edge of a random cyclic order of the indices (see
``random_shears``). Every such T is unimodular, so T^-1 is the product of the inverse shears in
reverse order and stays integral; congruence keeps H-normality, inertia,
spectrum and (in)decomposability, but makes both matrices dense.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction

import krein
from krein.pairdoc import SCHEMA_VERSION

from .exact import GaussMatrix

WITNESS_AUDIT = "witness-audit"
CORNER_REDUCE = "corner-reduce"
WORKLOADS = (WITNESS_AUDIT, CORNER_REDUCE)

SEARCH_BUDGET = 200
AUDIT_KMAX = 4
CORNER_KMAX = 6

# family -> (expected case label, n as a function of k, signature as a function of k)
FAMILY_SHAPE = {
    "complex-a-lower": ("ComplexA", lambda k: 2 * k, lambda k: (k, k)),
    "complex-a-upper": ("ComplexA", lambda k: 4 * k, lambda k: (k, 3 * k)),
    "complex-b": ("ComplexB", lambda k: 2 * k, lambda k: (k, k)),
    "real-c-even": ("RealC", lambda k: 2 * k, lambda k: (k, k)),
    "real-c-odd": ("RealC", lambda k: 2 * k, lambda k: (k, k)),
    "real-d": ("RealD", lambda k: 2 * k, lambda k: (k, k)),
    "real-e": ("RealE", lambda k: 2 * k, lambda k: (k, k)),
}

CORNER_FAMILIES = ("complex-a-lower", "complex-a-upper", "real-c-even", "real-c-odd")


@dataclass(frozen=True)
class Case:
    """One input taken through a workload's whole pipeline."""

    label: str
    family: str = ""
    k: int = 0
    params: dict = dataclass_field(default_factory=dict)
    document: str = ""
    n: int = 0
    field: str = ""
    signature: tuple = ()
    decomposable: bool = False
    max_entry_bits: int = 0
    search_seed: int = 0


# -- parameters --------------------------------------------------------------


# Parameter parts are never 0: a zero part makes the matrices sparser and a
# case several times cheaper, and that spread between seeds would swamp the
# effects the benchmark is there to measure.
def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 3), rng.choice((1, 2)))


def _small_gaussian(rng: random.Random):
    return krein.GaussianRational(_small_rational(rng), _small_rational(rng))


def spectrum(family: str, params: dict) -> list:
    """The distinct eigenvalues of the family's witness for ``params``."""
    g = krein.GaussianRational
    if family in ("complex-a-lower", "complex-a-upper"):
        return [params["lambda"]]
    if family == "complex-b":
        return [params["l1"], params["l2"]]
    if family in ("real-c-even", "real-c-odd"):
        return [g(params["alpha"], s * params["beta"]) for s in (1, -1)]
    if family == "real-d":
        return [g(params["lambda"], 0)] + [g(params["alpha"], s * params["beta"]) for s in (1, -1)]
    if family == "real-e":
        return [g(params[f"alpha{j}"], s * params[f"beta{j}"]) for j in (1, 2) for s in (1, -1)]
    raise ValueError(f"unknown family {family!r}")


def snaps_onto_another_root(eigenvalues) -> bool:
    """Whether an eigenvalue has another one, a Gaussian integer, as its nearest Gaussian integer.

    ``krein.poly_roots`` first tries the nearest Gaussian integer of each
    numeric root and accepts it when it is an exact root of the same
    squarefree factor. For such a spectrum it can therefore take, say,
    1+i for the root near 3/2+i, never find 3/2+i, and ``certify_family``
    then raises "spectrum is not exactly computable"
    (``test_snapping_onto_a_neighbouring_root`` keeps the defect in view).
    """
    for mu in eigenvalues:
        if mu.re.denominator == 1 and mu.im.denominator == 1:
            for lam in eigenvalues:
                if lam != mu and abs(lam.re - mu.re) <= Fraction(1, 2) and abs(lam.im - mu.im) <= Fraction(1, 2):
                    return True
    return False


def draw_params(rng: random.Random, family: str) -> dict:
    """Small-rational eigen parameters meeting the family's constraints.

    Denominators stay at most 3. A draw whose spectrum the root snapper
    cannot resolve (:func:`snaps_onto_another_root`) is drawn again, so that
    every case can succeed; about 10 % of seeds drew one such case among 40.
    ``complex-a-upper`` keeps its default r values.
    """
    while True:
        params = _draw_params(rng, family)
        if not snaps_onto_another_root(spectrum(family, params)):
            return params


def _draw_params(rng: random.Random, family: str) -> dict:
    if family in ("complex-a-lower", "complex-a-upper"):
        return {"lambda": _small_gaussian(rng)}
    if family == "complex-b":
        while True:
            l1, l2 = _small_gaussian(rng), _small_gaussian(rng)
            if l1 != l2:
                return {"l1": l1, "l2": l2}
    if family in ("real-c-even", "real-c-odd"):
        return {"alpha": _small_rational(rng), "beta": _positive_rational(rng)}
    if family == "real-d":
        return {
            "lambda": _small_rational(rng),
            "alpha": _small_rational(rng),
            "beta": _positive_rational(rng),
        }
    if family == "real-e":
        while True:
            a1, b1 = _small_rational(rng), _positive_rational(rng)
            a2, b2 = _small_rational(rng), _positive_rational(rng)
            if (a1, b1) != (a2, b2):
                return {"alpha1": a1, "beta1": b1, "alpha2": a2, "beta2": b2}
    raise ValueError(f"unknown family {family!r}")


def describe(family: str, k: int, params: dict) -> str:
    """A case label such as "complex-b k=1 l1=0 l2=1"."""
    return " ".join([family, f"k={k}"] + [f"{key}={val}" for key, val in sorted(params.items())])


# -- hiding ------------------------------------------------------------------


def random_shears(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n elementary shears (i, j, c), column j gaining c times column i, along a random n-cycle.

    Each index is sheared from once and into once. Shears between random
    index pairs leave some indices untouched and chain others, and the cost of
    a case then varies about 20 % with the draw (7 % along a cycle, which
    also makes the matrices denser).
    """
    order = list(range(n))
    rng.shuffle(order)
    return [(order[t], order[(t + 1) % n], rng.choice((-1, 1))) for t in range(n)]


def hide(m: GaussMatrix, h: GaussMatrix, shears) -> tuple[GaussMatrix, GaussMatrix]:
    """Return (T^-1 N T, T* H T) for T the product of the shears, in order.

    Right-multiplying by E = I + c e_i e_j^T adds c * column i to column j;
    left-multiplying by E^-1 = I - c e_i e_j^T subtracts c * row j from
    row i, and left-multiplying by E* = E^T adds c * row i to row j. T is
    integral and unimodular, so the denominators do not change.
    """
    out = []
    for mat, left_sign, transpose in ((m, -1, False), (h, 1, True)):
        parts = [[list(r) for r in mat.re], [list(r) for r in mat.im]]
        for i, j, c in shears:
            src, dst = (i, j) if transpose else (j, i)
            for a in parts:
                for row in a:
                    row[j] += c * row[i]
                a[dst] = [x + left_sign * c * y for x, y in zip(a[dst], a[src])]
        out.append(GaussMatrix(parts[0], parts[1], mat.den))
    return out[0], out[1]


def _scalar_text(re: int, im: int, den: int) -> str:
    """An entry in the pair-document scalar syntax ("p/q" or "p/q+r/si")."""
    a, b = Fraction(re, den), Fraction(im, den)
    if not b:
        return str(a)
    if not a:
        return f"{b}i"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}i"


def _rows_text(m: GaussMatrix) -> list[list[str]]:
    return [[_scalar_text(x, y, m.den) for x, y in zip(rr, ri)] for rr, ri in zip(m.re, m.im)]


def _max_bits(values) -> int:
    """Largest bit length of a numerator or denominator among exact values."""
    best = 0
    for v in values:
        for part in (v.re, v.im) if isinstance(v, krein.GaussianRational) else (Fraction(v),):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _entry_bits(m: GaussMatrix) -> int:
    return _max_bits(Fraction(x, m.den) for rows in (m.re, m.im) for row in rows for x in row)


def hidden_document(pair, rng: random.Random) -> tuple[str, int]:
    """Pair document of a congruent copy of ``pair``, and its largest entry bit length.

    The text is what ``krein.serialize_pair`` writes for the same matrices.
    """
    n = pair.n
    nm, hm = hide(GaussMatrix.of(pair.n_op), GaussMatrix.of(pair.space.h), random_shears(rng, n))
    doc = {"schema_version": SCHEMA_VERSION, "field": pair.field, "n": n, "N": _rows_text(nm), "H": _rows_text(hm)}
    return json.dumps(doc, indent=2, sort_keys=True), max(_entry_bits(nm), _entry_bits(hm))


# -- workloads ---------------------------------------------------------------


def _witness_case(family: str, k: int, params: dict, **extra) -> Case:
    case_label, n_of, sig_of = FAMILY_SHAPE[family]
    return Case(
        label=describe(family, k, params),
        family=family,
        k=k,
        params=params,
        n=n_of(k),
        field="complex" if family.startswith("complex") else "real",
        signature=sig_of(k),
        **extra,
    )


def witness_audit_cases(rng: random.Random) -> list[Case]:
    cases = []
    for family in krein.ALL_FAMILIES:
        for k in krein.admissible_ks(family, AUDIT_KMAX):
            params = draw_params(rng, family)
            cases.append(_witness_case(family, k, params, max_entry_bits=_max_bits(params.values())))
    return cases


def corner_cases(rng: random.Random) -> list[Case]:
    cases = []
    for family in CORNER_FAMILIES:
        ks = krein.admissible_ks(family, CORNER_KMAX)
        if family == "real-c-odd":
            ks = [k for k in ks if k >= 3]  # k = 1 has a non-neutral joint eigenspace
        for k in ks:
            params = draw_params(rng, family)
            w = krein.build_witness(family, k, params)
            doc, bits = hidden_document(w.pair, rng)
            cases.append(_witness_case(family, k, params, document=doc, max_entry_bits=bits))
    return cases


# workload -> (maker of one input set, sets per pass, sets per traced run).
# Each set draws fresh parameters and congruences, so one pass averages over
# several draws; the counts make one pass, and one traced run, take 40 to 45
# calibrated seconds.
_SETS = {
    WITNESS_AUDIT: (witness_audit_cases, 2, 1),
    CORNER_REDUCE: (corner_cases, 14, 7),
}


def make_cases(workload: str, seed: int, traced: bool = False) -> list[Case]:
    """The case list of one pass of ``workload``; a pure function of ``seed``.

    ``traced`` gives the shorter list a traced run takes twice (untraced, then
    traced); it is the start of the pass list. Each case gets its own
    decomposition-search seed, drawn from a second stream: one seed shared by
    all cases would correlate their search costs, and a run would then
    average over one draw sequence instead of many.
    """
    try:
        make_set, sets, trace_sets = _SETS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}") from None
    rng = random.Random(seed)
    cases = [case for _ in range(trace_sets if traced else sets) for case in make_set(rng)]
    seeds = random.Random(f"search-{seed}")
    return [replace(case, search_seed=seeds.randrange(2**31)) for case in cases]


def input_properties(cases: list[Case]) -> dict:
    """Measured properties of one workload's inputs, for claims about shares."""
    ns = [c.n for c in cases]
    doc_bytes = [len(c.document.encode()) for c in cases if c.document]
    return {
        "cases": len(cases),
        "n_min": min(ns),
        "n_max": max(ns),
        "complex_share": sum(c.field == "complex" for c in cases) / len(cases),
        "max_entry_bits": max(c.max_entry_bits for c in cases),
        "document_bytes_total": sum(doc_bytes),
        "document_bytes_max": max(doc_bytes, default=0),
        "decomposable_share": sum(c.decomposable for c in cases) / len(cases),
    }
