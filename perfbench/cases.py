"""One case per input: the workload pipelines and their exact output checks.

Each runner calls the public ``krein`` API through the package namespace (so
the tracer sees every call), times only those calls, and then checks the
outputs with :mod:`perfbench.exact`, which shares no code with ``krein``. A
failed check or an exception is returned as a failed :class:`Outcome`; it
never aborts the run.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass
from typing import Optional

import krein

from . import clock
from .exact import GaussMatrix
from .inputs import (
    CORNER_REDUCE,
    FAMILY_SHAPE,
    SEARCH_BUDGET,
    WITNESS_AUDIT,
    Case,
)

DECOMPOSABLE = "decomposable"


@dataclass
class Outcome:
    """What one case did: program time, verdict and check result."""

    elapsed_ns: int
    calibrated_ns: float  # elapsed_ns corrected for host speed (perfbench.clock)
    ok: bool
    verdict: Optional[str] = None
    error: str = ""
    completed: bool = True  # False when the program raised before finishing


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- pipelines: program calls only, timed by the caller ---------------------------


def _audit_pipeline(case: Case) -> dict:
    w = krein.build_witness(case.family, case.k, case.params)
    pair = w.pair
    out = {"witness": w, "h_normal": krein.is_h_normal(pair)}
    out["report"] = krein.classify(pair)
    cert = krein.certify_family(w)
    out["certificate_verified"] = krein.verify_certificate(pair, cert)
    out["verdict"] = krein.search_decomposition(pair, budget=SEARCH_BUDGET, seed=case.search_seed)
    return out


def _corner_pipeline(case: Case) -> dict:
    pair, _ = krein.parse_document(case.document)
    out = {"pair": pair, "h_normal": krein.is_h_normal(pair)}
    out["report"] = krein.classify(pair)
    if case.family.startswith("complex"):
        red = krein.reduce_single_eigenvalue(pair, case.params["lambda"])
    else:
        red = krein.reduce_conjugate_pair(pair, case.params["alpha"], case.params["beta"])
    out["reduction"] = red
    reduced = krein.MatrixPair.from_matrices(red.reduced_n, red.reduced_h)
    out["document"] = krein.serialize_pair(reduced)
    return out


# -- checks: independent of krein arithmetic ----------------------------------------


def _check_report(case: Case, report) -> None:
    expect_case = FAMILY_SHAPE[case.family][0]
    _require(report.n == case.n, f"classify n={report.n}, expected {case.n}")
    _require(report.k == min(case.signature), f"classify k={report.k}")
    _require(report.case_label == expect_case, f"case {report.case_label}, expected {expect_case}")
    _require(report.bound_ok is True, "size bound not met")


def _check_audit(case: Case, out: dict) -> None:
    w = out["witness"]
    _require(out["h_normal"], "witness is not H-normal")
    _require(w.pair.n == case.n and w.pair.field == case.field, "witness has the wrong size or field")
    _require(tuple(w.pair.space.signature) == case.signature, "witness signature")
    _check_report(case, out["report"])
    _require(out["certificate_verified"], "family certificate did not verify")
    _require(out["verdict"].status != DECOMPOSABLE, "witness reported decomposable")


def _check_corner(case: Case, out: dict) -> None:
    pair = out["pair"]
    red = out["reduction"]
    _require(out["h_normal"], "document is not H-normal")
    _check_report(case, out["report"])
    k, n = case.k, case.n
    if case.family.startswith("real"):
        dims = (2, n - 4, 2)  # two-dimensional joint eigenspace
    elif case.family == "complex-a-upper":
        dims = (k, 2 * k, k)
    else:
        dims = (k, 0, k)
    _require(tuple(red.block_dims) == dims, f"block_dims {red.block_dims}, expected {dims}")
    t = GaussMatrix.of(red.transform)
    nm = GaussMatrix.of(pair.n_op)
    _require(t.rank() == n, "transform is singular")
    _require(t @ GaussMatrix.of(red.reduced_n) == nm @ t, "T R_N != N T")
    _require(t.conj_transpose() @ GaussMatrix.of(pair.space.h) @ t == GaussMatrix.of(red.reduced_h), "T* H T != R_H")
    doc = json.loads(out["document"])
    _require(doc.get("n") == n and doc.get("field") == case.field, "serialized reduced pair")


PIPELINES = {
    WITNESS_AUDIT: (_audit_pipeline, _check_audit),
    CORNER_REDUCE: (_corner_pipeline, _check_corner),
}


def run_case(workload: str, case: Case) -> Outcome:
    """Run one case; exceptions and failed checks become a failed outcome."""
    pipeline, check = PIPELINES[workload]
    sw = clock.Stopwatch()
    try:
        with sw:
            out = pipeline(case)
    except Exception as exc:  # a crash in the program is a failed case, not a failed run
        return Outcome(sw.elapsed_ns, sw.calibrated_ns, False, None, _describe(case, exc), completed=False)
    verdict = out["verdict"].status if "verdict" in out else None
    try:
        check(case, out)
    except Exception as exc:  # includes CheckFailed
        return Outcome(sw.elapsed_ns, sw.calibrated_ns, False, verdict, _describe(case, exc))
    return Outcome(sw.elapsed_ns, sw.calibrated_ns, True, verdict)


def _describe(case: Case, exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    loc = f" at {where.filename.rsplit('/', 1)[-1]}:{where.lineno}" if where else ""
    return f"{case.label}: {type(exc).__name__}: {exc}{loc}"
