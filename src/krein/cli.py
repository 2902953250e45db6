"""Command line surface: generate / verify / classify / decompose / reduce / audit.

Exit codes: 0 all checks pass, 1 a checked property fails (not H-normal,
bound violated, failed reduction hypothesis, failed audit case), 2 input or
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from . import __version__
from .classify import classify, reduce_conjugate_pair, reduce_single_eigenvalue
from .decompose import (
    STATUS_DECOMPOSABLE,
    certify_family,
    search_decomposition,
    verify_certificate,
)
from .exceptions import (
    FieldMismatch,
    KreinError,
    NotHermitian,
    NotHNormal,
    NotSingleEigenvalue,
    ParameterError,
    S0NotNeutral,
    SchemaError,
    SingularH,
    WrongSpectrum,
)
from .pairdoc import (
    matrix_to_rows,
    pair_to_doc,
    parse_document,
    pretty_format,
    serialize_pair,
)
from .scalars import GaussianRational, format_scalar, parse_scalar
from .spaces import is_h_normal
from .witnesses import (
    FAMILY_PARAMS,
    WitnessPair,
    admissible_ks,
    build_witness,
)

_CLI_FAMILIES = {
    "a-lower": "complex-a-lower",
    "a-upper": "complex-a-upper",
    "b": "complex-b",
    "c-even": "real-c-even",
    "c-odd": "real-c-odd",
    "d": "real-d",
    "e": "real-e",
}
_FAMILY_TO_CLI = {v: k for k, v in _CLI_FAMILIES.items()}

# the errors reported as input errors (exit code 2)
_INPUT_ERRORS = (SchemaError, NotHermitian, SingularH, ParameterError, ValueError)

# the flags that take a scalar, or for --r a list of scalars; argparse reads
# a value such as -1/2 or -1+2i, unlike -1, as an option
_SCALAR_FLAGS = ("--lambda", "--l1", "--l2", "--alpha", "--beta", "--alpha1", "--beta1", "--alpha2", "--beta2", "--r")


def _join_scalar_values(argv: list[str]) -> list[str]:
    """``argv`` with each scalar flag (or an abbreviation of one) that is
    followed by an argument starting with a single "-" joined to it, as
    ``--lambda=-1/2`` for ``--lambda -1/2``; nothing after "--" is touched."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg, value = argv[i], argv[i + 1] if i + 1 < len(argv) else ""
        if arg == "--":
            return out + argv[i:]
        if (
            len(arg) > 2 and "=" not in arg and any(f.startswith(arg) for f in _SCALAR_FLAGS)
            and value.startswith("-") and not value.startswith("--")
        ):
            out.append(f"{arg}={value}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="krein",
        description="Construct, classify and verify normal matrices in indefinite scalar product spaces.",
    )
    p.add_argument("--version", action="version", version=f"krein {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a witness pair document")
    g.add_argument("--family", required=True, choices=sorted(_CLI_FAMILIES))
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--lambda", dest="lam", help="eigenvalue (families a-lower, a-upper, d)")
    g.add_argument("--l1", help="first eigenvalue (family b)")
    g.add_argument("--l2", help="second eigenvalue (family b)")
    g.add_argument("--alpha", help="real part (families c-even, c-odd, d)")
    g.add_argument("--beta", help="imaginary part, positive (families c-even, c-odd, d)")
    g.add_argument("--alpha1", help="first real part (family e)")
    g.add_argument("--beta1", help="first imaginary part (family e)")
    g.add_argument("--alpha2", help="second real part (family e)")
    g.add_argument("--beta2", help="second imaginary part (family e)")
    g.add_argument("--r", help="comma separated r parameters (family a-upper)")
    g.add_argument("--out", help="output path (default stdout)")
    g.add_argument("--format", choices=("json", "pretty"), default="json")

    for name, help_text in (
        ("verify", "check H-normality and print signature/rank"),
        ("classify", "print the classification report"),
    ):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("paths", nargs="+")

    d = sub.add_parser("decompose", help="decide decomposability and give a splitting subspace")
    d.add_argument("paths", nargs="+")

    r = sub.add_parser("reduce", help="canonical corner reduction")
    r.add_argument("path")
    r.add_argument("--lambda", dest="lam", help="single eigenvalue (complex reduction)")
    r.add_argument("--alpha", help="real part (real conjugate-pair reduction)")
    r.add_argument("--beta", help="imaginary part (real conjugate-pair reduction)")

    a = sub.add_parser("audit", help="run the whole witness verification pipeline")
    a.add_argument("--kmax", type=int, default=4)
    a.add_argument(
        "--families",
        help="comma separated family list (default: all)",
        default=",".join(sorted(_CLI_FAMILIES)),
    )
    a.add_argument("--log", default="krein-audit.jsonl")
    a.add_argument("--extra", action="append", default=[], help="extra pair document to audit")
    return p


def _collect_params(args) -> dict:
    """The witness parameters given on the command line: eigenvalues as
    scalars for a complex family and as reals for a real one (family d's
    lambda), real parts, imaginary parts and r as reals."""
    real = not _CLI_FAMILIES[args.family].startswith("complex")
    params = {}
    for flag, key in (
        ("lam", "lambda"),
        ("l1", "l1"),
        ("l2", "l2"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            params[key] = _scalar(f"--{key}", val, real)
    for flag in ("alpha", "beta", "alpha1", "beta1", "alpha2", "beta2"):
        val = getattr(args, flag, None)
        if val is not None:
            params[flag] = _scalar(f"--{flag}", val, True)
    if getattr(args, "r", None):
        params["r"] = [_scalar("--r", tok, True) for tok in args.r.split(",") if tok]
    return params


def _witness_metadata(w: WitnessPair) -> dict:
    meta = {
        "family": _FAMILY_TO_CLI[w.spec.family],
        "k": w.spec.k,
        "eigen_params": [format_scalar(p) for p in w.spec.eigen_params],
        "expected_case": w.expected_case,
        "expected_n": w.expected_n,
        "expected_signature": list(w.expected_signature),
        "tool_version": __version__,
    }
    if w.spec.r_params is not None:
        meta["r"] = [str(x) for x in w.spec.r_params]
    return meta


def _scalar(name: str, text: str, real: bool = False) -> GaussianRational | Fraction:
    """The parameter ``name`` in the scalar grammar of :func:`parse_scalar`,
    as a Fraction when ``real``; a malformed, nonreal or overlong value is an
    input error that names the parameter."""
    try:
        z = parse_scalar(text)
    except (SchemaError, ValueError) as exc:  # ValueError: past int's digit limit
        raise SchemaError(f"{name}: {exc}") from None
    if real and z.im:
        raise SchemaError(f"{name}: parameter {text!r} is not real")
    return z.re if real else z


def _metadata_witness(meta: dict, n: int) -> WitnessPair | None:
    """The witness that the metadata of an n x n pair document names, rebuilt
    from its family, k (at most n, so the rebuild stays small), eigen_params
    and r as :func:`_witness_metadata` writes them; None when the metadata
    names no family."""
    if "family" not in meta:
        return None
    family, k, values = meta["family"], meta.get("k"), meta.get("eigen_params")
    family = _CLI_FAMILIES.get(family, family) if isinstance(family, str) else None
    names = [name for name, _ in FAMILY_PARAMS[family][1]] if family in FAMILY_PARAMS else None
    r = meta.get("r", [])
    if (
        names is None
        or type(k) is not int
        or not 1 <= k <= n
        or not isinstance(values, list)
        or len(values) != len(names)
        or not isinstance(r, list)
        or not all(isinstance(t, str) for t in values + r)
    ):
        raise SchemaError(
            f"metadata must name a known family, an integer k from 1 to {n} and its eigen_params as strings"
        )
    cplx = family.startswith("complex")
    params = {name: _scalar(f"eigen_params[{i}]", t, not cplx) for i, (name, t) in enumerate(zip(names, values))}
    if r:
        params["r"] = [_scalar(f"r[{i}]", t, True) for i, t in enumerate(r)]
    return build_witness(family, k, params)


def _cmd_generate(args) -> int:
    w = build_witness(_CLI_FAMILIES[args.family], args.k, _collect_params(args))
    meta = _witness_metadata(w)
    text = (
        serialize_pair(w.pair, meta)
        if args.format == "json"
        else pretty_format(w.pair, meta)
    )
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text)
    return 0


def _load(path: str):
    try:
        data = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return parse_document(data)


def _cmd_verify(args) -> int:
    rc = 0
    for path in args.paths:
        pair, _ = _load(path)
        normal = is_h_normal(pair)
        sig = pair.space.signature
        report = {
            "path": path,
            "h_normal": normal,
            "signature": list(sig),
            "rank": min(sig),
            "n": pair.n,
            "field": pair.field,
        }
        print(json.dumps(report, sort_keys=True))
        if not normal:
            rc = 1
    return rc


def _cmd_classify(args) -> int:
    rc = 0
    for path in args.paths:
        pair, _ = _load(path)
        try:
            report = classify(pair)
        except NotHNormal as exc:
            print(json.dumps({"path": path, "error": str(exc)}))
            rc = 1
            continue
        doc = report.to_json_dict()
        doc["path"] = path
        print(json.dumps(doc, sort_keys=True))
        if report.bound_ok is False:
            rc = 1
    return rc


def _cmd_decompose(args) -> int:
    rc = 0
    for path in args.paths:
        pair, _ = _load(path)
        if not is_h_normal(pair):
            print(json.dumps({"path": path, "error": "pair is not H-normal"}))
            rc = 1
            continue
        verdict = search_decomposition(pair)
        doc = verdict.to_json_dict()
        doc["path"] = path
        print(json.dumps(doc, sort_keys=True))
    return rc


def _cmd_reduce(args) -> int:
    pair, _ = _load(args.path)
    has_lam = args.lam is not None
    has_pair = args.alpha is not None and args.beta is not None
    if has_lam == has_pair:
        raise ParameterError("pass either --lambda or both --alpha and --beta")
    try:
        if has_lam:
            red = reduce_single_eigenvalue(pair, _scalar("--lambda", args.lam))
        else:
            red = reduce_conjugate_pair(pair, _scalar("--alpha", args.alpha, True), _scalar("--beta", args.beta, True))
    except (NotHNormal, NotSingleEigenvalue, WrongSpectrum, S0NotNeutral, FieldMismatch) as exc:
        print(json.dumps({"path": args.path, "error": str(exc)}))
        return 1
    doc = {
        "path": args.path,
        "block_dims": list(red.block_dims),
        "transform": matrix_to_rows(red.transform),
        "reduced_N": matrix_to_rows(red.reduced_n),
        "reduced_H": matrix_to_rows(red.reduced_h),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def _audit_witness_case(family: str, k: int) -> dict:
    t0 = time.perf_counter()
    w = build_witness(family, k, {})
    pair = w.pair
    checks = {}
    checks["h_normal"] = is_h_normal(pair)
    checks["signature_ok"] = pair.space.signature == w.expected_signature
    report = classify(pair)
    checks["case_ok"] = report.case_label == w.expected_case
    checks["bound_ok"] = bool(report.bound_ok)
    checks["n_ok"] = report.n == w.expected_n
    verdict = search_decomposition(pair)
    checks["certificate_verified"] = verify_certificate(pair, verdict.certificate)
    checks["never_decomposable"] = verdict.status != STATUS_DECOMPOSABLE
    passed = all(checks.values())
    return {
        "input": {"family": _FAMILY_TO_CLI[family], "k": k},
        "pair": pair_to_doc(pair, _witness_metadata(w)),
        "classification": report.to_json_dict(),
        "search": verdict.to_json_dict(),
        "checks": checks,
        "passed": passed,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
        "tool_version": __version__,
        "schema_version": "1",
    }


def _audit_extra_case(path: str) -> dict:
    t0 = time.perf_counter()
    pair, meta = _load(path)
    witness = _metadata_witness(meta, pair.n)
    checks = {"h_normal": is_h_normal(pair)}
    if witness is not None:
        # a document that names its witness must be that witness, bit for bit
        w = witness.pair
        checks["witness_match"] = (w.field, w.n_op, w.space.h) == (pair.field, pair.n_op, pair.space.h)
        checks["certificate_verified"] = verify_certificate(pair, certify_family(witness))
    record = {
        "input": {"path": path},
        "pair": pair_to_doc(pair, meta or None),
        "tool_version": __version__,
        "schema_version": "1",
    }
    if checks["h_normal"]:
        report = classify(pair)
        record["classification"] = report.to_json_dict()
        if "expected_case" in meta:
            checks["case_ok"] = report.case_label == meta["expected_case"]
        verdict = search_decomposition(pair)
        record["search"] = verdict.to_json_dict()
    record["checks"] = checks
    record["passed"] = all(checks.values())
    record["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    return record


def _guarded_case(inp: dict, run, *args) -> dict:
    """run(*args), or a failed record naming the KreinError it raised.

    Input errors still propagate: they stop the audit with exit code 2.
    """
    t0 = time.perf_counter()
    try:
        return run(*args)
    except _INPUT_ERRORS:
        raise
    except KreinError as exc:
        return {
            "input": inp,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
            "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
            "tool_version": __version__,
            "schema_version": "1",
        }


def _audit_records(families: list[str], args):
    """Run the audit cases in order, yielding (record, label) as each completes."""
    for family in families:
        ks = admissible_ks(family, args.kmax)
        if not ks:
            print(
                f"warning: family {_FAMILY_TO_CLI[family]} has no admissible k <= {args.kmax}",
                file=sys.stderr,
            )
        for k in ks:
            inp = {"family": _FAMILY_TO_CLI[family], "k": k}
            rec = _guarded_case(inp, _audit_witness_case, family, k)
            label = f"family={inp['family']} k={k}"
            if "classification" in rec:
                label += f" n={rec['classification']['n']} case={rec['classification']['case']}"
            yield rec, label
    for path in args.extra:
        yield _guarded_case({"path": path}, _audit_extra_case, path), f"extra={path}"


def _cmd_audit(args) -> int:
    families = []
    for tok in args.families.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in _CLI_FAMILIES:
            raise ParameterError(f"unknown family {tok!r}")
        families.append(_CLI_FAMILIES[tok])
    total = ok = 0
    failed = None
    log_path = Path(args.log)
    try:
        log = log_path.open("w", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot write {log_path}: {exc}") from None
    # each record is written and flushed as its case completes, so a case
    # that stops the run leaves the records before it in the log
    with log:
        for rec, label in _audit_records(families, args):
            try:
                log.write(json.dumps(rec, sort_keys=True) + "\n")
                log.flush()
            except OSError as exc:
                with suppress(OSError):  # closing retries the failed flush
                    log.close()
                raise ParameterError(f"cannot write {log_path}: {exc}") from None
            total += 1
            ok += rec["passed"]
            print(f"{'ok' if rec['passed'] else 'FAIL'} {label} ({rec['elapsed_ms']} ms)")
            if not rec["passed"] and failed is None:
                failed = rec["input"]
    print(f"audit: {ok}/{total} cases passed; log written to {log_path}")
    if failed is not None:
        print(f"audit: first failing case: {failed}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_scalar_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "audit":
            return _cmd_audit(args)
        parser.error(f"unknown command {args.command!r}")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KreinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
