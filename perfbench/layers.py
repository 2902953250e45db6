"""The traced layers (one per ``krein`` module that does work) and their metrics.

``cli`` is not a layer: it is an argparse shell over the calls the
witness-audit workload makes. ``exceptions`` does no work.
"""

from __future__ import annotations

from .tracer import Layer, Tracer

SEARCH = "decompose.search"


def _on_search(tr: Tracer, args, verdict) -> None:
    tr.count("search.verdicts")
    if verdict.status != "unknown":
        tr.count("search.decided")


def _on_poly_roots(tr: Tracer, args, roots) -> None:
    if tr.active(SEARCH):
        tr.count("search.draws")
    tr.count("roots.total", sum(r.multiplicity for r in roots))
    tr.count("roots.exact", sum(r.multiplicity for r in roots if r.is_exact))


def _on_mat_power(tr: Tracer, args, result) -> None:
    if tr.active(SEARCH):
        tr.count("search.candidates")


def _dim_sum(name):
    def hook(tr: Tracer, args, basis) -> None:
        tr.count(name, len(basis))

    return hook


def _on_parse(tr: Tracer, args, result) -> None:
    if args and isinstance(args[0], (str, bytes)):
        tr.count("pairdoc.bytes", len(args[0]))


def _on_serialize(tr: Tracer, args, text) -> None:
    tr.count("pairdoc.bytes", len(text))


LAYERS = (
    Layer(SEARCH, ("krein.decompose:search_decomposition",), on_return=_on_search),
    Layer(
        "decompose.selfadjoint_commutant",
        ("krein.decompose:selfadjoint_commutant_basis",),
        on_return=_dim_sum("selfadjoint_commutant.dim_sum"),
    ),
    Layer("decompose.commutant", ("krein.decompose:commutant_basis",), on_return=_dim_sum("commutant.dim_sum")),
    Layer("decompose.certify", ("krein.decompose:certify_family",)),
    Layer("decompose.verify", ("krein.decompose:verify_certificate",)),
    Layer("polynomials.poly_roots", ("krein.polynomials:poly_roots",), on_return=_on_poly_roots),
    Layer(
        "polynomials.gcd",
        (
            "krein.polynomials:poly_gcd",
            "krein.polynomials:poly_lcm",
            "krein.polynomials:squarefree_decomposition",
        ),
    ),
    Layer(
        "matrices.elim",
        (
            "krein.matrices:Matrix.rank",
            "krein.matrices:Matrix.kernel_basis",
            "krein.matrices:Matrix.inverse",
            "krein.matrices:Matrix.det",
            "krein.matrices:Matrix.solve_right",
            "krein.matrices:kernel_of_sparse_rows",
        ),
    ),
    Layer("matrices.matmul", ("krein.matrices:Matrix.__matmul__",)),
    Layer("matrices.char_poly", ("krein.matrices:char_poly",)),
    Layer("matrices.mat_power", ("krein.matrices:mat_power",), on_return=_on_mat_power),
    Layer("spaces.signature", ("krein.spaces:signature",)),
    Layer("spaces.is_h_normal", ("krein.spaces:is_h_normal",)),
    Layer("spaces.h_adjoint", ("krein.spaces:h_adjoint",)),
    Layer("classify.classify", ("krein.classify:classify",)),
    Layer(
        "classify.joint_eigenspace",
        ("krein.classify:joint_eigenspace", "krein.classify:joint_eigenspace_real"),
    ),
    Layer(
        "classify.reduce",
        ("krein.classify:reduce_single_eigenvalue", "krein.classify:reduce_conjugate_pair"),
    ),
    Layer("witnesses.build", ("krein.witnesses:build_witness",)),
    Layer("pairdoc.parse", ("krein.pairdoc:parse_document",), on_return=_on_parse),
    Layer("pairdoc.serialize", ("krein.pairdoc:serialize_pair",), on_return=_on_serialize),
    # GaussianRational operation counts; __radd__/__rmul__ are aliases of
    # __add__/__mul__, and __rsub__/__rtruediv__ delegate to __sub__/__truediv__,
    # so every operation is counted once
    Layer("scalars.mul", ("krein.scalars:GaussianRational.__mul__",), span=False),
    Layer(
        "scalars.addsub",
        ("krein.scalars:GaussianRational.__add__", "krein.scalars:GaussianRational.__sub__"),
        span=False,
    ),
    Layer("scalars.div", ("krein.scalars:GaussianRational.__truediv__",), span=False),
)

# (metric name, unit, better) in output order; values are totals over the traced case list
PER_LAYER_METRICS = (
    ("decompose.search.self_ms", "ms", "lower"),
    ("decompose.search.draws", "count", "lower"),
    ("decompose.search.candidates", "count", "lower"),
    ("decompose.search.decided_ratio", "ratio", "higher"),
    ("decompose.selfadjoint_commutant.self_ms", "ms", "lower"),
    ("decompose.selfadjoint_commutant.dim_sum", "count", "lower"),
    ("decompose.commutant.self_ms", "ms", "lower"),
    ("decompose.commutant.dim_sum", "count", "lower"),
    ("decompose.certify.self_ms", "ms", "lower"),
    ("decompose.verify.self_ms", "ms", "lower"),
    ("polynomials.poly_roots.calls", "count", "lower"),
    ("polynomials.poly_roots.self_ms", "ms", "lower"),
    ("polynomials.gcd.calls", "count", "lower"),
    ("polynomials.gcd.self_ms", "ms", "lower"),
    ("polynomials.exact_root_ratio", "ratio", "higher"),
    ("matrices.elim.calls", "count", "lower"),
    ("matrices.elim.self_ms", "ms", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.self_ms", "ms", "lower"),
    ("matrices.char_poly.calls", "count", "lower"),
    ("matrices.char_poly.self_ms", "ms", "lower"),
    ("matrices.mat_power.calls", "count", "lower"),
    ("spaces.signature.calls", "count", "lower"),
    ("spaces.signature.self_ms", "ms", "lower"),
    ("spaces.is_h_normal.self_ms", "ms", "lower"),
    ("spaces.h_adjoint.calls", "count", "lower"),
    ("classify.classify.self_ms", "ms", "lower"),
    ("classify.joint_eigenspace.self_ms", "ms", "lower"),
    ("classify.reduce.self_ms", "ms", "lower"),
    ("witnesses.build.self_ms", "ms", "lower"),
    ("pairdoc.parse.self_ms", "ms", "lower"),
    ("pairdoc.serialize.self_ms", "ms", "lower"),
    ("pairdoc.bytes", "bytes", "lower"),
    ("scalars.mul.calls", "count", "lower"),
    ("scalars.addsub.calls", "count", "lower"),
    ("scalars.div.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, overhead_ratio: float, speed: float = 1.0) -> dict:
    """Every per-layer metric value for the traced case list.

    ``speed`` scales self times to calibrated ms (see perfbench.clock).
    """
    c = tracer.counters.get
    vals = {}
    for name, st in tracer.stats.items():
        vals[f"{name}.calls"] = st.calls
        vals[f"{name}.self_ms"] = st.self_ns * speed / 1e6
    vals["decompose.search.draws"] = c("search.draws", 0)
    vals["decompose.search.candidates"] = c("search.candidates", 0)
    vals["decompose.search.decided_ratio"] = _ratio(c("search.decided", 0), c("search.verdicts", 0))
    vals["decompose.selfadjoint_commutant.dim_sum"] = c("selfadjoint_commutant.dim_sum", 0)
    vals["decompose.commutant.dim_sum"] = c("commutant.dim_sum", 0)
    vals["polynomials.exact_root_ratio"] = _ratio(c("roots.exact", 0), c("roots.total", 0))
    vals["pairdoc.bytes"] = c("pairdoc.bytes", 0)
    vals["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": vals[name], "unit": unit} for name, unit, _ in PER_LAYER_METRICS}
