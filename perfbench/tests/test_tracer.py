import sys
import time
import types

import krein
import krein.classify
import krein.decompose
import krein.matrices
import krein.polynomials
from krein.scalars import GaussianRational

from perfbench.layers import LAYERS, layer_values
from perfbench.tracer import Layer, Tracer

# every binding of char_poly / poly_roots that krein code can call through
BINDINGS = [
    (krein.matrices, "char_poly"),
    (sys.modules["krein.classify"], "char_poly"),
    (krein.decompose, "char_poly"),
    (krein, "char_poly"),
    (krein.polynomials, "poly_roots"),
    (sys.modules["krein.classify"], "poly_roots"),
    (krein.decompose, "poly_roots"),
]


def _snapshot():
    return {(id(owner), name): getattr(owner, name) for owner, name in BINDINGS} | {
        ("G", name): GaussianRational.__dict__[name] for name in ("__mul__", "__rmul__", "__add__", "__radd__")
    }


def test_tracer_patches_every_rebinding_and_restores_them():
    before = _snapshot()
    tracer = Tracer(LAYERS)
    with tracer.installed():
        for owner, name in BINDINGS:
            assert getattr(owner, name) is not before[(id(owner), name)]
            assert getattr(owner, name).__wrapped__ is before[(id(owner), name)]
        # the alias __rmul__ = __mul__ is patched to the same wrapper
        assert GaussianRational.__dict__["__rmul__"] is GaussianRational.__dict__["__mul__"]
        w = krein.witness_complex_b(1, 0, 1)
        krein.classify(w.pair)  # calls char_poly and poly_roots via krein.classify's own bindings
        2 * GaussianRational(1, 1)
    assert tracer.stats["matrices.char_poly"].calls == 1
    assert tracer.stats["polynomials.poly_roots"].calls == 1
    assert tracer.stats["spaces.is_h_normal"].calls >= 1
    assert tracer.stats["scalars.mul"].calls >= 1
    assert _snapshot() == before
    for mod in [m for n, m in sys.modules.items() if n == "krein" or n.startswith("krein.")]:
        for val in vars(mod).values():
            assert not hasattr(val, "__wrapped__"), val


def test_tracer_restores_bindings_when_the_run_raises():
    before = _snapshot()
    tracer = Tracer(LAYERS)
    try:
        with tracer.installed():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _snapshot() == before


def test_self_time_excludes_child_spans_and_counts_under_parent():
    pkg = types.ModuleType("fakepkg")

    def inner():
        time.sleep(0.1)

    def outer():
        time.sleep(0.01)
        pkg.inner()

    pkg.inner, pkg.outer = inner, outer
    sys.modules["fakepkg"] = pkg
    try:
        hook = lambda tr, args, result: tr.count("inner.under_outer") if tr.active("outer") else None
        tracer = Tracer(
            [Layer("outer", ("fakepkg:outer",)), Layer("inner", ("fakepkg:inner",), on_return=hook)],
            package="fakepkg",
        )
        with tracer.installed():
            pkg.outer()
            pkg.inner()
    finally:
        del sys.modules["fakepkg"]
    outer_ms = tracer.stats["outer"].self_ns / 1e6
    inner_ms = tracer.stats["inner"].self_ns / 1e6
    # outer's own 10 ms, far from the 110 ms it would show with its child included
    assert 10 <= outer_ms < 60
    assert inner_ms >= 200
    assert tracer.counters == {"inner.under_outer": 1}


def test_search_counters_on_a_glued_sum():
    pair = krein.direct_sum(krein.witness_complex_b(1, 0, 1).pair, krein.witness_complex_b(1, 2, 3).pair)
    tracer = Tracer(LAYERS)
    with tracer.installed():
        verdict = krein.search_decomposition(pair, budget=200, seed=1729)
    assert verdict.status == "decomposable"
    vals = {k: v["value"] for k, v in layer_values(tracer, 1.0).items()}
    assert vals["decompose.search.draws"] >= 1
    assert vals["decompose.search.candidates"] >= 1
    assert vals["decompose.search.decided_ratio"] == 1.0
    assert vals["decompose.selfadjoint_commutant.dim_sum"] >= 2
    assert vals["witnesses.build.self_ms"] == 0
