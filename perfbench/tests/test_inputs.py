import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import krein
import pytest

from perfbench import inputs
from perfbench.exact import GaussMatrix
from perfbench.layers import PER_LAYER_METRICS
from perfbench.run import _tail

ROOT = Path(__file__).resolve().parents[2]


def _digest(cases):
    return hashlib.sha256("\n".join(c.document for c in cases).encode()).hexdigest()


def test_fixed_seed_reproduces_byte_identical_documents():
    first = inputs.make_cases(inputs.CORNER_REDUCE, 7, traced=True)
    assert _digest(first) == _digest(inputs.make_cases(inputs.CORNER_REDUCE, 7, traced=True))
    assert _digest(first) != _digest(inputs.make_cases(inputs.CORNER_REDUCE, 8, traced=True))
    # and in a fresh interpreter with another string-hash seed
    code = (
        "import hashlib, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; from perfbench import inputs; "
        "cs = inputs.make_cases('corner-reduce', 7, traced=True); "
        "print(hashlib.sha256(chr(10).join(c.document for c in cs).encode()).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == _digest(first)


def test_hiding_keeps_normality_inertia_and_spectrum():
    rng = random.Random(3)
    for family, k in (("complex-a-upper", 1), ("complex-b", 2), ("real-c-odd", 3), ("real-e", 2)):
        w = krein.build_witness(family, k, inputs.draw_params(rng, family))
        doc, bits = inputs.hidden_document(w.pair, rng)
        hidden, _ = krein.parse_document(doc)
        assert krein.serialize_pair(hidden) == doc
        assert hidden.n_op != w.pair.n_op and bits > 1
        assert krein.is_h_normal(hidden)
        assert hidden.space.signature == w.pair.space.signature
        assert krein.char_poly(hidden.n_op) == krein.char_poly(w.pair.n_op)


def test_drawn_parameters_meet_family_constraints():
    rng = random.Random(11)
    for _ in range(200):
        e = inputs.draw_params(rng, "real-e")
        assert (e["alpha1"], e["beta1"]) != (e["alpha2"], e["beta2"])
        assert e["beta1"] > 0 and e["beta2"] > 0
        b = inputs.draw_params(rng, "complex-b")
        assert b["l1"] != b["l2"]
        assert inputs.draw_params(rng, "real-c-even")["beta"] > 0


def test_drawn_spectra_are_the_witness_eigenvalues_and_never_snap_onto_each_other():
    rng = random.Random(13)
    for family in krein.ALL_FAMILIES:
        k = krein.admissible_ks(family, 2)[0]
        for _ in range(60):
            params = inputs.draw_params(rng, family)
            eigenvalues = inputs.spectrum(family, params)
            assert not inputs.snaps_onto_another_root(eigenvalues)
            cp = krein.char_poly(krein.build_witness(family, k, params).pair.n_op)
            assert all(not cp.evaluate(lam) for lam in eigenvalues)
    g = krein.GaussianRational
    assert inputs.snaps_onto_another_root([g(Fraction(3, 2), 1), g(1, 1)])
    assert inputs.snaps_onto_another_root([g(-1, -1), g(Fraction(-3, 2), Fraction(-2, 3))])
    assert not inputs.snaps_onto_another_root([g(Fraction(3, 2), 1), g(Fraction(1, 2), 1)])


@pytest.mark.xfail(
    raises=krein.CertificateCheckFailed, reason="poly_roots snaps the root near 3/2+i onto the root 1+i", strict=False
)
def test_snapping_onto_a_neighbouring_root():
    g = krein.GaussianRational
    w = krein.build_witness("complex-b", 1, {"l1": g(Fraction(3, 2), 1), "l2": g(1, 1)})
    assert krein.verify_certificate(w.pair, krein.certify_family(w))


def test_input_properties_of_a_workload():
    props = inputs.input_properties(inputs.make_cases(inputs.WITNESS_AUDIT, 1))
    assert props["cases"] % 20 == 0 and (props["n_min"], props["n_max"]) == (2, 16)
    assert props["decomposable_share"] == 0 and props["document_bytes_total"] == 0


def test_exact_rank_and_products_match_krein():
    rng = random.Random(5)
    for rows, cols, rank in ((4, 4, 4), (5, 3, 2), (3, 6, 1), (6, 6, 3)):
        def entry():
            return krein.GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) / rng.choice((1, 2, 3))

        a = krein.Matrix(rows, rank, [entry() for _ in range(rows * rank)])
        b = krein.Matrix(rank, cols, [entry() for _ in range(rank * cols)])
        m = a @ b
        assert GaussMatrix.of(m).rank() == m.rank()
        assert GaussMatrix.of(a) @ GaussMatrix.of(b) == GaussMatrix.of(m)
        assert GaussMatrix.of(m).conj_transpose() == GaussMatrix.of(m.conj_transpose())


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_runner_exits_2_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corner-reduce", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2 and out.stdout == ""


def test_tail_percentile_does_not_depend_on_the_pass_count():
    one_pass = [float(x) for x in random.Random(2).sample(range(1000), 40)]
    value, pct = _tail(one_pass, 1)
    assert pct == 75.0 and sum(x > value for x in one_pass) == 10
    assert _tail(one_pass * 2, 2) == (value, pct)
    assert _tail(one_pass * 3, 3) == (value, pct)
