import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from krein.cli import main
from krein.pairdoc import parse_document, serialize_pair
from krein.spaces import direct_sum
from krein.witnesses import witness_complex_b

SRC = Path(__file__).resolve().parent.parent / "src"

def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_generate_b_family(tmp_path, capsys):
    out = tmp_path / "b2.json"
    rc, _, _ = run(capsys, "generate", "--family", "b", "--k", "2",
                   "--l1", "0", "--l2", "1", "--out", str(out))
    assert rc == 0
    pair, meta = parse_document(out.read_text())
    assert pair.n == 4
    assert meta["expected_case"] == "ComplexB"
    assert pair == witness_complex_b(2, 0, 1).pair


def test_generate_rejects_odd_k_for_family_d(capsys):
    rc, _, err = run(capsys, "generate", "--family", "d", "--k", "3")
    assert rc == 2
    assert "even" in err


def test_generate_family_d_takes_a_real_lambda(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "d", "--k", "2", "--lambda", "2")
    assert rc == 0
    assert json.loads(out)["metadata"]["eigen_params"] == ["2", "0", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "d", "--k", "2", "--lambda", "2i"],
        ["generate", "--family", "c-even", "--k", "2", "--alpha", "1/0"],
        ["generate", "--family", "a-upper", "--k", "1", "--r", "1/0"],
    ],
)
def test_generate_bad_parameter_is_an_input_error(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_reduce_zero_denominator_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    assert run(capsys, "generate", "--family", "c-even", "--k", "2", "--out", str(path))[0] == 0
    rc, _, err = run(capsys, "reduce", str(path), "--alpha", "1/0", "--beta", "1")
    assert rc == 2
    assert err.startswith("error:")


def test_generate_upper_default_r_in_metadata(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "a-upper", "--k", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["r"] == ["4/5"]


def test_generate_pretty_format(capsys):
    rc, out, _ = run(capsys, "generate", "--family", "c-odd", "--k", "1", "--format", "pretty")
    assert rc == 0
    assert "N (2x2, real):" in out


def test_verify_ok_and_failure(tmp_path, capsys):
    good = tmp_path / "good.json"
    rc, _, _ = run(capsys, "generate", "--family", "e", "--k", "2", "--out", str(good))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(good))
    assert rc == 0
    assert json.loads(out.splitlines()[0])["h_normal"] is True

    # tamper one operator entry: still parses, no longer H-normal
    doc = json.loads(good.read_text())
    doc["N"][0][0] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 1
    assert json.loads(out.splitlines()[0])["h_normal"] is False


def test_classify_out_of_scope_is_exit_zero(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "field": "complex",
        "n": 3,
        "N": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
        "H": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
    }
    path = tmp_path / "oos.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    report = json.loads(out.splitlines()[0])
    assert report["case"] == "OutOfTheoremScope"
    assert report["notes"]


def test_classify_non_h_normal_is_exit_one(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "field": "complex",
        "n": 2,
        "N": [["0", "1"], ["0", "0"]],
        "H": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "nn.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 1


def test_classify_zero_denominator_is_an_input_error(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "field": "complex",
        "n": 2,
        "N": [["1/0", "0"], ["0", "1"]],
        "H": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "zero-den.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "N[0][0]" in err and "zero denominator" in err
    assert "Traceback" not in err


def test_decompose_glued_pair(tmp_path, capsys):
    g = direct_sum(witness_complex_b(1, 0, 1).pair, witness_complex_b(1, 2, 3).pair)
    path = tmp_path / "glued.json"
    path.write_text(serialize_pair(g))
    rc, out, _ = run(capsys, "decompose", str(path))
    assert rc == 0
    verdict = json.loads(out.splitlines()[0])
    assert verdict["status"] == "decomposable"
    assert verdict["witness_subspace"]
    assert "budget" not in verdict and "seed" not in verdict
    # the search has no budget and no seed, so neither flag exists
    for flag in ("--budget", "--seed"):
        rc, out, err = run(capsys, "decompose", str(path), flag, "7")
        assert rc == 2 and out == "" and "unrecognized arguments" in err


def test_reduce_single_eigenvalue(tmp_path, capsys):
    path = tmp_path / "al.json"
    rc, _, _ = run(capsys, "generate", "--family", "a-lower", "--k", "2",
                   "--lambda", "1i", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "reduce", str(path), "--lambda", "1i")
    assert rc == 0
    doc = json.loads(out)
    assert doc["block_dims"] == [2, 0, 2]


def test_reduce_hypothesis_failure_is_exit_one(tmp_path, capsys):
    path = tmp_path / "b.json"
    run(capsys, "generate", "--family", "b", "--k", "2", "--out", str(path))
    rc, out, _ = run(capsys, "reduce", str(path), "--lambda", "0")
    assert rc == 1
    assert "spectrum" in json.loads(out)["error"]


def test_reduce_on_a_spectrum_beyond_the_float_range_reports_the_wrong_spectrum(tmp_path, capsys):
    # N is H-selfadjoint with eigenvalues +-sqrt(2) 10^400: the reduction
    # rejects the spectrum without finding a root, whose display value has no float
    doc = {"schema_version": "1", "field": "real", "n": 2,
           "N": [["0", "2"], [str(10**800), "0"]], "H": [["0", "1"], ["1", "0"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "reduce", str(path), "--alpha", "0", "--beta", "1")
    assert rc == 1
    assert json.loads(out) == {"path": str(path), "error": "operator spectrum is not {0 +- 1i} alone"}
    assert err == ""


# N = [[0, 2], [10^800, 0]] is H-selfadjoint with eigenvalues +-sqrt(2) 10^400,
# which have no float display value
HUGE_DOC = {"schema_version": "1", "field": "real", "n": 2,
            "N": [["0", "2"], [str(10**800), "0"]], "H": [["0", "1"], ["1", "0"]]}


def test_classify_counts_real_eigenvalues_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_DOC))
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert (report["case"], report["bound_ok"], report["exact"]) == ("RealB", True, False)
    assert report["eigenvalues"] == [{"value": None, "multiplicity": 1, "exact": False}] * 2


def test_decompose_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_DOC))
    rc, out, err = run(capsys, "decompose", str(path))
    assert rc == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["status"] == "decomposable"
    assert verdict["trace_form"]["trace_form_inertia"] == [0, 0, 2]


# a document nested past the parser's recursion limit, and a cell with more
# digits than int() converts
_ADVERSARIAL_DOCS = {
    "nested": ("[" * 100000 + "]" * 100000, "error: document nests too deeply"),
    "long-cell": (
        json.dumps({"schema_version": "1", "field": "real", "n": 1, "N": [["1" * 5000]], "H": [["1"]]}),
        "error: N[0][0]: ",
    ),
}


@pytest.mark.parametrize("verb", ["classify", "audit"])
@pytest.mark.parametrize("name", sorted(_ADVERSARIAL_DOCS))
def test_an_adversarial_document_is_one_input_error_line(tmp_path, verb, name):
    text, message = _ADVERSARIAL_DOCS[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = [str(path)] if verb == "classify" else ["--kmax", "1", "--families", "b", "--log", "log.jsonl", "--extra", str(path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krein", verb, *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()] and proc.stderr.startswith(message)


def test_a_boolean_n_is_an_input_error(tmp_path, capsys):
    # True is an int to isinstance, and must not pass as n = 1
    doc = {"schema_version": "1", "field": "real", "n": True, "N": [["1"]], "H": [["1"]]}
    path = tmp_path / "bool-n.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "n must be a positive integer" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    log = tmp_path / "audit.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krein", "audit", "--kmax", "1", "--log", str(log)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "audit: 4/4 cases passed" in proc.stdout
    assert len(log.read_text().splitlines()) == 4


def test_missing_file_is_exit_two(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/nothing.json")
    assert rc == 2


def test_audit_small_run(tmp_path, capsys):
    log = tmp_path / "audit.jsonl"
    rc, out, err = run(capsys, "audit", "--kmax", "2", "--families", "b,e", "--log", str(log))
    assert rc == 0
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 3  # b: k=1,2; e: k=2
    assert all(rec["passed"] for rec in lines)


def test_audit_empty_family_warns_but_passes(tmp_path, capsys):
    log = tmp_path / "audit.jsonl"
    rc, out, err = run(capsys, "audit", "--kmax", "1", "--families", "d",
                       "--log", str(log))
    assert rc == 0
    assert "no admissible k" in err


def test_audit_tampered_extra_fails(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "field": "complex",
        "n": 2,
        "N": [["0", "1"], ["0", "0"]],
        "H": [["1", "0"], ["0", "1"]],
        "metadata": {"expected_case": "ComplexA"},
    }
    extra = tmp_path / "tampered.json"
    extra.write_text(json.dumps(doc))
    log = tmp_path / "audit.jsonl"
    rc, out, err = run(capsys, "audit", "--kmax", "1", "--families", "b", "--log", str(log), "--extra", str(extra))
    assert rc == 1
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert any(not rec["passed"] for rec in records)


def _audit_extra(tmp_path, capsys, doc):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(doc))
    log = tmp_path / "audit.jsonl"
    rc, _, err = run(capsys, "audit", "--kmax", "1", "--families", "b",
                     "--log", str(log), "--extra", str(extra))
    records = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
    return rc, err, records


def test_audit_rebuilds_the_witness_an_extra_document_names(tmp_path, capsys):
    # b k=2 with N[0][1] changed from 1 to 7 stays H-normal; only the
    # rebuilt witness tells it apart
    out = tmp_path / "b2.json"
    assert run(capsys, "generate", "--family", "b", "--k", "2", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    rc, _, records = _audit_extra(tmp_path, capsys, doc)
    assert rc == 0
    assert records[-1]["checks"]["witness_match"] is True
    assert records[-1]["checks"]["certificate_verified"] is True

    doc["N"][0][1] = "7"
    rc, _, records = _audit_extra(tmp_path, capsys, doc)
    assert rc == 1
    checks = records[-1]["checks"]
    assert checks["h_normal"] is True
    assert checks["witness_match"] is False
    assert not records[-1]["passed"]


def test_audit_accepts_a_document_with_a_certificate_recipe(tmp_path, capsys):
    # `krein generate` wrote the family certificate kind into the metadata
    # before every pair got the trace-form certificate; such a document
    # still audits clean
    doc = {
        "H": [["0", "1"], ["1", "0"]],
        "N": [["0", "0"], ["0", "1"]],
        "field": "complex",
        "metadata": {
            "certificate_recipe": "neutral_eigenspan",
            "eigen_params": ["0", "1"],
            "expected_case": "ComplexB",
            "expected_n": 2,
            "expected_signature": [1, 1],
            "family": "b",
            "k": 1,
            "tool_version": "0.1.0",
        },
        "n": 2,
        "schema_version": "1",
    }
    rc, _, records = _audit_extra(tmp_path, capsys, doc)
    assert rc == 0
    checks = records[-1]["checks"]
    assert checks["witness_match"] is True
    assert checks["certificate_verified"] is True
    assert records[-1]["search"]["certificate"]["kind"] == "selfadjoint_quotient_field"
    out = tmp_path / "b1.json"
    assert run(capsys, "generate", "--family", "b", "--k", "1", "--out", str(out))[0] == 0
    assert "certificate_recipe" not in json.loads(out.read_text())["metadata"]


def test_audit_rebuilds_every_family_from_its_metadata(tmp_path, capsys):
    for argv in (["a-lower", "--k", "2", "--lambda", "1+2i"], ["a-upper", "--k", "2", "--r", "3/5,4/5"],
                 ["b", "--k", "3", "--l1", "1/2", "--l2", "i"], ["c-even", "--k", "2", "--alpha", "1/3"],
                 ["c-odd", "--k", "3"], ["d", "--k", "2", "--beta", "1/2"], ["e", "--k", "4"]):
        out = tmp_path / "w.json"
        assert run(capsys, "generate", "--family", *argv, "--out", str(out))[0] == 0
        rc, _, records = _audit_extra(tmp_path, capsys, json.loads(out.read_text()))
        assert rc == 0, argv
        assert records[-1]["checks"]["witness_match"] is True


def test_audit_rejects_metadata_that_names_no_buildable_witness(tmp_path, capsys):
    out = tmp_path / "b1.json"
    assert run(capsys, "generate", "--family", "b", "--k", "1", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    for key, value in (("family", "f"), ("k", "1"), ("k", 10**9), ("eigen_params", ["0"]),
                       ("eigen_params", ["0", "1/0"])):
        bad = json.loads(json.dumps(doc))
        bad["metadata"][key] = value
        rc, err, _ = _audit_extra(tmp_path, capsys, bad)
        assert rc == 2, (key, value)
        assert err.startswith("error:")


def test_version_flag(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0


def test_classify_reports_a_huge_eigenvalue_exactly(tmp_path, capsys):
    # 10^400 has no float, and the exact spectrum does not need one
    path = tmp_path / "huge.json"
    path.write_text(serialize_pair(witness_complex_b(1, 10**400, 0).pair))
    rc, out, _ = run(capsys, "classify", str(path))
    assert rc == 0
    report = json.loads(out)
    assert report["case"] == "ComplexB"
    assert [(e["value"], e["exact"]) for e in report["eigenvalues"]] == [("0", True), (str(10**400), True)]


def test_audit_streams_records_before_a_bad_extra_document(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "field": "complex",
        "n": 2,
        "N": [["0", "1"], ["0", "0"]],
        "H": [["1", "1"], ["0", "1"]],  # not Hermitian: an input error
    }
    extra = tmp_path / "bad.json"
    extra.write_text(json.dumps(doc))
    log = tmp_path / "audit.jsonl"
    rc, _, err = run(capsys, "audit", "--kmax", "2", "--families", "b", "--log", str(log), "--extra", str(extra))
    assert rc == 2
    assert err.startswith("error:")
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [rec["input"] for rec in records] == [
        {"family": "b", "k": 1},
        {"family": "b", "k": 2},
    ]
    assert all(rec["passed"] for rec in records)


def test_audit_unwritable_log_is_an_input_error(tmp_path, capsys):
    log = tmp_path / "missing-dir" / "audit.jsonl"
    rc, _, err = run(capsys, "audit", "--kmax", "1", "--families", "b", "--log", str(log))
    assert rc == 2
    assert "cannot write" in err


def test_audit_records_a_failing_case_and_goes_on(tmp_path, capsys, monkeypatch):
    import krein.cli
    from krein.exceptions import CertificateCheckFailed

    real_search = krein.cli.search_decomposition

    def failing_on_k2(pair, **kw):
        if pair.n == 4:
            raise CertificateCheckFailed("no convergence")
        return real_search(pair, **kw)

    monkeypatch.setattr(krein.cli, "search_decomposition", failing_on_k2)
    log = tmp_path / "audit.jsonl"
    rc, out, err = run(capsys, "audit", "--kmax", "3", "--families", "b", "--log", str(log))
    assert rc == 1
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [rec["input"] for rec in records] == [{"family": "b", "k": k} for k in (1, 2, 3)]
    assert [rec["passed"] for rec in records] == [True, False, True]
    assert records[1]["error"] == {"type": "CertificateCheckFailed", "message": "no convergence"}
    assert "FAIL family=b k=2" in out
    assert "first failing case" in err
