"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers.  Heavy computations run once in module-scoped
fixtures; the determinism criterion reruns them and compares bytes.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import random
import subprocess
import sys
import time

import pytest

from rado.certificate import Certificate, parse_certificate, verify, write_certificate
from rado.cnf import coloring_to_model, export_cnf, import_model
from rado.equations import family_equation, parse_equation
from rado.solutions import build_hyperedges
from rado.solver import (
    COLORABLE,
    Coloring,
    SearchParams,
    find_coloring,
    oracle_colorable,
)

pytestmark = pytest.mark.slow

TABLE_ROW = [105, 37, 23, 18, 20, 20, 15, 16, 20, 23, 17, 21, 26, 17, 23]  # k=3..17


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "rado.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def report(criterion, message):
    print(f"\nCRITERION {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def thm1(tmp_path_factory):
    cert = tmp_path_factory.mktemp("thm1") / "witness.crt"
    t0 = time.monotonic()
    code, out, err = run_cli(
        "rado", "x^2+y^2+z^2=w^2", "-r", "2", "--json", "--cert", str(cert)
    )
    elapsed = time.monotonic() - t0
    return code, out, err, elapsed, cert


@pytest.fixture(scope="module")
def thm2(tmp_path_factory):
    cert = tmp_path_factory.mktemp("thm2") / "witness.crt"
    t0 = time.monotonic()
    code, out, err = run_cli(
        "rado", "x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", "-r", "3",
        "--json", "--cert", str(cert),
    )
    elapsed = time.monotonic() - t0
    return code, out, err, elapsed, cert


@pytest.fixture(scope="module")
def table_run():
    t0 = time.monotonic()
    code, out, err = run_cli(
        "table", "--min-k", "3", "--max-k", "17", "-r", "2", "--jobs", "4",
        "--json",
    )
    elapsed = time.monotonic() - t0
    return code, out, err, elapsed


@pytest.fixture(scope="module")
def schur_runs():
    results = {}
    for r in (1, 2):
        t0 = time.monotonic()
        code, out, err = run_cli("rado", "x+y=z", "-r", str(r), "--json")
        results[r] = (code, out, err, time.monotonic() - t0)
    return results


def test_criterion_1_schur_smoke(schur_runs):
    expected = {1: 2, 2: 5}
    for r, (code, out, err, elapsed) in schur_runs.items():
        assert code == 0, err
        doc = json.loads(out)
        assert doc["kind"] == "exact"
        assert doc["value"] == expected[r], (r, doc["value"])
        assert elapsed < 1.0, f"S({r}) took {elapsed:.2f}s (budget 1s)"
    report(1, f"S(1)=2 and S(2)=5, each under 1s")


def test_criterion_2_theorem_1(thm1):
    code, out, err, elapsed, cert = thm1
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "exact"
    assert doc["value"] == 105, f"got {doc['value']}, expected 105"
    assert doc["witness_n"] == 104
    assert elapsed < 600, f"took {elapsed:.0f}s (budget 600s)"
    vcode, vout, _ = run_cli("verify", str(cert))
    assert vcode == 0 and vout.strip() == "valid"
    report(2, f"RR_2(x^2+y^2+z^2=w^2) = 105 in {elapsed:.0f}s; witness for 104 valid")


def test_criterion_3_theorem_2(thm2):
    code, out, err, elapsed, cert = thm2
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "exact"
    assert doc["value"] == 32, f"got {doc['value']}, expected 32"
    assert doc["witness_n"] == 31
    assert elapsed < 600, f"took {elapsed:.0f}s (budget 600s)"
    vcode, vout, _ = run_cli("verify", str(cert))
    assert vcode == 0 and vout.strip() == "valid"
    report(3, f"RR_3(4 squares = 3 squares) = 32 in {elapsed:.0f}s; witness for 31 valid")


def test_criterion_4_table_regression(table_run):
    code, out, err, elapsed = table_run
    assert code == 0, err
    doc = json.loads(out)
    assert elapsed < 7200, f"took {elapsed:.0f}s (budget 2h)"
    rows = doc["rows"]
    assert [r["k"] for r in rows] == list(range(3, 18))
    for row, expected in zip(rows, TABLE_ROW):
        assert row["kind"] == "exact", f"k={row['k']} exceeded its budget"
        assert row["value"] == expected, (
            f"k={row['k']}: got {row['value']}, expected {expected}"
        )
    report(4, f"table k=3..17 reproduced exactly in {elapsed:.0f}s")


def test_criterion_5_theorem_3_workflow(tmp_path):
    # scaled lower-bound run with a verifying certificate
    cert = tmp_path / "pyth500.crt"
    t0 = time.monotonic()
    code, out, err = run_cli(
        "rado", "x^2+y^2=z^2", "-r", "2", "--cap", "500", "--json",
        "--cert", str(cert),
    )
    elapsed = time.monotonic() - t0
    assert code == 3, err
    doc = json.loads(out)
    assert doc["kind"] == "lower-bound" and doc["value"] == 500
    assert elapsed < 300, f"cap-500 run took {elapsed:.0f}s (budget 5 min)"
    vcode, vout, _ = run_cli("verify", str(cert))
    assert vcode == 0 and vout.strip() == "valid"

    # full-scale export: clause count must match an independent triple count
    cnf_path = tmp_path / "pyth6500.cnf"
    ecode, eout, eerr = run_cli(
        "export", "x^2+y^2=z^2", "-n", "6500", "-r", "2", "-o", str(cnf_path),
        "--json",
    )
    assert ecode == 0, eerr
    edoc = json.loads(eout)
    triples = _count_triples_independent(6500)
    assert edoc["clauses"] == 2 * triples + 1
    assert edoc["edges"] == triples

    # an external solver's model feeds back through model-to-cert + verify;
    # stand in for the solver at n=500 (the 6500 solve is the documented
    # optional long-running step)
    n = 500
    eq = parse_equation("x^2+y^2=z^2")
    small_cnf = tmp_path / "pyth500.cnf"
    run_cli("export", "x^2+y^2=z^2", "-n", str(n), "-r", "2", "-o", str(small_cnf))
    witness_colors = parse_certificate(cert.read_text()).colors
    inst = export_cnf(eq, build_hyperedges(eq, n), 2)
    model = coloring_to_model(Coloring(n, 2, witness_colors), inst)
    model_path = tmp_path / "pyth500.model"
    model_path.write_text("v " + " ".join(map(str, model)) + " 0\n")
    out_cert = tmp_path / "frommodel.crt"
    mcode, _, merr = run_cli(
        "model-to-cert", str(small_cnf), str(model_path), "-o", str(out_cert)
    )
    assert mcode == 0, merr
    vcode, vout, _ = run_cli("verify", str(out_cert))
    assert vcode == 0 and vout.strip() == "valid"
    report(5, f"lower-bound 500 certified in {elapsed:.0f}s; "
              f"6500 export has 2*{triples}+1 clauses; model round trip valid")


def _count_triples_independent(n):
    """Triple count by hypotenuse scan against a square table (not the
    enumerator's x<=y stream)."""
    squares = {z * z for z in range(1, n + 1)}
    count = 0
    for z in range(2, n + 1):
        z2 = z * z
        for x in range(1, z):
            x2 = x * x
            if 2 * x2 > z2:
                break
            if z2 - x2 in squares:
                count += 1
    return count


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260808)
    checked = 0
    t0 = time.monotonic()
    while checked < 200:
        nvars = rng.randint(2, 4)
        degree = rng.choice((1, 2))
        names = [f"v{i}" for i in range(nvars)]
        cut = rng.randint(1, nvars - 1)
        coefs = [rng.randint(1, 3) for _ in names]
        exp = "^2" if degree == 2 else ""
        text = "+".join(
            f"{c if c > 1 else ''}{nm}{exp}"
            for c, nm in zip(coefs[:cut], names[:cut])
        ) + "=" + "+".join(
            f"{c if c > 1 else ''}{nm}{exp}"
            for c, nm in zip(coefs[cut:], names[cut:])
        )
        eq = parse_equation(text)
        n = rng.randint(1, 12)
        r = rng.choice((2, 3))
        got = find_coloring(eq, n, r)
        expected = oracle_colorable(eq, n, r)
        assert (got.verdict == COLORABLE) == expected, (text, n, r)
        checked += 1
    report(6, f"200 randomized instances agree with the exhaustive oracle "
              f"({time.monotonic()-t0:.0f}s)")


def test_criterion_7_backend_agreement():
    t0 = time.monotonic()
    cases = 0
    for k in range(2, 7):
        eq = family_equation(k)
        for n in range(1, 31):
            edge = find_coloring(eq, n, 2, SearchParams(backend="edge"))
            dp = find_coloring(eq, n, 2, SearchParams(backend="dp"))
            assert edge.verdict == dp.verdict, (k, n)
            cases += 1
    report(7, f"edge and dp verdicts identical on {cases} family instances "
              f"({time.monotonic()-t0:.0f}s)")


def test_criterion_8_round_trips():
    rng = random.Random(88)
    pool = [
        parse_equation(t)
        for t in ("x+y=z", "x^2+y^2=z^2", "2x+y=3z", "x1^2+x2^2+x3^2=z^2",
                  "a+b+c=d")
    ]
    cert_checks = model_checks = parse_checks = 0
    while cert_checks < 1000:
        eq = rng.choice(pool)
        n = rng.randint(1, 14)
        r = rng.randint(2, 3)
        out = find_coloring(eq, n, r)
        if out.verdict != COLORABLE:
            continue
        cert = Certificate.from_coloring(eq.render(), out.coloring)
        assert verify(cert).status == "valid", (eq.render(), n, r)
        cert_checks += 1
        if model_checks < 1000:
            encoding = "binary" if r == 2 else "direct"
            inst = export_cnf(eq, build_hyperedges(eq, n), r, encoding)
            back = import_model(coloring_to_model(out.coloring, inst), inst)
            assert back == out.coloring
            assert verify(Certificate.from_coloring(eq.render(), back)).status == "valid"
            model_checks += 1
    while parse_checks < 1000:
        n = rng.randint(0, 120)
        r = rng.randint(1, 4)
        cert = Certificate(
            "x^2+y^2=z^2", n, r,
            tuple(rng.randint(1, r) for _ in range(n)),
            claim=rng.choice((None, "colorable", "rado-exact 9")),
        )
        assert parse_certificate(write_certificate(cert)) == cert
        parse_checks += 1
    report(8, f"{cert_checks} certificate, {model_checks} model, and "
              f"{parse_checks} parse round trips all valid")


def test_criterion_9_determinism(schur_runs, thm1, thm2, table_run):
    for r, (code, out, err, _) in schur_runs.items():
        code2, out2, _ = run_cli("rado", "x+y=z", "-r", str(r), "--json")
        assert code2 == code and out2 == out, f"S({r}) output drifted"
    _, out1, _, _, _ = thm1
    code2, out2, _ = run_cli("rado", "x^2+y^2+z^2=w^2", "-r", "2", "--json")
    assert out2 == out1, "theorem 1 output drifted"
    _, t2out, _, _, _ = thm2
    code2, out2, _ = run_cli(
        "rado", "x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", "-r", "3", "--json"
    )
    assert out2 == t2out, "theorem 2 output drifted"
    _, tout, _, _ = table_run
    code2, out2, _ = run_cli(
        "table", "--min-k", "3", "--max-k", "17", "-r", "2", "--jobs", "4",
        "--json",
    )
    assert out2 == tout, "table output drifted"
    report(9, "criteria 1-4 machine-readable outputs byte-identical on rerun")
