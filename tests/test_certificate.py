import random

import pytest

from rado.certificate import (
    INVALID,
    MALFORMED,
    VALID,
    Certificate,
    CertificateError,
    parse_certificate,
    verify,
    verify_text,
    write_certificate,
)
from rado.equations import parse_equation
from rado.solutions import build_hyperedges
from rado.solver import COLORABLE, compute_rado, find_coloring


def test_valid_schur_example():
    cert = Certificate("x+y=z", 4, 2, (1, 2, 2, 1))
    assert verify(cert).status == VALID


def test_exact_file_format():
    cert = Certificate("x+y=z", 4, 2, (1, 2, 2, 1))
    assert write_certificate(cert) == (
        "rado-cert v1\n"
        "e x+y=z\n"
        "n 4\n"
        "r 2\n"
        "k 1 2 2 1\n"
    )


def test_invalid_reports_violation():
    cert = Certificate("x+y=z", 2, 2, (1, 1))
    verdict = verify(cert)
    assert verdict.status == INVALID
    eq = parse_equation("x+y=z")
    assert verdict.violation.render(eq) == "1+1=2"


def test_long_certificates_chunk_at_50():
    cert = Certificate("x+y=z", 120, 2, tuple(1 + (i % 2) for i in range(120))[:120])
    text = write_certificate(cert)
    k_lines = [l for l in text.splitlines() if l.startswith("k ")]
    assert [len(l.split()) - 1 for l in k_lines] == [50, 50, 20]
    assert parse_certificate(text) == cert


def test_claim_line_round_trip():
    cert = Certificate("x+y=z", 4, 2, (1, 2, 2, 1), claim="rado-exact 5")
    text = write_certificate(cert)
    assert "claim rado-exact 5\n" in text
    assert parse_certificate(text) == cert


def test_write_parse_identity_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 130)
        r = rng.randint(1, 4)
        cert = Certificate(
            "x^2+y^2=z^2",
            n,
            r,
            tuple(rng.randint(1, r) for _ in range(n)),
            claim=rng.choice((None, "colorable")),
        )
        assert parse_certificate(write_certificate(cert)) == cert


def test_solver_witnesses_verify():
    eq = parse_equation("x^2+y^2=z^2")
    for n in (5, 13, 30):
        out = find_coloring(eq, n, 2)
        assert out.verdict == COLORABLE
        cert = Certificate.from_coloring(eq.render(), out.coloring)
        assert verify(cert).status == VALID


def test_corrupted_witness_rejected():
    eq = parse_equation("x+y=z")
    out = compute_rado(eq, 2)
    witness = out.witness
    assert verify(Certificate.from_coloring("x+y=z", witness)).status == VALID
    # flip one color on a vertex inside some edge
    edges = build_hyperedges(eq, witness.n).edges
    v = edges[0][0]
    flipped = list(witness.colors)
    flipped[v - 1] = 3 - flipped[v - 1]
    bad = Certificate("x+y=z", witness.n, 2, tuple(flipped))
    assert verify(bad).status == INVALID


def test_color_permutation_stability():
    rng = random.Random(77)
    eq = parse_equation("x+y=z")
    out = find_coloring(eq, 4, 2)
    colors = out.coloring.colors
    for perm in ({1: 1, 2: 2}, {1: 2, 2: 1}):
        permuted = tuple(perm[c] for c in colors)
        assert verify(Certificate("x+y=z", 4, 2, permuted)).status == VALID
    # and for an invalid certificate, permutation keeps it invalid
    for perm in ({1: 1, 2: 2}, {1: 2, 2: 1}):
        permuted = tuple(perm[c] for c in (1, 1))
        assert verify(Certificate("x+y=z", 2, 2, permuted)).status == INVALID


def test_malformed_certificates():
    assert verify(Certificate("x^2+y=z^2", 2, 2, (1, 1))).status == MALFORMED
    assert verify(Certificate("x+y=z", 3, 2, (1, 1))).status == MALFORMED
    assert verify(Certificate("x+y=z", 2, 2, (1, 3))).status == MALFORMED
    assert verify(Certificate("x+y=z", 2, 0, (1, 1))).status == MALFORMED
    assert verify(Certificate("not an equation", 1, 1, (1,))).status == MALFORMED


def test_verify_past_enumeration_cap_is_malformed(monkeypatch):
    monkeypatch.setattr("rado.solutions.MATERIALIZE_CAP", 10)
    verdict = verify(Certificate("x+y=z", 30, 2, (1,) * 30))
    assert verdict.status == MALFORMED
    assert "MATERIALIZE_CAP=10" in verdict.reason


def test_parse_errors():
    with pytest.raises(CertificateError, match="header"):
        parse_certificate("bogus\n")
    with pytest.raises(CertificateError, match="missing 'n'"):
        parse_certificate("rado-cert v1\ne x+y=z\nr 2\nk 1\n")
    with pytest.raises(CertificateError, match="unknown line"):
        parse_certificate("rado-cert v1\ne x+y=z\nn 1\nr 2\nq zzz\nk 1\n")
    with pytest.raises(CertificateError, match="bad color"):
        parse_certificate("rado-cert v1\ne x+y=z\nn 1\nr 2\nk one\n")


def test_verify_text_wraps_parse_errors():
    assert verify_text("garbage").status == MALFORMED
    good = write_certificate(Certificate("x+y=z", 4, 2, (1, 2, 2, 1)))
    assert verify_text(good).status == VALID


def test_empty_range_certificate():
    assert verify(Certificate("x+y=z", 0, 2, ())).status == VALID
