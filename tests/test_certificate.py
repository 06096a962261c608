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
from rado.solutions import SolutionTuple, _iter_reps, _plan, build_hyperedges
from rado.solver import COLORABLE, SearchParams, compute_rado, find_coloring


def test_valid_schur_example():
    cert = Certificate("x+y=z", 4, 2, (1, 2, 2, 1))
    assert verify(cert).status == VALID


def test_verify_takes_a_list_of_colors():
    # a caller may build the coloring as a list; verify never raises
    assert verify(Certificate("x+y=z", 4, 2, [1, 2, 2, 1])).status == VALID
    verdict = verify(Certificate("x+y=z", 4, 2, [1, 1, 2, 1]))
    assert verdict.status == INVALID
    assert verdict.violation.render(parse_equation("x+y=z")) == "1+1=2"


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


def group_by_group_solutions(eq, n):
    """iter_canonical_solutions as it was built before: one dict update per
    group, free groups into free_values."""
    lhs, rhs = _plan(eq)
    for rep in _iter_reps(eq, n):
        values, free_values = {}, {}
        for g, gv in zip(lhs + rhs, rep[0] + rep[1]):
            (free_values if g.is_free else values).update(zip(g.names, gv))
        yield SolutionTuple(values, free_values)


@pytest.mark.parametrize("text,n,r", [
    ("x+y=~z+w", 14, 2),
    ("x^2+y^2=~a^2+2z^2", 30, 3),
    ("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", 12, 3),
    # verify compares a representative's first and last vertex first: a
    # free group leads the lhs, a free group ends the rhs, and every
    # vertex sits in one group
    ("~a+2x+2y=3z", 12, 3),
    ("x+y=z+2~a", 14, 2),
    ("x^2+y^2=~a^2", 30, 2),
    ("x^2+y^2=z^2+w^2", 12, 3),
])
def test_invalid_violation_is_the_first_monochromatic_solution(text, n, r):
    eq = parse_equation(text)
    rng = random.Random(text)
    # the edge backend's witnesses: with dp's witness for the last case
    # only 19 of these colorings are invalid
    witness = find_coloring(eq, n, r, SearchParams(backend="edge")).coloring
    colorings = [tuple(rng.randint(1, r) for _ in range(n)) for _ in range(20)]
    if witness is not None:
        # one flipped vertex leaves few monochromatic solutions, so the
        # first of them can come late in the scan
        for v in rng.sample(range(n), min(n, 20)):
            flipped = list(witness.colors)
            flipped[v] = flipped[v] % r + 1
            colorings.append(tuple(flipped))
    invalid = 0
    for colors in colorings:
        chi = (0,) + colors
        first = next((sol for sol in group_by_group_solutions(eq, n)
                      if len({chi[v] for v in sol.values.values()}) == 1), None)
        verdict = verify(Certificate(text, n, r, colors))
        if first is None:
            assert verdict.status == VALID
            continue
        invalid += 1
        assert verdict.status == INVALID
        assert verdict.violation == first
        assert list(verdict.violation.values.items()) == list(first.values.items())
        assert list(verdict.violation.free_values.items()) == list(first.free_values.items())
    assert invalid >= 20


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


@pytest.mark.parametrize("n, r, colors", [
    ("2", 2, (1, 2)),
    (2.0, 2, (1, 2)),
    (2, 2.0, (1, 2)),
    (True, 2, (1,)),
    (2, True, (1, 1)),
    (2, 2, ("a", 1)),
    (2, 2, (1.0, 2)),
    (2, 2, (True, 2)),
])
def test_verify_non_int_fields_are_malformed(n, r, colors):
    # verify never raises: a field that is no int (a bool is none) is malformed
    assert verify(Certificate("x+y=z", n, r, colors)).status == MALFORMED


def test_verify_past_enumeration_cap_is_malformed(monkeypatch):
    monkeypatch.setattr("rado.solutions.MATERIALIZE_CAP", 10)
    verdict = verify(Certificate("x+y=z", 30, 2, (1,) * 30))
    assert verdict.status == MALFORMED
    assert "MATERIALIZE_CAP=10" in verdict.reason


def test_verify_refuses_dense_equation_before_scanning(monkeypatch):
    # each side has exactly C(36, 7) = 8,347,680 assignments, all within
    # the cap, so the refusal needs no scan
    def scan(*args):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr("rado.solutions._iter_side", scan)
    verdict = verify(Certificate("a+b+c+d+e+f+g=h+i+j+k+l+m+o", 30, 2, (1,) * 30))
    assert verdict.status == MALFORMED
    assert "MATERIALIZE_CAP=5000000" in verdict.reason


def test_parse_errors():
    with pytest.raises(CertificateError, match="header"):
        parse_certificate("bogus\n")
    with pytest.raises(CertificateError, match="missing 'n'"):
        parse_certificate("rado-cert v1\ne x+y=z\nr 2\nk 1\n")
    with pytest.raises(CertificateError, match="unknown line"):
        parse_certificate("rado-cert v1\ne x+y=z\nn 1\nr 2\nq zzz\nk 1\n")
    with pytest.raises(CertificateError, match="bad color"):
        parse_certificate("rado-cert v1\ne x+y=z\nn 1\nr 2\nk one\n")


def test_parse_rejects_duplicate_line_and_non_integer_n():
    with pytest.raises(CertificateError, match="duplicate 'e' line"):
        parse_certificate("rado-cert v1\ne x+y=z\ne x+y=z\nn 1\nr 2\nk 1\n")
    with pytest.raises(CertificateError, match="n and r must be integers"):
        parse_certificate("rado-cert v1\ne x+y=z\nn one\nr 2\nk 1\n")


@pytest.mark.parametrize("field, value, message", [
    ("n", "\u0664", "n and r must be integers: not an integer: '\u0664'"),
    ("n", "0_4", "n and r must be integers: not an integer: '0_4'"),
    ("n", "+4", "n and r must be integers: not an integer: '\\+4'"),
    ("r", "\u0662", "n and r must be integers: not an integer: '\u0662'"),
    ("k", "1 \u0662 2 1", "bad color value in .*: not an integer: '\u0662'"),
    ("k", "1 2 2 0_1", "bad color value in .*: not an integer: '0_1'"),
])
def test_parse_reads_ascii_integers_only(field, value, message):
    # int() reads each of these as the value write_certificate wrote, so
    # the certificate of x+y=z, n=4, r=2, colors 1 2 2 1 verified as valid
    good = {"n": "4", "r": "2", "k": "1 2 2 1"}
    text = "rado-cert v1\ne x+y=z\n" + "".join(
        f"{tag} {value if tag == field else good[tag]}\n" for tag in ("n", "r", "k"))
    with pytest.raises(CertificateError, match=message):
        parse_certificate(text)
    assert verify_text(text).status == MALFORMED


def test_parse_rejects_duplicate_claim_line():
    # write_certificate writes at most one claim; a second is not a correction
    text = "rado-cert v1\ne x+y=z\nn 1\nr 2\nclaim colorable\nclaim rado-exact 5\nk 1\n"
    with pytest.raises(CertificateError, match="duplicate 'claim' line"):
        parse_certificate(text)


def test_verify_negative_n_is_malformed():
    verdict = verify(Certificate("x+y=z", -1, 2, ()))
    assert (verdict.status, verdict.reason) == (MALFORMED, "negative n -1")


def test_verify_text_wraps_parse_errors():
    assert verify_text("garbage").status == MALFORMED
    good = write_certificate(Certificate("x+y=z", 4, 2, (1, 2, 2, 1)))
    assert verify_text(good).status == VALID


def test_empty_range_certificate():
    assert verify(Certificate("x+y=z", 0, 2, ())).status == VALID
