import itertools
import random
from math import comb, isqrt

import pytest

from rado import solutions, solver
from rado.certificate import MALFORMED, Certificate, verify
from rado.equations import parse_equation, family_equation
from rado.solutions import (
    REACH_TABLE_CAP,
    OverflowGuardError,
    SolutionCapError,
    build_hyperedges,
    check_overflow,
    dp_feasible,
    edges_to_json,
    enumerate_solutions,
    iter_canonical_solutions,
)
from rado.solver import SearchParams, find_coloring


def naive_solutions(eq, n):
    """Independent oracle: plain nested scan over all value tuples.

    Free variables are scanned up to the other side's maximum total, which
    bounds any solvable contribution.
    """
    cvars = list(eq.constrained_variables)
    fvars = [v for v in eq.variables if eq.is_free(v)]
    top = eq.side_max_sum(n)
    fbound = isqrt(top) + 1 if eq.degree == 2 else top
    out = []
    for combo in itertools.product(range(1, n + 1), repeat=len(cvars)):
        if eq.distinct_required and len(set(combo)) != len(combo):
            continue
        asg = dict(zip(cvars, combo))
        if not fvars:
            if eq.holds(asg):
                out.append(asg)
            continue
        for fcombo in itertools.product(range(1, fbound + 1), repeat=len(fvars)):
            full = asg | dict(zip(fvars, fcombo))
            if eq.holds(full):
                out.append(full)
    return out


def as_pairs(solutions):
    return sorted(
        tuple(sorted({**s.values, **s.free_values}.items())) for s in solutions
    )


def naive_as_pairs(assignments):
    return sorted(tuple(sorted(a.items())) for a in assignments)


def test_pythagorean_at_5():
    eq = parse_equation("x^2+y^2=z^2")
    sols = enumerate_solutions(eq, 5)
    assert as_pairs(sols) == [
        (("x", 3), ("y", 4), ("z", 5)),
        (("x", 4), ("y", 3), ("z", 5)),
    ]
    assert enumerate_solutions(eq, 4) == []


def test_three_squares_at_3():
    eq = parse_equation("x^2+y^2+z^2=w^2")
    sols = enumerate_solutions(eq, 3)
    assert len(sols) == 3
    for s in sols:
        assert sorted((s.values["x"], s.values["y"], s.values["z"])) == [1, 2, 2]
        assert s.values["w"] == 3


def test_lexicographic_order():
    eq = parse_equation("x+y=z")
    sols = enumerate_solutions(eq, 4)
    keys = [(s.values["x"], s.values["y"], s.values["z"]) for s in sols]
    assert keys == sorted(keys)
    assert keys[0] == (1, 1, 2)


def test_free_variable_unbounded():
    eq = parse_equation("x+y=~z")
    sols = enumerate_solutions(eq, 3)
    # every (x, y) pair works, z = x + y may exceed n
    assert len(sols) == 9
    assert all(s.free_values["z"] == s.values["x"] + s.values["y"] for s in sols)


def test_fh13_pairs_against_brute_force():
    # oracle first: direct scan of all (x, y) testing 9x^2+16y^2 for squareness
    expected = set()
    for x in range(1, 21):
        for y in range(1, 21):
            if x == y:
                continue
            s = 9 * x * x + 16 * y * y
            root = isqrt(s)
            if root * root == s:
                expected.add((x, y, root))
    assert (4, 3, None) not in {(x, y, None) for (x, y, _) in expected}

    eq = parse_equation("9x^2+16y^2=~n^2", distinct=True)
    got = {
        (s.values["x"], s.values["y"], s.free_values["n"])
        for s in enumerate_solutions(eq, 20)
    }
    assert got == expected


def test_solutions_satisfy_equation_exactly():
    rng = random.Random(7)
    for text in ("x+y=z", "x^2+y^2=z^2", "2a+3b=c", "x1^2+x2^2+x3^2=z^2"):
        eq = parse_equation(text)
        n = rng.randint(5, 25)
        for s in enumerate_solutions(eq, n):
            assert eq.holds({**s.values, **s.free_values})
            assert all(1 <= v <= n for v in s.values.values())


@pytest.mark.parametrize(
    "text",
    [
        "x+y=z",
        "x^2+y^2=z^2",
        "2x+y=3z",
        "x^2+y^2+z^2=w^2",
        "a+b+c=d",
        "9x^2+16y^2=~n^2",
        "x+y=~z",
    ],
)
def test_completeness_vs_naive_scan(text):
    eq = parse_equation(text)
    for n in (1, 4, 9, 14):
        assert as_pairs(enumerate_solutions(eq, n)) == naive_as_pairs(
            naive_solutions(eq, n)
        )


def test_completeness_random_equations():
    rng = random.Random(2025)
    for _ in range(60):
        nvars = rng.randint(2, 4)
        degree = rng.choice((1, 2))
        names = [f"v{i}" for i in range(nvars)]
        cut = rng.randint(1, nvars - 1)
        coefs = [rng.randint(1, 4) for _ in names]
        # one variable free (on its side only), or distinct values, or neither
        kind = rng.choice(("plain", "free", "distinct"))
        free = rng.randrange(nvars) if kind == "free" else None
        terms = [
            f"{c if c > 1 else ''}{'~' if i == free else ''}{nm}"
            f"{'^2' if degree == 2 else ''}"
            for i, (c, nm) in enumerate(zip(coefs, names))
        ]
        text = "+".join(terms[:cut]) + "=" + "+".join(terms[cut:])
        eq = parse_equation(text, distinct=kind == "distinct")
        n = rng.randint(2, 12)
        assert as_pairs(enumerate_solutions(eq, n)) == naive_as_pairs(
            naive_solutions(eq, n)
        ), text
        assert closing_prefix(eq, n) == build_hyperedges(eq, n).edges, text


def closing_prefix(eq, n):
    """The closing-at-m edge sets for m = 1..n, concatenated."""
    return tuple(
        e for m in range(1, n + 1) for e in build_hyperedges(eq, m, closing=True).edges
    )


def test_closing_edges_concatenate_to_one_shot():
    cases = [
        (parse_equation("x^2+y^2=z^2"), 40),
        (parse_equation("x^2+y^2+z^2=w^2"), 30),
        (parse_equation("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2"), 12),
        (parse_equation("x+y=z"), 25),
        (parse_equation("x+2y=3z"), 25),
        (parse_equation("3x^2+y^2=z^2+2w^2"), 20),
        (parse_equation("9x^2+16y^2=~n^2"), 30),
        (parse_equation("9x^2+16y^2=~n^2", distinct=True), 30),
    ]
    for eq, top in cases:
        closing = [build_hyperedges(eq, m, closing=True).edges for m in range(1, top + 1)]
        for m, edges in enumerate(closing, start=1):
            assert all(e[-1] == m for e in edges), (eq.render(), m)
        for n in range(1, top + 1):
            concatenated = tuple(e for edges in closing[:n] for e in edges)
            assert concatenated == build_hyperedges(eq, n).edges, (eq.render(), n)


@pytest.mark.parametrize("modulus", (5040, 12))
def test_sieve_engaged_at_small_n(monkeypatch, modulus):
    # the residue sieve's gate opens only near n=1500 for squares; force
    # it open, with the real modulus and with one small enough that
    # residue classes hold many values, and rerun both oracles
    monkeypatch.setattr("rado.solutions._residue_classes", lambda coef, degree: 0)
    monkeypatch.setattr("rado.solutions.SIEVE_MODULUS", modulus)
    test_completeness_random_equations()
    test_closing_edges_concatenate_to_one_shot()


def charged(monkeypatch):
    """The nodes charged to the enumeration clock, summed from here on."""
    total = [0]
    spend = solutions._Budget.spend

    def counted(self, amount):
        total[0] += amount
        spend(self, amount)

    monkeypatch.setattr(solutions._Budget, "spend", counted)
    return total


def test_sieve_charges_the_plain_scan_budget(monkeypatch):
    # n=2000 is past the sieve's gate; the clock is still charged every
    # value the plain scan would probe, so deadline checks stay the same
    total = charged(monkeypatch)
    assert len(build_hyperedges(parse_equation("x^2+y^2=z^2"), 2000)) == 1981
    assert total[0] == 1_571_916


def test_reach_table_off(monkeypatch):
    # the streamed side's reachability table prunes only subtrees that
    # yield nothing: with it never built the oracles give the same answers
    monkeypatch.setattr("rado.solutions.REACH_TABLE_CAP", -1)
    test_completeness_random_equations()
    test_closing_edges_concatenate_to_one_shot()


def test_reach_table_shifted_past_a_pinned_slot():
    # pass 0 of each closing scan streams the pinned lhs group against
    # the few values of the rhs, so the table must allow for the pinned
    # slot's power; a one-shot scan pins nothing
    for text, top in (("a+b+c=5d", 25), ("x^2+y^2+z^2+u^2=2w^2", 16)):
        eq = parse_equation(text)
        assert closing_prefix(eq, top) == build_hyperedges(eq, top).edges, text


@pytest.mark.parametrize("table_cap, charge", [(REACH_TABLE_CAP, 1429), (-1, 6477)])
def test_reach_table_spares_the_budget(monkeypatch, table_cap, charge):
    # a pruned subtree is never entered, so it is not charged: the k=9
    # closing scan at n=15 costs 1,429 nodes with the table, 6,477 without
    monkeypatch.setattr("rado.solutions.REACH_TABLE_CAP", table_cap)
    total = charged(monkeypatch)
    assert len(build_hyperedges(family_equation(9), 15, closing=True)) == 140
    assert total[0] == charge


@pytest.mark.parametrize("k, n", [(4, 24), (8, 30)])
def test_count_reps_fields_wider_than_a_byte(k, n):
    # each k-value assignment in [1, n] meets one ~f, so the count is
    # C(n + k - 1, k), and its count per total needs 16 and then 32 bits
    eq = parse_equation("+".join(f"x{i}" for i in range(k)) + "=~f")
    assert solutions._count_reps(eq, n) == comb(n + k - 1, k)


def test_count_reps_not_counted():
    # distinct: drops representatives the count cannot see
    assert solutions._count_reps(parse_equation("x+y=z", distinct=True), 10) is None
    # Pythagorean n=500: 500 values x 2 slots x 250,001 totals x 32 bits
    # is past COUNT_TABLE_CAP; n=100 is not
    pythagorean = parse_equation("x^2+y^2=z^2")
    assert solutions._count_reps(pythagorean, 500) is None
    assert solutions._count_reps(pythagorean, 100) == 52


def test_edges_pythagorean_13():
    eq = parse_equation("x^2+y^2=z^2")
    es = build_hyperedges(eq, 13)
    assert es.edges == ((3, 4, 5), (6, 8, 10), (5, 12, 13))
    assert es.n == 13


def test_edges_three_squares_3():
    eq = parse_equation("x^2+y^2+z^2=w^2")
    es = build_hyperedges(eq, 3)
    assert es.edges == ((1, 2, 3),)
    # 1+1=2 repeats a value, so x+y=z has a 2-edge
    assert build_hyperedges(parse_equation("x+y=z"), 3).edges == ((1, 2), (1, 2, 3))


def test_edge_monotonicity():
    rng = random.Random(11)
    for text in ("x+y=z", "x^2+y^2=z^2", "x1^2+x2^2+x3^2=z^2"):
        eq = parse_equation(text)
        n = rng.randint(3, 20)
        smaller = set(build_hyperedges(eq, n).edges)
        larger = set(build_hyperedges(eq, n + 1).edges)
        assert smaller <= larger


def test_no_duplicate_edges_and_sorted():
    eq = parse_equation("x^2+y^2=z^2")
    es = build_hyperedges(eq, 30)
    assert len(set(es.edges)) == len(es.edges)
    assert list(es.edges) == sorted(es.edges, key=lambda e: (e[-1], e))
    for e in es.edges:
        assert list(e) == sorted(set(e))
        assert e[0] >= 1 and e[-1] <= 30


def test_dp_feasible_examples():
    fam3 = family_equation(3)
    assert dp_feasible(fam3, {1, 2, 3}, 3)          # 1+4+4=9
    assert not dp_feasible(fam3, {1, 3}, 3)         # exhaustive check says no
    schur = parse_equation("x+y=z")
    assert dp_feasible(schur, {1, 2}, 2)            # 1+1=2
    assert not dp_feasible(schur, {2}, 2)
    assert dp_feasible(schur, {2, 4}, 4)            # 2+2=4


def test_dp_feasible_validation():
    schur = parse_equation("x+y=z")
    with pytest.raises(ValueError):
        dp_feasible(schur, set(), 3)
    with pytest.raises(ValueError):
        dp_feasible(schur, {1, 2}, 3)
    with pytest.raises(ValueError):
        dp_feasible(schur, {1, 5}, 4)
    with pytest.raises(ValueError, match="must not exceed pivot"):
        dp_feasible(schur, {1, 5}, 1)


def test_dp_feasible_matches_edges():
    # dp_feasible(class, pivot) iff some edge has max == pivot within class
    rng = random.Random(17)
    for text in ("x+y=z", "x^2+y^2=z^2", "x1^2+x2^2+x3^2=z^2", "2x+y=3z",
                 "3x^2+y^2=z^2+2w^2", "x+y+~a=z"):
        eq = parse_equation(text)
        n = 18
        edges = build_hyperedges(eq, n).edges
        for _ in range(80):
            pivot = rng.randint(1, n)
            cls = {pivot} | {
                v for v in range(1, pivot) if rng.random() < 0.5
            }
            expected = any(
                e[-1] == pivot and set(e) <= cls for e in edges
            )
            assert dp_feasible(eq, cls, pivot) == expected, (text, sorted(cls), pivot)


def test_dp_feasible_free_variable():
    # no value of ~f makes 5f as small as the largest total, 1
    assert not dp_feasible(parse_equation("x=5~f"), {1}, 1)
    eq = parse_equation("9x^2+16y^2=~n^2")
    # x=3, y=3: 81+144=225=15^2, so {3} with pivot 3 closes a solution
    assert dp_feasible(eq, {3}, 3)
    # distinct variant forbids x == y
    eqd = parse_equation("9x^2+16y^2=~n^2", distinct=True)
    assert not dp_feasible(eqd, {3}, 3)
    # derived by scan: smallest distinct pair is checked in the FH13 test
    expected_any = {
        (x, y)
        for x in range(1, 21)
        for y in range(1, 21)
        if x != y and isqrt(9 * x * x + 16 * y * y) ** 2 == 9 * x * x + 16 * y * y
    }
    if expected_any:
        x, y = min(expected_any, key=max)
        piv = max(x, y)
        assert dp_feasible(eqd, {x, y}, piv)


@pytest.mark.parametrize("text", [
    "x+y=z", "x+2y=3z", "a+b+c=d", "x^2+y^2+z^2=w^2", "x+y=z+w",
    "x+y+~a=z", "x+y=~a+z", "9x^2+16y^2=~n^2",
])
def test_dp_feasible_distinct_matches_naive(text):
    # on distinct: dp_feasible reads the enumerator's closing edges, so it
    # is checked against the plain scan, which shares nothing with it; in
    # x+y=z+w and x+y=~a+z a value can repeat across the two sides
    eq = parse_equation(text, distinct=True)
    n = 14
    value_sets = [
        {v for k, v in asg.items() if not eq.is_free(k)}
        for asg in naive_solutions(eq, n)
    ]
    rng = random.Random(text)
    for _ in range(60):
        pivot = rng.randint(1, n)
        density = rng.random()
        cls = {pivot} | {v for v in range(1, pivot) if rng.random() < density}
        expected = any(max(vs) == pivot and vs <= cls for vs in value_sets)
        assert dp_feasible(eq, cls, pivot) == expected, (text, sorted(cls), pivot)


def test_canonical_iteration_collapses_permutations():
    eq = parse_equation("x^2+y^2=z^2")
    reps = list(iter_canonical_solutions(eq, 5))
    assert len(reps) == 1
    assert reps[0].values == {"x": 3, "y": 4, "z": 5}


def test_solution_cap(monkeypatch):
    monkeypatch.setattr(solutions, "MAX_SOLUTIONS", 1000)
    with pytest.raises(SolutionCapError, match="exceeds 1000 solutions"):
        enumerate_solutions(family_equation(17), 23)


def test_materialize_cap_refuses_mid_scan(monkeypatch):
    # x+y+z=5w materializes the 5w side, whose largest total (50) is past
    # the solution cap (30): its estimate is no exact count, so only the
    # scan itself can find more than MATERIALIZE_CAP assignments
    eq = parse_equation("x+y+z=5w")
    monkeypatch.setattr(solutions, "MATERIALIZE_CAP", 5)
    with pytest.raises(SolutionCapError, match="MATERIALIZE_CAP=5 "):
        build_hyperedges(eq, 10)
    verdict = verify(Certificate("x+y+z=5w", 10, 2, (1,) * 10))
    assert verdict.status == MALFORMED
    assert "MATERIALIZE_CAP=5 " in verdict.reason
    monkeypatch.setattr(solutions, "MATERIALIZE_CAP", 6)
    assert len(build_hyperedges(eq, 10).edges) == 44


def test_overflow_guard():
    eq = parse_equation("1000000x^2+y^2=z^2")
    with pytest.raises(OverflowGuardError):
        check_overflow(eq, 3_000_000)
    with pytest.raises(OverflowGuardError):
        build_hyperedges(eq, 3_000_000)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        check_overflow(eq, 0)


def test_dp_mask_cap_refuses_before_growing(monkeypatch):
    # x+2y=z: a group of x and a group of y need 2 x 2 masks on one side
    def grow(*args):
        raise AssertionError("grew masks before refusing")

    eq = parse_equation("x+2y=z")
    monkeypatch.setattr(solutions, "DP_MASK_CAP", 4)
    assert dp_feasible(eq, {1, 3}, 3)                # 1+2*1=3, at the cap
    monkeypatch.setattr(solutions, "DP_MASK_CAP", 3)
    monkeypatch.setattr(solutions, "_grow", grow)
    monkeypatch.setattr(solver, "_grow", grow)
    with pytest.raises(OverflowGuardError, match="needs 4 dp masks"):
        find_coloring(eq, 5, 2, SearchParams(backend="dp"))
    with pytest.raises(OverflowGuardError, match="needs 4 dp masks"):
        dp_feasible(eq, {1, 3}, 3)


def test_json_export():
    eq = parse_equation("x^2+y^2=z^2")
    es = build_hyperedges(eq, 13)
    doc = edges_to_json(eq, es)
    assert doc == {
        "equation": "x^2+y^2=z^2",
        "n": 13,
        "edges": [[3, 4, 5], [6, 8, 10], [5, 12, 13]],
    }


def test_render_solution():
    eq = parse_equation("x+y=z")
    s = enumerate_solutions(eq, 2)[0]
    assert s.render(eq) == "1+1=2"
    eq2 = parse_equation("x^2+y^2=z^2")
    s2 = enumerate_solutions(eq2, 5)[0]
    assert s2.render(eq2) == "3^2+4^2=5^2"
    eq3 = parse_equation("x+2y=z")
    assert enumerate_solutions(eq3, 3)[0].render(eq3) == "1+2*1=3"
