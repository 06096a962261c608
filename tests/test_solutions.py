import hashlib
import itertools
import random
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

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
        e for m in range(1, n + 1) for e in build_hyperedges(eq, m, low=m - 1).edges
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
        (parse_equation("2x^2+2y^2+2z^2=w^2"), 30),
        (parse_equation("x^2+y^2+z^2=w^2", distinct=True), 30),
    ]
    for eq, top in cases:
        closing = [build_hyperedges(eq, m, low=m - 1).edges for m in range(1, top + 1)]
        for m, edges in enumerate(closing, start=1):
            assert all(e[-1] == m for e in edges), (eq.render(), m)
        for n in range(1, top + 1):
            concatenated = tuple(e for edges in closing[:n] for e in edges)
            assert concatenated == build_hyperedges(eq, n).edges, (eq.render(), n)


@pytest.mark.parametrize("moduli", (solutions.SIEVE_MODULI, (4, 3)), ids=("real", "small"))
def test_sieve_engaged_at_small_n(monkeypatch, moduli):
    # the residue sieve's gate opens only from n=192 for squares; force
    # it open, with the real moduli (bound below the largest of them) and
    # with ones small enough that residue classes hold many values, and
    # rerun both oracles
    monkeypatch.setattr("rado.solutions._residue_classes", lambda coef, degree: 0)
    monkeypatch.setattr("rado.solutions.SIEVE_MODULI", moduli)
    test_completeness_random_equations()
    test_closing_edges_concatenate_to_one_shot()


def test_residue_sieve_hits_are_the_plain_probe_loop():
    # hits(part, lo, hi) is the ascending v in [lo, hi) with part + pw[v]
    # in probe, over random coefficients > 1 of degree 1 and 2, probes,
    # parts and ranges, with bound below and above the largest modulus;
    # without a sieve (None) no modulus can filter
    rng = random.Random(25)
    largest = max(solutions.SIEVE_MODULI)
    checked = 0
    for _ in range(400):
        coef, degree = rng.randint(2, 30), rng.choice((1, 2))
        bound = rng.choice((rng.randint(1, largest - 1), rng.randint(largest, 300)))
        pw = [coef * v**degree for v in range(bound + 1)]
        parts = [rng.randint(0, 2 * pw[bound]) for _ in range(12)]
        # totals some values complete, and others anywhere
        probe = dict.fromkeys(
            [p + pw[rng.randint(1, bound)] for p in rng.sample(parts, 4)]
            + [rng.randint(0, 3 * pw[bound]) for _ in range(rng.randint(0, 40))]
        )
        hits = solutions._residue_sieve(pw, coef, degree, bound, probe)
        if hits is None:
            assert all(len({t % q for t in probe}) == q for q in solutions.SIEVE_MODULI)
            continue
        for part in parts:
            lo = rng.randint(1, bound + 1)
            hi = rng.randint(lo, bound + 1)
            assert hits(part, lo, hi) == [v for v in range(lo, hi) if part + pw[v] in probe]
            checked += 1
    assert checked > 4000


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


@pytest.mark.parametrize("text, distinct, top", [
    ("x+y=z", False, 60),
    ("x+y=z", True, 60),
    ("x^2+y^2=~a^2+2z^2", False, 40),         # a free variable
    ("x^2+y^2+2z^2=w^2", False, 60),          # two coefficient groups
    ("x^2+y^2+z^2=w^2", False, 84),           # Theorem 1
    ("x^2+y^2=z^2", False, 400),
    ("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2", False, 12),
    ("x^2+y^2+z^2=w^2", True, 60),            # strict slots under floored reach rows
    ("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", False, 16),  # a floored pivot on either side
])
def test_windows_concatenate_to_closing_scans(text, distinct, top):
    # a window (low, n] gives the edges whose largest value is in it, in
    # (max, tuple) order, and its representatives per largest value: those
    # of the closing scans of low+1..n, over the windows of one n, the
    # whole of [1, top], and seeded random splits of it.  A split's window
    # is at most two past its low wide, so the early ones are narrow: only
    # there does a side have few totals against a floored slot
    eq = parse_equation(text, distinct=distinct)
    closing = [build_hyperedges(eq, m, low=m - 1) for m in range(1, top + 1)]
    for m, es in enumerate(closing, start=1):
        assert all(e[-1] == m for e in es.edges), (text, m)
    rng = random.Random(f"{text}:{distinct}:{top}")
    splits = []
    for _ in range(4):
        split = [0]
        while split[-1] < top:
            split.append(min(top, split[-1] + rng.randint(1, split[-1] + 2)))
        splits.append(split)
    for cuts in (range(top + 1), (0, top), *splits):
        for low, n in zip(cuts, cuts[1:]):
            window = build_hyperedges(eq, n, low=low)
            assert window.edges == tuple(e for es in closing[low:n] for e in es.edges), (
                text, low, n)
            assert window.closing_reps == tuple(es.reps for es in closing[low:n]), (text, low, n)
            assert window.reps == sum(window.closing_reps)
    one_shot = build_hyperedges(eq, top)
    assert build_hyperedges(eq, top, low=0).edges == one_shot.edges
    assert sum(es.reps for es in closing) == one_shot.reps


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


@pytest.mark.parametrize("table_cap, charge", [(REACH_TABLE_CAP, 766), (-1, 4283)])
def test_reach_table_spares_the_budget(monkeypatch, table_cap, charge):
    # a pruned subtree is never entered, so it is not charged: the k=9
    # closing scan at n=15 costs 766 nodes with the table, 4,283 without
    monkeypatch.setattr("rado.solutions.REACH_TABLE_CAP", table_cap)
    total = charged(monkeypatch)
    assert len(build_hyperedges(family_equation(9), 15, low=14)) == 140
    assert total[0] == charge


def test_thm1_windows_honor_their_floor(monkeypatch):
    # compute_rado's blocks for Theorem 1 to 84: no window streams values
    # its floor rules out (reach rows from the floored slot, the innermost
    # slot from the least probe total), so together they charge less than
    # one scan of [1, 84]
    eq = parse_equation("x^2+y^2+z^2=w^2")
    total = charged(monkeypatch)
    blocks = []
    for low, n in ((0, 2), (2, 6), (6, 14), (14, 30), (30, 62), (62, 84)):
        total[0] = 0
        build_hyperedges(eq, n, low=low)
        blocks.append(total[0])
    assert blocks == [3, 16, 62, 461, 3445, 2835]
    total[0] = 0
    assert len(build_hyperedges(eq, 84)) == 405
    assert sum(blocks) < total[0] == 16085


PINNED_STREAMS = [
    pytest.param("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", 22, False, 23138, 13375,
                 "7578d26ef190a4fbe6d475795d7d42fe74bcf1c327b608ed93cc7bc17d5c44d9",
                 id="plain-probe"),
    pytest.param("x^2+y^2=z^2", 2000, False, 1981, 1571916,
                 "52dd3b60519c38958f8f6bca7e749b9483a78b6cda6b5e4628ad3c762b494a19",
                 id="sieve"),
    pytest.param("x^2+y^2=z^2", 300, True, 2, 216,
                 "b95b0c7a3e1ce9cfa9abc9f784446bcfaf857f3990976b530703270c8c5471e3",
                 id="closing-one-slot"),
    pytest.param("x^2+y^2+z^2=w^2", 105, True, 28, 75,
                 "89dfdfd5c557156f75a8ead5e1e1236f97807d25cb386f0545d6cc7c20441ebc",
                 id="closing-two-slots"),
    pytest.param(9, 15, True, 155, 766,
                 "b94c3098a539469b6c13f8f533b708e4dc8e712eb498150a7585c306de7e0573",
                 id="closing-reach-rows"),
    pytest.param("2x^2+2y^2=z^2+w^2+~a^2", 30, False, 3453, 25564,
                 "5a2ea3cf199029924278a1b5364fb1bc87f37bb63f686ba7994efb8826d94d3e",
                 id="free"),
    pytest.param("x^2+y^2+2z^2=w^2", 60, True, 16, 1461,
                 "fbfc68b5a53e00fa53dce39f9de84d8ab99959c6bac7b05263179a2739d599d6",
                 id="closing-two-groups"),
    pytest.param("distinct: x+y=z", 40, False, 380, 402,
                 "815eb33c6de85e6c52e20d22dfce83555d7a8713dafd639f423b176cdc44b555",
                 id="distinct"),
    pytest.param("x0+2x1+x2+x3=2y0+y1+y2+y3+~f", 6, False, 53218, 5348,
                 "2057ee7fbeb3feda7c88d840692b1a81ed26f332f8e316285aab635d2e4249fc",
                 id="linear-free"),
]


@pytest.mark.parametrize("text, n, closing, reps, charge, digest", PINNED_STREAMS)
def test_iter_reps_stream_is_pinned(monkeypatch, text, n, closing, reps, charge, digest):
    # edge lists and listings are sorted, so they cannot see the order of
    # the representative stream, which verify's first violation reads:
    # pin the stream itself, its length and its charge to the clock
    eq = family_equation(text) if isinstance(text, int) else parse_equation(text)
    total = charged(monkeypatch)
    stream = list(solutions._iter_reps(eq, n, low=n - 1 if closing else None))
    assert (len(stream), total[0]) == (reps, charge)
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == digest


def test_empty_table_streams_nothing(monkeypatch):
    # a pass whose materialized table is empty is skipped before its
    # stream on the uncolored path too (the colored one has
    # test_verify_colored_pass_keeping_no_entry_streams_nothing):
    # _iter_side takes no empty probe, against which it would scan, and
    # sieve, the streamed side to find nothing.  Theorem 1's window (0, 2]
    # has such a pass
    probes = []
    iter_side = solutions._iter_side

    def spy(groups, scan, tail_min, cap, probe, budget, strict=False):
        if probe is not None:
            probes.append(len(probe))
        return iter_side(groups, scan, tail_min, cap, probe, budget, strict)

    monkeypatch.setattr(solutions, "_iter_side", spy)
    build_hyperedges(parse_equation("x^2+y^2+z^2=w^2"), 2, low=0)
    for param in PINNED_STREAMS:
        text, n, closing = param.values[:3]
        eq = family_equation(text) if isinstance(text, int) else parse_equation(text)
        list(solutions._iter_reps(eq, n, low=n - 1 if closing else None))
    assert probes and 0 not in probes


def test_grown_power_tables_change_no_scan(monkeypatch):
    # an equation's power tables are kept and grown across n (_plan): a
    # table longer than a scan's bound must change no stream, order or
    # charge against a table built cold for that scan alone
    cases = [(parse_equation(text), n, closing) for text, n, closing in [
        ("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", 22, False),
        ("x^2+y^2=z^2", 2000, False),
        ("x^2+y^2=z^2", 300, True),
        ("x^2+y^2+z^2=w^2", 105, True),
        ("2x^2+2y^2=z^2+w^2+~a^2", 30, False),
        ("x^2+y^2+2z^2=w^2", 60, True),
        ("distinct: x+y=z", 40, False),
        ("x0+2x1+x2+x3=2y0+y1+y2+y3+~f", 6, False),
        ("9x^2+16y^2=~n^2", 40, False),
    ]] + [(family_equation(9), 15, True)]
    thm1 = parse_equation("x^2+y^2+z^2=w^2")
    cases += [(thm1, n, True) for n in range(1, 85)]
    total = charged(monkeypatch)

    def scan(eq, n, closing):
        total[0] = 0
        stream = list(solutions._iter_reps(eq, n, low=n - 1 if closing else None))
        return stream, total[0]

    # the dp masks, weight lists and free seeds read the same tables
    dp_cases = [(cases[i][0], cases[i][1]) for i in (4, 7, 8)] + [(thm1, 84)]
    cold, cold_dp = [], []
    for case in cases:
        solutions._plan.cache_clear()
        cold.append(scan(*case))
    for eq, n in dp_cases:
        solutions._plan.cache_clear()
        cold_dp.append(solutions._dp_sides(eq, n))
    pythagorean = parse_equation("x^2+y^2=z^2")
    early = solutions._plan(pythagorean).powers(1, 10)
    kept = list(early)
    # one-shot Pythagorean [1, 4000]; the free ~n of 9x^2+16y^2=~n^2 runs
    # to 5n; every other equation's tables are grown to 4000 directly
    assert len(list(solutions._iter_reps(pythagorean, 4000))) == 4416
    assert len(list(solutions._iter_reps(parse_equation("9x^2+16y^2=~n^2"), 500))) == 1643
    for eq, _, _ in cases:
        plan = solutions._plan(eq)
        for g in plan.lhs + plan.rhs:
            plan.powers(g.coefficient, 4000)
    assert early == kept and len(early) == 11
    assert solutions._plan(pythagorean).powers(1, 0)[:11] == kept
    assert len(solutions._plan(parse_equation("9x^2+16y^2=~n^2")).powers(1, 0)) > 2500
    for case, (stream, charge) in zip(cases, cold):
        assert scan(*case) == (stream, charge), case[1:]
    assert [solutions._dp_sides(eq, n) for eq, n in dp_cases] == cold_dp


@pytest.mark.parametrize("text, n", [
    # the one-shot cases of test_iter_reps_stream_is_pinned
    ("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", 22),
    ("x^2+y^2=z^2", 2000),
    ("2x^2+2y^2=z^2+w^2+~a^2", 30),
    ("distinct: x+y=z", 40),
    ("x0+2x1+x2+x3=2y0+y1+y2+y3+~f", 6),
    # the lhs is materialized; under (1, 2, 1) it keeps the totals 2, 8,
    # 10 and 18 of six, and the streamed rhs still yields in scan order,
    # (1, 3) before (2, 2)
    ("x^2+y^2=z^2+w^2", 3),
    ("distinct: x^2+y^2=z^2+w^2", 30),
    # a side with no constrained value, materialized, then streamed
    ("x^2+y^2=~a^2", 30),
    ("x^2=~a^2+~b^2", 30),
])
def test_colored_stream_is_the_monochromatic_stream(text, n):
    # verify reports the first representative of the colored stream: it
    # must be the unfiltered stream's monochromatic ones, in its order
    eq = parse_equation(text)
    values = solutions._plan(eq).values
    full = list(solutions._iter_reps(eq, n))
    rng = random.Random(text)
    colorings = [(0,) + tuple(rng.randint(1, r) for _ in range(n)) for r in (2, 3) for _ in range(10)]
    for chi in colorings:
        mono = [rep for rep in full if len({chi[v] for v in values(rep)}) == 1]
        assert list(solutions._iter_reps(eq, n, color=chi)) == mono


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


@pytest.mark.parametrize("text, n", [
    ("9x^2+16y^2=~n^2", 40),                    # a free variable
    ("x^2+y^2=~a^2+2z^2", 30),                  # two coefficient groups on a side
    ("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2", 14),  # 4 = 3 squares
    ("x+y=z", 25),
])
@pytest.mark.parametrize("closing", [False, True])
def test_distinct_filters_the_plain_representatives(text, n, closing):
    # distinct: keeps the plain equation's representatives whose
    # constrained values are pairwise distinct, in the same order
    plain, distinct = parse_equation(text), parse_equation(text, distinct=True)
    lhs, rhs = solutions._plan(plain)

    def pairwise_distinct(rep):
        vals = [v for g, gv in zip(lhs + rhs, rep[0] + rep[1]) if not g.is_free for v in gv]
        return len(set(vals)) == len(vals) == len(plain.constrained_variables)

    for m in range(1, n + 1):
        low = m - 1 if closing else None
        kept = [rep for rep in solutions._iter_reps(plain, m, low=low) if pairwise_distinct(rep)]
        assert list(solutions._iter_reps(distinct, m, low=low)) == kept, (text, m)


@pytest.mark.parametrize("text, n, closing, plain_charge, distinct_charge", [
    ("x0+x1+x2+x3+x4=y0+y1+y2+y3+y4", 12, False, 8008, 2340),
    ("x0+x1+x2+x3+x4=y0+y1+y2+y3+y4", 12, True, 13969, 4127),
    ("x0+2x1+x2+x3=2y0+y1+y2+y3+~f", 8, False, 20070, 9398),
    ("x^2+y^2+z^2=w^2", 105, True, 75, 74),       # a two-slot innermost scan, y < z
])
def test_distinct_scans_constrained_groups_strictly_increasing(
        monkeypatch, text, n, closing, plain_charge, distinct_charge):
    # a distinct: scan never enters a value repeated within a group: it
    # yields the filtered plain representatives, in order, and charges
    # fewer nodes
    plain, distinct = parse_equation(text), parse_equation(text, distinct=True)
    values = solutions._constrained(*solutions._plan(plain))
    width = len(plain.constrained_variables)
    total = charged(monkeypatch)
    kept = [rep for rep in solutions._iter_reps(plain, n, low=n - 1 if closing else None)
            if len(set(values(rep))) == width]
    assert total[0] == plain_charge
    total[0] = 0
    assert list(solutions._iter_reps(distinct, n, low=n - 1 if closing else None)) == kept
    assert total[0] == distinct_charge


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=6).map(tuple))
def test_distinct_perms_are_the_sorted_distinct_permutations(vals):
    assert list(solutions._distinct_perms(vals)) == sorted(set(itertools.permutations(vals)))


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


def test_verify_counts_every_materialized_assignment(monkeypatch):
    # 2x+2y is materialized: 46 of its assignments on [1, 10] are within
    # the cap 30, 24 of them one color under 1 2 1 2 ...; verify keeps
    # only those 24 but counts all 46 toward the cap, as the scan does
    monkeypatch.setattr(solutions, "MATERIALIZE_CAP", 30)
    with pytest.raises(SolutionCapError, match="MATERIALIZE_CAP=30 "):
        build_hyperedges(parse_equation("2x+2y=z+w+u"), 10)
    verdict = verify(Certificate("2x+2y=z+w+u", 10, 2, (1, 2) * 5))
    assert verdict.status == MALFORMED
    assert "MATERIALIZE_CAP=30 " in verdict.reason


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
