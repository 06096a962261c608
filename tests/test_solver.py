import logging
import math
import random
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rado import solutions, solver
from rado.certificate import VALID, Certificate, verify
from rado.equations import family_equation, parse_equation
from rado.solutions import (
    CLOCK_CHECK_NODES,
    EnumerationTimeout,
    OverflowGuardError,
    build_hyperedges,
)
from rado.solver import (
    BUDGET_EXHAUSTED,
    COLORABLE,
    EXACT,
    LOWER_BOUND,
    UNCOLORABLE,
    Coloring,
    SearchParams,
    SolverError,
    compute_rado,
    find_coloring,
    oracle_colorable,
)


def assert_valid(eq, coloring: Coloring):
    """Independent witness check against freshly built edges."""
    edges = build_hyperedges(eq, coloring.n).edges
    for e in edges:
        assert len({coloring.color_of(v) for v in e}) > 1, (e, coloring.colors)


SCHUR = parse_equation("x+y=z")


def test_schur_4_colorable():
    out = find_coloring(SCHUR, 4, 2)
    assert out.verdict == COLORABLE
    assert_valid(SCHUR, out.coloring)


def test_schur_5_uncolorable():
    assert find_coloring(SCHUR, 5, 2).verdict == UNCOLORABLE
    # monotone: stays uncolorable above
    assert find_coloring(SCHUR, 6, 2).verdict == UNCOLORABLE


def test_pythagorean_12_colorable():
    eq = parse_equation("x^2+y^2=z^2")
    out = find_coloring(eq, 12, 2)
    assert out.verdict == COLORABLE
    assert_valid(eq, out.coloring)


def test_schur_numbers_via_rado():
    out = compute_rado(SCHUR, 2)
    assert (out.kind, out.value) == (EXACT, 5)
    assert out.witness.n == 4
    assert_valid(SCHUR, out.witness)

    out1 = compute_rado(SCHUR, 1)
    assert (out1.kind, out1.value) == (EXACT, 2)
    assert out1.witness.n == 1


def test_rado_lower_bound_cap():
    eq = parse_equation("x^2+y^2=z^2")
    out = compute_rado(eq, 2, SearchParams(n_cap=40))
    assert (out.kind, out.value) == (LOWER_BOUND, 40)
    assert out.witness.n == 40
    assert_valid(eq, out.witness)


def test_budget_exhausted_verdict():
    out = find_coloring(family_equation(3), 105, 2, SearchParams(time_budget=0.02))
    assert out.verdict == BUDGET_EXHAUSTED
    assert out.coloring is None


def test_propagation_colors_forced_vertices():
    # coloring a vertex the moment it has one viable color: without that
    # the scan reaches the conflicts late, and this search took 130,237 nodes
    eq = family_equation(3)
    out = find_coloring(eq, 73, 2, SearchParams(backend="edge"))
    assert out.verdict == COLORABLE
    assert out.stats.nodes <= 2000
    assert_valid(eq, out.coloring)


def test_edge_refutes_theorem_1_fail_first():
    # deciding at the vertex on the most near-threat edges: at the lowest
    # uncolored vertex this refutation took 12,531 nodes
    out = find_coloring(family_equation(3), 105, 2)
    assert (out.backend, out.verdict) == ("edge", UNCOLORABLE)
    assert out.stats.nodes <= 1000


def test_edge_colors_pythagorean_2000_fail_first():
    # at the lowest uncolored vertex this search ran out of a 10 s budget
    # after about 90,000 nodes
    text = "x^2+y^2=z^2"
    out = find_coloring(parse_equation(text), 2000, 2, SearchParams(time_budget=10))
    assert (out.backend, out.verdict) == ("edge", COLORABLE)
    assert out.stats.nodes <= 2000
    assert verify(Certificate.from_coloring(text, out.coloring)).status == VALID


@st.composite
def edge_walks(draw):
    """Up to 8 vertices, up to 8 edges of 1-4 of them, 1-3 colors, and a
    walk: None undoes the last placement, (i, j) places the i-th uncolored
    vertex on an edge with its j-th candidate (both modulo their count)."""
    n = draw(st.integers(1, 8))
    edge = st.sets(st.integers(1, n), min_size=1, max_size=4).map(lambda e: tuple(sorted(e)))
    edges = draw(st.lists(edge, min_size=1, max_size=8, unique=True))
    r = draw(st.integers(1, 3))
    steps = draw(st.lists(st.none() | st.tuples(st.integers(0, 7), st.integers(0, 2)),
                          max_size=30))
    return n, edges, r, steps


def fresh_pick(n, edges, color):
    """The uncolored vertex on the most near-threat edges, counted from
    scratch, the lowest on ties; 0 once every vertex on an edge is colored."""
    best, best_v = -1, 0
    for v in range(1, n + 1):
        if color[v] or not any(v in e for e in edges):
            continue
        near = 0
        for e in edges:
            uncolored = [w for w in e if not color[w]]
            if v in uncolored and len(uncolored) == 2 and len({color[w] for w in e}) <= 2:
                near += 1                 # colors: 0 and at most one more
        if near > best:
            best, best_v = near, v
    return best_v


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(walk=edge_walks())
def test_edge_pick_matches_a_fresh_count(walk):
    # the near-threat counts move only in assign and unassign: an unassign
    # that does not mirror assign exactly leaves a count off, and a later
    # pick wrong
    n, edges, r, steps = walk
    color = [0] * (n + 1)
    domain = [(1 << r) - 1] * (n + 1)
    incident = solver._index([], edges, 0, n)
    pick, (candidates, assign, unassign) = solver._edge_checks(
        n, r, edges, incident, color, domain)
    tokens = []
    assert pick() == fresh_pick(n, edges, color)
    for step in steps:
        free = [v for v in range(1, n + 1) if not color[v] and any(v in e for e in edges)]
        if step is None:
            if tokens:
                solver._undo(tokens.pop(), color, domain, unassign)
        elif free:
            v = free[step[0] % len(free)]
            cand = candidates(v, r)
            ok, token = solver._place(v, cand[step[1] % len(cand)], color, domain,
                                      assign, unassign)
            if ok:
                tokens.append(token)
        assert pick() == fresh_pick(n, edges, color)


DP_WALK_EQUATIONS = ("x+y=z", "x+2y=z", "x^2+y^2=z^2", "x+y+z=w",
                     "2x^2+2y^2=z^2+w^2+~a^2", "x0=y0+y1")


@st.composite
def dp_walks(draw):
    """An equation, up to 14 vertices, 1-3 colors, and a walk: None undoes
    the last placement, j places the lowest uncolored vertex with its j-th
    candidate (modulo their count)."""
    text = draw(st.sampled_from(DP_WALK_EQUATIONS))
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, 3))
    steps = draw(st.lists(st.none() | st.integers(0, 2), max_size=30))
    return text, n, r, steps


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(walk=dp_walks())
def test_dp_undo_is_exact(walk):
    # an unassign that leaves a class's masks pushed, or a log restored in
    # forward order, leaves a later placement or a domain different
    text, n, r, steps = walk
    color = [0] * (n + 1)
    domain = [(1 << r) - 1] * (n + 1)
    candidates, assign, unassign = solver._dp_checks(
        parse_equation(text), n, r, color, domain)
    trail = []                            # (token, color and domain before it)
    for step in steps:
        if step is None:
            if trail:
                token, before = trail.pop()
                solver._undo(token, color, domain, unassign)
                assert (color, domain) == before
            continue
        if color.count(0) == 1:           # every vertex colored
            continue
        v = color.index(0, 1)
        cand = candidates(v, r)
        c = cand[step % len(cand)]
        before = (color[:], domain[:])
        ok, token = solver._place(v, c, color, domain, assign, unassign)
        if ok:
            trail.append((token, before))
            solver._undo(token, color, domain, unassign)
        assert (color, domain) == before
        if ok:
            assert solver._place(v, c, color, domain, assign, unassign) == (ok, token)


def test_dp_colors_forced_vertices():
    # dp colors a vertex the moment striking leaves it one color, as edge
    # does: left for the ascending scan, this refutation took 29,527 nodes
    eq = parse_equation("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2")
    out = find_coloring(eq, 31, 3, SearchParams(backend="dp"))
    assert out.verdict == UNCOLORABLE
    assert out.stats.nodes <= 5000
    out = find_coloring(eq, 30, 3, SearchParams(backend="dp"))
    assert out.verdict == COLORABLE
    assert_valid(eq, out.coloring)


def test_dp_forward_checking_prunes():
    # striking a color from each later vertex that would close a solution
    # in that class: without any strike this refutation took 179,832 nodes,
    # striking only where the vertex fills one slot 3,614, and striking also
    # where it fills two slots of the rhs 1,825
    eq = parse_equation("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2")
    out = find_coloring(eq, 31, 3, SearchParams(backend="dp"))
    assert out.verdict == UNCOLORABLE
    assert out.stats.nodes <= 2_500
    assert out.stats.propagations > 0


def test_dp_strikes_a_value_that_fills_two_rhs_slots():
    # class 1 = {1, 4}: 2 * 5^2 = 50 = 1 + 1 + 16 + 16 + 16, so 5 in both
    # slots of y1^2+y2^2 closes a solution, while 5 in one slot of either
    # side closes none (25 + y^2 is no sum of five of 1 and 16, 25 plus
    # four of them no sum of two)
    n, r = 8, 3
    color = [0] * (n + 1)
    domain = [(1 << r) - 1] * (n + 1)
    candidates, assign, unassign = solver._dp_checks(
        parse_equation("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2"), n, r, color, domain)
    assert solver._place(1, 1, color, domain, assign, unassign)[0]
    assert domain[5] & 1
    assert solver._place(4, 1, color, domain, assign, unassign)[0]
    assert not domain[5] & 1
    assert candidates(5, r) == [2, 3]


@pytest.mark.parametrize("backend, text, distinct, n, r, trace, witness", [
    # edge: fail-first decisions, propagation to a fixpoint
    ("edge", "x^2+y^2+z^2=w^2", False, 73, 2,
     (COLORABLE, 47, 173, 38), None),
    # dp, one coefficient group per side: forward checking, two rhs slots
    # of the first group as well when it has them
    ("dp", "x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2", False, 31, 3,
     (UNCOLORABLE, 1825, 16205, 14), None),
    ("dp", "x0=y0+y1", False, 13, 3,
     (COLORABLE, 20, 81, 6), (1, 2, 2, 1, 3, 3, 1, 3, 3, 1, 2, 2, 1)),
    ("dp", "x0=y0+y1", False, 14, 3, (UNCOLORABLE, 53, 227, 8), None),
    # dp, two groups on one side: forward checking from the first group
    ("dp", "x^2+y^2+2z^2=w^2", False, 30, 2, (COLORABLE, 4, 27, 3), None),
    # distinct: runs on edge only
    ("edge", "x+y=z", True, 8, 2,
     (COLORABLE, 4, 10, 3), (1, 1, 2, 1, 2, 2, 2, 1)),
    ("edge", "x+y=z", True, 9, 2, (UNCOLORABLE, 5, 20, 2), None),
    # dp, a one-slot rhs group: forward checking from one slot only
    ("dp", "x1^2+x2^2+x3^2+x4^2+x5^2=z^2", False, 23, 2,
     (UNCOLORABLE, 87, 389, 8), None),
])
def test_search_traces_are_pinned(backend, text, distinct, n, r, trace, witness):
    # exact counts, one case per search path: a change to the search core
    # that alters the order of the search shows here first
    eq = parse_equation(text, distinct=distinct)
    out = find_coloring(eq, n, r, SearchParams(backend=backend))
    assert out.backend == backend
    assert (out.verdict, out.stats.nodes, out.stats.propagations,
            out.stats.max_depth) == trace
    if witness is not None:
        assert out.coloring.colors == witness
    if out.coloring is not None:
        assert_valid(eq, out.coloring)


def test_distinct_search_pinned():
    # on dp, which checked each placement against the closing edges, this
    # search took 3,076 nodes; an exhaustive per-class scan before that ran
    # out of a 20 s budget after about 150
    eq = parse_equation("x^2+y^2+z^2=w^2", distinct=True)
    out = find_coloring(eq, 60, 2, SearchParams(time_budget=10))
    assert (out.backend, out.verdict, out.stats.nodes, out.stats.propagations,
            out.stats.max_depth) == ("edge", COLORABLE, 43, 42, 38)
    assert_valid(eq, out.coloring)


class FakeClock:
    """Stands in for the time module: monotonic() returns now, which the
    test moves or which advances by step before every read, and counts
    its reads."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        self.now += self.step
        return self.now


def test_rado_budget_gives_lower_bound(monkeypatch):
    # the whole run reads the clock about 1,100 times; at 1e-4 s a read
    # the 0.05 s budget runs out after 500, whatever the host's speed
    clock = FakeClock(step=1e-4)
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    out = compute_rado(family_equation(3), 2, SearchParams(time_budget=0.05))
    assert out.kind == LOWER_BOUND
    assert out.value < 105
    assert out.witness.n == out.value
    assert_valid(family_equation(3), out.witness)


def test_enumeration_budget_reads_clock_once_per_chunk(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(solutions, "time", clock)
    budget = solutions._Budget(deadline=10.0)
    for _ in range(3 * CLOCK_CHECK_NODES):
        budget.spend(1)
    assert clock.reads == 3
    clock.now = 11.0
    with pytest.raises(EnumerationTimeout):
        for _ in range(CLOCK_CHECK_NODES + 1):
            budget.spend(1)

    # without a deadline the clock is never read
    reads = clock.reads
    budget = solutions._Budget()
    for _ in range(3 * CLOCK_CHECK_NODES):
        budget.spend(1)
    assert clock.reads == reads


def clocked_stats(clock, expire_at):
    """A SearchStats whose node counter moves clock past any deadline once
    the search has tried expire_at nodes."""

    class ClockedStats(solver.SearchStats):
        @property
        def nodes(self):
            return self._nodes

        @nodes.setter
        def nodes(self, value):
            self._nodes = value
            if value >= expire_at:
                clock.now = 1e9

    return ClockedStats


@pytest.mark.parametrize("backend, eq, n, interval", [
    ("edge", family_equation(3), 105, 1),
    ("dp", family_equation(3), 105, 1),                       # one group a side
    ("dp", parse_equation("x^2+2y^2+2z^2=w^2"), 60, 1),       # two groups a side
])
def test_search_loops_stop_within_check_interval(monkeypatch, backend, eq, n, interval):
    expire_at = 5 * interval + 37       # past several checks, not on one
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    monkeypatch.setattr(solver, "SearchStats", clocked_stats(clock, expire_at))
    out = find_coloring(eq, n, 2, SearchParams(backend=backend, time_budget=100))
    assert out.backend == backend
    assert out.verdict == BUDGET_EXHAUSTED
    assert expire_at <= out.stats.nodes < expire_at + interval


def test_rado_deadline_covers_enumeration(monkeypatch):
    # Schur enumerates blocks of bounds: a deadline that passes inside the
    # enumeration covering n=10 stops the run at the last bound before
    # that enumeration, and no bound from its first n on is reported
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    enumerate_window = solver.build_hyperedges
    timed_out = []

    def late(eq, n, *, low, **kwargs):
        if low < 10 <= n:
            clock.now = 1000.0     # the deadline passes inside this enumeration
        try:
            return enumerate_window(eq, n, low=low, **kwargs)
        except EnumerationTimeout:
            timed_out.append((low, n))
            raise

    monkeypatch.setattr(solver, "build_hyperedges", late)
    out = compute_rado(SCHUR, 3, SearchParams(time_budget=100))
    ((low, hi),) = timed_out
    assert low < 10 < hi            # a block, not the single n=10
    assert (out.kind, out.value) == (LOWER_BOUND, low)
    assert out.witness.n == low
    assert max(b.n for b in out.bounds) == low
    assert_valid(SCHUR, out.witness)


def test_rado_deadline_checked_before_the_cold_search(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    extend, failed = solver._try_extend, []

    def late(*args):
        c = extend(*args)
        if c is None:
            failed.append(args[1])
            clock.now = 1000.0     # the deadline passes as the warm step fails
        return c

    def search(*args):
        raise AssertionError("cold search started past the deadline")

    def walk(*args):
        raise AssertionError("walk started past the deadline")

    monkeypatch.setattr(solver, "_try_extend", late)
    monkeypatch.setattr(solver, "_search", search)
    monkeypatch.setattr(solver, "_walk", walk)
    out = compute_rado(SCHUR, 2, SearchParams(time_budget=100))
    [n] = failed                   # one warm step failed, and the run stopped there
    assert (out.kind, out.value, out.witness.n) == (LOWER_BOUND, n - 1, n - 1)
    assert max(b.n for b in out.bounds) == n - 1
    assert_valid(SCHUR, out.witness)

    # and where the walk gives up as the deadline passes: no cold search
    walked = []

    def late_walk(colors, n, *args):
        walked.append(n)
        clock.now = 1000.0
        return None, 7

    clock.now = 0.0
    monkeypatch.setattr(solver, "_try_extend", extend)
    monkeypatch.setattr(solver, "_walk", late_walk)
    out = compute_rado(SCHUR, 2, SearchParams(time_budget=100))
    [n] = walked
    assert (out.kind, out.value, out.witness.n) == (LOWER_BOUND, n - 1, n - 1)
    assert max(b.n for b in out.bounds) == n - 1
    assert_valid(SCHUR, out.witness)


@pytest.mark.parametrize("backend", ["edge", "auto"])
def test_find_coloring_deadline_covers_enumeration(monkeypatch, backend):
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    enumerate_all = solver.build_hyperedges
    timed_out = []

    def late(eq, n, **kwargs):
        clock.now = 1000.0         # the deadline passes inside this enumeration
        try:
            return enumerate_all(eq, n, **kwargs)
        except EnumerationTimeout:
            timed_out.append(n)
            raise

    monkeypatch.setattr(solver, "build_hyperedges", late)
    out = find_coloring(
        family_equation(3), 105, 2, SearchParams(backend=backend, time_budget=100)
    )
    assert timed_out == [105]
    assert out.verdict == BUDGET_EXHAUSTED
    assert out.coloring is None
    assert out.stats.nodes == 0


def test_determinism():
    eq = family_equation(3)
    a = find_coloring(eq, 40, 2)
    b = find_coloring(eq, 40, 2)
    assert a.verdict == b.verdict == COLORABLE
    assert a.coloring == b.coloring
    assert (a.stats.nodes, a.stats.propagations) == (b.stats.nodes, b.stats.propagations)

    ra = compute_rado(SCHUR, 2)
    rb = compute_rado(SCHUR, 2)
    assert ra.witness == rb.witness
    assert [(x.n, x.verdict, x.nodes) for x in ra.bounds] == [
        (x.n, x.verdict, x.nodes) for x in rb.bounds
    ]


def test_backend_agreement_family():
    for k in (2, 3, 4):
        eq = family_equation(k)
        for n in range(1, 21):
            for r in (2, 3):
                e = find_coloring(eq, n, r, SearchParams(backend="edge"))
                d = find_coloring(eq, n, r, SearchParams(backend="dp"))
                assert e.verdict == d.verdict, (k, n, r)


def test_backend_agreement_generic_dp():
    # two coefficient groups on one side: the dp masks must agree
    eq = parse_equation("2x+y=3z")
    for n in range(1, 16):
        e = find_coloring(eq, n, 2, SearchParams(backend="edge"))
        d = find_coloring(eq, n, 2, SearchParams(backend="dp"))
        assert e.verdict == d.verdict, n


@st.composite
def small_equations(draw):
    """3-4 variables, degree 1 or 2, coefficients 1-3, split into two sides."""
    nvars = draw(st.integers(3, 4))
    exp = "^2" if draw(st.sampled_from((1, 2))) == 2 else ""
    cut = draw(st.integers(1, nvars - 1))
    coefs = draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
    terms = [f"{c if c > 1 else ''}v{i}{exp}" for i, c in enumerate(coefs)]
    return "+".join(terms[:cut]) + "=" + "+".join(terms[cut:])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=small_equations(), n=st.sampled_from(range(8, 31)), r=st.sampled_from((2, 3)))
def test_edge_and_dp_agree(text, n, r):
    # dp shares no search code with the edge backend, so it checks the
    # edge verdict at sizes the exhaustive oracle cannot reach
    eq = parse_equation(text)
    edge = find_coloring(eq, n, r, SearchParams(backend="edge"))
    dp = find_coloring(eq, n, r, SearchParams(backend="dp"))
    assert edge.verdict == dp.verdict != BUDGET_EXHAUSTED
    if edge.coloring is not None:
        assert verify(Certificate.from_coloring(text, edge.coloring)).status == VALID


@st.composite
def grouped_equations(draw):
    """1-4 terms per side, so 1-3 coefficient groups (coefficients 1-3),
    degree 1 or 2, and maybe a free variable on one side: the mask layouts
    of the dp backend and of the representative count."""
    exp = "^2" if draw(st.sampled_from((1, 2))) == 2 else ""
    sides = []
    for name in "xy":
        coefs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        sides.append([f"{c if c > 1 else ''}{name}{i}{exp}" for i, c in enumerate(coefs)])
    free = draw(st.sampled_from((None, 0, 1)))
    if free is not None:
        c = draw(st.integers(1, 3))
        sides[free].append(f"{c if c > 1 else ''}~f{exp}")
    return "=".join("+".join(side) for side in sides)


# past this many representatives the scan stops and only the order is checked
COUNT_REFERENCE_CAP = 20_000


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(text=grouped_equations(), n=st.integers(1, 16))
def test_count_reps_matches_the_scan(text, n):
    # fields too narrow for a side's counts carry into the next total, and
    # a free group counted over the wrong values misses solutions
    eq = parse_equation(text)
    count = solutions._count_reps(eq, n)
    reps = solutions._iter_reps(eq, n)
    scanned = sum(1 for _ in islice(reps, COUNT_REFERENCE_CAP + 1))
    if scanned > COUNT_REFERENCE_CAP:
        assert count > COUNT_REFERENCE_CAP
    else:
        assert count == scanned


# denser draws are skipped: the edge backend takes seconds to minutes on
# them (test_dp_forward_checking_prunes covers one dense refutation), and
# so are draws with many solution representatives per edge, which a free
# variable beside several linear terms gives
EDGE_REFERENCE_CAP = 2_000
REPS_REFERENCE_CAP = 50_000


def _check_dp_against_edge(text, n, r):
    eq = parse_equation(text)
    assume(solutions._count_reps(eq, n) <= REPS_REFERENCE_CAP)
    assume(len(build_hyperedges(eq, n)) <= EDGE_REFERENCE_CAP)
    dp = find_coloring(eq, n, r, SearchParams(backend="dp"))
    edge = find_coloring(eq, n, r, SearchParams(backend="edge"))
    assert dp.verdict == edge.verdict != BUDGET_EXHAUSTED
    if dp.coloring is not None:
        assert verify(Certificate.from_coloring(text, dp.coloring)).status == VALID


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=grouped_equations(), n=st.integers(6, 28), r=st.sampled_from((2, 3)))
@example(text="x0=y0+y1", n=13, r=3)     # Schur S(3) = 13: the last colorable n
def test_dp_agrees_with_edge_on_grouped_draws(text, n, r):
    # forward checking may only prune colors that would close a solution;
    # a wrong strike, a missed restore or a wrong mask index turns
    # colorable into uncolorable, or lets a solution through
    _check_dp_against_edge(text, n, r)


@st.composite
def square_sums(draw):
    """p squares = q squares, degree 2 or 1: 2-3 rhs terms with
    coefficients 1-3 whose first group has two slots or more, and 2-5 lhs
    terms with coefficients 1-2 and maybe a free variable, always more
    terms than the rhs, so that normalization keeps the rhs on the right."""
    exp = "^2" if draw(st.sampled_from((1, 2))) == 2 else ""

    def term(c, name):
        return f"{c if c > 1 else ''}{name}{exp}"

    c = draw(st.integers(1, 3))
    coefs = [c, c] + draw(st.lists(st.integers(c, 3), max_size=1))
    rhs = [term(c, f"y{i}") for i, c in enumerate(coefs)]
    free = draw(st.booleans())
    coefs = draw(st.lists(st.integers(1, 2), min_size=max(2, len(rhs) + 1 - free), max_size=5))
    lhs = [term(c, f"x{i}") for i, c in enumerate(coefs)]
    if free:
        lhs.append(term(draw(st.integers(1, 2)), "~f"))
    return "+".join(lhs) + "=" + "+".join(rhs)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=square_sums(), n=st.integers(6, 30), r=st.sampled_from((2, 3)))
def test_dp_agrees_with_edge_on_two_slot_rhs_draws(text, n, r):
    # the strike of a vertex that fills two rhs slots reads one more mask
    # per class; a wrong index or shift there, or the strike on a one-slot
    # group, strikes a color that no solution forbids and turns colorable
    # into uncolorable
    _check_dp_against_edge(text, n, r)


def test_oracle_schur():
    assert oracle_colorable(SCHUR, 4, 2)
    assert not oracle_colorable(SCHUR, 5, 2)
    assert not oracle_colorable(SCHUR, 2, 1)
    assert oracle_colorable(SCHUR, 1, 1)


def test_oracle_cap():
    with pytest.raises(SolverError, match="cap"):
        oracle_colorable(SCHUR, 60, 3)


def test_solver_matches_oracle_random():
    rng = random.Random(42)
    checked = 0
    while checked < 60:
        nvars = rng.randint(2, 4)
        degree = rng.choice((1, 2))
        names = [f"v{i}" for i in range(nvars)]
        cut = rng.randint(1, nvars - 1)
        coefs = [rng.randint(1, 3) for _ in names]
        exp = "^2" if degree == 2 else ""
        text = "+".join(
            f"{c if c > 1 else ''}{nm}{exp}" for c, nm in zip(coefs[:cut], names[:cut])
        ) + "=" + "+".join(
            f"{c if c > 1 else ''}{nm}{exp}" for c, nm in zip(coefs[cut:], names[cut:])
        )
        eq = parse_equation(text)
        n = rng.randint(1, 9)
        r = rng.choice((2, 3))
        backend = rng.choice(("edge", "dp", "auto"))
        got = find_coloring(eq, n, r, SearchParams(backend=backend))
        assert got.verdict in (COLORABLE, UNCOLORABLE)
        expected = oracle_colorable(eq, n, r)
        assert (got.verdict == COLORABLE) == expected, (text, n, r, backend)
        if got.coloring is not None:
            assert_valid(eq, got.coloring)
        checked += 1


def test_free_variable_instances_match_oracle():
    eq = parse_equation("9x^2+16y^2=~n^2")
    for n in range(1, 9):
        for backend in ("edge", "dp"):
            got = find_coloring(eq, n, 2, SearchParams(backend=backend))
            assert (got.verdict == COLORABLE) == oracle_colorable(eq, n, 2), (n, backend)


def test_distinct_instances_match_oracle():
    eq = parse_equation("x+y=z", distinct=True)
    for n in range(1, 10):
        for backend in ("edge", "auto"):
            got = find_coloring(eq, n, 2, SearchParams(backend=backend))
            assert (got.verdict == COLORABLE) == oracle_colorable(eq, n, 2), (n, backend)


def test_dp_refuses_distinct():
    # the dp masks cannot keep a solution's values distinct
    eq = parse_equation("x+y=z", distinct=True)
    params = SearchParams(backend="dp")
    with pytest.raises(SolverError, match="backend 'dp' refuses a distinct: equation"):
        find_coloring(eq, 9, 2, params)
    with pytest.raises(SolverError, match="backend 'dp' refuses a distinct: equation"):
        compute_rado(eq, 2, params)


def test_walk_reaches_pythagorean_2200():
    # without the walk, a cold search at n=2146 runs past any budget
    eq = parse_equation("x^2+y^2=z^2")
    out = compute_rado(eq, 2, SearchParams(n_cap=2200, time_budget=30))
    assert (out.kind, out.value, out.witness.n) == (LOWER_BOUND, 2200, 2200)
    assert any(b.flips for b in out.bounds)
    assert verify(Certificate.from_coloring("x^2+y^2=z^2", out.witness)).status == VALID


def _rado_run(text, r, cap):
    out = compute_rado(parse_equation(text), r, SearchParams(n_cap=cap))
    bounds = [(b.n, b.verdict, b.backend, b.warm, b.nodes, b.propagations, b.flips)
              for b in out.bounds]
    return out.kind, out.value, out.witness, bounds


@pytest.mark.parametrize("text, respelled, r, cap", [
    ("x^2+y^2+z^2=w^2", "c^2 = b^2 + zz^2 +a^2", 2, 200),
    ("x^2+y^2=z^2", "q^2=p^2+o^2", 2, 700),
    ("x+y=z", "v = u +t", 3, 20),
])
def test_walk_is_deterministic_and_spelling_free(text, respelled, r, cap):
    # the walk draws from n and r alone: not from the spelling, nor the clock
    first = _rado_run(text, r, cap)
    assert any(bound[-1] for bound in first[-1])          # the walk colored a bound
    assert _rado_run(text, r, cap) == first
    assert _rado_run(respelled, r, cap) == first


@pytest.mark.parametrize("text", ["x+y=z", "x^2+y^2=z^2", "x^2+y^2+z^2=w^2"])
def test_no_walk_with_one_color(monkeypatch, text):
    # with one color there is no other color to flip to
    def walk(*args):
        raise AssertionError("walk with r=1")

    monkeypatch.setattr(solver, "_walk", walk)
    out = compute_rado(parse_equation(text), 1)
    assert out.kind == EXACT
    assert all(b.flips == 0 for b in out.bounds)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=small_equations(), r=st.sampled_from((2, 3)), distinct=st.booleans())
@example(text="v0+2v1=2v2", r=3, distinct=False)
@example(text="v0+3v1=v2+v3", r=2, distinct=True)
@example(text="2v0^2+v1^2=3v2^2+2v3^2", r=2, distinct=False)
def test_compute_rado_matches_oracle(text, r, distinct):
    # a walk that returned a coloring with a monochromatic edge would carry
    # it forward as the witness, and a later bound would be wrong
    eq = parse_equation(text, distinct=distinct)
    cap = 12 if r == 2 else 8                 # r**cap colorings for the oracle
    out = compute_rado(eq, r, SearchParams(backend="edge", n_cap=cap))
    value = out.value
    assert oracle_colorable(eq, value, r) == (out.kind == LOWER_BOUND)
    if value > 1:
        assert oracle_colorable(eq, value - 1, r)
    assert out.witness.n == (value - 1 if out.kind == EXACT else value)
    cert = Certificate.from_coloring(eq.render(), out.witness)
    assert verify(cert).status == VALID


def test_singleton_edge_short_circuit():
    # x + y = ~z has solutions with x = y = v for every v, giving singleton
    # edges; the very first bound with an edge is already uncolorable
    eq = parse_equation("x+y=~z")
    out = compute_rado(eq, 2)
    assert (out.kind, out.value) == (EXACT, 1)
    assert out.witness.n == 0


def test_vertices_outside_edges_get_color_one():
    eq = parse_equation("x^2+y^2=z^2")
    out = find_coloring(eq, 12, 2)
    for v in (1, 2, 7, 9, 11, 12):
        assert out.coloring.color_of(v) == 1


def test_param_validation():
    with pytest.raises(SolverError):
        find_coloring(SCHUR, 0, 2)
    with pytest.raises(SolverError):
        find_coloring(SCHUR, 4, 0)
    with pytest.raises(SolverError):
        SearchParams(backend="cdcl")
    with pytest.raises(SolverError):
        SearchParams(n_cap=0)
    # NaN fails every comparison, so it would switch the deadline off
    with pytest.raises(SolverError):
        SearchParams(time_budget=float("nan"))
    SearchParams(time_budget=float("inf"))
    with pytest.raises(ValueError, match="length must equal n"):
        Coloring(3, 2, (1, 2))
    for colors in ((1, 3), (0, 1)):
        with pytest.raises(ValueError, match="colors must lie in 1..r"):
            Coloring(2, 2, colors)


def test_edge_refusal_is_one_rule(monkeypatch):
    # both entry points refuse forced edge past EDGE_BACKEND_CAP
    # representatives of [1, n], with one message
    monkeypatch.setattr(solver, "EDGE_BACKEND_CAP", 100)
    params = SearchParams(backend="edge")
    with pytest.raises(SolverError, match="more than 100 representatives") as direct:
        find_coloring(family_equation(3), 105, 2, params)
    with pytest.raises(SolverError, match="more than 100 representatives") as grown:
        compute_rado(family_equation(3), 2, params)
    assert str(direct.value) == str(grown.value)


def enumerate_nothing(*args, **kwargs):
    raise AssertionError("enumerated edges the count had ruled out")


def test_forced_edge_refused_from_the_count(monkeypatch):
    # 584,442,884 representatives: refused before anything is enumerated
    monkeypatch.setattr(solver, "build_hyperedges", enumerate_nothing)
    eq = parse_equation("x0+x1+x2+x3+x4=y0+y1+y2+y3+y4")
    with pytest.raises(SolverError, match="more than 1000000 representatives"):
        find_coloring(eq, 28, 3, SearchParams(backend="edge"))


def test_auto_takes_dp_from_the_count(monkeypatch):
    # the free variable lets 3,663,663 representatives share at most 2**9
    # edges; dp refutes [1, 9] in one node
    monkeypatch.setattr(solver, "build_hyperedges", enumerate_nothing)
    eq = parse_equation("3x0+3x1+3x2+2x3=3y0+y1+3y2+2y3+~f")
    out = find_coloring(eq, 9, 2)
    assert (out.backend, out.verdict, out.stats.nodes) == ("dp", UNCOLORABLE, 1)


def test_each_switch_to_dp_logs_one_line(caplog, monkeypatch):
    caplog.set_level(logging.INFO, logger="rado")
    eq = parse_equation("+".join(f"x{i}^2" for i in range(5)) + "=y0^2+y1^2")
    out = find_coloring(eq, 31, 3, SearchParams(time_budget=0.01))
    assert out.backend == "dp"
    assert caplog.messages == ["n=31: 36,783 representatives × 7 slots > 31², dp"]

    # Schur's x+y=z at n=300: 22,500 representatives × 3 slots stay below
    # 300², so AUTO_EDGE_CAP alone decides, from the count
    caplog.clear()
    out = find_coloring(parse_equation("x+y=z"), 300, 3)
    assert (out.verdict, out.backend) == (UNCOLORABLE, "dp")
    assert caplog.messages == ["n=300: 22,500 representatives > AUTO_EDGE_CAP=20,000, dp"]

    # compute_rado switches once, from the representatives its closing
    # scans count, and stays on dp
    caplog.clear()
    monkeypatch.setattr(solver, "AUTO_EDGE_CAP", 10)
    out = compute_rado(SCHUR, 3)
    assert (out.kind, out.value) == (EXACT, 14)
    switch = next(b.n for b in out.bounds if b.backend == "dp")
    assert caplog.messages == [
        f"n={switch}: more than AUTO_EDGE_CAP=10 representatives, dp"
    ]


def test_auto_takes_dp_past_n_squared_over_slots(caplog):
    # x+y=2w, 3 slots: [1, 6] has 12 representatives, 12 x 3 = 6^2, and
    # stays on edge; [1, 5] has 9, one past 5^2 // 3 = 8, and goes to dp
    caplog.set_level(logging.INFO, logger="rado")
    eq = parse_equation("x+y=2w")
    assert solver._edges(eq, 6, "auto", math.inf).reps == 12
    assert solver._edges(eq, 5, "auto", math.inf) is None
    # a closing scan counts the representatives below n in: 9 below 6
    # leave room for exactly the 3 that close at 6
    assert solver._edges(eq, 6, "auto", math.inf, have=9, low=5).reps == 3
    assert solver._edges(eq, 6, "auto", math.inf, have=10, low=5) is None
    assert caplog.messages == [
        "n=5: 9 representatives × 3 slots > 5², dp",
        "n=6: at least 13 representatives × 3 slots > 6², dp",
    ]
    # a forced edge backend keeps EDGE_BACKEND_CAP alone
    assert solver._edges(eq, 5, "edge", math.inf).reps == 9


def run_record(eq, r, params=None):
    """A compute_rado run as compared across block sizes: its verdict,
    witness and every bound but its elapsed time."""
    out = compute_rado(eq, r, params)
    return out.kind, out.value, out.witness, [
        (b.n, b.verdict, b.backend, b.warm, b.nodes, b.propagations, b.flips)
        for b in out.bounds]


def spy_windows(monkeypatch):
    """The (low, n) of each window compute_rado asks solver.build_hyperedges for."""
    asked, build = [], solver.build_hyperedges

    def spy(eq, n, *, low, **kwargs):
        asked.append((low, n))
        return build(eq, n, low=low, **kwargs)

    monkeypatch.setattr(solver, "build_hyperedges", spy)
    return asked


@pytest.mark.parametrize("text, r, n_cap", [
    ("x+y=z", 3, 10_000),
    ("distinct: x+y=z", 3, 10_000),
    ("x+y=2w", 3, 10_000),
    ("x^2+y^2+z^2=w^2", 2, 10_000),
    ("x^2+y^2+2z^2=w^2", 2, 10_000),
    ("x^2+y^2=~a^2+2z^2", 2, 10_000),
    ("x^2+y^2=z^2", 2, 700),
])
def test_blocks_change_no_run(monkeypatch, text, r, n_cap):
    # one enumeration per block of bounds hands each n the edges a closing
    # scan at n gives: the same bounds, flips and witness as one per n
    eq = parse_equation(text)
    asked = spy_windows(monkeypatch)
    blocked = run_record(eq, r, SearchParams(n_cap=n_cap))
    assert solver._doubling(eq) and any(n - low > 1 for low, n in asked)
    monkeypatch.setattr(solver, "_doubling", lambda eq: False)
    asked.clear()
    assert run_record(eq, r, SearchParams(n_cap=n_cap)) == blocked
    assert all(n - low == 1 for low, n in asked)


def assert_same_switch(monkeypatch, caplog, eq, r, switch, n_cap):
    """auto moves eq to dp at n=switch, with the one log line and the
    run up to n_cap of a compute_rado with no blocks."""
    caplog.set_level(logging.INFO, logger="rado")
    asked = spy_windows(monkeypatch)
    blocked = run_record(eq, r, SearchParams(n_cap=n_cap))
    logged = caplog.messages[:]
    assert any(low < switch < n for low, n in asked)     # a block held it
    monkeypatch.setattr(solver, "_doubling", lambda eq: False)
    caplog.clear()
    assert run_record(eq, r, SearchParams(n_cap=n_cap)) == blocked
    assert caplog.messages == logged
    assert len(logged) == 1 and logged[0].startswith(f"n={switch}: ")
    assert next(b[0] for b in blocked[3] if b[2] == "dp") == switch


def test_block_past_the_cap_at_its_end(monkeypatch, caplog):
    # Theorem 1's [1, 30] has 52 representatives and [1, 62] 217: the
    # block (30, 62] passes a cap of 100 at its end and is enumerated
    # again one n at a time
    monkeypatch.setattr(solver, "AUTO_EDGE_CAP", 100)
    assert_same_switch(monkeypatch, caplog, family_equation(3), 2, 42, 50)


def test_block_past_the_cap_inside_it(monkeypatch, caplog):
    # x+y=z's [1, 5] has 6 representatives and [1, 6] 9: with a cap of 5
    # at n=5 alone the block (2, 6] stays under it at its end, and the
    # count per largest value finds n=5
    rule = solver._rep_cap
    monkeypatch.setattr(solver, "_rep_cap",
                        lambda n, auto, slots: 5 if n == 5 else rule(n, auto, slots))
    assert_same_switch(monkeypatch, caplog, SCHUR, 3, 5, 14)


def test_edge_refused_at_the_same_n(monkeypatch):
    # a block the forced edge backend would refuse is enumerated again one
    # n at a time, so the refusal comes at the n of a run with no blocks
    monkeypatch.setattr(solver, "EDGE_BACKEND_CAP", 100)
    asked = spy_windows(monkeypatch)

    def refused():
        asked.clear()
        with pytest.raises(SolverError, match="edge backend refused"):
            compute_rado(family_equation(3), 2, SearchParams(backend="edge"))
        return asked[-1]

    assert refused() == (41, 42) and (30, 62) in asked
    monkeypatch.setattr(solver, "_doubling", lambda eq: False)
    assert refused() == (41, 42)


def test_k_squares_row_asks_one_n_at_a_time(monkeypatch):
    # x1^2+...+x5^2 = z^2 has 6 slots: its representatives outgrow n²,
    # so a block would be enumerated past the n auto takes dp at
    eq = family_equation(5)
    assert not solver._doubling(eq)
    asked = spy_windows(monkeypatch)
    out = compute_rado(eq, 2)
    assert (out.kind, out.value) == (EXACT, 23)
    assert asked and all(n - low == 1 for low, n in asked)


def test_k_squares_row_runs_on_dp():
    # x1^2+...+x8^2 = z^2 has 9 slots and passes [1, n]'s n^2 // 9
    # representatives before its first cold bound
    out = compute_rado(family_equation(8), 2)
    assert (out.kind, out.value) == (EXACT, 20)
    cold = [b.backend for b in out.bounds if not b.warm]
    assert cold and set(cold) == {"dp"}


def dp_feasible_extend(eq, colors, n, r):
    """The dp warm step before the kept masks: one dp_feasible call per
    color, on its class in colors plus n."""
    for c in range(1, r + 1):
        cls = [v for v in range(1, n) if colors[v - 1] == c] + [n]
        if not solutions.dp_feasible(eq, cls, n):
            return c
    return None


@pytest.mark.parametrize("text, r, backend, cap, cold", [
    ("x1^2+x2^2+x3^2+x4^2=z^2", 2, "dp", 10_000, [14, 29, 37]),   # a group a side
    ("x^2+y^2+2z^2=w^2", 2, "dp", 10_000, [14, 29, 37]),          # two groups on a side
    ("2x^2+2y^2=z^2+w^2+~a^2", 2, "dp", 60, [9]),                 # a free variable
    ("x0=y0+y1", 3, "dp", 10_000, [8, 10, 11, 13, 14]),           # linear
    ("x1^2+x2^2+x3^2+x4^2+x5^2+x6^2+x7^2+x8^2=z^2", 2, "auto", 10_000,
     [14, 15, 20]),                                               # dp from n=7
])
def test_kept_masks_extend_as_dp_feasible_does(monkeypatch, text, r, backend, cap, cold):
    # at every n on dp the kept masks pick the color dp_feasible picks:
    # across rebuilds (masks outgrown, auto's switch to dp) and right
    # after each cold bound
    eq = parse_equation(text)
    extend, calls = solver._try_extend, []

    def compared(*args):
        colors, n, r, closing, kept = args
        expected = dp_feasible_extend(eq, colors, n, r) if closing is None else None
        c = extend(*args)
        assert closing is not None or c == expected, n
        calls.append((n, kept))
        return c

    monkeypatch.setattr(solver, "_try_extend", compared)
    out = compute_rado(eq, r, SearchParams(backend=backend, n_cap=cap))
    assert [b.n for b in out.bounds if not b.warm] == cold
    assert [n for n, _ in calls] == list(range(1, cold[-1] + 1))
    assert any(k0 is not k1 and n - 1 not in cold
               for (_, k0), (n, k1) in zip(calls, calls[1:]) if k1 is not None)


@pytest.mark.parametrize("backend", ["dp", "auto"])
def test_dp_warm_step_rebuilds_kept_masks_only_when_stale(monkeypatch, backend):
    # the warm step's masks are built at the first n on dp, after a cold
    # search and past their 2n size, and kept at every other n
    build, extend, builds, dp_steps = solver._kept_masks, solver._try_extend, [], []

    def spied_build(eq, colors, r, bound):
        builds.append((len(colors) + 1, bound))
        return build(eq, colors, r, bound)

    def spied_extend(colors, n, r, closing, kept):
        if closing is None:
            dp_steps.append(n)
        return extend(colors, n, r, closing, kept)

    monkeypatch.setattr(solver, "_kept_masks", spied_build)
    monkeypatch.setattr(solver, "_try_extend", spied_extend)
    params = SearchParams(backend=backend)
    out = compute_rado(family_equation(8), 2, params)
    assert (out.kind, out.value) == (EXACT, 20)
    assert dp_steps == list(range(1 if backend == "dp" else 7, 21))
    cold = {b.n for b in out.bounds if not b.warm}
    expected, size = [], 0
    for n in dp_steps:
        if n == dp_steps[0] or n - 1 in cold or n > size:
            size = min(2 * n, params.n_cap)
            expected.append((n, size))
    assert builds == expected
    assert len(builds) < len(dp_steps) // 2


def test_dp_warm_step_keeps_the_overflow_guard(monkeypatch):
    # the kept masks are sized ahead, but the guard still stops the run at
    # the first n past it, and not before
    monkeypatch.setattr(solutions, "OVERFLOW_LIMIT", 4 * 20**2)
    eq = family_equation(4)
    with pytest.raises(OverflowGuardError, match="bound 21 overflows"):
        compute_rado(eq, 2, SearchParams(backend="dp", n_cap=60))
    out = compute_rado(eq, 2, SearchParams(backend="dp", n_cap=20))
    assert (out.kind, out.value) == (LOWER_BOUND, 20)


@pytest.mark.parametrize("text", ["x^2+y^2+2z^2=w^2", "2x^2+2y^2=z^2+w^2+~a^2"])
def test_kept_masks_grow_both_sides_in_one_call(monkeypatch, text):
    # a class's lhs and rhs masks are one list: one _grow call per value
    grow, grown = solver._grow, []

    def counted(masks, groups, v, capmask):
        grown.append(v)
        return grow(masks, groups, v, capmask)

    monkeypatch.setattr(solver, "_grow", counted)
    colors = [1, 2, 2, 1, 3, 1, 2, 3]
    solver._kept_masks(parse_equation(text), colors, 3, 16)
    assert grown == list(range(1, len(colors) + 1))


@pytest.mark.parametrize("text, n", [("x^2+y^2+z^2=w^2", 105), ("x^2+y^2=z^2", 4000)])
def test_auto_keeps_edge_for_sparse_squares(text, n):
    # Theorem 1's refutation and the Pythagorean run stay far below n^2
    # representatives x slots
    assert isinstance(solver._edges(parse_equation(text), n, "auto", math.inf),
                      solutions.EdgeSet)


def test_distinct_keeps_auto_edge_cap(monkeypatch):
    # auto keeps a distinct: equation on edge past AUTO_EDGE_CAP
    # representatives, and refuses it past EDGE_BACKEND_CAP without
    # pointing to dp
    eq = parse_equation("x+y+z=w", distinct=True)
    assert solver._edges(eq, 100, "auto", math.inf).reps == 25_736 > solver.AUTO_EDGE_CAP
    monkeypatch.setattr(solver, "EDGE_BACKEND_CAP", 100)
    with pytest.raises(SolverError, match="distinct:") as refused:
        find_coloring(eq, 40, 3)
    assert "dp" not in str(refused.value)


def test_auto_keeps_edge_for_pythagorean_past_8800():
    # [1, 8800] is too large to count, and its enumeration charges more
    # than 30 M plain-scan nodes; its 10,801 representatives are what decide
    found = solver._edges(parse_equation("x^2+y^2=z^2"), 8800, "auto", math.inf)
    assert isinstance(found, solutions.EdgeSet)
    assert len(found) == found.reps == 10_801


@pytest.mark.parametrize("backend", ["auto", "edge", "dp"])
def test_bounds_start_at_first_solution(backend):
    # 1+4+4=9 is the first solution of x^2+y^2+z^2=w^2; [1, 2] holds none
    out = compute_rado(family_equation(3), 2, SearchParams(n_cap=10, backend=backend))
    assert out.bounds[0].n == 3
    assert (out.kind, out.value, out.witness.n) == (LOWER_BOUND, 10, 10)


def test_bounds_start_at_first_solution_r1():
    # [1, 1] holds no solution of x+y=z, and one color cannot take 1+1=2
    out = compute_rado(SCHUR, 1)
    assert (out.kind, out.value, out.witness.colors) == (EXACT, 2, (1,))
    assert [(b.n, b.verdict, b.warm) for b in out.bounds] == [(2, UNCOLORABLE, False)]


@pytest.mark.parametrize("backend", ["edge", "dp"])
def test_symmetry_breaking_soundness(backend):
    # verdicts must agree with the unrestricted oracle on both sides of
    # the colorable boundary; on dp, forced colors raise the limit too
    fam = family_equation(2)
    for n in range(1, 15):
        for r in (2, 3):
            got = find_coloring(fam, n, r, SearchParams(backend=backend))
            assert (got.verdict == COLORABLE) == oracle_colorable(fam, n, r), (n, r)


def spy_floors(monkeypatch):
    """(n, backend, floor, coloring) for each of compute_rado's cold searches."""
    search, calls = solver._search, []

    def spied(eq, n, r, edges, incident, deadline, floor=None):
        out = search(eq, n, r, edges, incident, deadline, floor)
        calls.append((n, out.backend, floor and list(floor), out.coloring))
        return out

    monkeypatch.setattr(solver, "_search", spied)
    return calls


@pytest.mark.parametrize("cap, n_cap, kind, value, cold", [
    (30, 45, LOWER_BOUND, 45, [(33, "dp"), (43, "dp"), (45, "dp")]),
    (200, 63, LOWER_BOUND, 63, [(57, "edge"), (59, "dp"), (61, "dp"), (63, "dp")]),
    (300, 10_000, EXACT, 105, [(57, "edge"), (81, "dp"), (82, "dp"), (85, "dp")]),
])
def test_dp_floor_only_from_a_lex_least_witness(monkeypatch, cap, n_cap, kind, value, cold):
    # the floor is sound only while the witness is the lex-least valid
    # coloring of [1, n-1]: a walk or an edge search (fail-first) leaves one
    # that is not, so auto's first dp cold bound after walks alone (cap 30),
    # after an edge search (200) or after both (300) searches from below,
    # and each later one starts at the last dp witness, warm-extended
    monkeypatch.setattr(solver, "AUTO_EDGE_CAP", cap)
    calls = spy_floors(monkeypatch)
    out = compute_rado(family_equation(3), 2, SearchParams(n_cap=n_cap))
    assert (out.kind, out.value) == (kind, value)
    assert any(b.flips for b in out.bounds)
    assert [(n, backend) for n, backend, _, _ in calls[:len(cold)]] == cold
    dp = [call for call in calls if call[1] == "dp"]
    assert dp[0][2] is None
    last = dp[0][3].colors
    for n, _, floor, coloring in dp[1:]:
        assert len(floor) == n - 1 and tuple(floor[:len(last)]) == last, n
        last = coloring.colors if coloring else ()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(text=small_equations(), r=st.sampled_from((2, 3)), cap=st.sampled_from((0, 1, 2, 4, 8)))
@example(text="v0+v1=v2", r=3, cap=0)
@example(text="v0+v1=v2", r=3, cap=2)
def test_floored_compute_rado_matches_oracle(text, r, cap):
    # dp cold bounds start at the last witness: on dp from n=1 (cap 0), and
    # on auto with AUTO_EDGE_CAP lowered so that it switches from edge,
    # whose witnesses take no floor
    eq = parse_equation(text)
    n_cap = 12 if r == 2 else 8               # r**n_cap colorings for the oracle
    with pytest.MonkeyPatch.context() as mp:
        if cap:
            mp.setattr(solver, "AUTO_EDGE_CAP", cap)
        out = compute_rado(eq, r, SearchParams(backend="auto" if cap else "dp", n_cap=n_cap))
    value = out.value
    assert oracle_colorable(eq, value, r) == (out.kind == LOWER_BOUND)
    if value > 1:
        assert oracle_colorable(eq, value - 1, r)
    assert out.witness.n == (value - 1 if out.kind == EXACT else value)
    cert = Certificate.from_coloring(eq.render(), out.witness)
    assert verify(cert).status == VALID


def test_five_squares_cold_bounds_are_pinned():
    # 5 = 2 squares, r=3, on dp from n=2: each cold bound after the first
    # starts at the last witness (2,676 nodes without the floor)
    eq = parse_equation("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2")
    out = compute_rado(eq, 3)
    assert (out.kind, out.value, out.witness.colors) == (EXACT, 31, (
        1, 2, 1, 3, 3, 2, 1, 1, 3, 2, 3, 3, 1, 2, 1,
        3, 2, 2, 2, 1, 2, 2, 2, 1, 2, 3, 1, 1, 2, 3))
    assert [(b.n, b.backend, b.nodes, b.max_depth) for b in out.bounds if not b.warm] == [
        (14, "dp", 8, 8), (18, "dp", 8, 8), (20, "dp", 15, 13), (22, "dp", 41, 17),
        (25, "dp", 73, 15), (27, "dp", 24, 13), (28, "dp", 524, 15), (31, "dp", 1254, 14)]
    assert sum(b.nodes for b in out.bounds) == 1947
    assert all(b.max_depth == 0 for b in out.bounds if b.warm)


@pytest.mark.slow
def test_theorem_2_cold_bounds_are_pinned():
    # RR_3(4 squares = 3 squares) = 32, all on dp: 110,769 cold nodes when
    # each bound searched from the least coloring, 55,784 from the floor
    eq = parse_equation("x1^2+x2^2+x3^2+x4^2=y1^2+y2^2+y3^2")
    out = compute_rado(eq, 3)
    assert (out.kind, out.value, out.witness.colors) == (EXACT, 32, (
        1, 2, 2, 3, 1, 2, 1, 1, 3, 2, 1, 2, 1, 3, 2, 3,
        1, 1, 1, 3, 2, 3, 1, 2, 2, 3, 3, 3, 1, 1, 1))
    assert [(b.n, b.backend, b.nodes) for b in out.bounds if not b.warm] == [
        (27, "dp", 22), (30, "dp", 20_809), (31, "dp", 13_559), (32, "dp", 21_394)]
    assert sum(b.nodes for b in out.bounds) == 55_784
