import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rado import solutions, solver
from rado.certificate import VALID, Certificate, verify
from rado.equations import family_equation, parse_equation
from rado.solutions import (
    CLOCK_CHECK_NODES,
    EnumerationBudgetExceeded,
    EnumerationTimeout,
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


def test_dp_forward_checking_prunes():
    # striking a color from each later vertex that would close a solution
    # in that class: without it this refutation took 179,832 nodes
    eq = parse_equation("x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2")
    out = find_coloring(eq, 31, 3, SearchParams(backend="dp"))
    assert out.verdict == UNCOLORABLE
    assert out.stats.nodes <= 60_000
    assert out.stats.propagations > 0


@pytest.mark.parametrize("backend, text, distinct, n, r, trace, witness", [
    # edge: propagation to a fixpoint
    ("edge", "x^2+y^2+z^2=w^2", False, 73, 2,
     (COLORABLE, 510, 4145, 21), None),
    # dp fast path: one weight per side, forward checking
    ("dp", "x1^2+x2^2+x3^2+x4^2+x5^2=y1^2+y2^2", False, 31, 3,
     (UNCOLORABLE, 29527, 52618, 25), None),
    ("dp", "x0=y0+y1", False, 13, 3,
     (COLORABLE, 80, 104, 13), (1, 2, 2, 1, 3, 3, 1, 3, 3, 1, 2, 2, 1)),
    ("dp", "x0=y0+y1", False, 14, 3, (UNCOLORABLE, 197, 302, 11), None),
    # generic dp: a dp_feasible call per node
    ("dp", "x^2+y^2+2z^2=w^2", False, 30, 2, (COLORABLE, 84, 0, 30), None),
    ("dp", "x+y=z", True, 8, 2,
     (COLORABLE, 14, 0, 8), (1, 1, 2, 1, 2, 2, 2, 1)),
    ("dp", "x+y=z", True, 9, 2, (UNCOLORABLE, 53, 0, 8), None),
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


def test_dp_distinct_search_pinned():
    # distinct: on dp reads the cached closing edges; the exhaustive search
    # it replaced ran out of a 20 s budget after about 150 nodes here
    eq = parse_equation("x^2+y^2+z^2=w^2", distinct=True)
    out = find_coloring(eq, 60, 2, SearchParams(backend="dp", time_budget=10))
    assert (out.verdict, out.stats.nodes, out.stats.propagations,
            out.stats.max_depth) == (COLORABLE, 3076, 0, 60)
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
    # the whole run reads the clock about 30,000 times; at 1e-4 s a read
    # the 0.5 s budget runs out after 5,000, whatever the host's speed
    clock = FakeClock(step=1e-4)
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    out = compute_rado(family_equation(3), 2, SearchParams(time_budget=0.5))
    assert out.kind == LOWER_BOUND
    assert out.value < 105
    assert out.witness.n == out.value
    assert_valid(family_equation(3), out.witness)


def test_enumeration_budget_reads_clock_once_per_chunk(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(solutions, "time", clock)
    budget = solutions._Budget(None, deadline=10.0)
    for _ in range(3 * CLOCK_CHECK_NODES):
        budget.spend(1)
    assert clock.reads == 3
    clock.now = 11.0
    with pytest.raises(EnumerationTimeout):
        for _ in range(CLOCK_CHECK_NODES + 1):
            budget.spend(1)

    # the node allowance stays exact, with or without a deadline
    clock.now = 0.0
    for deadline in (None, 10.0):
        budget = solutions._Budget(5, deadline)
        for _ in range(5):
            budget.spend(1)
        with pytest.raises(EnumerationBudgetExceeded):
            budget.spend(1)

    # without a deadline the clock is never read
    reads = clock.reads
    budget = solutions._Budget(None)
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
    ("dp", family_equation(3), 105, 1),                       # fast path
    ("dp", parse_equation("x^2+y^2+2z^2=w^2"), 60, 1),        # generic
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
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    enumerate_closing = solver.build_hyperedges
    timed_out = []

    def late(eq, n, **kwargs):
        if n == 10:
            clock.now = 1000.0     # the deadline passes inside this enumeration
        try:
            return enumerate_closing(eq, n, **kwargs)
        except EnumerationTimeout:
            timed_out.append(n)
            raise

    monkeypatch.setattr(solver, "build_hyperedges", late)
    out = compute_rado(SCHUR, 3, SearchParams(time_budget=100))
    assert timed_out == [10]
    assert (out.kind, out.value) == (LOWER_BOUND, 9)
    assert out.witness.n == 9
    assert max(b.n for b in out.bounds) == 9
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


def late_closing_scan(monkeypatch, clock, pivot):
    """Run dp_feasible's closing scans on clock, past the deadline from
    the scan at pivot on; returns the pivots whose scan timed out."""
    monkeypatch.setattr(solutions, "_closing_cache", {})
    scan = solutions.build_hyperedges
    timed_out = []

    def late(eq, n, **kwargs):
        if n == pivot:
            clock.now = 1000.0     # the deadline passes inside this scan
        try:
            return scan(eq, n, **kwargs)
        except EnumerationTimeout:
            timed_out.append(n)
            raise

    monkeypatch.setattr(solutions, "build_hyperedges", late)
    return timed_out


def test_find_coloring_deadline_covers_dp_distinct_scans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    timed_out = late_closing_scan(monkeypatch, clock, 10)
    eq = parse_equation("x+y=z", distinct=True)
    out = find_coloring(eq, 20, 3, SearchParams(backend="dp", time_budget=100))
    assert timed_out == [10]
    assert (out.verdict, out.backend, out.coloring) == (BUDGET_EXHAUSTED, "dp", None)
    assert (eq, 10) not in solutions._closing_cache
    assert (eq, 9) in solutions._closing_cache


@pytest.mark.parametrize("pivot", [2, 6])    # below the first edge; warm extension
def test_rado_deadline_covers_dp_distinct_scans(monkeypatch, pivot):
    clock = FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(solutions, "time", clock)
    timed_out = late_closing_scan(monkeypatch, clock, pivot)
    eq = parse_equation("x+y=z", distinct=True)
    out = compute_rado(eq, 2, SearchParams(backend="dp", time_budget=100))
    assert timed_out == [pivot]
    assert (out.kind, out.value, out.witness.n) == (LOWER_BOUND, pivot - 1, pivot - 1)
    assert_valid(eq, out.witness)


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
    # coefficients break the uniform-weight fast path; generic DP must agree
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
def fast_path_equations(draw):
    """p terms = q terms, p and q 1-5, one coefficient (1-3) per side,
    degree 1 or 2: the equations the dp fast path takes."""
    exp = "^2" if draw(st.sampled_from((1, 2))) == 2 else ""
    sides = []
    for name in "xy":
        c = draw(st.integers(1, 3))
        size = draw(st.integers(1, 5))
        sides.append("+".join(
            f"{c if c > 1 else ''}{name}{i}{exp}" for i in range(size)
        ))
    return "=".join(sides)


# denser draws are skipped: the edge backend takes seconds to minutes on
# them (test_dp_forward_checking_prunes covers one dense refutation)
EDGE_REFERENCE_CAP = 2_000


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=fast_path_equations(), n=st.integers(6, 28), r=st.sampled_from((2, 3)))
@example(text="x0=y0+y1", n=13, r=3)     # Schur S(3) = 13: the last colorable n
def test_dp_fast_path_agrees_with_edge(text, n, r):
    # forward checking may only prune colors that would close a solution;
    # a wrong strike or a missed restore turns colorable into uncolorable
    eq = parse_equation(text)
    assert solver._dp_fast(eq)
    try:
        build_hyperedges(eq, n, edge_cap=EDGE_REFERENCE_CAP)
    except EnumerationBudgetExceeded:
        assume(False)
    dp = find_coloring(eq, n, r, SearchParams(backend="dp"))
    edge = find_coloring(eq, n, r, SearchParams(backend="edge"))
    assert dp.verdict == edge.verdict != BUDGET_EXHAUSTED
    if dp.coloring is not None:
        assert verify(Certificate.from_coloring(text, dp.coloring)).status == VALID


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
        for backend in ("edge", "dp"):
            got = find_coloring(eq, n, 2, SearchParams(backend=backend))
            assert (got.verdict == COLORABLE) == oracle_colorable(eq, n, 2), (n, backend)


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


def test_edge_refusal_is_one_rule(monkeypatch):
    # both entry points refuse forced edge past EDGE_BACKEND_CAP edges of
    # [1, n], with one message
    monkeypatch.setattr(solver, "EDGE_BACKEND_CAP", 100)
    params = SearchParams(backend="edge")
    with pytest.raises(SolverError, match="more than 100 edges") as direct:
        find_coloring(family_equation(3), 105, 2, params)
    with pytest.raises(SolverError, match="more than 100 edges") as grown:
        compute_rado(family_equation(3), 2, params)
    assert str(direct.value) == str(grown.value)


def test_auto_moves_to_dp_past_node_budget(monkeypatch):
    expected = compute_rado(SCHUR, 3)
    monkeypatch.setattr(solver, "AUTO_NODE_BUDGET", 3)
    out = compute_rado(SCHUR, 3)
    assert (out.kind, out.value) == (expected.kind, expected.value) == (EXACT, 14)
    assert {b.backend for b in expected.bounds} == {"edge"}
    assert out.bounds[-1].backend == "dp"


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


def test_symmetry_breaking_soundness():
    # verdicts must agree with the unrestricted oracle on both sides of
    # the colorable boundary
    fam = family_equation(2)
    for n in range(1, 15):
        for r in (2, 3):
            got = find_coloring(fam, n, r)
            assert (got.verdict == COLORABLE) == oracle_colorable(fam, n, r), (n, r)
