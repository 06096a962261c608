import random

import pytest

from rado import solutions, solver
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


def test_rado_budget_gives_lower_bound():
    out = compute_rado(family_equation(3), 2, SearchParams(time_budget=0.5))
    assert out.kind == LOWER_BOUND
    assert out.witness.n == out.value
    assert_valid(family_equation(3), out.witness)


class FakeClock:
    """Stands in for the time module: monotonic() returns now, which only
    the test moves, and counts its reads."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.now


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


def test_symmetry_breaking_soundness():
    # verdicts must agree with the unrestricted oracle on both sides of
    # the colorable boundary
    fam = family_equation(2)
    for n in range(1, 15):
        for r in (2, 3):
            got = find_coloring(fam, n, r)
            assert (got.verdict == COLORABLE) == oracle_colorable(fam, n, r), (n, r)
