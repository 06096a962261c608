"""Coloring search and the incremental Rado-number driver.

Two backends decide colorability of [1, n]:

* edge: backtracking over vertices in ascending order with per-edge
  counters and unit propagation (an edge with one uncolored vertex whose
  colored vertices share color c removes c from that vertex's domain).
  At each vertex the viable colors are tried lowest-threat first, where a
  color's threat count is the number of incident edges it would leave one
  monochromatic step from completion; sparse instances like Pythagorean
  triples are intractable under naive first-fit but close in a few
  thousand nodes under this ordering.
* dp: assigns 1..n in ascending order and rejects a color the moment the
  color class closes a solution whose maximum value is the new vertex,
  detected by power-sum reachability masks extended incrementally.

Both break color symmetry the same way: color c+1 may first appear only
after color c has.  Chronological backtracking only; no learning.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .equations import Equation
from .solutions import (
    EnumerationBudgetExceeded,
    EnumerationTimeout,
    build_hyperedges,
    check_overflow,
    dp_feasible,
    _plan,
)

COLORABLE = "colorable"
UNCOLORABLE = "uncolorable"
BUDGET_EXHAUSTED = "budget-exhausted"

EXACT = "exact"
LOWER_BOUND = "lower-bound"

# auto prefers edges while the instance stays small enough that per-node
# counter updates beat the DP's bigint shifts; measured crossover ~2e4
AUTO_EDGE_CAP = 20_000
EDGE_BACKEND_CAP = 1_000_000
AUTO_NODE_BUDGET = 30_000_000
BUDGET_CHECK_MASK = (1 << 16) - 1
ORACLE_CAP = 10**8


class SolverError(ValueError):
    """Invalid search parameters or a refused backend."""


@dataclass(frozen=True)
class Coloring:
    """A total map [1, n] -> {1..r}; colors[i-1] holds the color of i."""

    n: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(self.colors) != self.n:
            raise ValueError("coloring length must equal n")
        if any(not 1 <= c <= self.r for c in self.colors):
            raise ValueError("colors must lie in 1..r")

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    def color_class(self, c: int) -> list[int]:
        return [v for v in range(1, self.n + 1) if self.colors[v - 1] == c]


@dataclass
class SearchStats:
    nodes: int = 0
    propagations: int = 0
    max_depth: int = 0
    elapsed_ms: int = 0


@dataclass
class SearchOutcome:
    verdict: str
    coloring: Coloring | None
    stats: SearchStats
    backend: str


@dataclass
class BoundReport:
    n: int
    verdict: str
    backend: str
    warm: bool
    nodes: int
    propagations: int
    elapsed_ms: int


@dataclass
class RadoOutcome:
    kind: str                 # EXACT or LOWER_BOUND
    value: int
    witness: Coloring
    bounds: list[BoundReport] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return self.kind == EXACT


@dataclass
class SearchParams:
    n_cap: int = 10_000
    time_budget: float = 600.0
    backend: str = "auto"     # "edge" | "dp" | "auto"

    def __post_init__(self):
        if self.n_cap < 1:
            raise SolverError(f"n_cap must be >= 1, got {self.n_cap}")
        if self.time_budget <= 0:
            raise SolverError("time_budget must be positive")
        if self.backend not in ("edge", "dp", "auto"):
            raise SolverError(f"unknown backend {self.backend!r}")


def find_coloring(
    eq: Equation, n: int, r: int, params: SearchParams | None = None
) -> SearchOutcome:
    """Search for an r-coloring of [1, n] with no monochromatic solution.

    Returns colorable with a verified witness, uncolorable after
    exhausting the space, or budget-exhausted (no claim).
    """
    params = params or SearchParams()
    _validate(n, r)
    check_overflow(eq, n)
    deadline = time.monotonic() + params.time_budget
    backend, edges = _resolve_backend(eq, n, params.backend)
    start = time.monotonic()
    if backend == "edge":
        outcome = _edge_search(eq, n, r, edges, deadline)
    else:
        outcome = _dp_search(eq, n, r, deadline)
    outcome.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
    return outcome


def _validate(n: int, r: int) -> None:
    if n < 1:
        raise SolverError(f"n must be >= 1, got {n}")
    if r < 1:
        raise SolverError(f"r must be >= 1, got {r}")


def _resolve_backend(eq: Equation, n: int, requested: str):
    """Pick the backend and, for the edge backend, build its edge list."""
    if requested == "dp":
        return "dp", None
    if requested == "edge":
        try:
            es = build_hyperedges(eq, n, edge_cap=EDGE_BACKEND_CAP)
        except EnumerationBudgetExceeded:
            raise SolverError(
                f"edge backend refused: more than {EDGE_BACKEND_CAP} edges; "
                "use backend 'dp' or 'auto'"
            ) from None
        return "edge", list(es.edges)
    try:
        es = build_hyperedges(
            eq, n, node_budget=AUTO_NODE_BUDGET, edge_cap=AUTO_EDGE_CAP
        )
        return "edge", list(es.edges)
    except EnumerationBudgetExceeded:
        return "dp", None


def _edge_search(eq, n, r, edges, deadline) -> SearchOutcome:
    stats = SearchStats()
    m = len(edges)
    esize = [len(e) for e in edges]
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)
    in_edge = [bool(incident[v]) for v in range(n + 1)]
    order = [v for v in range(1, n + 1) if in_edge[v]]

    def result(verdict, color=None):
        coloring = None
        if verdict == COLORABLE:
            vals = tuple(
                color[v] if in_edge[v] else 1 for v in range(1, n + 1)
            )
            coloring = Coloring(n, r, vals)
        return SearchOutcome(verdict, coloring, stats, "edge")

    if not order:
        return result(COLORABLE, None)

    color = [0] * (n + 1)
    domain = [(1 << r) - 1] * (n + 1)
    counts = [[0] * (r + 1) for _ in range(m)]
    unc = esize[:]

    def assign(v, c):
        """Update edge counters for v=c; returns (ok, domain restore log)."""
        color[v] = c
        restore = []
        ok = True
        for ei in incident[v]:
            cnt = counts[ei]
            cnt[c] += 1
            unc[ei] -= 1
            if not ok:
                continue
            u = unc[ei]
            if cnt[c] + u == esize[ei]:
                if u == 0:
                    ok = False            # edge fully monochromatic
                elif u == 1:
                    for w in edges[ei]:
                        if color[w] == 0:
                            dm = domain[w]
                            bit = 1 << (c - 1)
                            if dm & bit:
                                restore.append((w, dm))
                                domain[w] = dm & ~bit
                                stats.propagations += 1
                                if domain[w] == 0:
                                    ok = False
                            break
        return ok, restore

    def unassign(v, restore):
        c = color[v]
        for ei in incident[v]:
            counts[ei][c] -= 1
            unc[ei] += 1
        for w, dm in reversed(restore):
            domain[w] = dm
        color[v] = 0

    def candidates(v, limit):
        """Viable colors, fewest created threats first (ties: lower color).

        Placing v with c turns an incident edge with two uncolored
        vertices and all colored ones already c into a unit edge; such
        near-completions are what force later vertices, so they are
        deferred."""
        dm = domain[v]
        cands = [c for c in range(1, limit + 1) if dm & (1 << (c - 1))]
        if len(cands) <= 1:
            return cands
        scored = []
        for c in cands:
            threats = 0
            for ei in incident[v]:
                if unc[ei] == 2 and counts[ei][c] == esize[ei] - 2:
                    threats += 1
            scored.append((threats, c))
        scored.sort()
        return [c for _, c in scored]

    stack: list[tuple[int, list, int, list, int]] = []
    pos = 0
    max_used = 0
    cand: list | None = None
    ci = 0
    while True:
        if pos == len(order):
            return result(COLORABLE, color)
        v = order[pos]
        if cand is None:
            cand = candidates(v, min(r, max_used + 1))
            ci = 0
        placed = False
        while ci < len(cand):
            c = cand[ci]
            ci += 1
            stats.nodes += 1
            if not stats.nodes & BUDGET_CHECK_MASK and time.monotonic() > deadline:
                return result(BUDGET_EXHAUSTED)
            ok, restore = assign(v, c)
            if ok:
                stack.append((v, cand, ci, restore, max_used))
                if len(stack) > stats.max_depth:
                    stats.max_depth = len(stack)
                if c > max_used:
                    max_used = c
                pos += 1
                cand = None
                placed = True
                break
            unassign(v, restore)
        if placed:
            continue
        if not stack:
            return result(UNCOLORABLE)
        v, cand, ci, restore, max_used = stack.pop()
        unassign(v, restore)
        pos -= 1


def _dp_fast(eq: Equation) -> bool:
    """The incremental mask extension needs one uniform weight per side."""
    lhs, rhs, free_side = _plan(eq)
    return (
        free_side is None
        and not eq.distinct_required
        and len(lhs) == 1
        and len(rhs) == 1
    )


def _dp_search(eq, n, r, deadline) -> SearchOutcome:
    if _dp_fast(eq):
        return _dp_search_fast(eq, n, r, deadline)
    return _dp_search_generic(eq, n, r, deadline)


def _dp_search_fast(eq, n, r, deadline) -> SearchOutcome:
    stats = SearchStats()
    lhs, rhs, _ = _plan(eq)
    p, cl = lhs[0].size, lhs[0].coefficient
    q, cr = rhs[0].size, rhs[0].coefficient
    degree = eq.degree
    cap = min(p * cl, q * cr) * n**degree
    capmask = (1 << (cap + 1)) - 1
    wl = [cl * v**degree for v in range(n + 1)]
    wr = [cr * v**degree for v in range(n + 1)]

    # per color: stack of (lhs masks A_0..A_p, rhs masks A_0..A_q)
    init = ((1,) + (0,) * p, (1,) + (0,) * q)
    stacks: list[list] = [[init] for _ in range(r + 1)]

    color = [0] * (n + 1)

    def closes_solution(v, c):
        """Extend class c by v; push masks; True iff a solution with maximum
        value v lies entirely in the class."""
        la, ra = stacks[c][-1]
        nl = [la[0]]
        for t in range(1, p + 1):
            nl.append((la[t] | (nl[t - 1] << wl[v])) & capmask)
        nr = [ra[0]]
        for t in range(1, q + 1):
            nr.append((ra[t] | (nr[t - 1] << wr[v])) & capmask)
        stacks[c].append((tuple(nl), tuple(nr)))
        b_l = (nl[p - 1] << wl[v]) & capmask
        b_r = (nr[q - 1] << wr[v]) & capmask
        return bool((b_l & nr[q]) | (nl[p] & b_r))

    stack: list[tuple[int, int, int]] = []
    pos = 1
    c_try = 1
    max_used = 0
    while True:
        if pos > n:
            return SearchOutcome(
                COLORABLE, Coloring(n, r, tuple(color[1:])), stats, "dp"
            )
        placed = False
        c = c_try
        limit = min(r, max_used + 1)
        while c <= limit:
            stats.nodes += 1
            if not stats.nodes & BUDGET_CHECK_MASK and time.monotonic() > deadline:
                return SearchOutcome(BUDGET_EXHAUSTED, None, stats, "dp")
            if closes_solution(pos, c):
                stacks[c].pop()
                c += 1
                continue
            color[pos] = c
            stack.append((pos, c, max_used))
            if len(stack) > stats.max_depth:
                stats.max_depth = len(stack)
            if c > max_used:
                max_used = c
            pos += 1
            c_try = 1
            placed = True
            break
        if placed:
            continue
        if not stack:
            return SearchOutcome(UNCOLORABLE, None, stats, "dp")
        v, c, max_used = stack.pop()
        stacks[c].pop()
        color[v] = 0
        pos = v
        c_try = c + 1


def _dp_search_generic(eq, n, r, deadline) -> SearchOutcome:
    """DP backend for equations outside the fast path (per-node oracle)."""
    stats = SearchStats()
    classes: list[list[int]] = [[] for _ in range(r + 1)]
    color = [0] * (n + 1)
    stack: list[tuple[int, int, int]] = []
    pos = 1
    c_try = 1
    max_used = 0
    while True:
        if pos > n:
            return SearchOutcome(
                COLORABLE, Coloring(n, r, tuple(color[1:])), stats, "dp"
            )
        placed = False
        c = c_try
        limit = min(r, max_used + 1)
        while c <= limit:
            stats.nodes += 1
            if not stats.nodes & BUDGET_CHECK_MASK and time.monotonic() > deadline:
                return SearchOutcome(BUDGET_EXHAUSTED, None, stats, "dp")
            classes[c].append(pos)
            if dp_feasible(eq, classes[c], pos):
                classes[c].pop()
                c += 1
                continue
            color[pos] = c
            stack.append((pos, c, max_used))
            if len(stack) > stats.max_depth:
                stats.max_depth = len(stack)
            if c > max_used:
                max_used = c
            pos += 1
            c_try = 1
            placed = True
            break
        if placed:
            continue
        if not stack:
            return SearchOutcome(UNCOLORABLE, None, stats, "dp")
        v, c, max_used = stack.pop()
        classes[c].pop()
        color[v] = 0
        pos = v
        c_try = c + 1


def compute_rado(
    eq: Equation, r: int, params: SearchParams | None = None
) -> RadoOutcome:
    """Increment n until [1, n] is uncolorable (Exact) or the cap or time
    budget is hit (LowerBound at the last colorable n).

    Each new bound first tries extending the previous witness by each
    color in turn (only solutions closing at n can break, so the check is
    cheap); when no extension survives, a full search runs for that bound.
    The edge list grows by the edges closing at each new n; auto moves to
    the dp backend for good once [1, n] has more than AUTO_EDGE_CAP edges
    or enumerating the closing ones exceeds AUTO_NODE_BUDGET.
    """
    params = params or SearchParams()
    _validate(1, r)
    deadline = time.monotonic() + params.time_budget
    bounds: list[BoundReport] = []
    use_edges = params.backend in ("edge", "auto")
    edges: list[tuple[int, ...]] = []     # every edge of [1, n], by (max, tuple)

    witness: Coloring | None = None
    n = 0
    while True:
        if n >= params.n_cap:
            return RadoOutcome(LOWER_BOUND, n, witness or _trivial(n, r), bounds)
        if time.monotonic() > deadline:
            return RadoOutcome(LOWER_BOUND, n, witness or _trivial(n, r), bounds)
        n += 1

        if witness is None:
            # still below the first edge: [1, n] has a solution iff one
            # closes at exactly n
            if not dp_feasible(eq, range(1, n + 1), n):
                continue
            witness = _trivial(n - 1, r)

        t0 = time.monotonic()
        closing = None
        if use_edges:
            try:
                closing = build_hyperedges(
                    eq, n, closing=True, node_budget=AUTO_NODE_BUDGET,
                    edge_cap=AUTO_EDGE_CAP - len(edges), deadline=deadline,
                ).edges
            except EnumerationTimeout:
                return RadoOutcome(LOWER_BOUND, n - 1, witness, bounds)
            except EnumerationBudgetExceeded:
                if params.backend == "edge":
                    raise SolverError(
                        f"edge backend refused at n={n}: more than {AUTO_EDGE_CAP} "
                        "edges; use backend 'dp' or 'auto'"
                    ) from None
                use_edges = False
                edges = []
            else:
                edges.extend(closing)

        extended = _try_extend(eq, witness, n, r, closing)
        if extended is not None:
            witness = extended
            bounds.append(BoundReport(
                n, COLORABLE, "edge" if closing is not None else "dp", True,
                0, 0, int((time.monotonic() - t0) * 1000),
            ))
            continue

        if time.monotonic() > deadline:
            return RadoOutcome(LOWER_BOUND, n - 1, witness, bounds)
        if closing is not None:
            outcome = _edge_search(eq, n, r, edges, deadline)
        else:
            outcome = _dp_search(eq, n, r, deadline)
        outcome.stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
        bounds.append(BoundReport(
            n, outcome.verdict, outcome.backend, False,
            outcome.stats.nodes, outcome.stats.propagations,
            outcome.stats.elapsed_ms,
        ))
        if outcome.verdict == COLORABLE:
            witness = outcome.coloring
        elif outcome.verdict == UNCOLORABLE:
            return RadoOutcome(EXACT, n, witness, bounds)
        else:
            return RadoOutcome(LOWER_BOUND, n - 1, witness, bounds)


def _trivial(n: int, r: int) -> Coloring:
    return Coloring(n, r, (1,) * n)


def _try_extend(eq, witness, n, r, closing):
    """Extend a witness for [1, n-1] to [1, n] by recoloring only n.

    closing holds the edges whose largest value is n, or None on the dp
    backend, which asks dp_feasible instead."""
    if witness is None or witness.n != n - 1:
        return None
    if closing is not None:
        chi = (0,) + witness.colors
        for c in range(1, r + 1):
            ok = True
            for e in closing:
                mono = True
                for v in e:
                    cv = chi[v] if v < n else c
                    if cv != c:
                        mono = False
                        break
                if mono:
                    ok = False
                    break
            if ok:
                return Coloring(n, r, witness.colors + (c,))
        return None
    for c in range(1, r + 1):
        cls = [v for v in range(1, n) if witness.colors[v - 1] == c]
        cls.append(n)
        if not dp_feasible(eq, cls, n):
            return Coloring(n, r, witness.colors + (c,))
    return None


def oracle_colorable(eq: Equation, n: int, r: int) -> bool:
    """Exhaustive test oracle: tries all r**n colorings against solutions
    found by a plain nested scan.  Shares no search machinery with
    find_coloring; capped at r**n <= 1e8."""
    _validate(n, r)
    if r**n > ORACLE_CAP:
        raise SolverError(f"oracle cap exceeded: {r}**{n} > {ORACLE_CAP}")
    edges = _oracle_value_sets(eq, n)
    if not edges:
        return True
    if any(len(e) == 1 for e in edges):
        return False
    if r == 2:
        masks = sorted({_mask(e) for e in edges})
        for m in range(1 << n):
            good = True
            for em in masks:
                inter = m & em
                if inter == em or inter == 0:
                    good = False
                    break
            if good:
                return True
        return False
    value_lists = [tuple(e) for e in sorted(edges, key=lambda e: (len(e), sorted(e)))]
    for coloring in itertools.product(range(r), repeat=n):
        good = True
        for e in value_lists:
            first = coloring[e[0] - 1]
            mono = True
            for v in e[1:]:
                if coloring[v - 1] != first:
                    mono = False
                    break
            if mono:
                good = False
                break
        if good:
            return True
    return False


def _mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def _oracle_value_sets(eq: Equation, n: int):
    """Distinct constrained-value sets of all solutions, by brute scan."""
    cvars = list(eq.constrained_variables)
    fvars = [v for v in eq.variables if eq.is_free(v)]
    top = eq.side_max_sum(n)
    if eq.degree == 2:
        fbound = 1
        while fbound * fbound <= top:
            fbound += 1
    else:
        fbound = top
    out = set()
    for combo in itertools.product(range(1, n + 1), repeat=len(cvars)):
        if eq.distinct_required and len(set(combo)) != len(combo):
            continue
        asg = dict(zip(cvars, combo))
        if fvars:
            found = False
            for fcombo in itertools.product(range(1, fbound + 1), repeat=len(fvars)):
                if eq.holds(asg | dict(zip(fvars, fcombo))):
                    found = True
                    break
            if not found:
                continue
        elif not eq.holds(asg):
            continue
        out.add(frozenset(combo))
    return out
