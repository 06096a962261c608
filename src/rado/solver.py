"""Coloring search and the incremental Rado-number driver.

One backtracking core, _backtrack, decides colorability of [1, n].  It
scans the vertices in ascending order, skips those already colored, and
at each other vertex tries the colors its backend offers; a color may
first appear only after the one below it has, so a decision may use one
color more than any colored vertex.  A node is a color tried, and the
clock is read at every node.  Chronological backtracking; no learning.

A backend supplies the check behind a placement:

* edge: per-edge counters with unit propagation to a fixpoint.  An edge
  with one uncolored vertex whose colored vertices share color c removes
  c from that vertex's domain; a vertex left with one viable color is
  colored with it at once and its edges are processed in turn, until
  nothing is forced.  Forced colorings are not nodes, and they count
  toward the first-appearance limit, which they can only raise.  Viable
  colors are tried lowest-threat first, where a color's threat count is
  the number of incident edges it would leave one monochromatic step
  from completion; sparse instances like Pythagorean triples are
  intractable under naive first-fit but close in a few thousand nodes
  under this ordering.  `propagations` counts colors removed from a
  domain.
* dp: rejects a color the moment its class closes a solution whose
  maximum value is the new vertex, decided by power-sum reachability
  masks extended incrementally.  On the fast path (one weight per side)
  it also forward-checks: after v joins class c, c is struck from each
  later vertex that would close a solution using itself once and the
  rest of the class, and a wiped-out domain rejects the placement.
  Struck colors are not offered, so they are not nodes; `propagations`
  counts them.  Other equations take one dp_feasible call per placement
  and report 0 propagations.
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
        if not self.time_budget > 0:          # NaN would meet no deadline
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
    try:
        edges = _edges(eq, n, params.backend, deadline)
    except EnumerationTimeout:
        return SearchOutcome(BUDGET_EXHAUSTED, None, SearchStats(), "edge")
    start = time.monotonic()
    outcome = _search(eq, n, r, edges, deadline)
    outcome.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
    return outcome


def _validate(n: int, r: int) -> None:
    if n < 1:
        raise SolverError(f"n must be >= 1, got {n}")
    if r < 1:
        raise SolverError(f"r must be >= 1, got {r}")


def _edges(eq, n, backend, deadline, closing=False, have=0):
    """The edges of [1, n] (with closing, those whose largest value is n,
    given have edges below n), or None for dp: auto moves to dp past
    AUTO_EDGE_CAP edges in all or AUTO_NODE_BUDGET enumeration nodes, and
    edge is refused past EDGE_BACKEND_CAP edges.  Raises
    EnumerationTimeout if the deadline passes while enumerating."""
    if backend == "dp":
        return None
    auto = backend == "auto"
    try:
        return build_hyperedges(
            eq, n, closing=closing,
            node_budget=AUTO_NODE_BUDGET if auto else None,
            edge_cap=(AUTO_EDGE_CAP if auto else EDGE_BACKEND_CAP) - have,
            deadline=deadline,
        ).edges
    except EnumerationBudgetExceeded:
        if auto:
            return None
        raise SolverError(
            f"edge backend refused: more than {EDGE_BACKEND_CAP} edges; "
            "use backend 'dp' or 'auto'"
        ) from None


def _search(eq, n, r, edges, deadline) -> SearchOutcome:
    """Decide colorability of [1, n] on the edge backend, or on dp when
    edges is None."""
    stats = SearchStats()
    color = [0] * (n + 1)
    if edges is not None:
        backend = "edge"
        order, checks = _edge_checks(n, r, edges, color, stats)
    else:
        backend = "dp"
        order = range(1, n + 1)
        if _dp_fast(eq):
            checks = _dp_fast_checks(eq, n, r, color, stats)
        else:
            checks = _dp_generic_checks(eq, r, color, deadline)
    try:
        verdict = _backtrack(order, color, r, *checks, stats, deadline)
    except EnumerationTimeout:            # in a distinct: dp_feasible scan
        verdict = BUDGET_EXHAUSTED
    coloring = None
    if verdict == COLORABLE:
        # vertices on no edge are never searched and take color 1
        coloring = Coloring(n, r, tuple(c or 1 for c in color[1:]))
    return SearchOutcome(verdict, coloring, stats, backend)


def _backtrack(order, color, r, candidates, place, undo, stats, deadline) -> str:
    """The one search loop (see the module docstring); returns the verdict.

    candidates(v, limit) gives the colors to try at v, none above limit.
    place(v, c) colors v and whatever that forces and returns an undo
    token, (the vertices it colored, its log), or None after undoing a
    rejected placement itself; undo(token) reverses a placement.  color
    is the backend's vertex -> color map, 0 while uncolored; on COLORABLE
    it holds the coloring."""
    # one frame per decision: (position in order, candidates, next index,
    # undo token, max_used before it)
    stack: list[tuple] = []
    clock = time.monotonic
    end = len(order)
    pos = 0
    max_used = 0
    cand = None
    ci = 0
    while True:
        if cand is None:
            while pos < end and color[order[pos]]:
                pos += 1                  # colored by propagation
            if pos == end:
                return COLORABLE
            cand = candidates(order[pos], min(r, max_used + 1))
            ci = 0
        v = order[pos]
        while ci < len(cand):
            c = cand[ci]
            ci += 1
            stats.nodes += 1
            if clock() > deadline:
                return BUDGET_EXHAUSTED
            token = place(v, c)
            if token is not None:
                stack.append((pos, cand, ci, token, max_used))
                if len(stack) > stats.max_depth:
                    stats.max_depth = len(stack)
                for w in token[0]:
                    if color[w] > max_used:
                        max_used = color[w]
                cand = None
                break
        else:
            if not stack:
                return UNCOLORABLE
            pos, cand, ci, token, max_used = stack.pop()
            undo(token)


def _edge_checks(n, r, edges, color, stats):
    """The edge backend: its search order, the vertices on some edge, and
    its candidates, place and undo."""
    esize = [len(e) for e in edges]
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)
    domain = [(1 << r) - 1] * (n + 1)
    counts = [[0] * (r + 1) for _ in edges]
    unc = esize[:]

    def assign(v, c, restore, forced):
        """Color v with c and update its edge counters.

        Logs each domain change in restore and appends to forced every
        vertex left with exactly one viable color.  Returns False if an
        edge became monochromatic or a domain empty; the counters are
        updated in full either way, so undo reverses them."""
        color[v] = c
        bit = 1 << (c - 1)
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
                            if dm & bit:
                                restore.append((w, dm))
                                dm &= ~bit
                                domain[w] = dm
                                stats.propagations += 1
                                if dm == 0:
                                    ok = False
                                elif not dm & (dm - 1):
                                    forced.append(w)
                            break
        return ok

    def place(v, c):
        """Color v with c, then each vertex left with one viable color, in
        the order they are forced, until nothing is forced or a conflict
        arises."""
        placed = [v]
        restore: list[tuple[int, int]] = []
        ok = assign(v, c, restore, placed)
        i = 1
        while ok and i < len(placed):
            w = placed[i]
            i += 1
            ok = assign(w, domain[w].bit_length(), restore, placed)
        del placed[i:]
        if ok:
            return placed, restore
        undo((placed, restore))
        return None

    def undo(token):
        placed, restore = token
        for v in reversed(placed):
            c = color[v]
            for ei in incident[v]:
                counts[ei][c] -= 1
                unc[ei] += 1
            color[v] = 0
        for w, dm in reversed(restore):
            domain[w] = dm

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

    order = [v for v in range(1, n + 1) if incident[v]]
    return order, (candidates, place, undo)


def _dp_fast(eq: Equation) -> bool:
    """The incremental mask extension needs one uniform weight per side."""
    lhs, rhs = _plan(eq)
    return (
        not eq.free_vars
        and not eq.distinct_required
        and len(lhs) == 1
        and len(rhs) == 1
    )


def _dp_fast_checks(eq, n, r, color, stats):
    """The dp fast path's candidates, place and undo: power-sum masks per
    class, extended as the class grows, and forward checking."""
    lhs, rhs = _plan(eq)
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
    domain = [(1 << r) - 1] * (n + 1)      # colors not yet struck, bit c-1
    # viable[limit][dm]: the colors 1..limit left in domain dm, filled in
    # as domains are met (a full table would have 2**r rows)
    viable: list[dict[int, list[int]]] = [{} for _ in range(r + 1)]

    def closes_solution(v, c):
        """Extend class c by v; push masks; True iff a solution with maximum
        value v lies entirely in the class."""
        la, ra = stacks[c][-1]
        sl, sr = wl[v], wr[v]
        nl = [1]
        for t in range(1, p + 1):
            nl.append((la[t] | (nl[-1] << sl)) & capmask)
        nr = [1]
        for t in range(1, q + 1):
            nr.append((ra[t] | (nr[-1] << sr)) & capmask)
        stacks[c].append((nl, nr))
        # v once more on the left: (nl[p-1] << sl) & nr[q]; on the right:
        # nl[p] & (nr[q-1] << sr); shifted right instead, for smaller ints
        return bool((nr[q] >> sl) & nl[p - 1] or (nl[p] >> sr) & nr[q - 1])

    def strike(v, c, struck):
        """Strike c from each later vertex that would close a solution using
        its own value once and the rest of class c, v now included.

        Sound while v stays in c, since a class only grows until backtrack.
        Lists each vertex struck in struck; False if a domain is wiped out."""
        la, ra = stacks[c][-1]
        a, a1 = la[p], la[p - 1]
        b, b1 = ra[q], ra[q - 1]
        bit = 1 << (c - 1)
        for w in range(v + 1, n + 1):
            dm = domain[w]
            # w once on the left: (a1 << wl[w]) & b; on the right:
            # a & (b1 << wr[w]); shifted right instead, for smaller ints
            if dm & bit and ((b >> wl[w]) & a1 or (a >> wr[w]) & b1):
                struck.append(w)
                domain[w] = dm = dm ^ bit
                stats.propagations += 1
                if not dm:
                    return False
        return True

    def candidates(v, limit):
        dm = domain[v]
        cands = viable[limit].get(dm)
        if cands is None:
            cands = [c for c in range(1, limit + 1) if dm >> (c - 1) & 1]
            viable[limit][dm] = cands
        return cands

    def place(v, c):
        struck: list[int] = []
        if closes_solution(v, c) or not strike(v, c, struck):
            unplace(c, struck)
            return None
        color[v] = c
        return (v,), struck

    def undo(token):
        (v,), struck = token
        unplace(color[v], struck)
        color[v] = 0

    def unplace(c, struck):
        stacks[c].pop()
        bit = 1 << (c - 1)
        for w in struck:
            domain[w] |= bit

    return candidates, place, undo


def _dp_generic_checks(eq, r, color, deadline):
    """The dp path for other equations: a dp_feasible call per placement."""
    classes: list[list[int]] = [[] for _ in range(r + 1)]

    def candidates(v, limit):
        return range(1, limit + 1)

    def place(v, c):
        color[v] = c
        classes[c].append(v)
        token = (v,), None
        if dp_feasible(eq, classes[c], v, deadline):
            undo(token)
            return None
        return token

    def undo(token):
        (v,), _ = token
        classes[color[v]].pop()
        color[v] = 0

    return candidates, place, undo


def compute_rado(
    eq: Equation, r: int, params: SearchParams | None = None
) -> RadoOutcome:
    """Increment n until [1, n] is uncolorable (Exact) or the cap or time
    budget is hit (LowerBound at the last colorable n).

    Each new n first tries extending the previous witness by each color
    in turn (only solutions closing at n can break, so the check is
    cheap); when no extension survives, a full search runs for that n.
    Bounds are reported from the first n that closes a solution.  The
    edge list grows by the edges closing at each new n, under the backend
    rule of find_coloring for [1, n]; once on dp, auto stays there.
    """
    params = params or SearchParams()
    _validate(1, r)
    deadline = time.monotonic() + params.time_budget
    bounds: list[BoundReport] = []
    # every edge of [1, n], by (max, tuple); None once the search is on dp
    edges: list[tuple[int, ...]] | None = [] if params.backend != "dp" else None
    colors: list[int] = []                # the witness: colors[v-1] is v's color
    n = 0
    while n < params.n_cap and time.monotonic() <= deadline:
        n += 1
        t0 = time.monotonic()
        try:
            closing = None
            if edges is not None:
                closing = _edges(eq, n, params.backend, deadline,
                                 closing=True, have=len(edges))
                if closing is None:
                    edges = None
                else:
                    edges.extend(closing)
            c = _try_extend(eq, colors, n, r, closing, deadline)
        except EnumerationTimeout:
            break
        if c is not None:
            colors.append(c)
            # while every value has color 1, color 1 extends to n exactly
            # when no solution closes at n: nothing to report yet
            if bounds or c != 1:
                bounds.append(BoundReport(
                    n, COLORABLE, "edge" if closing is not None else "dp", True,
                    0, 0, int((time.monotonic() - t0) * 1000),
                ))
            continue

        if time.monotonic() > deadline:
            break
        outcome = _search(eq, n, r, edges, deadline)
        outcome.stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
        bounds.append(BoundReport(
            n, outcome.verdict, outcome.backend, False,
            outcome.stats.nodes, outcome.stats.propagations,
            outcome.stats.elapsed_ms,
        ))
        if outcome.verdict == UNCOLORABLE:
            return _outcome(EXACT, n, colors, r, bounds)
        if outcome.verdict != COLORABLE:
            break
        colors = list(outcome.coloring.colors)
    return _outcome(LOWER_BOUND, len(colors), colors, r, bounds)


def _outcome(kind, value, colors, r, bounds) -> RadoOutcome:
    return RadoOutcome(kind, value, Coloring(len(colors), r, tuple(colors)), bounds)


def _try_extend(eq, colors, n, r, closing, deadline):
    """The color that extends the witness colors of [1, n-1] to n, or None.

    closing holds the edges whose largest value is n, or None on the dp
    backend, which asks dp_feasible instead."""
    if closing is not None:
        for c in range(1, r + 1):
            ok = True
            for e in closing:
                mono = True
                for v in e:
                    if v < n and colors[v - 1] != c:
                        mono = False
                        break
                if mono:
                    ok = False
                    break
            if ok:
                return c
        return None
    for c in range(1, r + 1):
        cls = [v for v in range(1, n) if colors[v - 1] == c]
        cls.append(n)
        if not dp_feasible(eq, cls, n, deadline):
            return c
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
