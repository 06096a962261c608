"""Coloring search and the incremental Rado-number driver.

One backtracking core, _backtrack, decides colorability of [1, n].  It
decides at the uncolored vertex its backend picks and tries the colors
the backend offers there; a color may first appear only after the one
below it has, so a decision may use one color more than any colored
vertex.  A node is a color tried, and the clock is read at every node.
Chronological backtracking; no learning.

The core owns the coloring and one domain per vertex (viable colors,
bit c-1 for color c).  _place colors the decision vertex, then each
vertex left with one viable color, with it, until nothing is forced or a
check fails; forced colorings are not nodes, and they count toward the
first-appearance limit, which they can only raise.  It logs each domain
change as (vertex, old domain), and `propagations` counts them; _undo
reverses a placement.  A backend supplies only candidates(v, limit),
assign (check a new color, narrow domains, report forced vertices) and
unassign (reverse assign's own counters).

* edge: per-edge counters.  An edge with one uncolored vertex whose
  colored vertices share color c removes c from that vertex's domain.
  Viable colors are tried lowest-threat first, where a color's threat
  count is the number of incident edges it would leave one monochromatic
  step from completion; sparse instances like Pythagorean triples are
  intractable under naive first-fit but close in a few thousand nodes
  under this ordering.  Decisions are fail-first: at the vertex on the
  most near-threat edges (two uncolored vertices, the colored ones of one
  color), ties to the lowest.
* dp: decides at the lowest uncolored vertex.  It rejects a color the
  moment its class holds a solution, decided by power-sum masks grown
  with the class, one per count of filled slots of each coefficient group
  of a side: one list per class, the lhs masks then the rhs masks
  (_dp_sides), both grown by one _grow call.  It also forward-checks:
  after a vertex joins class c, c is struck from each uncolored vertex
  above the decision that would close a solution with itself in one slot
  of a side's first group and the rest of the class, or in two slots of
  the rhs's first group where it has them (the rhs has the fewer terms,
  so its other side's full mask is the densest), and a wiped-out domain
  rejects the placement.  Its masks cannot keep values distinct,
  so a distinct: equation runs on edge only, and backend dp refuses it.

The backend rule counts solution representatives (_iter_reps), not
edges.  auto takes dp once representatives x slots (constrained
variables) pass n^2: an edge placement walks the vertex's incident
edges, about representatives x slots / n of them, while a dp placement
strikes over at most n vertices.  AUTO_EDGE_CAP representatives bound
edge's memory whatever n is.  A forced edge backend, and auto on a
distinct: equation, is refused past EDGE_BACKEND_CAP.  find_coloring
asks the exact count (_count_reps) first and enumerates nothing when it
decides; compute_rado's windows of bounds (_closing_edges), and any
instance too large to count, count representatives as they enumerate
them, against the same bounds.  Each switch to dp is logged at info on
the "rado" logger.

compute_rado's warm step extends the last witness to a new n before any
search.  When no color extends it on edge with r >= 2, a walk (_walk)
runs before the cold search.  It starts from the witness, n in the color
on the fewest monochromatic closing edges; each flip recolors, on a
monochromatic edge, the (vertex, color) that makes the fewest others
monochromatic, or, with probability 0.3 when each makes one, a random
one.  Its draws come from n and r alone, so runs repeat.  It gives up
after max(WALK_MIN_FLIPS, the last cold bound's nodes) flips or at the
deadline, and the cold search decides; it only ever returns a coloring,
so no verdict rests on it.  It reads compute_rado's incidence lists,
grown from its edge list when a walk or an edge search needs them and
passed to the edge backend too.

On dp the warm step keeps each color class's mask list from one n to the
next, sized for values up to 2n (at most n_cap) since their capmask
grows with n, and grows n into one class after another, the test assign
makes.  It rebuilds them from the witness once n passes that size, when
auto switches to dp, and after a cold search, during which none are kept.

dp decides the lowest uncolored vertex, colors ascending, so its search
returns the lex-least valid coloring.  compute_rado's witness is the
lex-least valid coloring of [1, n-1] at the start, after a warm step
(edge or dp: it takes the lowest color that extends) and after a dp cold
search, but not after a walk or an edge cold search (fail-first order),
until the next dp cold search.  While it is, it is the floor of the dp
cold search at n (_floored): a coloring of [1, n] whose prefix sorts
below it is already invalid on [1, n-1].  So while colors 1..v-1 equal
the witness's, v takes no color below the witness's, and once they sort
below it (a forced vertex can put them there), no color at all; a color
skipped is not a node.
"""

from __future__ import annotations

import itertools
import logging
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .equations import Equation
from .solutions import (
    EnumerationBudgetExceeded,
    EnumerationTimeout,
    build_hyperedges,
    check_overflow,
    dp_feasible,  # not called here; perfbench/tracer.py wraps solver.dp_feasible
    _count_reps,
    _dp_sides,
    _grow,
)

COLORABLE = "colorable"
UNCOLORABLE = "uncolorable"
BUDGET_EXHAUSTED = "budget-exhausted"

EXACT = "exact"
LOWER_BOUND = "lower-bound"

BACKENDS = ("edge", "dp", "auto")

# auto never keeps edges past this many solution representatives of
# [1, n] (at least as many as its edges), distinct: equations aside; it
# bounds edge's per-edge lists where representatives x slots stay below
# n^2, as for x+y=z at any n
AUTO_EDGE_CAP = 20_000
EDGE_BACKEND_CAP = 1_000_000
ORACLE_CAP = 10**8
# compute_rado's walk gives up after this many flips, or after as many as
# the last cold bound took nodes if that is more
WALK_MIN_FLIPS = 16

log = logging.getLogger("rado")


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
    flips: int = 0            # the walk's flips, on a bound it colored
    max_depth: int = 0        # the cold search's deepest decision stack


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
    backend: str = "auto"     # one of BACKENDS

    def __post_init__(self):
        if self.n_cap < 1:
            raise SolverError(f"n_cap must be >= 1, got {self.n_cap}")
        if not self.time_budget > 0:          # NaN would meet no deadline
            raise SolverError("time_budget must be positive")
        if self.backend not in BACKENDS:
            raise SolverError(f"unknown backend {self.backend!r}")


def find_coloring(
    eq: Equation, n: int, r: int, params: SearchParams | None = None
) -> SearchOutcome:
    """Search for an r-coloring of [1, n] with no monochromatic solution.

    Returns colorable with a verified witness, uncolorable after
    exhausting the space, or budget-exhausted (no claim).
    """
    params = params or SearchParams()
    _validate(n, r, eq, params.backend)
    check_overflow(eq, n)
    deadline = time.monotonic() + params.time_budget
    try:
        found = _edges(eq, n, params.backend, deadline)
    except EnumerationTimeout:
        return SearchOutcome(BUDGET_EXHAUSTED, None, SearchStats(), "edge")
    start = time.monotonic()
    edges = None if found is None else found.edges
    incident = None if found is None else _index([], edges, 0, n)
    outcome = _search(eq, n, r, edges, incident, deadline)
    outcome.stats.elapsed_ms = int((time.monotonic() - start) * 1000)
    return outcome


def _validate(n: int, r: int, eq: Equation | None = None, backend: str = "") -> None:
    if n < 1:
        raise SolverError(f"n must be >= 1, got {n}")
    if r < 1:
        raise SolverError(f"r must be >= 1, got {r}")
    if backend == "dp" and eq.distinct_required:
        raise SolverError("backend 'dp' refuses a distinct: equation; use 'edge' or 'auto'")


def _slots(eq) -> int:
    """The constrained variables of eq."""
    return len(eq.lhs) + len(eq.rhs) - len(eq.free_vars)


def _rep_cap(n, auto, slots) -> int:
    """The most representatives of [1, n] the backend rule keeps on edge:
    min(AUTO_EDGE_CAP, n*n // slots) for auto, else EDGE_BACKEND_CAP."""
    return min(AUTO_EDGE_CAP, n * n // slots) if auto else EDGE_BACKEND_CAP


def _edges(eq, n, backend, deadline, have=0, low=None):
    """The EdgeSet of [1, n] (with low, of the window of edges whose
    largest value is in (low, n], given have representatives of [1, low]),
    or None for dp.

    One rule on representatives of [1, n]: auto moves to dp past
    min(AUTO_EDGE_CAP, n*n // slots) of them, slots the constrained
    variables; edge, and auto on a distinct: equation, is refused past
    EDGE_BACKEND_CAP.  A one-shot call asks _count_reps first and
    enumerates nothing when the count decides; a window or uncounted
    call counts representatives as it enumerates them.  A window of more
    than one n past the cap raises EnumerationBudgetExceeded instead, so
    that the caller splits it.  Raises EnumerationTimeout if the deadline
    passes while enumerating."""
    if backend == "dp":
        return None
    auto = backend == "auto" and not eq.distinct_required
    slots = _slots(eq)
    cap = _rep_cap(n, auto, slots)
    dense = auto and cap < AUTO_EDGE_CAP
    count = None if low is not None else _count_reps(eq, n)
    if count is None or count <= cap:
        try:
            return build_hyperedges(eq, n, rep_cap=cap - have, deadline=deadline, low=low)
        except EnumerationBudgetExceeded:
            if low is not None and n - low > 1:
                raise
    if not auto:
        hint = ("a distinct: equation runs on edge only" if eq.distinct_required
                else "use backend 'dp' or 'auto'")
        raise SolverError(
            f"edge backend refused: more than {EDGE_BACKEND_CAP} representatives; {hint}"
        )
    if dense:
        reps = f"{count:,}" if count is not None else f"at least {cap + 1:,}"
        why = f"{reps} representatives × {slots} slots > {n}²"
    elif count is not None:
        why = f"{count:,} representatives > AUTO_EDGE_CAP={cap:,}"
    else:
        why = f"more than AUTO_EDGE_CAP={cap:,} representatives"
    log.info("n=%d: %s, dp", n, why)
    return None


def _doubling(eq) -> bool:
    """Whether compute_rado enumerates blocks of bounds: where
    representatives grow no faster than the n^2/slots dp-switch bound,
    about as n^(slots - degree), so constrained slots - degree <= 2."""
    return _slots(eq) - eq.degree <= 2


def _closing_edges(eq, backend, n_cap, deadline):
    """Yield, for n = 1, 2, ..., n_cap, the edges whose largest value is
    n, in (max, tuple) order; or None, and stop, where the backend rule
    moves auto to dp at n.  Raises SolverError where it refuses edge.

    Where _doubling holds, one enumeration (a window of _edges) covers
    each block of bounds (n-1, min(2n, n_cap)], and each n gets its slice
    of it; elsewhere each block is one n.  The rule is checked at each n
    from the window's count per largest value.  A block past the cap, at
    its end or at some n in it, is enumerated one n at a time from its
    first n not yet handed out, so auto moves to dp (and logs), or edge
    is refused, at the same n as with no blocks."""
    auto = backend == "auto" and not eq.distinct_required
    slots, blocks = _slots(eq), _doubling(eq)
    have = low = split = 0      # representatives of [1, low]; blocks resume at split
    while low < n_cap:
        hi = min(2 * low + 2, n_cap) if blocks and low >= split else low + 1
        try:
            found = _edges(eq, hi, backend, deadline, have=have, low=low)
        except EnumerationBudgetExceeded:
            split = hi
            continue
        if found is None:
            yield None
            return
        start = 0
        for m, count in enumerate(found.closing_reps, low + 1):
            if have + count > _rep_cap(m, auto, slots):
                split = hi
                break
            have, low = have + count, m
            stop = bisect_right(found.edges, m, start, key=itemgetter(-1))
            yield found.edges[start:stop]
            start = stop


def _index(incident, edges, start, n):
    """Extend incident, vertex -> indices of its edges in ascending order,
    to the vertices [0, n] and to edges[start:]; returns incident."""
    incident += ([] for _ in range(n + 1 - len(incident)))
    for ei in range(start, len(edges)):
        for v in edges[ei]:
            incident[v].append(ei)
    return incident


def _search(eq, n, r, edges, incident, deadline, floor=None) -> SearchOutcome:
    """Decide colorability of [1, n] on the edge backend, given its
    incidence lists (_index), or on dp when edges is None.  On dp a floor,
    the lex-least valid coloring of [1, n-1] as a list, skips the
    colorings that sort below it (_floored); edge ignores it."""
    stats = SearchStats()
    color = [0] * (n + 1)
    domain = [(1 << r) - 1] * (n + 1)     # viable colors, bit c-1
    if edges is not None:
        backend = "edge"
        pick, checks = _edge_checks(n, r, edges, incident, color, domain)
    else:
        backend = "dp"
        checks = _dp_checks(eq, n, r, color, domain)
        if floor:
            checks = (_floored(checks[0], color, floor), *checks[1:])

        def pick():       # the lowest uncolored vertex (color[0] stays 0)
            return color.index(0, 1) if color.count(0) > 1 else 0
    verdict = _backtrack(pick, color, domain, r, *checks, stats, deadline)
    coloring = None
    if verdict == COLORABLE:
        # vertices on no edge are never searched and take color 1
        coloring = Coloring(n, r, tuple(c or 1 for c in color[1:]))
    return SearchOutcome(verdict, coloring, stats, backend)


def _backtrack(pick, color, domain, r, candidates, assign, unassign, stats,
               deadline) -> str:
    """The one search loop (see the module docstring); returns the verdict.

    pick() gives the next decision vertex, or 0 once every vertex is
    colored.  candidates(v, limit) gives the colors to try at v, none above
    limit.  Each color tried is one _place with the backend's assign and
    unassign, and its log of domain changes counts toward propagations,
    accepted or not.  color (vertex -> color, 0 while uncolored) and domain
    are shared with the backend; on COLORABLE color holds the coloring."""
    # one frame per decision: (vertex, candidates, next index, undo token,
    # max_used before it)
    stack: list[tuple] = []
    clock = time.monotonic
    max_used = 0
    cand = None
    ci = 0
    while True:
        if cand is None:
            v = pick()
            if not v:
                return COLORABLE
            cand = candidates(v, min(r, max_used + 1))
            ci = 0
        while ci < len(cand):
            c = cand[ci]
            ci += 1
            stats.nodes += 1
            if clock() > deadline:
                return BUDGET_EXHAUSTED
            ok, token = _place(v, c, color, domain, assign, unassign)
            stats.propagations += len(token[1])
            if ok:
                stack.append((v, cand, ci, token, max_used))
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
            v, cand, ci, token, max_used = stack.pop()
            _undo(token, color, domain, unassign)


def _place(v, c, color, domain, assign, unassign):
    """Color v with c, then each vertex assign leaves with one viable
    color, with that color, until nothing is forced or assign rejects.

    assign(u, c, log, forced) checks u's new color (already in color[u]),
    logs each domain it narrows in log as (vertex, old domain), and appends
    each vertex it leaves with one color to forced: the vertices placed so
    far, v first.  Returns (accepted, (placed, log)); a rejected placement
    is undone first."""
    placed = [v]
    log: list[tuple[int, int]] = []
    color[v] = c
    ok = assign(v, c, log, placed)
    i = 1
    while ok and i < len(placed):
        u = placed[i]
        i += 1
        c = color[u] = domain[u].bit_length()
        ok = assign(u, c, log, placed)
    del placed[i:]
    if not ok:
        _undo((placed, log), color, domain, unassign)
    return ok, (placed, log)


def _undo(token, color, domain, unassign):
    """Reverse a placement: unassign each vertex while it still has its
    color, then uncolor it, last first; then restore the log, last first."""
    placed, log = token
    for u in reversed(placed):
        unassign(u)
        color[u] = 0
    for w, dm in reversed(log):
        domain[w] = dm


def _floored(candidates, color, floor):
    """dp's candidates(v, limit) above floor, the lex-least valid coloring
    of [1, n-1] (see the module docstring): while colors 1..v-1 equal the
    floor's, none below its color at v, and none at all once they sort
    below it."""

    def floored(v, limit):
        cands = candidates(v, limit)
        prefix, low = color[1:v], floor[:v - 1]
        if prefix != low:
            return cands if prefix > low else []
        if v > len(floor):
            return cands
        f = floor[v - 1]
        return [c for c in cands if c >= f]

    return floored


def _viable(domain, r):
    """candidates(v, limit): the colors 1..limit left in v's domain, in
    ascending order.  One list per (limit, domain), made when first met: a
    full table would have 2**r rows."""
    viable: list[dict[int, list[int]]] = [{} for _ in range(r + 1)]

    def candidates(v, limit):
        dm = domain[v]
        cands = viable[limit].get(dm)
        if cands is None:
            cands = [c for c in range(1, limit + 1) if dm >> (c - 1) & 1]
            viable[limit][dm] = cands
        return cands

    return candidates


def _edge_checks(n, r, edges, incident, color, domain):
    """The edge backend: its fail-first pick, and candidates, assign and
    unassign over per-edge counters; incident holds the n + 1 lists of
    _index, which it only reads."""
    esize = [len(e) for e in edges]
    counts = [[0] * (r + 1) for _ in edges]
    unc = esize[:]
    # near[v]: v's near-threat edges, ~near[v] < 0 while v is colored, -1 if
    # v is on no edge.  near_edge[ei]: ei was near-threat when unc fell to 2.
    near = [0 if vs else -1 for vs in incident]
    near_edge = [k == 2 for k in esize]
    for v in itertools.chain.from_iterable(itertools.compress(edges, near_edge)):
        near[v] += 1
    viable = _viable(domain, r)

    def assign(v, c, log, forced):
        """Update v's edge and near-threat counters for its color c.

        An edge left with one uncolored vertex w, its colored ones all c,
        removes c from w's domain.  Returns False if an edge became
        monochromatic or a domain empty; the counters are updated in full
        either way, so unassign reverses them."""
        near[v] = ~near[v]
        bit = 1 << (c - 1)
        ok = True
        for ei in incident[v]:
            cnt = counts[ei]
            cnt[c] += 1
            u = unc[ei] = unc[ei] - 1
            if u > 2:
                continue
            if u == 2:
                near_edge[ei] = f = cnt[c] == esize[ei] - 2
                if f:
                    for w in edges[ei]:
                        if not color[w]:
                            near[w] += 1
            elif u == 1 and near_edge[ei]:
                # a unit edge whose colored vertices all have c was
                # near-threat before v took c
                for w in edges[ei]:
                    if not color[w]:
                        break
                near[w] -= 1
                if ok and cnt[c] == esize[ei] - 1:
                    dm = domain[w]
                    if dm & bit:
                        log.append((w, dm))
                        dm &= ~bit
                        domain[w] = dm
                        if dm == 0:
                            ok = False
                        elif not dm & (dm - 1):
                            forced.append(w)
            elif u == 0 and cnt[c] == esize[ei]:
                ok = False                # edge fully monochromatic
        return ok

    def unassign(v):
        c = color[v]
        for ei in incident[v]:
            counts[ei][c] -= 1
            u = unc[ei] = unc[ei] + 1
            if 1 < u < 4 and near_edge[ei]:    # undo 2->1 or 3->2
                d = 1 if u == 2 else -1        # v is not yet uncolored
                for w in edges[ei]:
                    if not color[w]:
                        near[w] += d
        near[v] = ~near[v]

    def pick():
        best = max(near)
        return near.index(best) if best >= 0 else 0

    def candidates(v, limit):
        """Viable colors, fewest created threats first (ties: lower color).

        Placing v with c turns an incident edge with two uncolored
        vertices and all colored ones already c into a unit edge; such
        near-completions are what force later vertices, so they are
        deferred."""
        cands = viable(v, limit)
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

    return pick, (candidates, assign, unassign)


def _dp_checks(eq, n, r, color, domain):
    """The dp backend's candidates, assign and unassign for an equation
    without the distinct: marker: one list of _dp_sides' masks per class,
    both sides grown at once as the class grows, and forward checking."""
    masks, groups, ((lf, lgroups), (_, rgroups)), capmask = _dp_sides(eq, n)
    # forward checking puts a later vertex in one slot of each side's
    # first constrained group; a side without one reads its full mask at
    # weight 0, and a & b, already 0, strikes nothing
    (wl, sl, _), (wr, sr, ri) = (g[0] if g else ([0] * (n + 1), 0, ())
                                 for g in (lgroups, rgroups))
    # the rhs's first group has two slots or more iff the full rhs with one
    # of them emptied still has one filled: one of the group's indices;
    # then a later vertex also goes in two of them, at twice its weight
    two = len(masks) - 1 - sr in ri
    wr2 = [2 * x for x in wr]

    # per color: a stack of the class's masks
    stacks: list[list] = [[masks] for _ in range(r + 1)]

    def assign(u, c, log, forced):
        """Grow class c by u and push its masks; reject if the class now
        holds a solution (one with u: it held none before).  Then strike c
        from each uncolored vertex above the decision vertex forced[0] that
        would close a solution using its own value once and the rest of
        class c (those up to it are colored), or, where the rhs's first
        group has two slots or more, its value in two of them; sound while
        a class only grows until backtrack.  Reject if a domain is wiped
        out."""
        m = _grow(stacks[c][-1], groups, u, capmask)
        stacks[c].append(m)
        a, a1, b, b1 = m[lf], m[lf - sl], m[-1], m[-1 - sr]
        b2 = m[-1 - 2 * sr] if two else 0
        if a & b:
            return False
        bit = 1 << (c - 1)
        for w in range(forced[0] + 1, n + 1):
            dm = domain[w]
            # w once on the left: (a1 << wl[w]) & b; once on the right:
            # a & (b1 << wr[w]); twice: a & (b2 << 2 * wr[w]); shifted
            # right instead, for smaller ints
            if dm & bit and not color[w] and (
                    (b >> wl[w]) & a1 or (a >> wr[w]) & b1 or b2 and (a >> wr2[w]) & b2):
                log.append((w, dm))
                domain[w] = dm = dm ^ bit
                if not dm:
                    return False
                if not dm & (dm - 1):
                    forced.append(w)
        return True

    def unassign(u):
        stacks[color[u]].pop()

    return _viable(domain, r), assign, unassign


def compute_rado(
    eq: Equation, r: int, params: SearchParams | None = None
) -> RadoOutcome:
    """Increment n until [1, n] is uncolorable (Exact) or the cap or time
    budget is hit (LowerBound at the last colorable n).

    Each new n first tries extending the previous witness by each color
    in turn (only solutions closing at n can break, so the check is
    cheap); when no extension survives, on edge with r >= 2 a walk
    (_walk) recolors from the witness, and when that gives up too, a full
    search runs for that n.  Bounds are reported from the first n that
    closes a solution.  The edge list grows by the edges closing at each
    new n, under the backend rule of find_coloring for [1, n]; they come
    from one enumeration per block of bounds (n-1, min(2n, n_cap)] where
    _doubling holds, else one per n (_closing_edges), so a deadline
    inside a block's enumeration ends the run at the bound before the
    block.  The incidence lists catch up before each walk or edge search;
    once on dp, auto stays there, and the warm step's per-class masks
    (_kept_masks) are kept across n, rebuilt from the witness past their
    size, on the switch to dp and after a cold search.  A dp cold search
    skips the colorings that sort below the witness (its floor) while the
    witness is the lex-least valid coloring: from the start, and after a
    walk or an edge cold search only once a dp cold search has run.
    """
    params = params or SearchParams()
    _validate(1, r, eq, params.backend)
    deadline = time.monotonic() + params.time_budget
    bounds: list[BoundReport] = []
    # every edge of [1, n], by (max, tuple); None once the search is on dp
    edges: list[tuple[int, ...]] | None = [] if params.backend != "dp" else None
    windows = _closing_edges(eq, params.backend, params.n_cap, deadline)
    incident: list[list[int]] = []       # _index of edges[:indexed]
    indexed = 0
    colors: list[int] = []                # the witness: colors[v-1] is v's color
    kept = None                           # the dp warm step's masks (_try_extend)
    least = True                          # colors is the lex-least valid coloring
    cold_nodes = 0                        # the nodes of the last cold bound
    n = 0
    while n < params.n_cap and time.monotonic() <= deadline:
        n += 1
        t0 = time.monotonic()
        closing = None
        if edges is not None:
            try:
                closing = next(windows)
            except EnumerationTimeout:
                break
            if closing is None:
                edges = None
            else:
                edges.extend(closing)
        if edges is None:
            check_overflow(eq, n)
            if kept is None or n > kept[0]:
                kept = _kept_masks(eq, colors, r, min(2 * n, params.n_cap))
        c = _try_extend(colors, n, r, closing, kept)
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
        if closing is not None:           # indexed only when a walk or search needs it
            _index(incident, edges, indexed, n)
            indexed = len(edges)
        if closing is not None and r > 1:
            walked, flips = _walk(colors, n, r, edges, incident,
                                  max(WALK_MIN_FLIPS, cold_nodes), deadline)
            if walked is not None:
                colors = walked
                least = False
                bounds.append(BoundReport(
                    n, COLORABLE, "edge", True, 0, 0,
                    int((time.monotonic() - t0) * 1000), flips,
                ))
                continue
            if time.monotonic() > deadline:
                break
        kept = None                       # rebuilt from the new witness
        outcome = _search(eq, n, r, edges, incident, deadline, colors if least else None)
        stats = outcome.stats
        stats.elapsed_ms = int((time.monotonic() - t0) * 1000)
        bounds.append(BoundReport(
            n, outcome.verdict, outcome.backend, False, stats.nodes,
            stats.propagations, stats.elapsed_ms, max_depth=stats.max_depth,
        ))
        if outcome.verdict == UNCOLORABLE:
            return _outcome(EXACT, n, colors, r, bounds)
        if outcome.verdict != COLORABLE:
            break
        colors = list(outcome.coloring.colors)
        least = outcome.backend == "dp"   # edge decides fail-first, not in lex order
        cold_nodes = stats.nodes
    return _outcome(LOWER_BOUND, len(colors), colors, r, bounds)


def _outcome(kind, value, colors, r, bounds) -> RadoOutcome:
    return RadoOutcome(kind, value, Coloring(len(colors), r, tuple(colors)), bounds)


def _try_extend(colors, n, r, closing, kept):
    """The color that extends the witness colors of [1, n-1] to n, or None.

    closing holds the edges whose largest value is n, or None on the dp
    backend.  There kept is _kept_masks' state for colors, and a color
    extends when growing n into its class's masks, both sides in one
    _grow, closes no solution (the class held none); the extending
    color's masks keep n."""
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
    _, groups, lf, capmask, masks = kept
    for c in range(1, r + 1):
        m = _grow(masks[c], groups, n, capmask)
        if not m[lf] & m[-1]:
            masks[c] = m
            return c
    return None


def _walk(colors, n, r, edges, incident, budget, deadline):
    """(colors of [1, n], flips) found by a walk from the witness colors of
    [1, n-1], or (None, flips) once it has made budget flips or the clock
    passes deadline.  It never claims that no coloring exists.

    edges are those of [1, n] and incident is their _index.  n takes the
    color on the fewest monochromatic edges; then each flip picks a
    monochromatic edge and recolors the (vertex, color) on it that makes
    the fewest others monochromatic, or, when each makes one, with
    probability 0.3 a random one (probSAT, WalkSAT).  Its random draws
    depend on n and r alone."""
    state = n * 1_000_003 + r

    def draw(k):                          # 64-bit LCG (Knuth's MMIX)
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        return (state >> 33) % k

    color = [0, *colors, 0]

    def made(v, c):
        """v's edges whose other vertices all have color c."""
        out = []
        for ei in incident[v]:
            for w in edges[ei]:
                if color[w] != c and w != v:
                    break
            else:
                out.append(ei)
        return out

    color[n] = min(range(1, r + 1), key=lambda c: len(made(n, c)))
    mono = set(made(n, color[n]))
    flips = 0
    clock = time.monotonic
    while mono:
        if flips == budget or clock() > deadline:
            return None, flips
        flips += 1
        edge = edges[sorted(mono)[draw(len(mono))]]
        new, v, c = min(((made(u, c), u, c) for u in edge
                         for c in range(1, r + 1) if c != color[u]), key=lambda f: len(f[0]))
        if new and draw(10) < 3:
            v = edge[draw(len(edge))]
            c = 1 + draw(r - 1)
            c += c >= color[v]
            new = made(v, c)
        mono.difference_update(incident[v])   # v's monochromatic edges had its old color
        mono.update(new)
        color[v] = c
    return color[1:], flips


def _kept_masks(eq, colors, r, bound):
    """(bound, groups, lhs full index, capmask, masks): masks[c] is the
    one list of _dp_sides(eq, bound) grown by the values of color c in
    colors, for values up to bound since capmask grows with n.
    DP_MASK_CAP does not depend on bound, and the caller checks the
    overflow guard at n, so neither refuses at an earlier n."""
    m, groups, ((lf, _), _), capmask = _dp_sides(eq, bound)
    masks = [m] * (r + 1)
    for v, c in enumerate(colors, 1):
        masks[c] = _grow(masks[c], groups, v, capmask)
    return bound, groups, lf, capmask, masks


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
