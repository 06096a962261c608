"""Solution enumeration over [1, n], hyperedge construction, and the
power-sum reachability oracle.

Enumeration works on canonical representatives: variables of one side
sharing a coefficient (and free/constrained status) are interchangeable,
so values are scanned non-decreasing within each such group.  One side is
materialized into a total -> representatives map and the other side is
streamed against it, which keeps the scan linear in the side product
instead of the full tuple space.  Both sides go through one recursion.
A free variable is scanned like any other, but bounded by the largest
total of the side without free variables instead of by n; like any
streamed slot, it is solved rather than scanned when the materialized
side has only a few totals.

The streamed side's innermost slot probes each total against the
materialized table.  Where its values' powers fall into far fewer
residue classes mod SIEVE_MODULUS than it has values, only the classes
whose residue can complete the partial sum to a table total's residue
are probed, each cut to the slot's range by bisection.  This residue
sieve yields the same values in the same order, and charges the budget
what the plain scan would, so backend choices and deadline checks do not
depend on it.  It is skipped for a pinned slot and below eight values per
class, decided from one cached count per coefficient.

The streamed side's last group is pruned from below too.  A table of the
power sums its remaining slots can add (_reach_rows) lets each looped
slot skip a value from which no probe total can be reached.  It is built
per pass only where at least two slots loop, and only while largest
probe total x slots x bound is at most REACH_TABLE_CAP.  The yields and
their order stay the same, but a pruned subtree is never entered and so
never charged: a scan charges the enumeration budget less than it would
without the table, and may finish under a node budget it would exceed.

A distinct: equation is enumerated like any other, and _iter_reps drops
each representative with a repeated constrained value; no other
enumeration path reads the marker.  dp_feasible decides a distinct:
equation from the edges closing at its pivot, enumerated once per
(equation, pivot) and cached.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product
from math import comb, factorial, inf, isqrt, prod
from operator import itemgetter

from .equations import Equation

OVERFLOW_LIMIT = 2**62
MAX_SOLUTIONS = 1_000_000
MATERIALIZE_CAP = 5_000_000
CLOCK_CHECK_NODES = 4096
# a streamed side's last slot is solved per total, not scanned, when the
# materialized side has at most this many totals
EXACT_PROBE_TOTALS = 4
# the streamed side's innermost slot is sieved by residues of totals mod this
SIEVE_MODULUS = 5040
# the streamed side's last group is pruned by a reachability table only
# while its size, top probe total x slots x bound bits, is at most this
REACH_TABLE_CAP = 2**24


class OverflowGuardError(ValueError):
    """Bound n would push a side sum past the 64-bit safety limit."""


class SolutionCapError(RuntimeError):
    """Expanding all ordered solutions would exceed the listing cap."""


class EnumerationBudgetExceeded(RuntimeError):
    """Internal: canonical scan aborted after visiting too many nodes."""


class EnumerationTimeout(RuntimeError):
    """Internal: canonical scan aborted at its deadline."""


def check_overflow(eq: Equation, n: int) -> None:
    if n < 1:
        raise ValueError(f"bound must be >= 1, got {n}")
    if eq.side_max_sum(n) > OVERFLOW_LIMIT:
        raise OverflowGuardError(
            f"bound {n} overflows the 64-bit guard for {eq.render()!r}"
        )


@dataclass
class SolutionTuple:
    """One assignment satisfying the equation exactly.

    values holds the constrained variables (all <= the enumeration bound);
    free_values holds free variables, which may exceed it.
    """

    values: dict[str, int]
    free_values: dict[str, int]

    def constrained(self) -> tuple[int, ...]:
        return tuple(self.values.values())

    def render(self, eq: Equation) -> str:
        """Substitute values into the equation, e.g. '1+1=2' or '3^2+4^2=5^2'."""
        def side(terms):
            parts = []
            for t in terms:
                v = self.values.get(t.variable, self.free_values.get(t.variable))
                s = f"{v}^2" if eq.degree == 2 else str(v)
                if t.coefficient != 1:
                    s = f"{t.coefficient}*{s}"
                parts.append(s)
            return "+".join(parts)

        return f"{side(eq.lhs)}={side(eq.rhs)}"


@dataclass(frozen=True)
class EdgeSet:
    """Hyperedges (distinct constrained values of solutions) within [1, n]."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    minimized: bool = False

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class _Group:
    """Interchangeable slots: one side, equal coefficient, same free status.

    Compared and hashed by identity: an equation's groups come from the
    cached _plan."""

    coefficient: int
    names: tuple[str, ...]
    is_free: bool

    @property
    def size(self) -> int:
        return len(self.names)


@lru_cache(maxsize=256)
def _plan(eq: Equation) -> tuple[tuple[_Group, ...], tuple[_Group, ...]]:
    """The groups of each side, ordered by (coefficient, free status)."""

    def side_groups(terms):
        buckets: dict[tuple[int, bool], list[str]] = {}
        for t in terms:
            buckets.setdefault((t.coefficient, eq.is_free(t.variable)), []).append(t.variable)
        return tuple(
            _Group(coef, tuple(names), free)
            for (coef, free), names in sorted(buckets.items())
        )

    return side_groups(eq.lhs), side_groups(eq.rhs)


def _cap(lhs, rhs, n: int, degree: int) -> int:
    """The largest total of a solution within [1, n]: the least of the
    largest totals of the sides without free variables."""
    return min(
        sum(g.coefficient * g.size for g in side) * n**degree
        for side in (lhs, rhs)
        if not any(g.is_free for g in side)
    )


class _Scan:
    """Value ranges of one enumeration pass.

    Every group scans [1, bound[g]]; the pinned group's last (largest)
    slot is fixed at its bound.  powers maps a coefficient to
    [coefficient * v**degree for v in 0..b], b the largest bound of its
    groups and at least n.
    """

    __slots__ = ("degree", "powers", "bound", "pinned")

    def __init__(self, degree, powers, bound, pinned=None):
        self.degree = degree
        self.powers = powers
        self.bound = bound
        self.pinned = pinned


def _scans(groups: tuple[_Group, ...], n: int, degree: int, closing: bool, cap: int):
    """The passes that enumerate [1, n], or with closing only the
    solutions holding n: pass p pins constrained group p to n and bounds
    the groups before it by n-1, so each solution is produced once, by the
    first group (lhs then rhs) that holds n.  A free group is never pinned;
    it is bounded by the largest value whose power fits in cap."""
    bound = {
        g: _floor_root(cap // g.coefficient, degree) if g.is_free else n
        for g in groups
    }
    reach: dict[int, int] = {}
    for g in groups:
        reach[g.coefficient] = max(reach.get(g.coefficient, n), bound[g])
    powers = {c: [c * v**degree for v in range(top + 1)] for c, top in reach.items()}
    constrained = [g for g in groups if not g.is_free]
    if not closing:
        return [_Scan(degree, powers, bound)]
    return [
        _Scan(degree, powers, bound | dict.fromkeys(constrained[:p], n - 1), pivot)
        for p, pivot in enumerate(constrained)
    ]


def _tail_min(groups, scan: _Scan) -> list[int]:
    """tail_min[i]: the least total of groups[i:], every slot at 1 except
    a pinned slot, which sits at its bound."""
    tail_min = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        g = groups[i]
        least = g.coefficient * g.size
        if g == scan.pinned:
            least += scan.powers[g.coefficient][scan.bound[g]] - g.coefficient
        tail_min[i] = tail_min[i + 1] + least
    return tail_min


def _est_reps(groups: tuple[_Group, ...], scan: _Scan) -> int:
    est = 1
    for g in groups:
        scanned = g.size - (g == scan.pinned)
        est *= comb(scan.bound[g] + scanned - 1, scanned)
    return est


def _floor_root(x, degree):
    return isqrt(x) if degree == 2 else x


def _solve_last(coef, degree, remaining, lo):
    """The value v >= lo with coef * v**degree == remaining, or None."""
    if remaining < coef or remaining % coef:
        return None
    target = remaining // coef
    v = _floor_root(target, degree)
    if v < lo or v**degree != target:
        return None
    return v


def _solve_pair(pw, coef, degree, remaining, lo, bound, budget):
    """Every (v, w) with lo <= v <= w <= bound and pw[v] + pw[w] equal to
    remaining, walking in from both ends of the increasing table pw."""
    pairs = []
    if remaining <= pw[lo]:
        return pairs
    v = lo
    w = min(bound, _floor_root((remaining - pw[lo]) // coef, degree))
    budget.spend(max(w - v, 0) + 1)
    while v <= w:
        total = pw[v] + pw[w]
        if total < remaining:
            v += 1
        elif total > remaining:
            w -= 1
        else:
            pairs.append((v, w))
            v += 1
            w -= 1
    return pairs


@lru_cache(maxsize=64)
def _residue_classes(coef, degree) -> int:
    """How many residues mod SIEVE_MODULUS the values coef * v**degree take."""
    return len({coef * v**degree % SIEVE_MODULUS for v in range(SIEVE_MODULUS)})


def _residue_sieve(pw, bound, probe):
    """hits(part, lo, hi): the ascending v in [lo, hi) with part + pw[v] in
    probe, probing only the v whose residue class can reach a probe total
    mod SIEVE_MODULUS."""
    m = SIEVE_MODULUS
    classes: dict[int, list[int]] = {}
    for v in range(1, bound + 1):
        classes.setdefault(pw[v] % m, []).append(v)
    wanted = {t % m for t in probe}
    fitting: dict[int, list[list[int]]] = {}

    def hits(part, lo, hi):
        r = part % m
        fits = fitting.get(r)
        if fits is None:
            fits = fitting[r] = [vs for c, vs in classes.items() if (r + c) % m in wanted]
        found = [
            v
            for vs in fits
            for v in vs[bisect_left(vs, lo):bisect_left(vs, hi)]
            if part + pw[v] in probe
        ]
        found.sort()
        return found

    return hits


def _reach_rows(pw, bound, low, high, top):
    """rows[m][lo] for low <= m <= high: bit s is set iff m non-decreasing
    values in [lo, bound] have pw-sum m * pw[lo] + s.  Bits past
    top - (m + 1) * pw[lo] are dropped: a slot that enters lo, with m
    slots after it, cannot reach a total above top with them."""
    mask = (1 << (top + 1)) - 1
    # sums[m]: the pw-sums up to top of m values in [lo, bound]
    sums = [1] + [0] * high
    rows = {m: [0] * (bound + 1) for m in range(low, high + 1)}
    for lo in range(bound, 0, -1):
        for m in range(1, high + 1):
            sums[m] = (sums[m] | sums[m - 1] << pw[lo]) & mask
        for m, row in rows.items():
            room = top - (m + 1) * pw[lo]
            if room >= 0:
                row[lo] = sums[m] >> (m * pw[lo]) & ((2 << room) - 1)
    return rows


class _Budget:
    """Node allowance of one enumeration, and optionally a deadline.

    With a deadline the allowance is handed out CLOCK_CHECK_NODES at a
    time and the clock is read once per handout, so the per-node cost is
    the same with or without one.
    """

    __slots__ = ("left", "reserve", "deadline")

    def __init__(self, nodes: int | None, deadline: float | None = None):
        self.deadline = deadline
        self.left, self.reserve = nodes, 0
        if deadline is not None:
            self.left, self.reserve = 0, inf if nodes is None else nodes

    def spend(self, amount: int) -> None:
        if self.left is not None:
            self.left -= amount
            if self.left < 0:
                self._refill()

    def _refill(self) -> None:
        remaining = self.reserve + self.left
        if remaining < 0:
            raise EnumerationBudgetExceeded()
        if time.monotonic() > self.deadline:
            raise EnumerationTimeout()
        self.left = min(CLOCK_CHECK_NODES, remaining)
        self.reserve = remaining - self.left


def _iter_side(groups, scan, cap, probe, budget):
    """Yield (total, values) for every canonical assignment of one side
    whose total is at most cap and, given a probe table, one of its keys.
    values is a tuple of per-group non-decreasing value tuples.

    With a probe the innermost slot runs as a tight loop, so the scan cost
    stays close to raw arithmetic, or through the residue sieve where that
    pays; when the probe holds only a few totals the last slots are solved
    for each of them instead.  Where two or more of the last group's slots
    loop, they skip each value from which the slots left cannot reach a
    probe total (_reach_rows), so a pruned subtree is never entered and
    never charged to the budget.
    """
    tail_min = _tail_min(groups, scan)
    glast = len(groups) - 1
    totals = sieve = rows = None
    if probe is not None:
        g = groups[glast]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        pin = g == scan.pinned
        if len(probe) <= EXACT_PROBE_TOTALS:
            totals = sorted(probe)
        elif not pin and _residue_classes(g.coefficient, scan.degree) * 8 <= bound:
            # the sieve pays from about eight values per residue class
            sieve = _residue_sieve(pw, bound, probe)
        # the last group's slots scanned in a loop: neither the innermost
        # one nor solved for few totals.  With one, a pruned value saves a
        # single solve or innermost scan, about what building the table
        # costs; no loop runs if the side's least total is past every
        # probe total
        looped = g.size - 1 - (totals is not None and not pin)
        if (
            looped > 1 and probe and tail_min[0] <= max(probe)
            and max(probe) * g.size * bound <= REACH_TABLE_CAP
        ):
            # slot s leaves most - s free slots after its own
            most = g.size - 1 - pin
            pinned = pw[bound] if pin else 0
            rows = _reach_rows(pw, bound, most - looped + 1, most, max(probe) - pinned)
            want = sum(1 << t for t in probe) >> pinned

    def rec(gi, partial, acc):
        g = groups[gi]
        later = tail_min[gi + 1]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        pin = g == scan.pinned
        top = g.size - 1
        last = gi == glast

        def fill(slot, lo, part, vals):
            if last and totals is not None and slot >= top - 1 + pin:
                # few totals: solve the slots left for each of them
                coef, degree = g.coefficient, scan.degree
                for t in totals:
                    if slot == top:
                        v = _solve_last(coef, degree, t - part, bound if pin else lo)
                        found = [(v,)] if v is not None and v <= bound else []
                    else:
                        found = _solve_pair(pw, coef, degree, t - part, lo, bound, budget)
                    for tail in found:
                        yield t, acc + (tuple(vals) + tail,)
                budget.spend(len(totals) + 1)
                return
            if slot == top:
                if pin:
                    lo = bound
                if not last:
                    budget.spend(1)
                    v = lo
                    while v <= bound and part + pw[v] + later <= cap:
                        yield from rec(gi + 1, part + pw[v], acc + (tuple(vals + [v]),))
                        v += 1
                elif probe is None:
                    budget.spend(1)
                    v = lo
                    while v <= bound and part + pw[v] <= cap:
                        yield part + pw[v], acc + (tuple(vals + [v]),)
                        v += 1
                elif sieve is None:
                    # innermost slot: probe the other side's totals directly
                    v = lo
                    count = 0
                    while v <= bound:
                        t = part + pw[v]
                        if t > cap:
                            break
                        if t in probe:
                            yield t, acc + (tuple(vals + [v]),)
                        v += 1
                        count += 1
                    budget.spend(count + 1)
                else:
                    # the same probes, through the residue sieve, and the
                    # same charge: every value the loop above would try
                    hi = bisect_right(pw, cap - part, lo, bound + 1)
                    for v in sieve(part, lo, hi):
                        yield part + pw[v], acc + (tuple(vals + [v]),)
                    budget.spend(hi - lo + 1)
                return
            budget.spend(1)
            # slots slot..top all hold >= v, and a pinned top holds bound
            mult = top - slot + 1 - pin
            limit = cap - later - (pw[bound] if pin else 0)
            v = lo
            if last and rows is not None:
                # enter v only if the mult - 1 free slots after it can
                # bring part + pw[v] to a probe total
                row = rows[mult - 1]
                reach = want >> part
                while v <= bound and part + pw[v] * mult <= limit:
                    if (reach >> pw[v] * mult) & row[v]:
                        vals.append(v)
                        yield from fill(slot + 1, v, part + pw[v], vals)
                        vals.pop()
                    v += 1
                return
            while v <= bound and part + pw[v] * mult <= limit:
                vals.append(v)
                yield from fill(slot + 1, v, part + pw[v], vals)
                vals.pop()
                v += 1

        yield from fill(0, 1, partial, [])

    yield from rec(0, 0, ())


def _iter_reps(
    eq: Equation,
    n: int,
    node_budget: int | None = None,
    closing: bool = False,
    deadline: float | None = None,
):
    """Yield every canonical solution representative within [1, n]; with
    closing, only those whose largest constrained value is n.

    A representative is a (lhs, rhs) pair of per-group value tuples.  Each
    pass materializes the side with fewer estimated assignments into a
    total -> values table and streams the other side against it."""
    check_overflow(eq, n)
    lhs, rhs = _plan(eq)
    distinct = eq.distinct_required
    budget = _Budget(node_budget, deadline)
    cap = _cap(lhs, rhs, n, eq.degree)
    for scan in _scans(lhs + rhs, n, eq.degree, closing, cap):
        est_lhs, est_rhs = _est_reps(lhs, scan), _est_reps(rhs, scan)
        mat_lhs = est_lhs <= est_rhs
        mat_groups, stream_groups = (lhs, rhs) if mat_lhs else (rhs, lhs)
        if min(est_lhs, est_rhs) > MATERIALIZE_CAP and cap >= sum(
            scan.powers[g.coefficient][scan.bound[g]] * g.size for g in mat_groups
        ):
            # no assignment exceeds cap, so the estimate is the exact count
            raise _too_dense()
        table: dict[int, list] = {}
        count = 0
        for total, vals in _iter_side(mat_groups, scan, cap, None, budget):
            count += 1
            if count > MATERIALIZE_CAP:
                raise _too_dense()
            # distinct: a side that repeats a value is in no solution
            if distinct and _value_set(mat_groups, vals) is None:
                continue
            table.setdefault(total, []).append(vals)
        for total, svals in _iter_side(stream_groups, scan, cap, table, budget):
            matches = table[total]
            if distinct:
                used = _value_set(stream_groups, svals)
                if used is None:
                    continue
                matches = [m for m in matches if used.isdisjoint(_value_set(mat_groups, m))]
            for mvals in matches:
                yield (mvals, svals) if mat_lhs else (svals, mvals)


def _value_set(groups, side_vals) -> set[int] | None:
    """The constrained values of one side's assignment, None if one repeats."""
    vals = [v for g, gv in zip(groups, side_vals) if not g.is_free for v in gv]
    used = set(vals)
    return used if len(used) == len(vals) else None


def _too_dense() -> SolutionCapError:
    return SolutionCapError(
        f"equation too dense to enumerate: one side has more than "
        f"MATERIALIZE_CAP={MATERIALIZE_CAP} assignments"
    )


def _to_solutions(lhs, rhs, reps):
    """One SolutionTuple per representative, the names read off the plan once."""
    groups = lhs + rhs
    names = [x for g in groups if not g.is_free for x in g.names]
    free = [g.is_free for g in groups]
    if not any(free):
        for lv, rv in reps:
            yield SolutionTuple(dict(zip(names, chain(*lv, *rv))), {})
        return
    keep = [not f for f in free]
    free_names = [x for g in groups if g.is_free for x in g.names]
    for lv, rv in reps:
        vals = lv + rv
        yield SolutionTuple(dict(zip(names, chain(*compress(vals, keep)))),
                            dict(zip(free_names, chain(*compress(vals, free)))))


def iter_canonical_solutions(eq: Equation, n: int):
    """One SolutionTuple per canonical representative (group-sorted values).

    Permutations of values across interchangeable variables are collapsed;
    use enumerate_solutions for the full ordered listing.
    """
    return _to_solutions(*_plan(eq), _iter_reps(eq, n))


def enumerate_solutions(eq: Equation, n: int, limit: int = MAX_SOLUTIONS) -> list[SolutionTuple]:
    """Every solution with constrained values in [1, n], each assignment
    emitted once, sorted lexicographically by canonical variable order.

    Free variables may exceed n.  Raises
    SolutionCapError when the ordered listing would exceed limit entries.
    """
    lhs, rhs = _plan(eq)
    order = eq.variables
    out = []
    total = 0
    for rep in _iter_reps(eq, n):
        total += prod(map(_n_perms, chain(*rep)))
        if total > limit:
            raise SolutionCapError(
                f"listing exceeds {limit} solutions; raise limit or lower n"
            )
        out.extend(_expand(lhs, rhs, rep))
    out.sort(key=lambda s: tuple(
        s.values.get(v, s.free_values.get(v)) for v in order
    ))
    return out


def _n_perms(vals: tuple[int, ...]) -> int:
    count = factorial(len(vals))
    for v in set(vals):
        count //= factorial(vals.count(v))
    return count


def _distinct_perms(vals: tuple[int, ...]):
    """Distinct orderings of a multiset, lexicographically."""
    counts = {v: vals.count(v) for v in sorted(set(vals))}
    out: list[int] = []

    def rec(remaining):
        if remaining == 0:
            yield tuple(out)
            return
        for x in counts:
            if counts[x]:
                counts[x] -= 1
                out.append(x)
                yield from rec(remaining - 1)
                out.pop()
                counts[x] += 1

    yield from rec(len(vals))


def _expand(lhs, rhs, rep):
    """Every assignment rep stands for: each group's values in every order."""
    perms = [list(_distinct_perms(gv)) for side_vals in rep for gv in side_vals]
    k = len(lhs)
    return _to_solutions(lhs, rhs, ((c[:k], c[k:]) for c in product(*perms)))


def build_hyperedges(
    eq: Equation,
    n: int,
    minimize: bool = False,
    node_budget: int | None = None,
    edge_cap: int | None = None,
    closing: bool = False,
    deadline: float | None = None,
) -> EdgeSet:
    """Deduplicated hyperedges (distinct constrained value sets) in [1, n],
    sorted by (largest value, tuple).

    With closing=True only the edges whose largest value is n are returned;
    concatenating them for m = 1..n gives the edges of [1, n] in order.
    With minimize=True edges that are supersets of other returned edges
    are removed; a coloring violates the minimized set iff it violates the
    unminimized one.  Past node_budget or edge_cap the scan raises
    EnumerationBudgetExceeded, past a time.monotonic() deadline
    EnumerationTimeout.
    """
    lhs, rhs = _plan(eq)
    keep = [not g.is_free for g in lhs + rhs]
    free = not all(keep)
    cap = inf if edge_cap is None else edge_cap
    seen: set[tuple[int, ...]] = set()
    for lv, rv in _iter_reps(eq, n, node_budget, closing, deadline):
        # a free variable is no vertex: only the constrained groups key an edge
        used = set().union(*compress(lv + rv, keep)) if free else set().union(*lv, *rv)
        seen.add(tuple(sorted(used)))
        if len(seen) > cap:
            raise EnumerationBudgetExceeded()
    edges = sorted(seen)
    edges.sort(key=itemgetter(-1))  # stable, so in (largest value, tuple) order
    if minimize:
        edges = _minimize(edges)
    return EdgeSet(n=n, edges=tuple(edges), minimized=minimize)


def _minimize(edges):
    """Drop edges that are supersets of other edges (subset subsumption)."""
    kept_masks: list[int] = []
    kept = []
    for e in sorted(edges, key=lambda e: (len(e), e)):
        m = 0
        for v in e:
            m |= 1 << v
        if any((km & m) == km for km in kept_masks):
            continue
        kept_masks.append(m)
        kept.append(e)
    return sorted(kept, key=lambda e: (e[-1], e))


def edges_to_json(eq: Equation, edge_set: EdgeSet) -> dict:
    """JSON-ready export: equation string, bound, and ascending edge lists."""
    return {
        "equation": eq.render(),
        "n": edge_set.n,
        "edges": [list(e) for e in edge_set.edges],
    }


# the closing edges dp_feasible read, by (equation, pivot), oldest first
_closing_cache: dict[tuple[Equation, int], tuple[tuple[int, ...], ...]] = {}


def _closing_edges(eq: Equation, pivot: int, deadline: float | None):
    key = eq, pivot
    if key not in _closing_cache:
        if len(_closing_cache) >= 256:
            del _closing_cache[next(iter(_closing_cache))]
        _closing_cache[key] = build_hyperedges(eq, pivot, closing=True, deadline=deadline).edges
    return _closing_cache[key]


def dp_feasible(eq: Equation, class_values, pivot: int, deadline: float | None = None) -> bool:
    """True iff some solution uses only class_values for its constrained
    variables with maximum value exactly pivot (repetition allowed unless
    the equation requires distinct values).

    Free variables may take any positive integer.  Computed by reachability
    over weighted power sums with pivot forced into at least one slot; for
    a distinct: equation, by looking for an edge closing at pivot within
    the class, from the closing edges cached per (equation, pivot).  That
    scan raises EnumerationTimeout past a time.monotonic() deadline, and
    nothing is cached then.
    """
    values = sorted(set(class_values))
    if not values or values[0] < 1:
        raise ValueError("class_values must be positive integers")
    if pivot not in set(values):
        raise ValueError("pivot must belong to class_values")
    if values[-1] > pivot:
        raise ValueError("class_values must not exceed pivot")
    check_overflow(eq, pivot)

    if eq.distinct_required:
        cls = set(values)
        return any(cls.issuperset(e) for e in _closing_edges(eq, pivot, deadline))

    lhs, rhs = _plan(eq)
    degree = eq.degree
    cap = _cap(lhs, rhs, pivot, degree)
    capmask = (1 << (cap + 1)) - 1

    def side_masks(groups):
        a, b = 1, 0
        for g in groups:
            for _ in range(g.size):
                if g.is_free:
                    weights = []
                    v = 1
                    while g.coefficient * v**degree <= cap:
                        weights.append(g.coefficient * v**degree)
                        v += 1
                else:
                    weights = [g.coefficient * v**degree for v in values]
                na = nb = 0
                for w in weights:
                    na |= a << w
                    nb |= b << w
                if not g.is_free:
                    nb |= a << (g.coefficient * pivot**degree)
                a, b = na & capmask, nb & capmask
        return a, b

    a_l, b_l = side_masks(lhs)
    a_r, b_r = side_masks(rhs)
    return bool((b_l & a_r) | (a_l & b_r))
