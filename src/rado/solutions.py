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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, inf, isqrt

from .equations import Equation

OVERFLOW_LIMIT = 2**62
MAX_SOLUTIONS = 1_000_000
MATERIALIZE_CAP = 5_000_000
CLOCK_CHECK_NODES = 4096
# a streamed side's last slot is solved per total, not scanned, when the
# materialized side has at most this many totals
EXACT_PROBE_TOTALS = 4


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
    stays close to raw arithmetic; when the probe holds only a few totals
    the last slots are solved for each of them instead.
    """
    tail_min = _tail_min(groups, scan)
    glast = len(groups) - 1
    totals = None
    if probe is not None and len(probe) <= EXACT_PROBE_TOTALS:
        totals = sorted(probe)

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
                else:
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
                return
            budget.spend(1)
            # slots slot..top all hold >= v, and a pinned top holds bound
            mult = top - slot + 1 - pin
            limit = cap - later - (pw[bound] if pin else 0)
            v = lo
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
    budget = _Budget(node_budget, deadline)
    cap = _cap(lhs, rhs, n, eq.degree)
    for scan in _scans(lhs + rhs, n, eq.degree, closing, cap):
        mat_lhs = _est_reps(lhs, scan) <= _est_reps(rhs, scan)
        mat_groups, stream_groups = (lhs, rhs) if mat_lhs else (rhs, lhs)
        table: dict[int, list] = {}
        count = 0
        for total, vals in _iter_side(mat_groups, scan, cap, None, budget):
            table.setdefault(total, []).append(vals)
            count += 1
            if count > MATERIALIZE_CAP:
                raise SolutionCapError(
                    f"equation too dense to enumerate: one side has more than "
                    f"MATERIALIZE_CAP={MATERIALIZE_CAP} assignments"
                )
        for total, svals in _iter_side(stream_groups, scan, cap, table, budget):
            for mvals in table[total]:
                yield (mvals, svals) if mat_lhs else (svals, mvals)


def _rep_constrained(lhs, rhs, rep) -> tuple[int, ...]:
    vals = []
    for groups, side_vals in zip((lhs, rhs), rep):
        for g, gv in zip(groups, side_vals):
            if not g.is_free:
                vals.extend(gv)
    return tuple(vals)


def _rep_to_solution(eq: Equation, rep) -> SolutionTuple:
    lhs, rhs = _plan(eq)
    values: dict[str, int] = {}
    free_values: dict[str, int] = {}
    for groups, side_vals in zip((lhs, rhs), rep):
        for g, gv in zip(groups, side_vals):
            target = free_values if g.is_free else values
            for name, v in zip(g.names, gv):
                target[name] = v
    return SolutionTuple(values, free_values)


def _distinct_ok(eq: Equation, rep) -> bool:
    if not eq.distinct_required:
        return True
    lhs, rhs = _plan(eq)
    vals = _rep_constrained(lhs, rhs, rep)
    return len(set(vals)) == len(vals)


def iter_canonical_solutions(eq: Equation, n: int, node_budget: int | None = None):
    """One SolutionTuple per canonical representative (group-sorted values).

    Permutations of values across interchangeable variables are collapsed;
    use enumerate_solutions for the full ordered listing.
    """
    for rep in _iter_reps(eq, n, node_budget):
        if _distinct_ok(eq, rep):
            yield _rep_to_solution(eq, rep)


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
        if not _distinct_ok(eq, rep):
            continue
        expansions = 1
        for groups, side_vals in zip((lhs, rhs), rep):
            for g, gv in zip(groups, side_vals):
                expansions *= _n_perms(gv)
        total += expansions
        if total > limit:
            raise SolutionCapError(
                f"listing exceeds {limit} solutions; raise limit or lower n"
            )
        out.extend(_expand(eq, lhs, rhs, rep))
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


def _expand(eq, lhs, rhs, rep):
    per_group = []
    names = []
    for groups, side_vals in zip((lhs, rhs), rep):
        for g, gv in zip(groups, side_vals):
            per_group.append(list(_distinct_perms(gv)))
            names.append(g.names)
    for combo in itertools.product(*per_group):
        values: dict[str, int] = {}
        free_values: dict[str, int] = {}
        for g_names, g_vals in zip(names, combo):
            for name, v in zip(g_names, g_vals):
                if eq.is_free(name):
                    free_values[name] = v
                else:
                    values[name] = v
        yield SolutionTuple(values, free_values)


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
    seen = set()
    for rep in _iter_reps(eq, n, node_budget, closing, deadline):
        vals = _rep_constrained(lhs, rhs, rep)
        if eq.distinct_required and len(set(vals)) != len(vals):
            continue
        edge = tuple(sorted(set(vals)))
        if edge not in seen:
            seen.add(edge)
            if edge_cap is not None and len(seen) > edge_cap:
                raise EnumerationBudgetExceeded()
    edges = sorted(seen, key=lambda e: (e[-1], e))
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


def dp_feasible(eq: Equation, class_values, pivot: int) -> bool:
    """True iff some solution uses only class_values for its constrained
    variables with maximum value exactly pivot (repetition allowed unless
    the equation requires distinct values).

    Free variables may take any positive integer.  Computed by reachability
    over weighted power sums with pivot forced into at least one slot.
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
        return _distinct_feasible(eq, values, pivot)

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


def _distinct_feasible(eq: Equation, values, pivot: int) -> bool:
    """Exhaustive feasibility for distinct-valued solutions (small inputs)."""
    lhs, rhs = _plan(eq)
    slots = []
    for sign, groups in ((1, lhs), (-1, rhs)):
        for g in groups:
            slots.extend((sign, g.coefficient, g.is_free) for _ in range(g.size))
    degree = eq.degree
    cap = _cap(lhs, rhs, pivot, degree)

    def rec(i, diff, used, pivot_used):
        if i == len(slots):
            return diff == 0 and pivot_used
        sign, coef, is_free = slots[i]
        if is_free:
            v = 1
            while coef * v**degree <= cap:
                if rec(i + 1, diff + sign * coef * v**degree, used, pivot_used):
                    return True
                v += 1
            return False
        for v in values:
            if v in used:
                continue
            if rec(i + 1, diff + sign * coef * v**degree, used | {v},
                   pivot_used or v == pivot):
                return True
        return False

    return rec(0, 0, frozenset(), False)
