"""Solution enumeration over [1, n], hyperedge construction, and the
power-sum reachability oracle.

Enumeration works on canonical representatives: variables of one side
sharing a coefficient (and free/constrained status) are interchangeable,
so values are scanned non-decreasing within each such group.  One side is
materialized into a total -> representatives map and the other side is
streamed against it, which keeps the scan linear in the side product
instead of the full tuple space.  Free variables are solved exactly from
the residual and are not bounded by n.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
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
def _side_groups(eq: Equation, which: str) -> tuple[_Group, ...]:
    terms = eq.lhs if which == "lhs" else eq.rhs
    buckets: dict[tuple[int, bool], list[str]] = {}
    for t in terms:
        buckets.setdefault((t.coefficient, eq.is_free(t.variable)), []).append(t.variable)
    return tuple(
        _Group(coef, tuple(names), free)
        for (coef, free), names in sorted(buckets.items())
    )


class _Scan:
    """Value ranges of one enumeration pass.

    Every constrained group scans [1, bound[g]]; the pinned group's last
    (largest) slot is fixed at its bound.  powers maps a coefficient to
    [coefficient * v**degree for v in 0..n].
    """

    __slots__ = ("degree", "powers", "bound", "pinned")

    def __init__(self, degree, powers, bound, pinned=None):
        self.degree = degree
        self.powers = powers
        self.bound = bound
        self.pinned = pinned


def _scans(groups: tuple[_Group, ...], n: int, degree: int, closing: bool):
    """The passes that enumerate [1, n], or with closing only the
    solutions holding n: pass p pins constrained group p to n and bounds
    the groups before it by n-1, so each solution is produced once, by the
    first group (lhs then rhs) that holds n."""
    constrained = [g for g in groups if not g.is_free]
    powers = {}
    for g in constrained:
        if g.coefficient not in powers:
            powers[g.coefficient] = [g.coefficient * v**degree for v in range(n + 1)]
    if not closing:
        return [_Scan(degree, powers, dict.fromkeys(constrained, n))]
    return [
        _Scan(degree, powers,
              {g: n - 1 if j < p else n for j, g in enumerate(constrained)}, pivot)
        for p, pivot in enumerate(constrained)
    ]


def _tail_min(groups, scan: _Scan | None = None) -> list[int]:
    """tail_min[i]: the least total of groups[i:], every slot at 1 except
    a pinned slot, which sits at its bound."""
    tail_min = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        g = groups[i]
        least = g.coefficient * g.size
        if scan is not None and g == scan.pinned:
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


def _iter_side_reps(groups, scan, cap, budget):
    """Yield (total, values) for every canonical assignment of one side.

    values is a tuple of per-group non-decreasing value tuples; total is
    the side's weighted power sum, always <= cap.
    """
    tail_min = _tail_min(groups, scan)

    def rec(gi, partial, acc):
        if gi == len(groups):
            yield partial, tuple(acc)
            return
        g = groups[gi]
        later = tail_min[gi + 1]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        pin = g == scan.pinned
        top = g.size - 1

        def fill(slot, lo, part, vals):
            budget.spend(1)
            if slot == top:
                v = bound if pin else lo
                while v <= bound and part + pw[v] + later <= cap:
                    vals.append(v)
                    yield from rec(gi + 1, part + pw[v], acc + [tuple(vals)])
                    vals.pop()
                    v += 1
                return
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

    yield from rec(0, 0, [])


def _iter_matching_reps(groups, scan, cap, probe, budget):
    """Stream one side's canonical assignments, yielding only those whose
    total appears in probe.  The innermost slot runs as a tight loop so the
    scan cost stays close to raw arithmetic; when probe holds only a few
    totals it is solved for each of them instead."""
    tail_min = _tail_min(groups, scan)
    glast = len(groups) - 1
    totals = sorted(probe) if len(probe) <= EXACT_PROBE_TOTALS else None

    def rec(gi, partial, acc):
        g = groups[gi]
        later = tail_min[gi + 1]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        pin = g == scan.pinned
        top = g.size - 1

        def fill(slot, lo, part, vals):
            if gi == glast and totals is not None and slot >= top - 1 + pin:
                # few totals: solve the slots left for each of them
                coef, degree = g.coefficient, scan.degree
                for t in totals:
                    if slot == top:
                        v = _solve_last(coef, degree, t - part, bound if pin else lo)
                        found = [(v,)] if v is not None and v <= bound else []
                    else:
                        found = _solve_pair(pw, coef, degree, t - part, lo, bound, budget)
                    for last in found:
                        yield t, acc + (tuple(vals) + last,)
                budget.spend(len(totals) + 1)
                return
            if slot == top:
                if pin:
                    lo = bound
                if gi == glast:
                    # innermost slot: probe the other side's totals directly
                    v = lo
                    limit = cap - later
                    count = 0
                    while v <= bound:
                        t = part + pw[v]
                        if t > limit:
                            break
                        if t in probe:
                            yield t, acc + (tuple(vals + [v]),)
                        v += 1
                        count += 1
                    budget.spend(count + 1)
                    return
                budget.spend(1)
                v = lo
                while v <= bound and part + pw[v] + later <= cap:
                    yield from rec(gi + 1, part + pw[v], acc + (tuple(vals + [v]),))
                    v += 1
                return
            budget.spend(1)
            mult = top - slot + 1 - pin
            limit = cap - later - (pw[bound] if pin else 0)
            v = lo
            while v <= bound and part + pw[v] * mult <= limit:
                vals.append(v)
                yield from fill(slot + 1, v, part + pw[v], vals)
                vals.pop()
                v += 1

        yield from fill(0, 1, partial, [])

    if groups:
        yield from rec(0, 0, ())


def _iter_free_exact(groups, degree, residual, budget):
    """Yield per-group value tuples of free slots summing exactly to residual.

    Values are unbounded above; the final slot is solved by exact integer
    root extraction instead of scanning.
    """
    tail_min = _tail_min(groups)

    def rec(gi, remaining, acc):
        budget.spend(1)
        g = groups[gi]
        last_group = gi == len(groups) - 1

        def fill(slot, lo, rem, vals):
            if last_group and slot == g.size - 1:
                v = _solve_last(g.coefficient, degree, rem, lo)
                if v is not None:
                    yield acc + (tuple(vals + [v]),)
                return
            rest = g.size - slot - 1
            v = lo
            while g.coefficient * v**degree * (rest + 1) + tail_min[gi + 1] <= rem:
                vals.append(v)
                if slot == g.size - 1:
                    yield from rec(gi + 1, rem - g.coefficient * v**degree,
                                   acc + (tuple(vals),))
                else:
                    yield from fill(slot + 1, v, rem - g.coefficient * v**degree, vals)
                vals.pop()
                v += 1

        yield from fill(0, 1, remaining, [])

    if groups:
        yield from rec(0, residual, ())
    elif residual == 0:
        yield ()


@dataclass(frozen=True)
class _Rep:
    """One canonical solution: per-group value tuples for each side."""

    lhs: tuple[tuple[int, ...], ...]
    rhs: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=256)
def _plan(eq: Equation):
    """Static enumeration plan: split groups into constrained/free parts."""
    lhs = _side_groups(eq, "lhs")
    rhs = _side_groups(eq, "rhs")
    free_side = None
    if any(g.is_free for g in lhs):
        free_side = "lhs"
    elif any(g.is_free for g in rhs):
        free_side = "rhs"
    return lhs, rhs, free_side


def _iter_reps(
    eq: Equation,
    n: int,
    node_budget: int | None = None,
    closing: bool = False,
    deadline: float | None = None,
):
    """Yield every canonical solution representative within [1, n]; with
    closing, only those whose largest constrained value is n."""
    check_overflow(eq, n)
    lhs, rhs, free_side = _plan(eq)
    budget = _Budget(node_budget, deadline)
    degree = eq.degree
    scans = _scans(lhs + rhs, n, degree, closing)

    def materialize(groups, scan, cap):
        table: dict[int, list] = {}
        count = 0
        for total, vals in _iter_side_reps(groups, scan, cap, budget):
            table.setdefault(total, []).append(vals)
            count += 1
            if count > MATERIALIZE_CAP:
                raise SolutionCapError("equation too dense to enumerate")
        return table

    if free_side is None:
        # a matching total must be reachable by both sides
        cap = min(
            sum(g.coefficient * g.size for g in side) * n**degree
            for side in (lhs, rhs)
        )
        for scan in scans:
            mat_lhs = _est_reps(lhs, scan) <= _est_reps(rhs, scan)
            mat_groups, stream_groups = (lhs, rhs) if mat_lhs else (rhs, lhs)
            table = materialize(mat_groups, scan, cap)
            for total, svals in _iter_matching_reps(
                stream_groups, scan, cap, table, budget
            ):
                for mvals in table[total]:
                    if mat_lhs:
                        yield _Rep(mvals, svals)
                    else:
                        yield _Rep(svals, mvals)
        return

    # one side carries free variables: materialize the fully constrained side
    f_groups = lhs if free_side == "lhs" else rhs
    c_groups = rhs if free_side == "lhs" else lhs
    f_constrained = tuple(g for g in f_groups if not g.is_free)
    f_free = tuple(g for g in f_groups if g.is_free)
    free_min = sum(g.coefficient * g.size for g in f_free)
    c_cap = sum(g.coefficient * n**degree * g.size for g in c_groups)

    def assemble(cvals, fvals_constrained, fvals_free):
        # reassemble the free side's group tuple in _side_groups order
        out = []
        ci = fi = 0
        for g in f_groups:
            if g.is_free:
                out.append(fvals_free[fi])
                fi += 1
            else:
                out.append(fvals_constrained[ci])
                ci += 1
        fv = tuple(out)
        return _Rep(fv, cvals) if free_side == "lhs" else _Rep(cvals, fv)

    for scan in scans:
        table = materialize(c_groups, scan, c_cap)
        totals = sorted(table)
        fc_cap = (totals[-1] - free_min) if totals else -1
        for partial, fvals in _iter_side_reps(f_constrained, scan, fc_cap, budget):
            lo = bisect_left(totals, partial + free_min)
            for total in totals[lo:]:
                for free_vals in _iter_free_exact(f_free, degree, total - partial, budget):
                    for cvals in table[total]:
                        yield assemble(cvals, fvals, free_vals)


def _rep_constrained(lhs, rhs, rep: _Rep) -> tuple[int, ...]:
    vals = []
    for groups, side_vals in ((lhs, rep.lhs), (rhs, rep.rhs)):
        for g, gv in zip(groups, side_vals):
            if not g.is_free:
                vals.extend(gv)
    return tuple(vals)


def _rep_to_solution(eq: Equation, rep: _Rep) -> SolutionTuple:
    lhs, rhs, _ = _plan(eq)
    values: dict[str, int] = {}
    free_values: dict[str, int] = {}
    for groups, side_vals in ((lhs, rep.lhs), (rhs, rep.rhs)):
        for g, gv in zip(groups, side_vals):
            target = free_values if g.is_free else values
            for name, v in zip(g.names, gv):
                target[name] = v
    return SolutionTuple(values, free_values)


def _distinct_ok(eq: Equation, rep: _Rep) -> bool:
    if not eq.distinct_required:
        return True
    lhs, rhs, _ = _plan(eq)
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

    Free variables are solved exactly and may exceed n.  Raises
    SolutionCapError when the ordered listing would exceed limit entries.
    """
    lhs, rhs, _ = _plan(eq)
    order = eq.variables
    out = []
    total = 0
    for rep in _iter_reps(eq, n):
        if not _distinct_ok(eq, rep):
            continue
        expansions = 1
        for groups, side_vals in ((lhs, rep.lhs), (rhs, rep.rhs)):
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
    for groups, side_vals in ((lhs, rep.lhs), (rhs, rep.rhs)):
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
    lhs, rhs, _ = _plan(eq)
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


class PowerSumTable:
    """Reachability of weighted power sums: table[t] has bit s set iff some
    t values from the pool (repetition allowed) produce weighted sum s using
    the first t slot coefficients."""

    def __init__(self, masks: list[int], max_sum: int):
        self.masks = masks
        self.max_sum = max_sum

    @classmethod
    def build(cls, coefficients, degree, values, max_sum) -> "PowerSumTable":
        capmask = (1 << (max_sum + 1)) - 1
        masks = [1]
        for coef in coefficients:
            prev = masks[-1]
            acc = 0
            for v in values:
                w = coef * v**degree
                if w <= max_sum:
                    acc |= prev << w
            masks.append(acc & capmask)
        return cls(masks, max_sum)

    def reachable(self, t: int, s: int) -> bool:
        if not (0 <= t < len(self.masks)) or s < 0 or s > self.max_sum:
            return False
        return bool(self.masks[t] >> s & 1)


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

    lhs, rhs, _ = _plan(eq)
    degree = eq.degree
    cap = min(
        sum(g.coefficient * g.size for g in side) * pivot**degree
        for side in (lhs, rhs)
        if not any(g.is_free for g in side)
    )
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
    lhs, rhs, _ = _plan(eq)
    slots = []
    for sign, groups in ((1, lhs), (-1, rhs)):
        for g in groups:
            slots.extend((sign, g.coefficient, g.is_free) for _ in range(g.size))
    degree = eq.degree
    cap = min(
        sum(g.coefficient * g.size for g in side) * pivot**degree
        for side in (lhs, rhs)
        if not any(g.is_free for g in side)
    )

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
