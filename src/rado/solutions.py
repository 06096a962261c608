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
sieve yields the same values in the same order, and charges the clock
what the plain scan would, so deadline checks fall where they would
without it.  It is skipped for a pinned slot and below eight values per
class, decided from one cached count per coefficient.

The streamed side's last group is pruned from below too.  A table of the
power sums its remaining slots can add (_reach_rows) lets each looped
slot skip a value from which no probe total can be reached.  It is built
per pass only where at least two slots loop, and only while largest
probe total x slots x bound is at most REACH_TABLE_CAP.  The yields and
their order stay the same, but a pruned subtree is never entered and so
never charged: the clock is read less often than without the table.

A distinct: equation is enumerated like any other, and _iter_reps drops
each representative with a repeated constrained value; no other
enumeration path reads the marker.  dp_feasible decides a distinct:
equation from the edges closing at its pivot, enumerated at each call.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, compress, islice, product
from math import comb, factorial, inf, isqrt, prod
from operator import itemgetter, mul, or_

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
# most dp masks one side may have (one per fill count of its groups)
DP_MASK_CAP = 256
# the representative count is given up (None) past this much table work:
# values x slots x (largest total + 1) x field bits, summed over groups
COUNT_TABLE_CAP = 2**27
# the memoryview format of a field of each width
_FIELD_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}


class OverflowGuardError(ValueError):
    """Bound n would push a side sum past the 64-bit safety limit."""


class SolutionCapError(RuntimeError):
    """Expanding all ordered solutions would exceed the listing cap."""


class EnumerationBudgetExceeded(RuntimeError):
    """Internal: hyperedge scan aborted past its representative cap."""


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
    """Hyperedges (distinct constrained values of solutions) within [1, n],
    and how many solution representatives the scan behind them yielded."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    reps: int = field(default=0, compare=False)

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
    """The deadline of one enumeration, if any: the clock is read once per
    CLOCK_CHECK_NODES charged nodes, not at every charge."""

    __slots__ = ("left", "deadline")

    def __init__(self, deadline: float | None = None):
        self.deadline = deadline
        self.left = inf if deadline is None else 0

    def spend(self, amount: int) -> None:
        self.left -= amount
        if self.left < 0:
            if time.monotonic() > self.deadline:
                raise EnumerationTimeout()
            self.left = CLOCK_CHECK_NODES


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


def _iter_reps(eq: Equation, n: int, closing: bool = False,
               deadline: float | None = None):
    """Yield every canonical solution representative within [1, n]; with
    closing, only those whose largest constrained value is n.

    A representative is a (lhs, rhs) pair of per-group value tuples.  Each
    pass materializes the side with fewer estimated assignments into a
    total -> values table and streams the other side against it.  A pass
    where either side's least total is past cap yields nothing and is
    skipped before anything is built: in a closing scan of x1^2+...+xk^2
    = z^2, the pass that pins the lhs at n starts at n^2 + k - 1."""
    check_overflow(eq, n)
    lhs, rhs = _plan(eq)
    distinct = eq.distinct_required
    budget = _Budget(deadline)
    cap = _cap(lhs, rhs, n, eq.degree)
    for scan in _scans(lhs + rhs, n, eq.degree, closing, cap):
        if _tail_min(lhs, scan)[0] > cap or _tail_min(rhs, scan)[0] > cap:
            continue
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


def _count_reps(eq: Equation, n: int) -> int | None:
    """How many representatives _iter_reps(eq, n) yields, or None (not
    counted) for a distinct: equation or past COUNT_TABLE_CAP.

    Each group is counted in the one-group layout of _dp_sides, with a
    width-bit field per total in place of one bit: row[i] holds, at each
    total up to cap, how many non-decreasing values fill i slots to it,
    and a value joins by + and a shift of weight x width.  A side's
    groups multiply into its count per total, and the representatives
    are the sum over totals of lhs count x rhs count.  A free group is
    counted like any other, over the values _scans bounds it by.  The
    width fits the side's assignment count, so no field overflows."""
    if eq.distinct_required:
        return None
    check_overflow(eq, n)
    lhs, rhs = _plan(eq)
    cap = _cap(lhs, rhs, n, eq.degree)
    (scan,) = _scans(lhs + rhs, n, eq.degree, False, cap)
    widths = [next((w for w in (8, 16, 32, 64) if _est_reps(side, scan) < 1 << w), 0)
              for side in (lhs, rhs)]
    work = sum(scan.bound[g] * g.size * (cap + 1) * w
               for side, w in zip((lhs, rhs), widths) for g in side)
    if not all(widths) or work > COUNT_TABLE_CAP:
        return None
    counts = []
    for side, width in zip((lhs, rhs), widths):
        fields = (1 << (cap + 1) * width) - 1
        full = 1
        for g in side:
            pw = scan.powers[g.coefficient]
            row = [1] + [0] * g.size
            for v in range(1, scan.bound[g] + 1):
                shift = pw[v] * width
                for i in range(1, g.size + 1):
                    row[i] = (row[i] + (row[i - 1] << shift)) & fields
            full = full * row[-1] & fields
        packed = full.to_bytes((cap + 1) * width // 8, sys.byteorder)
        counts.append(memoryview(packed).cast(_FIELD_FORMAT[width]))
    return sum(map(mul, *counts))


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


def enumerate_solutions(eq: Equation, n: int) -> list[SolutionTuple]:
    """Every solution with constrained values in [1, n], each assignment
    emitted once, sorted lexicographically by canonical variable order.

    Free variables may exceed n.  Raises SolutionCapError when the ordered
    listing would exceed MAX_SOLUTIONS entries.
    """
    lhs, rhs = _plan(eq)
    order = eq.variables
    out = []
    total = 0
    for rep in _iter_reps(eq, n):
        total += prod(map(_n_perms, chain(*rep)))
        if total > MAX_SOLUTIONS:
            raise SolutionCapError(
                f"listing exceeds {MAX_SOLUTIONS} solutions; lower n"
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
    rep_cap: int | None = None,
    closing: bool = False,
    deadline: float | None = None,
) -> EdgeSet:
    """Deduplicated hyperedges (distinct constrained value sets) in [1, n],
    sorted by (largest value, tuple), and the number of solution
    representatives (_iter_reps) they came from.

    With closing=True only the edges whose largest value is n are returned;
    concatenating them for m = 1..n gives the edges of [1, n] in order.
    Past rep_cap representatives the scan raises EnumerationBudgetExceeded,
    past a time.monotonic() deadline EnumerationTimeout.
    """
    lhs, rhs = _plan(eq)
    keep = [not g.is_free for g in lhs + rhs]
    free = not all(keep)
    reps = _iter_reps(eq, n, closing, deadline)
    if rep_cap is not None:
        reps = islice(reps, rep_cap + 1)
    seen: set[tuple[int, ...]] = set()
    count = 0
    for count, (lv, rv) in enumerate(reps, 1):
        # a free variable is no vertex: only the constrained groups key an edge
        used = set().union(*compress(lv + rv, keep)) if free else set().union(*lv, *rv)
        seen.add(tuple(sorted(used)))
    if rep_cap is not None and count > rep_cap:
        raise EnumerationBudgetExceeded()
    edges = sorted(seen)
    edges.sort(key=itemgetter(-1))  # stable, so in (largest value, tuple) order
    return EdgeSet(n=n, edges=tuple(edges), reps=count)


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

    Free variables may take any positive integer.  The class is grown into
    the dp search's masks (_dp_sides), then pivot is asked for in one slot
    of some constrained group.  A distinct: equation looks instead for an
    edge within the class among those closing at pivot, from one scan
    (build_hyperedges with closing=True).
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
        return any(cls.issuperset(e) for e in build_hyperedges(eq, pivot, closing=True).edges)

    (lm, lgroups), (rm, rgroups), capmask = _dp_sides(eq, pivot)
    for v in values:
        lm = _grow(lm, lgroups, v, capmask)
        rm = _grow(rm, rgroups, v, capmask)
    # pivot in one slot of some group, every other slot from the class
    return any(
        (other[-1] >> weight[pivot]) & masks[-1 - stride]
        for masks, groups, other in ((lm, lgroups, rm), (rm, rgroups, lm))
        for weight, stride, _ in groups
    )


def _dp_sides(eq: Equation, n: int):
    """Each side's dp masks for values in [1, n], as (initial masks,
    groups), and the capmask that drops totals no solution can have.

    Masks are indexed in mixed radix by how many slots of each constrained
    group are filled, so masks[-1] is the full side; bit t is set iff
    those slots can total t, and the free slots' sums seed masks[0].  A
    group is (weight, stride, indices): weight[v] is its term at value v,
    and indices are those with one of its slots filled.  A side that needs
    more than DP_MASK_CAP masks raises OverflowGuardError first."""
    plan, degree = _plan(eq), eq.degree
    cap = _cap(*plan, n, degree)
    capmask = (1 << (cap + 1)) - 1
    sides = []
    for side in plan:
        count = prod(g.size + 1 for g in side if not g.is_free)
        if count > DP_MASK_CAP:
            raise OverflowGuardError(f"a side of {eq.render()!r} needs {count} dp masks, "
                                     f"past DP_MASK_CAP={DP_MASK_CAP}")
        masks, groups, stride = [1] + [0] * (count - 1), [], 1
        for g in side:
            if g.is_free:           # a free slot takes any value whose term fits in cap
                top = _floor_root(cap // g.coefficient, degree)
                for _ in range(g.size):
                    masks[0] = reduce(or_, (masks[0] << g.coefficient * v**degree
                                            for v in range(1, top + 1)), 0) & capmask
            else:
                groups.append(([g.coefficient * v**degree for v in range(n + 1)], stride,
                               [i for i in range(count) if i // stride % (g.size + 1)]))
                stride *= g.size + 1
        sides.append((masks, groups))
    return sides[0], sides[1], capmask


def _grow(masks, groups, v: int, capmask: int) -> list[int]:
    """The masks of a side once value v joins the class: per group, in
    ascending index order, so that v may fill several of its slots."""
    new = masks[:]
    for weight, stride, indices in groups:
        w = weight[v]
        for i in indices:
            new[i] = (new[i] | new[i - stride] << w) & capmask
    return new
