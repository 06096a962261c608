"""Solution enumeration over [1, n], hyperedge construction, and the
power-sum reachability oracle.

Enumeration works on canonical representatives: variables of one side
sharing a coefficient (and free/constrained status) are interchangeable,
so values are scanned non-decreasing within each such group.  One side is
materialized into a total -> representatives map and the other side is
streamed against it, which keeps the scan linear in the side product
instead of the full tuple space.  Both sides go through one recursion.
A free variable is scanned like any other, but bounded by the largest
total of the side without free variables instead of by n.

The streamed side's innermost slot scans its values up to one bound,
found by bisecting the power table, and probes each sum against the
materialized table.  Where its values' powers and the table's totals
are both sparse mod small moduli, a residue sieve probes only the
values whose power completes the partial sum to some table total's
residue mod each modulus of SIEVE_MODULI: the slot's range ANDed with
one bit mask over values per modulus and residue of the partial sum,
each spread from a one-period pattern.  For x^2+y^2=z^2 at n=4000 it
probes 7,770 of the 6.3 M candidates.  The sieve yields the same values
in the same order, and charges the clock what the plain scan would, so
deadline checks fall where they would without it.  It is skipped for a
pinned slot, and where the slot's residue classes mod 5040 (one cached
count per coefficient) x the table's totals pass the square of the
slot's largest value.

The streamed side's last group is pruned from below too.  A table of the
power sums its remaining slots can add (_reach_rows) lets each looped
slot skip a value from which no probe total can be reached; below a
floored last slot it holds only the sums whose largest value is at the
floor or past it.  It is built per pass only where at least two slots
loop, and only while largest probe total x slots x bound is at most
REACH_TABLE_CAP.  The innermost slot starts at the first value that
brings the partial sum up to the least probe total.  The yields and
their order stay the same, but a pruned subtree is never entered and so
never charged: the clock is read less often than without them.

A window (low, n] enumerates only the solutions whose largest
constrained value is past low (_scans); the window (n-1, n] pins that
value at n.  With the floor in the table and the least probe total,
Theorem 1's six windows up to 84 charge 6,822 nodes, against 16,085 for
one scan of [1, 84].

A distinct: equation scans each constrained group strictly increasing,
and _iter_reps drops each representative with a value repeated across
groups; no other enumeration path reads the marker.  dp_feasible
decides a distinct: equation from the edges closing at its pivot,
enumerated at each call.

Given a coloring (certificate.verify), _iter_reps yields only the
monochromatic representatives, and filters each side to one color
before the join rather than each representative after it: one table
per color keeps that color's monochromatic assignments, and a streamed
assignment of two colors is dropped before it is paired.  The stream keeps its order,
so the first representative is the unfiltered stream's first
monochromatic one.  For the stored 4 = 3 squares witness on [1, 22],
r=3, the table keeps 234 of its 849 totals, the stream yields 2,477
assignments instead of 8,675, and none of them pairs, where the scan
without the coloring yields 23,138 representatives.
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
# the streamed side's innermost slot is sieved by residues of totals mod these
SIEVE_MODULI = (16, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31)
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
    if max(_plan(eq).sums) * n**eq.degree > OVERFLOW_LIMIT:
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
    and how many solution representatives the scan behind them yielded:
    for a window (build_hyperedges' low), also per largest value, low+1
    first (closing_reps)."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    reps: int = field(default=0, compare=False)
    closing_reps: tuple[int, ...] = field(default=(), compare=False)

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


class _Plan:
    """The enumeration set-up of one equation, built once (_plan) and read
    at every n: the groups of each side, ordered by (coefficient, free
    status); sums, each side's sum of coefficients; values, the reader of
    a representative's constrained values (_constrained); and one power
    table per coefficient (powers).  It unpacks to (lhs, rhs)."""

    __slots__ = ("lhs", "rhs", "degree", "sums", "cap_sum", "values", "tables")

    def __init__(self, lhs, rhs, degree):
        self.lhs, self.rhs, self.degree = lhs, rhs, degree
        self.sums = [sum(g.coefficient * g.size for g in side) for side in (lhs, rhs)]
        # the sides without free variables bound a solution's total
        self.cap_sum = min(s for s, side in zip(self.sums, (lhs, rhs))
                           if not any(g.is_free for g in side))
        self.values = _constrained(lhs, rhs)
        self.tables: dict[int, list[int]] = {}

    def __iter__(self):
        return iter((self.lhs, self.rhs))

    def cap(self, n: int) -> int:
        """The largest total of a solution within [1, n]."""
        return self.cap_sum * n**self.degree

    def powers(self, coef: int, top: int) -> list[int]:
        """[coef * v**degree for v in 0..m], m at least top.  A table grows
        (at least doubling) by being replaced with a longer list, never in
        place, so a list a running scan holds stays valid; a reader reads
        only up to its own bound, or takes an exact slice."""
        pw = self.tables.get(coef, [])
        if len(pw) <= top:
            pw = pw + [coef * v**self.degree for v in range(len(pw), max(top + 1, 2 * len(pw)))]
            self.tables[coef] = pw
        return pw


@lru_cache(maxsize=256)
def _plan(eq: Equation) -> _Plan:
    """The set-up record of eq, one per equation (the lru bound aside)."""

    def side_groups(terms):
        buckets: dict[tuple[int, bool], list[str]] = {}
        for t in terms:
            buckets.setdefault((t.coefficient, eq.is_free(t.variable)), []).append(t.variable)
        return tuple(
            _Group(coef, tuple(names), free)
            for (coef, free), names in sorted(buckets.items())
        )

    return _Plan(side_groups(eq.lhs), side_groups(eq.rhs), eq.degree)


class _Scan:
    """Value ranges of one enumeration pass.

    Every group scans [1, bound[g]], except the pivot group's last
    (largest) slot, which scans [floor, bound[pivot]]; where floor is
    that bound the slot is pinned.  powers maps a coefficient to
    [coefficient * v**degree for v in at least 0..b], b the largest bound
    of its groups and at least n; it is read only up to a group's bound.
    """

    __slots__ = ("degree", "powers", "bound", "pivot", "floor")

    def __init__(self, degree, powers, bound, pivot=None, floor=0):
        self.degree = degree
        self.powers = powers
        self.bound = bound
        self.pivot = pivot
        self.floor = floor


def _scans(plan: _Plan, n: int, low: int | None, cap: int):
    """The passes that enumerate [1, n], or with low only the solutions
    whose largest constrained value is in (low, n]: pass p lets the last
    slot of constrained group p range over [low+1, n] and bounds the
    groups before it by low, so each solution is produced once, by the
    first group (lhs then rhs) that holds a value past low.  With low =
    n-1 that slot is pinned at n.  A free group is never a pivot; it is
    bounded by the largest value whose power fits in cap."""
    groups, degree = plan.lhs + plan.rhs, plan.degree
    bound = {
        g: _floor_root(cap // g.coefficient, degree) if g.is_free else n
        for g in groups
    }
    reach: dict[int, int] = {}
    for g in groups:
        reach[g.coefficient] = max(reach.get(g.coefficient, n), bound[g])
    powers = {c: plan.powers(c, top) for c, top in reach.items()}
    constrained = [g for g in groups if not g.is_free]
    if low is None:
        return [_Scan(degree, powers, bound)]
    return [
        _Scan(degree, powers, bound | dict.fromkeys(constrained[:p], low), pivot, low + 1)
        for p, pivot in enumerate(constrained)
    ]


def _tail_min(groups, scan: _Scan) -> list[int]:
    """tail_min[i]: the least total of groups[i:], every slot at 1 except
    the pivot's last slot, which sits at its floor."""
    tail_min = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        g = groups[i]
        least = g.coefficient * g.size
        if g is scan.pivot:
            least += scan.powers[g.coefficient][scan.floor] - g.coefficient
        tail_min[i] = tail_min[i + 1] + least
    return tail_min


def _est_reps(groups: tuple[_Group, ...], scan: _Scan) -> int:
    """How many non-decreasing assignments the groups have: per group,
    those in [1, bound] less, for the pivot, those below its floor."""
    est = 1
    for g in groups:
        s = g.size
        ways = comb(scan.bound[g] + s - 1, s)
        if g is scan.pivot:
            ways -= comb(scan.floor + s - 2, s)
        est *= ways
    return est


def _floor_root(x, degree):
    return isqrt(x) if degree == 2 else x


@lru_cache(maxsize=64)
def _residue_classes(coef, degree) -> int:
    """How many residues mod 5040 the values coef * v**degree take."""
    return len({coef * v**degree % 5040 for v in range(5040)})


def _residue_sieve(pw, coef, degree, bound, probe):
    """hits(part, lo, hi): the ascending v in [lo, hi) with part + pw[v] in
    probe, probing only the v that pass every modulus q of SIEVE_MODULI:
    part + coef * v**degree must be some probe total's residue mod q.

    Bit v of a mask stands for value v.  coef * v**degree mod q depends
    only on v mod q, so the mask of (q, part mod q) is one q-bit pattern
    spread over [0, bound] by shift-doubling.  A modulus whose every
    residue is some total's filters nothing and is left out; with none
    left there is no sieve (None)."""
    full = (1 << bound + 1) - 1
    sieves = []
    for q in SIEVE_MODULI:
        wanted = set(map(q.__rmod__, probe))
        if len(wanted) == q:
            continue
        residues = [coef * a**degree % q for a in range(q)]
        masks = []
        for r in range(q):
            m = sum(1 << a for a, c in enumerate(residues) if (r + c) % q in wanted)
            span = q
            while span <= bound:
                m |= m << span
                span += span
            masks.append(m & full)
        sieves.append((q, masks))
    if not sieves:
        return None

    def hits(part, lo, hi):
        m = (1 << hi) - (1 << lo)
        for q, masks in sieves:
            m &= masks[part % q]
        found = []
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if part + pw[v] in probe:
                found.append(v)
        return found

    return hits


def _reach_rows(pw, bound, low, high, top, floor):
    """rows[m][lo] for low <= m <= high: bit s is set iff m non-decreasing
    values in [lo, bound], the largest at least floor, have pw-sum
    m * pw[lo] + s.  Bits past top - (m + 1) * pw[lo] are dropped: a slot
    that enters lo, with m slots after it, cannot reach a total above top
    with them."""
    mask = (1 << (top + 1)) - 1
    # sums[m]: the pw-sums up to top of m values in [lo, bound]; below
    # floor, of those whose largest is at least floor, which the same
    # recurrence gives once there is no empty sum to add lo to
    sums = [1] + [0] * high
    rows = {m: [0] * (bound + 1) for m in range(low, high + 1)}
    for lo in range(bound, 0, -1):
        if lo < floor:
            sums[0] = 0
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


def _iter_side(groups, scan, tail_min, cap, probe, budget, strict=False):
    """Yield (total, values) for every canonical assignment of one side
    whose total is at most cap and, given a probe table (never empty), one
    of its keys.  values is a tuple of per-group non-decreasing value
    tuples; with strict, a constrained group's values are strictly
    increasing.  tail_min is _tail_min(groups, scan).

    Each slot scans up from the slot before it (the pivot's last slot
    from its floor at least) to one bound: the last value that, in this
    slot and the later slots of its group, keeps the side within cap less
    the later groups' least total.  Given a probe, the last group's
    innermost slot starts no lower than the first value that brings the
    partial sum up to its least total; it takes its values from that
    range, or from the residue sieve's hits in it where the sieve pays,
    and tests each against the probe.  It is charged one more than the
    range holds (1 without a probe).  Where two or more of the last
    group's slots loop, they skip each value from which the slots
    left, the pivot's last one from its floor, cannot reach a probe total
    (_reach_rows), so a pruned subtree is never entered and never charged
    to the budget.
    """
    glast = len(groups) - 1
    sieve = rows = None
    want = least = 0
    if probe is not None:
        g = groups[glast]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        floor = scan.floor if g is scan.pivot else 0
        pin = 0 < floor == bound
        least = min(probe)
        if not pin:
            # the sieve pays where the slot's residues and the probe totals
            # are both sparse against the values it can take: squares
            # (192 classes mod 5040) against n squares from n = 192, never
            # against sums of two squares
            largest = bisect_right(pw, cap, 0, bound + 1) - 1
            if _residue_classes(g.coefficient, scan.degree) * len(probe) <= largest**2:
                sieve = _residue_sieve(pw, g.coefficient, scan.degree, largest, probe)
        # the table serves the last group's looped slots, all but the
        # innermost one.  With one, a pruned value saves a single innermost
        # scan, about what building the table costs; no loop runs if the
        # side's least total is past every probe total
        if (
            g.size > 2 and tail_min[0] <= max(probe)
            and max(probe) * g.size * bound <= REACH_TABLE_CAP
        ):
            # slot s leaves most - s free slots after its own, the last
            # looped one 1 - pin
            most = g.size - 1 - pin
            pinned = pw[bound] if pin else 0
            rows = _reach_rows(pw, bound, 1 - pin, most, max(probe) - pinned,
                               0 if pin else floor)
            want = sum(1 << t for t in probe) >> pinned

    def rec(gi, partial, acc):
        g = groups[gi]
        later = tail_min[gi + 1]
        pw = scan.powers[g.coefficient]
        bound = scan.bound[g]
        floor = scan.floor if g is scan.pivot else 0
        # a pinned slot sits at its bound, even past a strict slot before it
        pin = 0 < floor == bound
        top = g.size - 1
        last = gi == glast
        # the least value of the next slot over the one before it
        step = strict and not g.is_free

        def fill(slot, lo, part, vals):
            if slot == top:
                if pin or lo < floor:
                    lo = floor
                # the values whose power keeps part and the later groups'
                # least total within cap
                hi = bisect_right(pw, cap - later - part, lo, bound + 1)
                if not last:
                    budget.spend(1)
                    for v in range(lo, hi):
                        yield from rec(gi + 1, part + pw[v], acc + (tuple(vals + [v]),))
                else:
                    # start where part reaches the least probe total; the
                    # sieve gives only probe hits, so they all pass the
                    # test; a probe is charged every value of the range,
                    # sieved or not
                    if lo < hi and part + pw[lo] < least:
                        lo = bisect_left(pw, least - part, lo, hi)
                    for v in range(lo, hi) if sieve is None else sieve(part, lo, hi):
                        if probe is None or part + pw[v] in probe:
                            yield part + pw[v], acc + (tuple(vals + [v]),)
                    budget.spend(1 if probe is None else hi - lo + 1)
                return
            budget.spend(1)
            # slots slot..top all hold >= v, and a pinned top holds bound
            mult = top - slot + 1 - pin
            limit = cap - later - (pw[bound] if pin else 0)
            # with reach rows, enter v only if the mult - 1 free slots
            # after it can bring part + pw[v] to a probe total
            row = rows[mult - 1] if last and rows is not None else None
            reach = want >> part
            v = lo
            while v <= bound and part + pw[v] * mult <= limit:
                if row is None or (reach >> pw[v] * mult) & row[v]:
                    vals.append(v)
                    yield from fill(slot + 1, v + step, part + pw[v], vals)
                    vals.pop()
                v += 1

        yield from fill(0, 1, partial, [])

    yield from rec(0, 0, ())


def _side_color(groups, color):
    """vals -> the one color that color (indexed by value) gives a side
    assignment's constrained values, or 0 where they take two; None for
    a side with no constrained value, which goes with any color."""
    slots = [i for i, g in enumerate(groups) if not g.is_free]
    if not slots:
        return None
    if len(slots) == 1 and groups[slots[0]].size == 1:
        (i,) = slots
        return lambda vals: color[vals[i][0]]

    first = slots[0]

    def mono(vals):
        c = color[vals[first][0]]
        for i in slots:
            for v in vals[i]:
                if color[v] != c:
                    return 0
        return c
    return mono


def _iter_reps(eq: Equation, n: int, low: int | None = None,
               deadline: float | None = None, color: tuple[int, ...] | None = None):
    """Yield every canonical solution representative within [1, n]; with
    low, only those whose largest constrained value is in (low, n]; on a
    distinct: equation, only those whose constrained values are pairwise
    distinct: each constrained group is scanned strictly increasing, and
    a repeat across groups is filtered at the yield.  With color, a
    sequence indexed by value, only those whose constrained values all
    take one color, in the order the scan without it yields them.

    A representative is a (lhs, rhs) pair of per-group value tuples.  Each
    pass materializes the side with fewer estimated assignments into a
    total -> values table and streams the other side against it.  A pass
    where either side's least total is past cap yields nothing and is
    skipped before anything is built: in the window (n-1, n] of
    x1^2+...+xk^2 = z^2, the pass that pins the lhs at n starts at
    n^2 + k - 1.

    With color, each side is filtered to one color before the join: one
    table per color keeps, per total, that color's monochromatic
    assignments (every assignment still counts toward MATERIALIZE_CAP),
    and each streamed assignment is paired only with the entries of its
    own color.  A side with no constrained value goes with any color, so
    neither side is then keyed by its color.  The probe holds only the
    totals that keep an entry.  A pass whose probe is empty is skipped
    before its stream, with color or without."""
    check_overflow(eq, n)
    plan = _plan(eq)
    lhs, rhs = plan.lhs, plan.rhs
    distinct = eq.distinct_required
    if distinct:
        values, width = plan.values, len(eq.constrained_variables)
    budget = _Budget(deadline)
    cap = plan.cap(n)
    for scan in _scans(plan, n, low, cap):
        lhs_tail, rhs_tail = _tail_min(lhs, scan), _tail_min(rhs, scan)
        if lhs_tail[0] > cap or rhs_tail[0] > cap:
            continue
        est_lhs, est_rhs = _est_reps(lhs, scan), _est_reps(rhs, scan)
        mat_lhs = est_lhs <= est_rhs
        mat_groups, stream_groups = (lhs, rhs) if mat_lhs else (rhs, lhs)
        mat_tail, stream_tail = (lhs_tail, rhs_tail) if mat_lhs else (rhs_tail, lhs_tail)
        if min(est_lhs, est_rhs) > MATERIALIZE_CAP and cap >= sum(
            scan.powers[g.coefficient][scan.bound[g]] * g.size for g in mat_groups
        ):
            # no assignment exceeds cap, so the estimate is the exact count
            raise _too_dense()
        count = 0
        if color is None:
            table: dict[int, list] = {}
            for total, vals in _iter_side(mat_groups, scan, mat_tail, cap, None, budget,
                                          distinct):
                count += 1
                if count > MATERIALIZE_CAP:
                    raise _too_dense()
                table.setdefault(total, []).append(vals)
            probe = table
        else:
            mat_color = _side_color(mat_groups, color)
            stream_color = _side_color(stream_groups, color)
            if mat_color is None or stream_color is None:
                # every monochromatic assignment takes the one key 1
                mat_color, stream_color = (
                    (lambda vals: 1) if f is None else (lambda vals, f=f: f(vals) and 1)
                    for f in (mat_color, stream_color))
            # one table per key; key 0 (two colors) stays empty, so a
            # streamed assignment of two colors finds no entry
            tables = {c: {} for c in {0, 1, *color}}
            for total, vals in _iter_side(mat_groups, scan, mat_tail, cap, None, budget,
                                          distinct):
                count += 1
                if count > MATERIALIZE_CAP:
                    raise _too_dense()
                c = mat_color(vals)
                if c:
                    tables[c].setdefault(total, []).append(vals)
            probe = set().union(*tables.values())
        if not probe:
            continue
        for total, svals in _iter_side(stream_groups, scan, stream_tail, cap, probe, budget,
                                       distinct):
            for mvals in (table[total] if color is None
                          else tables[stream_color(svals)].get(total, ())):
                rep = (mvals, svals) if mat_lhs else (svals, mvals)
                if not distinct or len(set(values(rep))) == width:
                    yield rep


def _count_reps(eq: Equation, n: int) -> int | None:
    """How many representatives _iter_reps(eq, n) yields, or None (not
    counted) for a distinct: equation or past COUNT_TABLE_CAP.

    Each group is counted like a one-group side of _dp_sides, with a
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
    plan = _plan(eq)
    lhs, rhs, cap = plan.lhs, plan.rhs, plan.cap(n)
    (scan,) = _scans(plan, n, None, cap)
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


def _too_dense() -> SolutionCapError:
    return SolutionCapError(
        f"equation too dense to enumerate: one side has more than "
        f"MATERIALIZE_CAP={MATERIALIZE_CAP} assignments"
    )


def _constrained(lhs, rhs, free: bool = False):
    """rep -> one iterable of a representative's constrained values, lhs
    then rhs: its vertices (a free variable is no vertex).  With free, its
    free values instead."""
    keep = [g.is_free == free for g in lhs + rhs]
    if all(keep):
        return lambda rep: chain(*rep[0], *rep[1])
    return lambda rep: chain(*compress(rep[0] + rep[1], keep))


def _to_solutions(lhs, rhs, reps):
    """One SolutionTuple per representative, the names read off the plan
    once, laid out like a representative and split the same way."""
    values, free_values = _constrained(lhs, rhs), _constrained(lhs, rhs, free=True)
    plan_names = tuple(g.names for g in lhs), tuple(g.names for g in rhs)
    names, free_names = list(values(plan_names)), list(free_values(plan_names))
    for rep in reps:
        yield SolutionTuple(dict(zip(names, values(rep))),
                            dict(zip(free_names, free_values(rep))))


def iter_canonical_solutions(eq: Equation, n: int, color: tuple[int, ...] | None = None):
    """One SolutionTuple per canonical representative (group-sorted values).

    Permutations of values across interchangeable variables are collapsed;
    use enumerate_solutions for the full ordered listing.  With color, a
    sequence indexed by value, only the monochromatic ones (_iter_reps).
    """
    return _to_solutions(*_plan(eq), _iter_reps(eq, n, color=color))


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
    if not vals:
        yield ()
    for x in sorted(set(vals)):
        i = vals.index(x)
        for tail in _distinct_perms(vals[:i] + vals[i + 1:]):
            yield (x,) + tail


def _expand(lhs, rhs, rep):
    """Every assignment rep stands for: each group's values in every order."""
    perms = [list(_distinct_perms(gv)) for side_vals in rep for gv in side_vals]
    k = len(lhs)
    return _to_solutions(lhs, rhs, ((c[:k], c[k:]) for c in product(*perms)))


def build_hyperedges(
    eq: Equation,
    n: int,
    rep_cap: int | None = None,
    deadline: float | None = None,
    low: int | None = None,
) -> EdgeSet:
    """Deduplicated hyperedges (distinct constrained value sets) in [1, n],
    sorted by (largest value, tuple), and the number of solution
    representatives (_iter_reps) they came from.

    With low, the window (low, n]: only the edges whose largest value is
    in it, and closing_reps counts the representatives of each largest
    value; low = n-1 gives the edges whose largest value is n.
    Concatenating the windows of a split of [1, n] gives the
    edges of [1, n] in order.  Past rep_cap representatives the scan
    raises EnumerationBudgetExceeded, past a time.monotonic() deadline
    EnumerationTimeout.
    """
    values = _plan(eq).values
    reps = _iter_reps(eq, n, deadline=deadline, low=low)
    if rep_cap is not None:
        reps = islice(reps, rep_cap + 1)
    seen: set[tuple[int, ...]] = set()
    count = 0
    # representatives per largest value, tallied only where there are two
    tally = [0] * (n - low) if low is not None and n - low > 1 else None
    for count, rep in enumerate(reps, 1):
        edge = tuple(sorted(set(values(rep))))
        seen.add(edge)
        if tally:
            tally[edge[-1] - low - 1] += 1
    if rep_cap is not None and count > rep_cap:
        raise EnumerationBudgetExceeded()
    edges = sorted(seen)
    edges.sort(key=itemgetter(-1))  # stable, so in (largest value, tuple) order
    closing_reps = tuple(tally) if tally else (count,) if low is not None else ()
    return EdgeSet(n=n, edges=tuple(edges), reps=count, closing_reps=closing_reps)


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
    (build_hyperedges with low = pivot-1).
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
        return any(cls.issuperset(e) for e in build_hyperedges(eq, pivot, low=pivot - 1).edges)

    masks, groups, sides, capmask = _dp_sides(eq, pivot)
    for v in values:
        masks = _grow(masks, groups, v, capmask)
    # pivot in one slot of some group, every other slot from the class
    return any(
        (masks[other] >> weight[pivot]) & masks[full - stride]
        for (full, side), (other, _) in zip(sides, sides[::-1])
        for weight, stride, _ in side
    )


def _dp_sides(eq: Equation, n: int):
    """The dp masks for values in [1, n], both sides in one list, lhs
    first: (masks, groups, sides, capmask), capmask dropping totals no
    solution can have.

    A side's masks are indexed in mixed radix by how many slots of each
    constrained group are filled, so its last is the full side; bit t is
    set iff those slots can total t, and the free slots' sums seed its
    first.  A group is (weight, stride, indices): weight[v] is its term
    at value v, and indices, into masks, are those with one of its slots
    filled.  groups holds every group, lhs first; sides holds (full
    index, groups) per side, so masks[-1] is the full rhs.  A side that
    needs more than DP_MASK_CAP masks raises OverflowGuardError first."""
    plan = _plan(eq)
    cap = plan.cap(n)
    capmask = (1 << (cap + 1)) - 1
    masks, sides = [], []
    for side in plan:
        count = prod(g.size + 1 for g in side if not g.is_free)
        if count > DP_MASK_CAP:
            raise OverflowGuardError(f"a side of {eq.render()!r} needs {count} dp masks, "
                                     f"past DP_MASK_CAP={DP_MASK_CAP}")
        base, groups, stride = len(masks), [], 1
        masks += [1] + [0] * (count - 1)
        for g in side:
            if g.is_free:           # a free slot takes any value whose term fits in cap
                top = _floor_root(cap // g.coefficient, eq.degree)
                terms = plan.powers(g.coefficient, top)[1:top + 1]
                for _ in range(g.size):
                    masks[base] = reduce(or_, map(masks[base].__lshift__, terms), 0) & capmask
            else:
                groups.append((plan.powers(g.coefficient, n)[:n + 1], stride,
                               [base + i for i in range(count) if i // stride % (g.size + 1)]))
                stride *= g.size + 1
        sides.append((len(masks) - 1, groups))
    return masks, sides[0][1] + sides[1][1], sides, capmask


def _grow(masks, groups, v: int, capmask: int) -> list[int]:
    """The masks of both sides once value v joins the class: per group, in
    ascending index order, so that v may fill several of its slots."""
    new = masks[:]
    for weight, stride, indices in groups:
        w = weight[v]
        for i in indices:
            new[i] = (new[i] | new[i - stride] << w) & capmask
    return new
