"""DIMACS CNF export and model import for coloring instances.

Binary encoding (r=2 only): variable i true means vertex i has color 2.
Each edge E yields the clauses OR(i) and OR(-i) for i in E; a unit clause
-s pins the smallest constrained vertex s to color 1.

Direct encoding: variable (i-1)*r + c true means vertex i has color c.
Every vertex gets one at-least-one clause and all pairwise at-most-one
clauses; each edge E yields, per color c, the clause OR(-v(i,c)).

Clause counts are closed-form: binary 2*|E| + 1, direct
n*(1 + r*(r-1)/2) + |E|*r + 1 (the +1 symmetry unit is omitted when the
edge set is empty).  Emission order is fixed so exports are byte-stable:
symmetry unit, per-vertex clauses ascending, per-edge clauses in edge-set
order.

Clauses are kept as one flat DIMACS literal list, each clause closed by
0 (Clauses), with its clause count carried rather than recounted.
Literals are converted once per distinct value through a memo, both
ways: write_dimacs joins its texts ("lit ", "0\n"), and parse_dimacs
checks the range over its distinct values, so parsing holds the tokens
seen, whatever the declared variable count.

parse_dimacs reads the layout write_dimacs emits in bulk: after the
header, which ends at the first problem line, the clause body is
tokenized in chunks of about 64 KiB cut at line ends, one str.split and
one map through the memo each, so neither a copy of the body nor all of
its tokens are held at once.  A chunk is taken when it is ASCII, cuts
tokens only at " " and "\n", ends every line with the token 0 and holds
no other token "0" (substring tests); the body is taken when no memo key
but "0" is worth 0 ("-0", "00").  Any other text (comments between
clauses, CRLF, blank lines, faults) is read by an ordered line scan, the
one place that names the first bad line.  A 0 inside a clause or a
literal past the range, seen as more zeros than clause lines or over the
memo's values, sends the text through that scan once more with the range
bound, to name the first offending literal.

parse_dimacs accepts only headers export_cnf can write: n >= 1, r >= 1,
binary (r=2, n variables) or direct (n*r variables); else CnfError.  It
and parse_model read integers written -?[0-9]+ only (decimal_int).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import countOf, getitem, itemgetter

from .equations import Equation, decimal_int
from .solutions import EdgeSet
from .solver import Coloring

TOOL_VERSION = "rado-solver 0.1.0"

BINARY = "binary"
DIRECT = "direct"

# parse_dimacs tokenizes an exported clause body this many characters
# (rounded up to a line end) at a time
_CHUNK = 1 << 16
# what str.splitlines or str.split, but not the export, cuts ASCII text at
_OTHER_SEPARATORS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\t", "\x1f")


class CnfError(ValueError):
    """Malformed CNF file, model, or encoding request."""


class _Memo(dict):
    """key -> convert(key), each key converted on its first lookup."""

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


class Clauses:
    """Read-only clauses: one flat DIMACS literal list, each clause closed
    by 0.  Iterates each clause as a fresh list; equal to another store
    with the same literals, or to a list of the same clause lists."""

    __slots__ = ("literals", "count")

    def __init__(self, literals: list[int], count: int | None = None):
        self.literals = literals
        self.count = literals.count(0) if count is None else count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        lits, start = self.literals, 0
        for _ in range(self.count):
            end = lits.index(0, start)
            yield lits[start:end]
            start = end + 1

    def __eq__(self, other):
        if isinstance(other, Clauses):
            return self.literals == other.literals
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Clauses({list(self)!r})"


@dataclass
class CnfInstance:
    """clauses given as a list of clause lists is converted to Clauses."""

    equation: str
    n: int
    r: int
    encoding: str
    variable_count: int
    clauses: Clauses = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.clauses, Clauses):
            self.clauses = Clauses([lit for c in self.clauses for lit in (*c, 0)])

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def constrained_variables(self) -> set[int]:
        return set(map(abs, self.clauses.literals)) - {0}


def export_cnf(
    eq: Equation, edges: EdgeSet, r: int, encoding: str | None = None
) -> CnfInstance:
    """Encode 'some r-coloring of [1, n] avoids every edge' as CNF.

    encoding defaults to binary for r=2 and direct otherwise.
    """
    if encoding is None:
        encoding = BINARY if r == 2 else DIRECT
    _check_encoding(r, encoding)

    n = edges.n
    smallest = min(map(itemgetter(0), edges.edges), default=None)
    lits: list[int] = []
    add = lits.extend

    if encoding == BINARY:
        if smallest is not None:
            add((-smallest, 0))
        for e in edges.edges:
            e += (0,)
            add(e)
            add([-v for v in e])
        variable_count, count = n, 2 * len(edges.edges)
    else:
        # neg[c][i] is the literal "vertex i does not have color c + 1",
        # and neg[c][0] is 0, so mapping an edge and 0 closes its clause
        neg = [[0] + [-((i - 1) * r + c) for i in range(1, n + 1)]
               for c in range(1, r + 1)]
        if smallest is not None:
            add((-neg[0][smallest], 0))
        for i in range(1, n + 1):
            add([-row[i] for row in neg] + [0])
            for a, b in combinations(neg, 2):
                add((a[i], b[i], 0))
        # rows[k]: each color's row k times, so one map over an edge
        # closed by 0 (k literals), repeated r times, gives its r clauses
        rows = _Memo(lambda k: [row for row in neg for _ in range(k)])
        for e in edges.edges:
            e += (0,)
            add(map(getitem, rows[len(e)], e * r))
        variable_count = n * r
        count = n * (1 + r * (r - 1) // 2) + r * len(edges.edges)
    count += smallest is not None    # the symmetry unit

    return CnfInstance(eq.render(), n, r, encoding, variable_count, Clauses(lits, count))


def write_dimacs(inst: CnfInstance) -> str:
    """Byte-stable DIMACS text with a self-describing comment header."""
    lines = [
        "c rado-cnf v1",
        f"c equation {inst.equation}",
        f"c n {inst.n}",
        f"c r {inst.r}",
        f"c encoding {inst.encoding}",
        f"c tool {TOOL_VERSION}",
        f"p cnf {inst.variable_count} {inst.clause_count}",
    ]
    text = _Memo("{} ".format)
    text[0] = "0\n"
    return "\n".join(lines) + "\n" + "".join(map(text.__getitem__, inst.clauses.literals))


def parse_dimacs(text: str) -> CnfInstance:
    """Read back an exported instance, header metadata included."""
    # a bulk read that gives up has converted tokens of clause lines only
    memo = _Memo(decimal_int)
    meta, variable_count, clause_count, clauses, clause_lines = (
        _read_export_layout(text, memo) or _scan_lines(text, memo))
    if variable_count is None:
        raise CnfError("missing problem line")
    if clause_count != clause_lines:
        raise CnfError(f"problem line declares {clause_count} clauses, found {clause_lines}")
    for key in ("equation", "n", "r", "encoding"):
        if key not in meta:
            raise CnfError(f"missing 'c {key}' header comment")
    n, r, encoding = meta["n"], meta["r"], meta["encoding"]
    if n < 1:
        raise CnfError(f"n must be >= 1, got {n}")
    _check_encoding(r, encoding)
    expected = n if encoding == BINARY else n * r
    if variable_count != expected:
        raise CnfError(f"problem line declares {variable_count} variables, "
                       f"{encoding} encoding of n={n}, r={r} has {expected}")
    used = memo.values()
    if len(clauses) != clause_lines or used and (max(used) > variable_count
                                                 or min(used) < -variable_count):
        _scan_lines(text, memo, variable_count)
    return CnfInstance(meta["equation"], n, r, encoding, variable_count, clauses)


def _read_export_layout(text: str, memo: _Memo):
    """What _scan_lines returns, for the layout write_dimacs emits: lines up
    to the first problem line, then clause lines alone, each closed by the
    token 0 and a newline.  The clause body is tokenized in _CHUNK-sized
    pieces cut at line ends; None as soon as a piece may read otherwise,
    or at the end if a token other than "0" was worth 0."""
    if not text.endswith("\n"):
        return None
    head = 0 if text.startswith("p ") else text.find("\np ") + 1
    body = text.find("\n", head) + 1
    meta, variable_count, clause_count, _, clause_lines = _scan_lines(text[:body], memo)
    if clause_lines:
        return None
    lits: list[int] = []
    literal = memo.__getitem__
    while body < len(text):
        end = text.find("\n", body + _CHUNK) + 1 or len(text)
        chunk = text[body:end]
        lines = chunk.count("\n")
        # the separators are " " and "\n" alone, and each line's last
        # token, and no other, is "0": then str.split and str.splitlines
        # cut the same tokens into the same lines
        if (not chunk.isascii() or any(map(chunk.__contains__, _OTHER_SEPARATORS))
                or text.count(" 0\n", body, end) + text.count("\n0\n", body - 1, end) != lines
                or " 0 " in chunk or "\n0 " in chunk or chunk.startswith("0 ")):
            return None
        try:
            lits += map(literal, chunk.split())
        except ValueError:
            return None
        clause_lines += lines
        body = end
    # and no token but "0" is worth 0, such as "-0" or "00"
    if countOf(memo.values(), 0) > 1:
        return None
    return meta, variable_count, clause_count, Clauses(lits, clause_lines), clause_lines


def _scan_lines(text: str, memo: _Memo, bound: int | None = None):
    """(meta, variable count, clause count, clauses, clause lines) of text
    in any layout, read line by line, raising CnfError at the first bad
    line.  With bound, also at the first literal that is 0 before its
    clause's end or outside [-bound, bound]."""
    meta: dict[str, str | int] = {}
    variable_count = None
    clause_count = None
    lits: list[int] = []
    clause_lines = 0
    literal = memo.__getitem__
    for lineno, line in enumerate(text.splitlines(), 1):
        # only such a line can be blank, a comment or the problem line
        if not line or line[0] in "cp" or line[0].isspace():
            line = line.strip()
            if not line:
                continue
            if line.startswith("c "):
                parts = line[2:].split(None, 1)
                if len(parts) == 2 and parts[0] in ("equation", "n", "r", "encoding"):
                    key, value = parts
                    if key in ("n", "r"):
                        value = _header_int(value, lineno, line)
                    meta[key] = value
                continue
            if line.startswith("p "):
                fields = line.split()
                if len(fields) != 4 or fields[1] != "cnf":
                    raise CnfError(f"line {lineno}: bad problem line {line!r}")
                variable_count = _header_int(fields[2], lineno, line)
                clause_count = _header_int(fields[3], lineno, line)
                continue
        start = len(lits)
        try:
            lits += map(literal, line.split())
        except ValueError as exc:
            raise CnfError(f"line {lineno}: bad clause {line.strip()!r}: {exc}") from None
        if lits[-1] != 0:
            raise CnfError(f"line {lineno}: clause must end with 0")
        clause_lines += 1
        if bound is not None:
            for lit in lits[start:-1]:
                if lit == 0 or abs(lit) > bound:
                    raise CnfError(f"literal {lit} out of range")
    return meta, variable_count, clause_count, Clauses(lits), clause_lines


def _check_encoding(r: int, encoding: str) -> None:
    if r < 1:
        raise CnfError(f"r must be >= 1, got {r}")
    if encoding not in (BINARY, DIRECT):
        raise CnfError(f"unknown encoding {encoding!r}")
    if encoding == BINARY and r != 2:
        raise CnfError("binary encoding requires r=2")


def _header_int(token: str, lineno: int, line: str) -> int:
    try:
        return decimal_int(token)
    except ValueError:
        raise CnfError(f"line {lineno}: non-integer field {token!r} in {line!r}") from None


def parse_model(text: str) -> list[int]:
    """Accept DIMACS 'v'-lines or a bare literal list; 0 terminates."""
    v_lines = [line[1:] for line in text.splitlines() if line.startswith(("v ", "v\t"))]
    if v_lines:
        tokens = " ".join(v_lines).split()
    else:
        tokens = [
            tok
            for line in text.splitlines()
            if not line.startswith(("c", "s"))
            for tok in line.split()
        ]
    lits: list[int] = []
    for tok in tokens:
        try:
            lit = decimal_int(tok)
        except ValueError:
            raise CnfError(f"bad model literal {tok!r}") from None
        if lit == 0:
            break
        lits.append(lit)
    seen: dict[int, int] = {}
    for lit in lits:
        prior = seen.get(abs(lit))
        if prior is not None and prior != lit:
            raise CnfError(f"model assigns variable {abs(lit)} both ways")
        seen[abs(lit)] = lit
    return lits


def import_model(model: list[int], inst: CnfInstance) -> Coloring:
    """Invert the encoding: model literals back to a total coloring.

    Vertices constrained by clauses must be assigned; vertices in no
    clause default to color 1.  Direct-encoding models that violate
    at-most-one, or at-least-one at a constrained vertex, are rejected.
    """
    assigned: dict[int, bool] = {}
    for lit in model:
        if abs(lit) > inst.variable_count:
            raise CnfError(f"model literal {lit} out of range")
        assigned[abs(lit)] = lit > 0
    colors: list[int] = []
    if inst.encoding == BINARY:
        missing = set(range(1, inst.variable_count + 1)).difference(assigned)
        if missing:     # a set over every literal, so built only when needed
            missing &= inst.constrained_variables()
        for v in range(1, inst.n + 1):
            if v in missing:
                raise CnfError(f"incomplete model: variable {v} unassigned")
            colors.append(2 if assigned.get(v) else 1)
    elif inst.encoding == DIRECT:
        r = inst.r
        constrained = None  # a set over every literal, so built only when needed
        for v in range(1, inst.n + 1):
            own = range((v - 1) * r + 1, v * r + 1)
            true_colors = [c for c, var in enumerate(own, 1) if assigned.get(var)]
            if len(true_colors) > 1:
                raise CnfError(
                    f"vertex {v} assigned colors {true_colors}: at-most-one violated"
                )
            if not true_colors:
                if constrained is None:
                    constrained = inst.constrained_variables()
                if not constrained.isdisjoint(own):
                    if all(var in assigned for var in own):
                        raise CnfError(f"vertex {v} has no color: at-least-one violated")
                    raise CnfError(f"incomplete model: vertex {v} has no color")
            colors.append(true_colors[0] if true_colors else 1)
    else:
        raise CnfError(f"unknown encoding {inst.encoding!r}")
    return Coloring(inst.n, inst.r, tuple(colors))


def coloring_to_model(coloring: Coloring, inst: CnfInstance) -> list[int]:
    """The model a SAT solver would report for this coloring."""
    if (coloring.n, coloring.r) != (inst.n, inst.r):
        raise CnfError(f"coloring of n={coloring.n}, r={coloring.r} does not "
                       f"fit the instance's n={inst.n}, r={inst.r}")
    if inst.encoding == BINARY:
        return [v if coloring.color_of(v) == 2 else -v for v in range(1, inst.n + 1)]
    r = inst.r
    return [
        var if coloring.color_of(v) == c else -var
        for v in range(1, inst.n + 1)
        for c, var in enumerate(range((v - 1) * r + 1, v * r + 1), 1)
    ]
