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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .equations import Equation
from .solutions import EdgeSet
from .solver import Coloring

TOOL_VERSION = "rado-solver 0.1.0"

BINARY = "binary"
DIRECT = "direct"


class CnfError(ValueError):
    """Malformed CNF file, model, or encoding request."""


@dataclass
class CnfInstance:
    equation: str
    n: int
    r: int
    encoding: str
    variable_count: int
    clauses: list[list[int]] = field(default_factory=list)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def constrained_variables(self) -> set[int]:
        return {abs(lit) for clause in self.clauses for lit in clause}


def export_cnf(
    eq: Equation, edges: EdgeSet, r: int, encoding: str | None = None
) -> CnfInstance:
    """Encode 'some r-coloring of [1, n] avoids every edge' as CNF.

    encoding defaults to binary for r=2 and direct otherwise.
    """
    if r < 1:
        raise CnfError(f"r must be >= 1, got {r}")
    if encoding is None:
        encoding = BINARY if r == 2 else DIRECT
    if encoding not in (BINARY, DIRECT):
        raise CnfError(f"unknown encoding {encoding!r}")
    if encoding == BINARY and r != 2:
        raise CnfError("binary encoding requires r=2")

    n = edges.n
    smallest = min((e[0] for e in edges.edges), default=None)
    clauses: list[list[int]] = []

    if encoding == BINARY:
        if smallest is not None:
            clauses.append([-smallest])
        for e in edges.edges:
            clauses.append([v for v in e])
            clauses.append([-v for v in e])
        variable_count = n
    else:
        # neg[c][i] is the literal "vertex i does not have color c + 1"
        neg = [[-((i - 1) * r + c) for i in range(n + 1)] for c in range(1, r + 1)]
        if smallest is not None:
            clauses.append([-neg[0][smallest]])
        for i in range(1, n + 1):
            clauses.append([-row[i] for row in neg])
            for c1 in range(r):
                for c2 in range(c1 + 1, r):
                    clauses.append([neg[c1][i], neg[c2][i]])
        for e in edges.edges:
            for row in neg:
                clauses.append(list(map(row.__getitem__, e)))
        variable_count = n * r

    return CnfInstance(
        equation=eq.render(),
        n=n,
        r=r,
        encoding=encoding,
        variable_count=variable_count,
        clauses=clauses,
    )


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
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Read back an exported instance, header metadata included."""
    meta: dict[str, str | int] = {}
    variable_count = None
    clause_count = None
    clauses: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c "):
            parts = line[2:].split(None, 1)
            if len(parts) == 2 and parts[0] in ("equation", "n", "r", "encoding"):
                key, value = parts
                meta[key] = _header_int(value, lineno, line) if key in ("n", "r") else value
            continue
        if line.startswith("p "):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError(f"line {lineno}: bad problem line {line!r}")
            variable_count = _header_int(fields[2], lineno, line)
            clause_count = _header_int(fields[3], lineno, line)
            continue
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise CnfError(f"line {lineno}: bad clause {line!r}") from None
        if not lits or lits[-1] != 0:
            raise CnfError(f"line {lineno}: clause must end with 0")
        clauses.append(lits[:-1])
    if variable_count is None:
        raise CnfError("missing problem line")
    if clause_count != len(clauses):
        raise CnfError(
            f"problem line declares {clause_count} clauses, found {len(clauses)}"
        )
    for key in ("equation", "n", "r", "encoding"):
        if key not in meta:
            raise CnfError(f"missing 'c {key}' header comment")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > variable_count:
                raise CnfError(f"literal {lit} out of range")
    return CnfInstance(
        equation=meta["equation"],
        n=meta["n"],
        r=meta["r"],
        encoding=meta["encoding"],
        variable_count=variable_count,
        clauses=clauses,
    )


def _header_int(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CnfError(f"line {lineno}: non-integer field in {line!r}") from None


def parse_model(text: str) -> list[int]:
    """Accept DIMACS 'v'-lines or a bare literal list; 0 terminates."""
    v_lines = [
        line[1:] for line in text.splitlines() if line.startswith(("v ", "v\t"))
    ]
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
            lit = int(tok)
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
    at-most-one are rejected.
    """
    assigned: dict[int, bool] = {}
    for lit in model:
        if abs(lit) > inst.variable_count:
            raise CnfError(f"model literal {lit} out of range")
        assigned[abs(lit)] = lit > 0
    constrained = None

    def in_clauses(var: int) -> bool:
        # a set over every literal, so built only once a variable is missing
        nonlocal constrained
        if constrained is None:
            constrained = inst.constrained_variables()
        return var in constrained

    colors: list[int] = []
    if inst.encoding == BINARY:
        for v in range(1, inst.n + 1):
            if v in assigned:
                colors.append(2 if assigned[v] else 1)
            elif in_clauses(v):
                raise CnfError(f"incomplete model: variable {v} unassigned")
            else:
                colors.append(1)
    elif inst.encoding == DIRECT:
        r = inst.r
        for v in range(1, inst.n + 1):
            true_colors = []
            missing = False
            for c in range(1, r + 1):
                var = (v - 1) * r + c
                if var in assigned:
                    if assigned[var]:
                        true_colors.append(c)
                elif in_clauses(var):
                    missing = True
            if len(true_colors) > 1:
                raise CnfError(
                    f"vertex {v} assigned colors {true_colors}: at-most-one violated"
                )
            if true_colors:
                colors.append(true_colors[0])
            elif missing:
                raise CnfError(f"incomplete model: vertex {v} has no color")
            else:
                colors.append(1)
    else:
        raise CnfError(f"unknown encoding {inst.encoding!r}")
    return Coloring(inst.n, inst.r, tuple(colors))


def coloring_to_model(coloring: Coloring, inst: CnfInstance) -> list[int]:
    """The model a SAT solver would report for this coloring."""
    lits: list[int] = []
    if inst.encoding == BINARY:
        for v in range(1, inst.n + 1):
            lits.append(v if coloring.color_of(v) == 2 else -v)
    else:
        r = inst.r
        for v in range(1, inst.n + 1):
            for c in range(1, r + 1):
                var = (v - 1) * r + c
                lits.append(var if coloring.color_of(v) == c else -var)
    return lits
