"""The benchmark's workloads: seeded equation spellings, one pass of each
workload, and the reference values a pass is checked against.

A pass gets the library as ``ctx.rado`` (imported during set-up, never
here) and its equations already parsed from the seeded text.  Every
checked item is one operation; a wrong value or an exception fails that
operation and the run goes on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# x1^2+...+xk^2 = z^2, r=2: OEIS A250026
A250026 = {4: 37, 5: 23, 6: 18, 7: 20, 8: 20, 9: 15, 10: 16, 11: 20,
           12: 23, 13: 17, 14: 21, 15: 26, 16: 17, 17: 23}
KSQ_ROW = range(4, 10)

THM1_CAP = 84
REFUTE_N = 31
PYTHAGOREAN_N = 4000
PYTHAGOREAN_EDGES = 4416
HANDOFF_N = 22
HANDOFF_EDGES = 19761
WITNESS = HERE / "witness-4v3-n22-r3.cert"


def squares(lhs: int, rhs: int, lhs_name="x", rhs_name="y") -> str:
    def side(k, name):
        if k == 1:
            return f"{name}^2"
        return "+".join(f"{name}{i}^2" for i in range(1, k + 1))
    return f"{side(lhs, lhs_name)}={side(rhs, rhs_name)}"


def respell(text: str, rng: random.Random) -> str:
    """Same equation, new surface form: variable names, side order, term
    order and whitespace drawn from rng.  Coefficients and exponents are
    kept, so the parsed equation differs only in its variable names."""
    sides = [side.split("+") for side in text.split("=")]
    count = sum(len(side) for side in sides)
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice("abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ")
                  + "".join(rng.choice("0123456789") for _ in range(rng.randrange(3))))
    fresh = iter(rng.sample(sorted(names), count))

    def ws():
        return rng.choice(("", "", " ", "  ", "\t"))

    spelled = []
    for side in sides:
        terms = [f"{next(fresh)}{ws()}^{ws()}{term.split('^')[1]}" for term in side]
        rng.shuffle(terms)
        spelled.append(f"{ws()}+{ws()}".join(terms))
    rng.shuffle(spelled)
    return ws() + f"{ws()}={ws()}".join(spelled) + ws()


@dataclass
class PassResult:
    """What one pass checked and the work counts it read off the results."""

    ops: list[tuple[str, bool]] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    witnesses: list[tuple[object, object]] = field(default_factory=list)
    counts: list = field(default_factory=list)

    def expect(self, label: str, ok: bool) -> None:
        self.ops.append((label, bool(ok)))

    def add_rado(self, outcome) -> None:
        for b in outcome.bounds:
            self.records.append({
                "n": b.n, "verdict": b.verdict, "backend": b.backend,
                "warm": b.warm, "nodes": b.nodes,
                "propagations": b.propagations, "max_depth": 0,
                "elapsed_ms": b.elapsed_ms,
            })
        self.counts.append((outcome.kind, outcome.value, tuple(
            (b.n, b.verdict, b.backend, b.warm, b.nodes, b.propagations)
            for b in outcome.bounds)))

    def add_search(self, n: int, outcome) -> None:
        s = outcome.stats
        self.records.append({
            "n": n, "verdict": outcome.verdict, "backend": outcome.backend,
            "warm": False, "nodes": s.nodes, "propagations": s.propagations,
            "max_depth": s.max_depth, "elapsed_ms": s.elapsed_ms,
        })
        self.counts.append((outcome.verdict, outcome.backend, s.nodes,
                            s.propagations, s.max_depth))


@dataclass
class Context:
    rado: object
    eqs: dict
    call: object
    stored: object = None


def thm1_pass(ctx: Context) -> PassResult:
    """Theorem 1's equation, r=2, grown to n=84 on the edge backend."""
    rado, eq = ctx.rado, ctx.eqs["e"]
    out = ctx.call("solver.compute_rado", rado.compute_rado, eq, 2,
                   rado.SearchParams(n_cap=THM1_CAP))
    res = PassResult()
    res.expect(f"lower bound {THM1_CAP}",
               not out.exact and out.value == THM1_CAP
               and out.witness.n == THM1_CAP)
    res.add_rado(out)
    res.witnesses.append((eq, out.witness))
    return res


def refute_pass(ctx: Context) -> PassResult:
    """Five squares = two squares, r=3, n=31: the dp backend refutes."""
    rado, eq = ctx.rado, ctx.eqs["e"]
    out = ctx.call("solver.find_coloring", rado.find_coloring, eq, REFUTE_N, 3)
    res = PassResult()
    res.expect(f"[1, {REFUTE_N}] uncolorable",
               out.verdict == rado.solver.UNCOLORABLE)
    res.add_search(REFUTE_N, out)
    return res


def ksq_pass(ctx: Context) -> PassResult:
    """The k-squares row for k=4..9, one compute_rado per k."""
    rado = ctx.rado
    res = PassResult()
    for k in KSQ_ROW:
        eq = ctx.eqs[f"k{k}"]
        out = ctx.call("solver.compute_rado", rado.compute_rado, eq, 2)
        res.expect(f"k={k}: exact {A250026[k]}",
                   out.exact and out.value == A250026[k])
        res.add_rado(out)
        res.witnesses.append((eq, out.witness))
    return res


def handoff_pass(ctx: Context) -> PassResult:
    """The external-solver hand-off, without a solver."""
    rado, call = ctx.rado, ctx.call
    res = PassResult()

    def export(eq, n, r):
        es = call("solutions.build_hyperedges", rado.build_hyperedges, eq, n)
        inst = call("cnf.export_cnf", rado.export_cnf, eq, es, r)
        text = call("cnf.write_dimacs", rado.write_dimacs, inst)
        back = call("cnf.parse_dimacs", rado.parse_dimacs, text)
        res.expect(f"n={n}: DIMACS round trip",
                   back.clauses == inst.clauses
                   and back.variable_count == inst.variable_count
                   and (back.n, back.r, back.encoding, back.equation)
                   == (inst.n, inst.r, inst.encoding, inst.equation))
        res.counts.append((len(es.edges), inst.clause_count, inst.encoding))
        return es, inst, back

    es, inst, _ = export(ctx.eqs["pythagorean"], PYTHAGOREAN_N, 2)
    res.expect(f"n={PYTHAGOREAN_N}: {PYTHAGOREAN_EDGES} edges",
               len(es.edges) == PYTHAGOREAN_EDGES)
    res.expect(f"n={PYTHAGOREAN_N}: binary clauses 2|E|+1",
               inst.encoding == "binary"
               and inst.clause_count == 2 * len(es.edges) + 1)

    r = 3
    es, inst, back = export(ctx.eqs["squares"], HANDOFF_N, r)
    res.expect(f"n={HANDOFF_N}: {HANDOFF_EDGES} edges",
               len(es.edges) == HANDOFF_EDGES)
    res.expect(f"n={HANDOFF_N}: direct clauses n(1+r(r-1)/2)+r|E|+1",
               inst.encoding == "direct"
               and inst.clause_count
               == HANDOFF_N * (1 + r * (r - 1) // 2) + r * len(es.edges) + 1)

    model = call("cnf.coloring_to_model", rado.coloring_to_model,
                 ctx.stored, back)
    coloring = call("cnf.import_model", rado.import_model, model, back)
    res.expect("model round trip gives back the witness", coloring == ctx.stored)
    cert = rado.Certificate.from_coloring(back.equation, coloring)
    verdict = call("certificate.verify", rado.verify, cert)
    res.expect("stored witness verifies", bool(verdict))
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    equations: dict     # role -> canonical spelling
    run: object
    needs_witness: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("thm1", {"e": "x^2+y^2+z^2=w^2"}, thm1_pass),
    Workload("thm2-refute", {"e": squares(5, 2)}, refute_pass),
    Workload("ksq-row", {f"k{k}": squares(k, 1, rhs_name="z") for k in KSQ_ROW},
             ksq_pass),
    Workload("handoff", {"pythagorean": "x^2+y^2=z^2", "squares": squares(4, 3)},
             handoff_pass, needs_witness=True),
)}


def spellings(workload: Workload, seed: int) -> dict:
    rng = random.Random(f"{workload.name}:{seed}")
    return {role: respell(text, rng) for role, text in workload.equations.items()}
