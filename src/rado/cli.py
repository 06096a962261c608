"""Command-line front end.

Subcommands mirror the library: solutions, color, rado, export, verify,
model-to-cert, and the table harness that recomputes the k-squares row.
Data goes to stdout; diagnostics go to stderr (level set by RADO_LOG in
{quiet, info, debug}).  With --json every command emits one
self-describing object with deterministic fields only, so repeated runs
are byte-identical; wall-clock times appear only in human output.

Exit codes: 0 success (for rado: exact value found), 1 invalid
certificate, 2 input error, 3 budget or cap exhausted (lower bound).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .certificate import (
    INVALID,
    MALFORMED,
    VALID,
    Certificate,
    parse_certificate,
    verify_text,
    write_certificate,
)
from .cnf import (
    DIRECT,
    export_cnf,
    import_model,
    parse_dimacs,
    parse_model,
    write_dimacs,
)
from .equations import family_equation, parse_equation
from .solutions import (
    SolutionCapError,
    build_hyperedges,
    edges_to_json,
    enumerate_solutions,
)
from .solver import (
    BACKENDS,
    BUDGET_EXHAUSTED,
    COLORABLE,
    EXACT,
    RadoOutcome,
    SearchParams,
    compute_rado,
    find_coloring,
)

log = logging.getLogger("rado")

# every library input error is a ValueError but SolutionCapError
INPUT_ERRORS = (ValueError, SolutionCapError, OSError)


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _setup_logging():
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("RADO_LOG", "quiet").lower()
    logging.basicConfig(
        stream=sys.stderr, level=level.get(name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rado",
        description="Rado numbers of Diophantine equations by coloring search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an argument that several subcommands take is defined once, as a parent
    as_json, equation, colors, size, cap, search, output = (
        argparse.ArgumentParser(add_help=False) for _ in range(7))
    as_json.add_argument("--json", action="store_true")
    equation.add_argument("equation")
    equation.add_argument("--distinct", action="store_true",
                          help="require pairwise distinct constrained values")
    colors.add_argument("-r", type=int, required=True)
    size.add_argument("-n", type=int, required=True)
    cap.add_argument("--cap", type=int, default=SearchParams.n_cap, metavar="N")
    search.add_argument("--timeout", type=float, default=SearchParams.time_budget,
                        metavar="SECONDS")
    search.add_argument("--backend", choices=BACKENDS, default=SearchParams.backend)
    search.add_argument("--cert", metavar="FILE", help="write witness certificate")
    output.add_argument("-o", "--output", required=True, metavar="FILE")

    p = sub.add_parser("solutions", parents=[equation, as_json],
                       help="list solutions or hyperedges in [1, N]")
    p.add_argument("--max", type=int, default=None, metavar="N")
    p.add_argument("--edges", action="store_true", help="print deduplicated edges")
    p.set_defaults(func=cmd_solutions)

    sub.add_parser("color", parents=[equation, size, colors, search, as_json],
                   help="decide colorability of [1, N]").set_defaults(func=cmd_color)

    sub.add_parser("rado", parents=[equation, colors, cap, search, as_json],
                   help="compute the Rado number RR_r(E)").set_defaults(func=cmd_rado)

    p = sub.add_parser("export", parents=[equation, size, colors, output, as_json],
                       help="export a coloring instance as DIMACS CNF")
    p.add_argument("--direct", action="store_true",
                   help="force the direct encoding (default: binary for r=2)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", parents=[as_json], help="verify a coloring certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("model-to-cert", parents=[output, as_json],
                       help="convert a SAT model back into a certificate")
    p.add_argument("cnf", help="the exported DIMACS file (carries the metadata)")
    p.add_argument("model", help="model file: DIMACS v-lines or bare literals")
    p.set_defaults(func=cmd_model_to_cert)

    p = sub.add_parser("table", parents=[colors, cap, as_json],
                       help="Rado numbers of x1^2+...+xk^2 = z^2")
    p.add_argument("--min-k", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timeout-per-k", type=float, default=SearchParams.time_budget,
                   metavar="SECONDS")
    p.set_defaults(func=cmd_table)

    return parser


def cmd_solutions(args) -> int:
    eq = parse_equation(args.equation, distinct=args.distinct)
    if args.max is None:
        print("error: --max is required", file=sys.stderr)
        return 2
    if args.edges:
        edge_set = build_hyperedges(eq, args.max)
        if args.json:
            print(json.dumps(edges_to_json(eq, edge_set)))
        else:
            for e in edge_set.edges:
                print(" ".join(str(v) for v in e))
        return 0
    sols = enumerate_solutions(eq, args.max)
    if args.json:
        print(json.dumps({
            "command": "solutions",
            "equation": eq.render(),
            "n": args.max,
            "solutions": [{**s.values, **s.free_values} for s in sols],
        }))
    else:
        for s in sols:
            parts = [f"{v}={s.values[v]}" for v in eq.variables if v in s.values]
            parts += [f"~{v}={s.free_values[v]}" for v in eq.variables
                      if v in s.free_values]
            print(" ".join(parts))
    return 0


def _write_cert(path, equation_text, coloring, claim):
    cert = Certificate.from_coloring(equation_text, coloring, claim)
    with open(path, "w") as fh:
        fh.write(write_certificate(cert))
    log.info("wrote certificate %s", path)


def cmd_color(args) -> int:
    eq = parse_equation(args.equation, distinct=args.distinct)
    params = SearchParams(time_budget=args.timeout, backend=args.backend)
    out = find_coloring(eq, args.n, args.r, params)
    if out.verdict == COLORABLE and args.cert:
        _write_cert(args.cert, eq.render(), out.coloring, "colorable")
    if args.json:
        print(json.dumps({
            "command": "color",
            "equation": eq.render(),
            "n": args.n,
            "r": args.r,
            "verdict": out.verdict,
            "coloring": list(out.coloring.colors) if out.coloring else None,
            "backend": out.backend,
            "nodes": out.stats.nodes,
            "propagations": out.stats.propagations,
            "max_depth": out.stats.max_depth,
        }))
    else:
        print(out.verdict)
        if out.coloring is not None:
            print(" ".join(str(c) for c in out.coloring.colors))
        print(f"backend: {out.backend}")
        print(f"nodes: {out.stats.nodes}")
        print(f"propagations: {out.stats.propagations}")
        print(f"max-depth: {out.stats.max_depth}")
        print(f"elapsed-ms: {out.stats.elapsed_ms}")
    return 3 if out.verdict == BUDGET_EXHAUSTED else 0


def _rado_json(eq, r, out: RadoOutcome) -> dict:
    return {
        "command": "rado",
        "equation": eq.render(),
        "r": r,
        "kind": out.kind,
        "value": out.value,
        "witness_n": out.witness.n,
        "witness": list(out.witness.colors),
        "nodes": sum(b.nodes for b in out.bounds),
        "propagations": sum(b.propagations for b in out.bounds),
        "bounds": [
            {
                "n": b.n,
                "verdict": b.verdict,
                "backend": b.backend,
                "warm": b.warm,
                "nodes": b.nodes,
                "propagations": b.propagations,
                "flips": b.flips,
            }
            for b in out.bounds
        ],
    }


def cmd_rado(args) -> int:
    eq = parse_equation(args.equation, distinct=args.distinct)
    params = SearchParams(
        n_cap=args.cap, time_budget=args.timeout, backend=args.backend
    )
    t0 = time.monotonic()
    out = compute_rado(eq, args.r, params)
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if args.cert:
        claim = f"rado-exact {out.value}" if out.exact else "colorable"
        _write_cert(args.cert, eq.render(), out.witness, claim)
    if args.json:
        print(json.dumps(_rado_json(eq, args.r, out)))
    else:
        print(f"{out.kind} {out.value}")
        print(f"witness-n: {out.witness.n}")
        print(f"bounds-tested: {len(out.bounds)}")
        print(f"nodes: {sum(b.nodes for b in out.bounds)}")
        print(f"propagations: {sum(b.propagations for b in out.bounds)}")
        print(f"elapsed-ms: {elapsed_ms}")
    return 0 if out.exact else 3


def cmd_export(args) -> int:
    eq = parse_equation(args.equation, distinct=args.distinct)
    edges = build_hyperedges(eq, args.n)
    inst = export_cnf(eq, edges, args.r, DIRECT if args.direct else None)
    with open(args.output, "w") as fh:
        fh.write(write_dimacs(inst))
    if args.json:
        print(json.dumps({
            "command": "export",
            "equation": eq.render(),
            "n": args.n,
            "r": args.r,
            "encoding": inst.encoding,
            "edges": len(edges),
            "variables": inst.variable_count,
            "clauses": inst.clause_count,
            "path": args.output,
        }))
    else:
        print(f"wrote {args.output} (vars={inst.variable_count} "
              f"clauses={inst.clause_count} edges={len(edges)})")
    return 0


def cmd_verify(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    verdict = verify_text(text)
    violation = None
    if verdict.violation is not None:
        eq = parse_equation(parse_certificate(text).equation)
        violation = verdict.violation.render(eq)
    if args.json:
        print(json.dumps({
            "command": "verify",
            "status": verdict.status,
            "violation": violation,
            "reason": verdict.reason,
        }))
    else:
        if verdict.status == VALID:
            print("valid")
        elif verdict.status == INVALID:
            print(f"invalid: {violation}")
        else:
            print(f"malformed: {verdict.reason}")
    return {VALID: 0, INVALID: 1, MALFORMED: 2}[verdict.status]


def cmd_model_to_cert(args) -> int:
    with open(args.cnf) as fh:
        inst = parse_dimacs(fh.read())
    with open(args.model) as fh:
        model = parse_model(fh.read())
    coloring = import_model(model, inst)
    _write_cert(args.output, inst.equation, coloring, "colorable")
    if args.json:
        print(json.dumps({
            "command": "model-to-cert",
            "path": args.output,
            "equation": inst.equation,
            "n": inst.n,
            "r": inst.r,
        }))
    else:
        print(f"wrote {args.output}")
    return 0


def _table_row(k: int, r: int, cap: int, timeout: float) -> dict:
    out = compute_rado(
        family_equation(k), r, SearchParams(n_cap=cap, time_budget=timeout)
    )
    cold = [b.backend for b in out.bounds if not b.warm]
    return {
        "k": k,
        "kind": out.kind,
        "value": out.value,
        "backend": cold[-1] if cold else "warm",
        "nodes": sum(b.nodes for b in out.bounds),
        "elapsed_ms": sum(b.elapsed_ms for b in out.bounds),
    }


def cmd_table(args) -> int:
    if not 2 <= args.min_k <= args.max_k:
        print("error: need 2 <= min-k <= max-k", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: need --jobs >= 1", file=sys.stderr)
        return 2
    # the rows run one after another in this process; --jobs has no effect
    rows = [_table_row(k, args.r, args.cap, args.timeout_per_k)
            for k in range(args.min_k, args.max_k + 1)]
    if args.json:
        print(json.dumps({
            "command": "table",
            "r": args.r,
            "rows": [
                {k: row[k] for k in ("k", "kind", "value", "backend", "nodes")}
                for row in rows
            ],
        }))
    else:
        header = f"{'k':>3}  {'rado':<12} {'backend':<8} {'nodes':>10}  elapsed-ms"
        print(header)
        for row in rows:
            label = (f"exact {row['value']}" if row["kind"] == EXACT
                     else f"lb {row['value']}")
            print(f"{row['k']:>3}  {label:<12} {row['backend']:<8} "
                  f"{row['nodes']:>10}  {row['elapsed_ms']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
