"""Spans around coarse library calls, kept in memory, plus the per-layer
metrics computed from them.

Nothing inside the library is edited.  A traced pass goes through
``Tracer.call`` for the calls the benchmark makes itself, and
``Tracer.install`` swaps in wrappers for the public functions as the
calling module binds them (``rado.solver.build_hyperedges``,
``rado.solver.dp_feasible``, ``rado.certificate.iter_canonical_solutions``).
Untraced passes go through ``direct_call`` and run the library unchanged.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SEARCH = ("solver.compute_rado", "solver.find_coloring")
ENUM = "solutions.build_hyperedges"
DP_FEASIBLE = "solutions.dp_feasible"
SCANNED = "certificate.solutions_scanned"


def direct_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "status", "size")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id
        self.status = "ok"
        self.size = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "pass": self.pass_id,
            "status": self.status, "size": self.size,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], int] = {}
        self.bounds: list[dict] = []     # one record per search, per pass
        self.pass_id = -1
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; an exception marks the span aborted."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), parent, self.pass_id)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.status = "aborted"
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()
        span.size = _size(result)
        return result

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.pass_id, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self, rado) -> None:
        """Wrap the library functions other library modules call."""
        def spanned(module, attr, name):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
            setattr(module, attr, wrapper)

        spanned(rado.solver, "build_hyperedges", ENUM)
        spanned(rado.solver, "dp_feasible", DP_FEASIBLE)

        original = rado.certificate.iter_canonical_solutions
        self._saved.append((rado.certificate, "iter_canonical_solutions", original))

        def counted(*args, **kwargs):
            for sol in original(*args, **kwargs):
                self.count(SCANNED)
                yield sol
        rado.certificate.iter_canonical_solutions = counted

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def pass_metrics(self, pass_id: int, records: list[dict]) -> dict:
        """Per-layer metrics of one traced pass.

        records holds one dict per search the pass ran (a compute_rado
        bound or a find_coloring call) with the fields of BoundReport and
        SearchStats.
        """
        indexed = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        spans = [s for _, s in indexed]

        def total(*names):
            return sum(s.duration for s in spans if s.name in names)

        search_s = 0.0
        for index, s in indexed:
            if s.name in SEARCH:
                children = sum(
                    c.duration for c in spans
                    if c.parent == index and c.name in (ENUM, DP_FEASIBLE)
                )
                search_s += s.duration - children

        all_ms = sum(r["elapsed_ms"] for r in records)

        def nodes_per_s(backend):
            # search time split between backends by their share of the
            # library's own per-bound elapsed times
            mine = [r for r in records if r["backend"] == backend]
            share = search_s * sum(r["elapsed_ms"] for r in mine) / all_ms if all_ms else 0.0
            return sum(r["nodes"] for r in mine) / share if share else 0.0

        warm = sum(1 for r in records if r["warm"])
        enums = [s for s in spans if s.name == ENUM]
        returned = [s for s in enums if s.status == "ok"]
        exports = [s for s in spans if s.name == "cnf.export_cnf"]
        writes = [s for s in spans if s.name == "cnf.write_dimacs"]
        write_s = total("cnf.write_dimacs")
        cnf_bytes = sum(s.size for s in writes)
        return {
            "solver.nodes": sum(r["nodes"] for r in records),
            "solver.propagations": sum(r["propagations"] for r in records),
            "solver.search_s": search_s,
            "solver.edge_nodes_per_s": nodes_per_s("edge"),
            "solver.dp_nodes_per_s": nodes_per_s("dp"),
            "solver.cold_bounds": sum(1 for r in records if not r["warm"]),
            "solver.warm_hit_frac": warm / len(records) if records else 0.0,
            "solver.max_depth": max((r["max_depth"] for r in records), default=0),
            "solutions.enum_calls": len(enums),
            "solutions.enum_aborted": len(enums) - len(returned),
            "solutions.enum_useful_frac": len(returned) / len(enums) if enums else 0.0,
            "solutions.enum_s": total(ENUM),
            "solutions.edges": sum(s.size for s in returned),
            "solutions.dp_feasible_calls": sum(1 for s in spans if s.name == DP_FEASIBLE),
            "solutions.dp_feasible_s": total(DP_FEASIBLE),
            "cnf.export_s": total("cnf.export_cnf"),
            "cnf.write_s": write_s,
            "cnf.parse_s": total("cnf.parse_dimacs"),
            "cnf.model_s": total("cnf.coloring_to_model", "cnf.import_model"),
            "cnf.clauses": sum(s.size for s in exports),
            "cnf.bytes": cnf_bytes,
            "cnf.write_mb_per_s": cnf_bytes / write_s / 1e6 if write_s else 0.0,
            "certificate.verify_s": total("certificate.verify"),
            "certificate.verify_calls": sum(1 for s in spans if s.name == "certificate.verify"),
            "certificate.solutions_scanned": self.counters.get((pass_id, SCANNED), 0),
        }

    def dump(self) -> list[dict]:
        return [s.as_json() for s in self.spans]


def _size(result):
    """Work size of a traced call's result: edges, clauses or bytes."""
    if hasattr(result, "edges"):
        return len(result.edges)
    if hasattr(result, "clauses"):
        return len(result.clauses)
    if isinstance(result, str):
        return len(result)
    return None


def median_metrics(per_pass: list[dict]) -> dict:
    """Lower median of each metric over the traced passes, so that a
    count stays a count."""
    return {
        name: statistics.median_low(m[name] for m in per_pass)
        for name in per_pass[0]
    }
