"""rado-solver benchmark: time to a verified answer on fixed instances.

One workload per process:

    python3 perfbench/run.py --workload thm1 --seed 1 --seconds 25 --trace 0

runs passes of the workload back to back (a closed loop with one caller)
for about --seconds, checks every answer, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (wall_ref_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, taken from
traced passes that alternate with untraced ones, and the spans are
written to perfbench/out/.  Times are given at a fixed reference speed
of the interpreter, measured while they run; see speed.py.

    python3 perfbench/run.py --report

runs every workload, untraced and then traced, each in a fresh
interpreter one after another, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
from tracer import Tracer, direct_call, median_metrics
from workloads import WITNESS, WORKLOADS, Context, spellings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3


def contract_units(trace: int) -> dict:
    """Metric name -> unit for one mode, as BENCHMARK.json lists them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in contract["per_layer" if trace else "end_to_end"]}


class SetupError(RuntimeError):
    """The library or the stored witness cannot be loaded."""


def set_up(workload, texts):
    """Fresh import of rado, parse the seeded equations, read the witness.

    Returns (rado, equations, witness, seconds, parse seconds), both
    times at the reference speed.  Modules imported by an earlier call
    stay alive for whoever holds them.
    """
    for name in [m for m in sys.modules if m == "rado" or m.startswith("rado.")]:
        del sys.modules[name]
    timing, (rado, eqs, witness, parse_s) = speed.timed(
        lambda: _load(workload, texts))
    return rado, eqs, witness, timing.scaled, parse_s * timing.factor


def _load(workload, texts):
    try:
        rado = importlib.import_module("rado")
    except ImportError as exc:
        raise SetupError(f"cannot import rado from {SRC}: {exc}") from None
    if not Path(rado.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported rado from {rado.__file__}, not from {SRC}")
    parse_start = perf_counter()
    eqs = {role: rado.parse_equation(text) for role, text in texts.items()}
    parse_s = perf_counter() - parse_start
    witness = None
    if workload.needs_witness:
        try:
            cert = rado.parse_certificate(WITNESS.read_text())
        except OSError as exc:
            raise SetupError(f"cannot read the stored witness: {exc}") from None
        witness = rado.Coloring(cert.n, cert.r, cert.colors)
    return rado, eqs, witness, parse_s


def checked_pass(workload, ctx, tally, reference):
    """Run one pass; returns (speed.Timed or None, result or None).

    The timing covers the pass up to its checked answer.  Colorable
    witnesses are then verified outside it, as is the comparison of the
    pass's work counts with the reference pass on the canonical spelling.
    """
    try:
        timing, result = speed.timed(lambda: workload.run(ctx))
    except Exception:
        tally.fail("pass raised", traceback.format_exc())
        return None, None
    for label, ok in result.ops:
        tally.record(label, ok)
    for eq, coloring in result.witnesses:
        tally.attempt(f"witness n={coloring.n} verifies", lambda: bool(ctx.call(
            "certificate.verify", ctx.rado.verify,
            ctx.rado.Certificate.from_coloring(eq.render(), coloring))))
    if reference is not None:
        tally.record("same work as the canonical spelling",
                     result.counts == reference.counts)
    return timing, result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {label} {detail}".rstrip(), file=sys.stderr)

    def fail(self, label, detail=""):
        self.record(label, False, detail)

    def attempt(self, label, check):
        try:
            ok = check()
        except Exception:
            self.fail(label, traceback.format_exc())
        else:
            self.record(label, ok)


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    texts = spellings(workload, seed)
    sys.path.insert(0, str(SRC))
    rado, eqs, witness, *first = set_up(workload, texts)
    setups = [tuple(first)]
    for role, text in texts.items():
        print(f"equation {role}: {text!r}")

    tally = Tally()
    canonical = {role: rado.parse_equation(text)
                 for role, text in workload.equations.items()}
    gc.collect()
    _, reference = checked_pass(
        workload, Context(rado, canonical, direct_call, witness), tally, None)
    if reference is None:
        tally.fail("reference pass on the canonical spelling")

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}    # scaled pass times
    raw = []                          # untraced pass wall times
    factors = []
    layer = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(walls[True]) <= len(walls[False])
        gc.collect()
        if traced:
            tracer.pass_id = len(walls[True])
            tracer.install(rado)
            try:
                timing, result = checked_pass(
                    workload, Context(rado, eqs, tracer.call, witness),
                    tally, reference)
            finally:
                tracer.restore()
            if result is not None:
                layer.append(_at_reference_speed(
                    tracer.pass_metrics(tracer.pass_id, result.records),
                    timing.factor))
                tracer.bounds.extend(dict(r, trace_pass=tracer.pass_id)
                                     for r in result.records)
        else:
            timing, _ = checked_pass(
                workload, Context(rado, eqs, direct_call, witness),
                tally, reference)
        if timing is None:
            break
        walls[traced].append(timing.scaled)
        factors.append(timing.factor)
        if not traced:
            raw.append(timing.net)
        # one more set-up sample per pass, spread over the run like the
        # passes; the passes keep the modules of the first set-up
        setups.append(set_up(workload, texts)[3:])
        done = sum(len(w) for w in walls.values())
        typical = statistics.median(raw or [timing.wall])
        if done >= MIN_PASSES and perf_counter() - start + typical > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(s[0] for s in setups)
    parse_s = statistics.median(s[1] for s in setups)

    untraced = walls[False]
    print(f"workload {name} seed {seed}: {len(untraced)} untraced passes, "
          f"{len(walls[True])} traced, in {perf_counter() - start:.1f} s; "
          f"host speed {min(factors, default=0):.3f}-{max(factors, default=0):.3f}"
          f" x reference")
    print(f"error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    if trace:
        if not layer:
            tally.fail("no traced pass completed")
            metrics = {}
        else:
            metrics = median_metrics(layer)
            metrics["equations.parse_s"] = parse_s
            traced_wall = statistics.median(walls[True])
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.speed_factor"] = statistics.median(factors)
            metrics["trace.overhead_frac"] = (
                traced_wall / statistics.median(untraced) - 1 if untraced else 0.0)
            counts = [_counts_only(m) for m in layer]
            if any(c != counts[0] for c in counts):
                tally.fail("traced passes disagree on work counts")
        write_trace(name, seed, tracer)
    elif untraced:
        metrics = {
            "wall_ref_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        for label, times in (("wall_ref_s", untraced), ("wall_s", raw)):
            ordered = sorted(times)
            line = (f"{label} median {statistics.median(ordered):.4f} s over "
                    f"{len(ordered)} passes (min {ordered[0]:.4f}, "
                    f"max {ordered[-1]:.4f})")
            tail = _tail_percentile(ordered)
            if tail is not None:
                line += f"; p{tail[0]} {tail[1]:.4f} s"
            print(line)
            print(f"{label} of each pass: " + " ".join(f"{w:.3f}" for w in times))
    else:
        tally.fail("no untraced pass completed")
        metrics = {}
    units = contract_units(trace)
    if metrics.keys() != units.keys():
        tally.fail("metrics differ from BENCHMARK.json",
                   f"{sorted(metrics.keys() ^ units.keys())}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units.get(key, '?')}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, v in metrics.items()},
    }


def _at_reference_speed(metrics, factor):
    """A traced pass's layer times (and rates) at the reference speed."""
    out = {}
    for key, value in metrics.items():
        if key.endswith("_per_s"):
            value /= factor
        elif key.endswith("_s"):
            value *= factor
        out[key] = value
    return out


def _counts_only(metrics):
    """The metrics of a traced pass that must repeat exactly: every one
    that is not a time or a ratio of times."""
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_s", "_per_s", "_frac"))}


def _tail_percentile(ordered):
    """Highest whole percentile with at least ten samples above it."""
    index = len(ordered) - 11
    if index < len(ordered) // 2:
        return None
    return (index + 1) * 100 // len(ordered), ordered[index]


def write_trace(name, seed, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.trace.json"
    path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "spans": tracer.dump(),
        "bounds": tracer.bounds,
    }, indent=0) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")


def report(seed, seconds):
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print every metric")
    args = parser.parse_args(argv)
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --report is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
