"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from `workloads.py` against the sources under `src/`
of the checkout this file sits in, checks its outputs against ground
oracles, and prints one JSON line last on stdout:
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones; both sets, with their
units, are declared in `BENCHMARK.json` and the run refuses to print any
other set.  Notes for humans go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _percentile(xs, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(run) -> dict:
    from workloads import BenchmarkError

    if not (run.op_s and run.setup_s):
        raise BenchmarkError("no operation completed")
    if len(set(run.objectives)) != 1:
        run.fail(f"solves of the same input reached different objectives {sorted(set(run.objectives))}")
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "fit_objective": (statistics.median(run.objectives), "value"),
        "op_ms_p50": (1000.0 * statistics.median(run.op_s), "ms"),
        "op_ms_p95": (1000.0 * _percentile(run.op_s, 0.95), "ms"),
        "ops_per_s": (len(run.op_s) / run.loop_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run) -> dict:
    from tracer import LAYERS
    from workloads import BenchmarkError

    if not (run.traced_op_s and run.op_s and run.traced_setups):
        raise BenchmarkError("the traced run has no traced or no untraced operation")
    out = {}
    for layer in LAYERS:
        if layer.setup:
            totals = run.setup_bucket[layer.name].scaled(1.0 / run.traced_setups)
        else:
            totals = run.op_bucket[layer.name].scaled(1.0 / len(run.traced_op_s))
        out[f"{layer.name}.calls"] = (totals.calls, "count")
        out[f"{layer.name}.self_s"] = (totals.self_s, "s")
        out[f"{layer.name}.total_s"] = (totals.total_s, "s")
        for counter in layer.counters:
            value = totals.counters.get(counter, 0.0)
            if counter == "unique":
                out[f"{layer.name}.unique_ratio"] = (value / totals.calls if totals.calls else 0.0, "ratio")
            else:
                out[f"{layer.name}.{counter}"] = (value, "count")
    overhead = statistics.median(run.traced_op_s) - statistics.median(run.op_s)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fomdp" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src / 'fomdp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fomdp
    from tracer import Tracer, VerdictWatch
    from workloads import WORKLOADS, BenchmarkError, Run

    if Path(fomdp.__file__).resolve().parent != (src / "fomdp").resolve():
        print(f"perfbench: imported fomdp from {fomdp.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        with VerdictWatch() as watch:
            run = Run(args.seed, args.seconds, watch, Tracer() if args.trace else None)
            WORKLOADS[args.workload]().run(run)
        measured = per_layer(run) if args.trace else end_to_end(run)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    declared = _declared(args.trace)
    got = {name: unit for name, (_, unit) in measured.items()}
    if got != declared:
        print(f"perfbench: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 1
    for key, value in sorted(run.notes.items()):
        print(f"{args.workload}: {key} = {value}", file=sys.stderr)
    for problem in run.problems:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
