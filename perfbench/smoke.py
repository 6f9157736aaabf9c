"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with a one-second
budget, two runs at a time, and checks that each prints, last on stdout,
a correct result whose metrics are exactly the ones `BENCHMARK.json`
declares for that mode, with their units.  Then checks that a directory
holding only `BENCHMARK.json` and `perfbench/` makes the benchmark exit
non-zero without printing a result.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _check(spec: dict, workload: str, trace: int, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: not a clean result: {proc.stderr}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, unexpected {sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
        elif not trace and m["value"] <= 0:
            errors.append(f"{where}: end-to-end metric {name} reads {m['value']}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda job: _run(ROOT, *job), jobs))
    errors = []
    for (workload, trace), proc in zip(jobs, procs):
        found = _check(spec, workload, trace, proc)
        errors += found
        print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without program sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
