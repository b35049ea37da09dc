"""Repeatability check: every count-type per-layer metric reads the same on two traced runs.

Run from the repository root:

    python3 perfbench/check_counts.py [workload ...]

Each workload (all of BENCHMARK.json by default) runs twice with `--trace 1`
and the same seed, each time in a fresh process.  The counts compared are the
per-layer metrics whose unit is `count`: nodes expanded and schedules built
per ladder rung, Adam steps, simulator slots, collisions, captures and hops,
imputed cells, dataset rows and call counts.  Exit code 0 when every count
repeats exactly and both runs pass their output checks, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: output checks failed\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    ok = True
    for workload in argv or [w["name"] for w in bench["workloads"]]:
        try:
            first, second = traced_run(workload), traced_run(workload)
        except RuntimeError as exc:
            print(exc)
            ok = False
            continue
        differ = [f"{n}: {first[n]} then {second[n]}" for n in counts if first[n] != second[n]]
        measured = {n: first[n] for n in counts if first[n]}
        print(f"{workload}: {'DIFFER ' + '; '.join(differ) if differ else 'identical'} {measured}")
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
