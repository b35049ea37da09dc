"""lorahop benchmark: run one seeded workload in this process and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

The program comes from `src/` of the same checkout.  Set-up (a fresh import
of lorahop, the trace load and the seeded inputs) is repeated and its median
reported as `setup_s`.  Passes of the workload then repeat until the next one
would end after `--seconds`; at least one pass always runs.  While an
untraced pass runs, `hostspeed.py` samples the host's speed with a fixed
calibration kernel, and `wall_ref_s` is the interquartile mean of the pass
wall times, each without the kernel runs and scaled to the reference host
speed by the mean kernel time of its pass.  With `--trace 0`
the last stdout line holds the end-to-end metrics; with `--trace 1`, untraced
and traced passes alternate and it holds the per-layer metrics from the traced
ones.  The line before it records the machine, the provenance, the output
digests and every sample.  Exit code 0 means the result line was printed;
failed output checks show as `"correct": false`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import hostspeed
from tracing import Tracer, layer_metrics
from workloads import QUALITY_NAMES, WORKLOADS, call_cli

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


def fresh_import():
    """Import lorahop from scratch, so every set-up pays the module import."""
    for name in [m for m in sys.modules if m == "lorahop" or m.startswith("lorahop.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"lorahop.{name}")
            for name in ("cli", "core", "optimizer", "trace", "sim", "telemetry",
                         "predictor", "recommender")}


def blas_info():
    """OpenBLAS version and thread count of the BLAS numpy loaded, where it tells."""
    import ctypes

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance():
    commit = None
    if (ROOT / ".git").exists():   # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "machine": platform.machine(),
            "git_commit": commit, "src_lines": src_lines}


def interquartile_mean(values):
    """Mean of the middle half of `values`: steadier than the median on a few
    samples, and no single slow or fast pass moves it."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.is_file()}


def run_pass(workload, lh, tracer):
    """One pass of CLI calls; returns ([(label, exit code, error text)], wall seconds)."""
    calls = []
    start = time.perf_counter()
    for label, argv in workload.commands():
        if tracer is not None:
            tracer.label = label
        calls.append((label, *call_cli(lh, argv)))
    return calls, time.perf_counter() - start


def measure(workload, seconds, trace):
    """Set up, run passes for `seconds`, check every pass; returns (result, info)."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lh = fresh_import()
        workload.setup(lh)
        setup_s.append(time.perf_counter() - start)

    tracer = Tracer(lh) if trace else None
    untraced, traced, layers = [], [], []
    untraced_ref, kernel_s = [], []
    hostspeed.kernel()   # warm-up
    attempted = failed = 0
    failures, reference, quality = [], None, {}
    deadline = time.perf_counter() + seconds
    while True:
        traced_pass = trace and len(traced) < len(untraced)
        if tracer is not None:
            tracer.active = traced_pass
        if traced_pass:
            calls, wall = run_pass(workload, lh, tracer)
            tracer.active = False
            traced.append(wall)
            layers.append(layer_metrics(tracer.take(workload.expected_spans)))
        else:
            start = time.perf_counter()
            with hostspeed.Sampler() as host:
                calls, _ = run_pass(workload, lh, tracer)
            wall = time.perf_counter() - start - host.busy_s
            untraced.append(wall)
            kernel_s.append(host.kernel_s)
            untraced_ref.append(wall * hostspeed.REFERENCE_S / host.kernel_s)

        problems, outputs, quality = workload.check(lh, calls)
        got = digests(outputs)
        if reference is None:
            reference = got
        elif got != reference:
            problems = [p or "outputs differ from the first pass of this seed" for p in problems]
        attempted += len(problems)
        failed += sum(1 for p in problems if p)
        failures += [p for p in problems if p]

        if time.perf_counter() + statistics.median(untraced + traced) > deadline \
                and (not trace or traced):
            break
    if tracer is not None:
        tracer.restore()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        metrics = {name: statistics.median(sample[name] for sample in layers)
                   for name in layers[0]}
        metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics.update({name: quality.get(name, 0.0) for name in QUALITY_NAMES})
    else:
        metrics = {
            "wall_ref_s": interquartile_mean(untraced_ref),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "quality": quality.get(workload.primary_quality, 0.0),
        }
    info = {
        "workload": workload.name, "seed": workload.seed, "trace": trace,
        "wall_s": statistics.median(untraced), "wall_s_samples": untraced,
        "wall_ref_s_samples": untraced_ref, "kernel_s_samples": kernel_s,
        "traced_wall_s_samples": traced, "setup_s_samples": setup_s,
        "peak_rss_mb": peak_rss_mb, "quality": quality, "failures": failures[:5],
        "outputs_sha256": reference, "provenance": provenance(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lorahop" / "cli.py").is_file():
        print(f"perfbench: no lorahop sources under {ROOT / 'src'}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result, info = measure(WORKLOADS[args.workload](args.seed, workdir), args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(result["metrics"]):
        print(f"perfbench: metrics {sorted(set(declared) ^ set(result['metrics']))} are not "
              "both declared in BENCHMARK.json and measured", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": declared[name]}
                         for name, value in result["metrics"].items()}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
