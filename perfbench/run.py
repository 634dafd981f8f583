"""sercap benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload study-ser --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the machine.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a run whose odd rounds are traced.  Results and
traces are written under ``perfbench/out/``.  ``--workload all`` runs each
workload in its own child process and prints a combined line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("study-ser", "default-ce", "caption-long")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads(nproc: int) -> None:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "platform": platform.platform(),
    }


def run_one(args, nproc: int) -> int:
    from perfbench import workloads
    from perfbench.spans import Tracer, layer_metrics, span_cost

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = workloads.make_workload(args.workload, args.seed, work)
    tracer = Tracer() if args.trace else None
    samples = {kind: defaultdict(list) for kind in ("untraced", "traced")}
    wall = {"untraced": [], "traced": []}
    rounds, last = 0, None
    try:
        bench.prepare()
        start = perf_counter()
        # traced runs alternate untraced and traced rounds, and need one of
        # each after the first round, which warms caches for both
        while rounds < (3 if tracer else 1) or perf_counter() - start < args.seconds:
            kind = "traced" if tracer and rounds % 2 == 1 else "untraced"
            last = None  # free the previous round before the next one peaks
            t0 = perf_counter()
            with tracer.installed() if kind == "traced" else nullcontext():
                last = bench.round(samples[kind])
            wall[kind].append(perf_counter() - t0)
            rounds += 1
        problems = bench.check(last)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        n = len(wall["traced"])
        metrics = layer_metrics(tracer, n)
        overhead = statistics.median(wall["traced"]) / statistics.median(wall["untraced"][1:]) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / n, "unit": "count"}
        cost = span_cost() * len(tracer.spans) / sum(wall["traced"])
        metrics["trace.span_cost_pct"] = {"value": 100.0 * cost, "unit": "%"}
    else:
        metrics = workloads.end_to_end(samples["untraced"], peak_rss_mb)
    result = {"correct": not problems, "attempted": bench.attempted, "failed": 0, "metrics": metrics}
    env = machine(nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "machine": env,
         "result": result, "problems": problems, "samples": samples, "round_wall_s": wall,
         "peak_rss_mb": peak_rss_mb}, indent=1) + "\n")
    if tracer:
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": env, "traced_rounds": len(wall["traced"]),
             "fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans,
             "counts": dict(tracer.counts)}) + "\n")
    for p in problems:
        print(f"CHECK FAILED [{args.workload}]: {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": env}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sercap benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "sercap" / "__init__.py").is_file():
        print(f"perfbench: no sercap sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import sercap

    if Path(sercap.__file__).resolve().parent != (SRC / "sercap").resolve():
        print(f"perfbench: imported sercap from {sercap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
