"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload desk_element --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports samt from ``src/`` there and
reads the metric names and units from ``BENCHMARK.json``.  With ``--trace 0``
it prints the end-to-end metrics (set-up time, round time, peak RSS); with
``--trace 1`` it alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / "_work"
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

# The BLAS pool gets at most two threads, so figures do not depend on how many
# cores a machine shows; it is set before numpy is first imported.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's `src/` first on the path and import samt from it."""
    src = ROOT / "src"
    if not (src / "samt" / "__init__.py").is_file():
        raise SystemExit(f"error: no samt package under {src}; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]
    import samt

    if Path(samt.__file__).resolve().parent != (src / "samt").resolve():
        raise SystemExit(f"error: imported samt from {samt.__file__}, not from {src}")


def blas_warmup(max_seconds: float = 15.0) -> dict:
    """Run a desk-shaped matmul until OpenBLAS's start-up stall is over.

    In some fresh processes the first ~130 calls of a 100x784 @ 784x64 product
    take ~8 ms instead of ~0.2 ms.  The stall is uniform while it lasts, so the
    loop makes at least 500 calls before it trusts the fastest call seen, then
    stops once the median of the last 100 calls is within 2x of that fastest.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((100, 784)), rng.standard_normal((784, 64))
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < max_seconds:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
        if len(times) >= 500 and statistics.median(times[-100:]) <= 2.0 * min(times):
            break
    slow = sum(t > 20 * min(times) for t in times[:200])
    return {"calls": len(times), "seconds": time.perf_counter() - start, "slow_first_200": slow}


def measure(workload, seed: int, seconds: float, trace: bool):
    """Alternate set-up and round until `seconds` pass; trace every other one."""
    from perfbench.tracing import Tracer

    untraced = {"setup": [], "run": []}
    traced = []  # (tracer, round seconds, top-level span seconds in the round)
    attempted = failed = 0
    problems: list[str] = []  # wrong outputs of operations that completed
    errors: list[str] = []  # operations that raised
    need = (MIN_ITERATIONS, MIN_TRACED_ITERATIONS * 2)[trace]
    start = time.perf_counter()
    i = 0
    while i < need or time.perf_counter() - start < seconds:
        tracer = Tracer() if trace and i % 2 == 1 else None
        gc.collect()
        with tracer or nullcontext():
            t0 = time.perf_counter()
            prepared = workload.setup(seed)
            setup_s = time.perf_counter() - t0
            top_setup = tracer.top_level_s if tracer else 0.0
            gc.collect()
            t1 = time.perf_counter()
            result = workload.run(prepared)
            t2 = time.perf_counter()
        outcome = workload.check(prepared, result)
        attempted += outcome.attempted
        failed += len(outcome.errors)
        problems += outcome.problems
        errors += outcome.errors
        if tracer:
            traced.append((tracer, t2 - t1, tracer.top_level_s - top_setup))
        else:
            untraced["setup"].append(setup_s)
            untraced["run"].append(t2 - t1)
        del prepared, result
        i += 1
    return untraced, traced, attempted, failed, problems, errors


def end_to_end_metrics(untraced) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(untraced["setup"]),
        "run_s": statistics.median(untraced["run"]),
        "peak_rss_mb": peak_kib / 1024.0,
    }


SCALE = {"s": 1.0, "ms": 1e3, "count": 1.0, "MiB": 1.0 / 2**20}


def per_layer_metrics(spec: list[dict], untraced, traced) -> dict:
    """Median over traced iterations; a layer a workload never calls reads 0."""
    values = [t.values() for t, _, _ in traced]
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name == "trace.coverage_pct":
            out[name] = 100.0 * statistics.median(top / run for _, run, top in traced)
        elif name == "trace.overhead_s":
            out[name] = statistics.median(run for _, run, _ in traced) - statistics.median(untraced["run"])
        else:
            out[name] = statistics.median(v.get(name, 0.0) for v in values) * SCALE[unit]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warm = blas_warmup()
    print(f"blas warm-up: {warm['calls']} calls in {warm['seconds']:.2f} s, "
          f"{warm['slow_first_200']} stalled among the first 200", file=sys.stderr)
    workdir = WORKDIR / str(os.getpid())
    workload = WORKLOADS[args.workload](workdir)
    try:
        untraced, traced, attempted, failed, problems, errors = measure(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print(f"set-up seconds: {[round(t, 4) for t in untraced['setup']]}", file=sys.stderr)
    print(f"round seconds: {[round(t, 4) for t in untraced['run']]}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(spec["per_layer"], untraced, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end_metrics(untraced)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for e in dict.fromkeys(errors):
        print(f"operation failed: {e}", file=sys.stderr)
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
