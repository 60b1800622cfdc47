"""Offline benchmark of the lowrank-ar fitting path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (set-up, then the timed run) until the
next round would end after S seconds, always at least one round and, when
tracing, at least two. Rounds are identical, so every run attempts and
fails the same share of operations. After the clock stops, every round's
outputs are checked against computations made apart from the package.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run alternates
untraced and traced rounds, so its tracing overhead is the difference of
their median run times. Full results and the trace's spans are written
under perfbench/out/.

BLAS runs on one thread (pinned below, before numpy is imported): on a
2-CPU machine the solve times spread about twice as much with two.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# At least this many set-ups, and this many seconds of them, per run.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 1.0


def _load_package() -> None:
    """Import lowrank_ar from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "lowrank_ar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'lowrank_ar'}")
    sys.path[:0] = [str(src), str(HERE)]
    import lowrank_ar

    if Path(lowrank_ar.__file__).resolve().parent != (src / "lowrank_ar").resolve():
        sys.exit(f"perfbench: lowrank_ar imported from {lowrank_ar.__file__}, not {src}")


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": THREADS,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "out" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare()

    tracer = tracing.Tracer() if args.trace else None
    rounds, outcomes = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = workload.setup()
            t1 = time.perf_counter()
            outcome = workload.run(state)
            t2 = time.perf_counter()
        finally:
            if traced:
                tracer.uninstall()
        del state
        rounds.append({"setup_s": t1 - t0, "run_s": t2 - t1, "traced": traced})
        outcomes.append(outcome)
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and (t2 - start) + (t2 - t0) > args.seconds:
            break
    peak_mb = _peak_rss_mb()
    setups = [r["setup_s"] for r in rounds if not r["traced"]]
    extra_setups = []
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        extra_setups.append(setups[-1])

    report = workload.check(outcomes)
    attempted = sum(o.attempted for o in outcomes)

    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in rounds if not r["traced"]), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": _environment(), "rounds": rounds, "extra_setups_s": extra_setups,
        "end_to_end": metrics, "checks": report.results, "reference": report.reference,
    }
    if tracer is not None:
        traced_runs = [r["run_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(traced_runs) - metrics["run_s"]["value"]
        layers = tracing.per_layer(tracer, len(traced_runs), overhead)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        result["per_layer"] = metrics
        result["spans"] = {
            "summary": tracer.summary(),
            "spans": [[s.name, s.start - start, s.end - start, s.parent, s.attrs] for s in tracer.spans],
        }
    (workdir / "result.json").write_text(json.dumps(result, indent=1, default=float) + "\n")

    for r in report.results:
        if not r["ok"]:
            print(f"check failed: {r['check']}: {r['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": report.correct,
        "attempted": attempted,
        "failed": report.failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
