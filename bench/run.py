"""Run one coneh benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload growth-sweep --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from the src/ directory next
to bench/.  The run repeats whole rounds of the workload's seeded
operations until the next round would end past --seconds (at least one
round), checks every output, and prints
{"correct", "attempted", "failed", "metrics"} as its last stdout line.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md).
"""

import time

_T0 = time.perf_counter()
_CPU_BEFORE_MAIN = time.process_time()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS threads for the dense eigensolver: two, or fewer when the process
#: may use fewer cores, so the one process never outnumbers them.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(SRC))
try:
    import coneh  # noqa: E402
    import coneh.cli  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import coneh from {SRC}: {exc}")
# Interpreter start-up up to this file is CPU-bound, so the process time
# spent before the first line stands in for its wall time.
SETUP_S = _CPU_BEFORE_MAIN + time.perf_counter() - _T0
if not Path(coneh.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: coneh was imported from {coneh.__file__}, not {SRC}")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, run_op  # noqa: E402


def classify(op, code, output) -> str | None:
    """'ok', 'failed' (a known fault) or None after reporting a wrong output.

    Any exception from a check counts as a wrong output: a report of an
    unexpected shape must not stop the run.
    """
    try:
        op.check(code, output)
        return "ok"
    except Exception as exc:
        if op.fault is not None and op.fault(code, output):
            return "failed"
        print(f"WRONG {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = work / "out.json"
        correct, attempted, failed = True, 0, 0
        latencies, round_walls = [], []
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            op_seconds = 0.0
            for op in ops:
                code, output, dt = run_op(op, out)
                outcome = classify(op, code, output)
                attempted += 1
                failed += outcome == "failed"
                correct &= outcome is not None
                latencies.append(dt)
                op_seconds += dt
            round_walls.append(op_seconds)
            now = time.perf_counter()
            if (now - start) + (now - t_round) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(round_walls)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(ops)} operations, round op time {round_walls}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is not None:
        metrics = tracer.metrics(spec["per_layer"], rounds)
    else:
        values = {
            "setup_s": SETUP_S,
            "wall_s": statistics.median(round_walls),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
