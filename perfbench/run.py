"""pragmaql benchmark: one caller, closed loop, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice-grow --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``lattice-grow``: generate_quotient, the four law checks, structured
  export and import round trip, over bundled and seeded block-sum models.
* ``query-mix``: parse, sigma, justify, extension, precedes and check_cc
  queries, about a tenth of them expected domain errors.
* ``cli-session``: ``python -m pragmaql.cli`` subprocesses, all seven
  subcommands in every format, with error cases.

One caller sends the next item only after the previous one returned.  The
seed fixes the workload's item list; the loop cycles through it and stops
at the end of the first cycle that finds at least ``--seconds`` of timed
work, at least 100 items and at least three cycles behind it.  Latency
and throughput are computed from each item's fastest time in the run: a
shared host can run for tens of seconds at a time up to twice as slow,
and a statistic over all samples moves with the share of such phases a
run happens to get.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed pass of items once without
and once with spans around every traced pragmaql function (see spans.py)
and prints the per-layer metrics.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"lattice-grow": "lattice_grow", "query-mix": "query_mix",
             "cli-session": "cli_session"}
MIN_ITEMS = 100        # timed items per run, at the least
MIN_CYCLES = 3         # so that each item's fastest time has repeats to choose from
LOOP_CAP_S = 120.0     # a slowed-down program still ends the run in time
SETUP_REPEATS = 5      # this process plus four --setup-only children


class ItemTimeout(BaseException):
    """Raised by the alarm when an item overruns its budget.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _alarm(signum, frame):
    raise ItemTimeout()


def attempt(wl, item):
    """Run one item under its time budget: (seconds, output, error)."""
    if wl.collect_between:
        gc.collect()
    signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
    t0 = time.perf_counter()
    try:
        output, error = wl.run(item), None
    except ItemTimeout as exc:
        output, error = None, exc
    except Exception as exc:  # an unexpected one is reported by check()
        output, error = None, exc
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, output, error


def judge(wl, item, output, error, failures: list) -> None:
    if isinstance(error, ItemTimeout):
        problem = f"exceeded its {wl.budget_s:g} s budget"
    else:
        try:
            problem = wl.check(item, output, error)
        except Exception:
            problem = "check raised:\n" + traceback.format_exc()
    if problem:
        failures.append(f"{item.label}: {problem}")


def timed_loop(wl, seconds: float):
    """Cycle through the items; returns each item's latencies, the number
    of cycles, and failure messages."""
    latencies = [[] for _ in wl.items]
    failures, cycles, count = [], 0, 0
    busy, start = 0.0, time.perf_counter()
    while True:
        for k, item in enumerate(wl.items):
            elapsed, output, error = attempt(wl, item)
            busy += elapsed
            count += 1
            latencies[k].append(elapsed)
            judge(wl, item, output, error, failures)
            if time.perf_counter() - start > LOOP_CAP_S:
                break
        cycles += 1
        if time.perf_counter() - start > LOOP_CAP_S or (
                busy >= seconds and count >= MIN_ITEMS and cycles >= MIN_CYCLES):
            return latencies, cycles, failures


def run_pass(wl, items, tracer=None):
    """Run ``items`` once; returns timed seconds and failure messages."""
    failures, busy = [], 0.0
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = k
        elapsed, output, error = attempt(wl, item)
        busy += elapsed
        judge(wl, item, output, error, failures)
    return busy, failures


def setup_children(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "model": "closed loop, one caller"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, args, setup_s: float):
    latencies, cycles, failures = timed_loop(wl, args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [setup_s] + setup_children(args)
    n = sum(len(ts) for ts in latencies)
    # each item's fastest time, so slow phases of the machine drop out
    best = [min(ts) for ts in latencies if ts]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(len(best) / sum(best), "1/s"),
        "latency_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "pass_ratio": metric((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    busy = sum(sum(ts) for ts in latencies)
    print(f"{args.workload}: {n} items in {cycles} cycles, {busy:.3f} s of timed work, "
          f"{len(failures)} failed; setup runs {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}"
              + (f"  (fastest of {cycles} runs of each of {len(best)} items, n={n})"
                 if name.startswith("latency") else ""))
    return n, failures, metrics


def traced(wl, tracer, args):
    wl.traced_run = True
    tracer.uninstall()
    plain_s, failures = run_pass(wl, wl.trace_items)
    tracer.install()
    wl.tracer = tracer
    traced_s, more = run_pass(wl, wl.trace_items, tracer)
    tracer.uninstall()
    tracer.item_id = -1
    wl.tracer = None
    failures += more
    metrics = {name: metric(value, unit) for name, (value, unit) in
               wl.layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s - 1.0, "ratio")
    out = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.npz"
    out.parent.mkdir(exist_ok=True)
    tracer.write(out)
    n = 2 * len(wl.trace_items)
    print(f"{args.workload} traced: {len(wl.trace_items)} items untraced in {plain_s:.3f} s, "
          f"traced in {traced_s:.3f} s; {len(tracer.start)} spans written to {out.relative_to(ROOT)}")
    for line in wl.report(tracer):
        print("  " + line)
    for name, m in sorted(metrics.items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return n, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds it took, exit")
    args = parser.parse_args(argv)
    if not (SRC / "pragmaql" / "__init__.py").is_file():
        print(f"error: no pragmaql sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)

    t0 = time.perf_counter()
    import pragmaql  # noqa: F401  (the timed set-up starts with the import)

    # imported before the tracer wraps np.linalg.svd, so that oracle.py
    # binds the unwrapped one
    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wl = module.build(args.seed, ROOT)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    print("env: " + json.dumps(environment()))
    if args.trace:
        n, failures, metrics = traced(wl, tracer, args)
    else:
        n, failures, metrics = end_to_end(wl, args, setup_s)
    for message in failures[:20]:
        print("FAIL " + message, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def pin_environment() -> None:
    """Fix what makes timings differ between processes; children inherit it.

    String hashing, and with it dict and set layout, changes speed from
    one process to the next by several percent, so the process re-executes
    itself with one fixed hash seed.  BLAS gets one thread before numpy
    loads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
