#!/usr/bin/env python3
"""Workload benchmark for ptfkit: end-to-end metrics, or per-layer with --trace 1.

Runs one workload in this process, on one thread, as a closed loop with
one client: the next operation starts when the previous one returns.  The
loop runs for ``--seconds`` of wall time, then every answer is checked.

    python3 perfbench/run.py --workload census4 --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object; the line before it
records the workload, the environment and details such as sample counts.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in set-up probes.
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
CHECK_CHUNK = 1000
WORKLOAD_NAMES = ("census4", "order7", "hov5", "cli-mix")


class LibraryMissing(Exception):
    pass


def import_library():
    """Import ptfkit from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import ptfkit
    except ImportError as exc:
        raise LibraryMissing(f"cannot import ptfkit from {SRC}: {exc}") from exc
    if Path(ptfkit.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"ptfkit imported from {ptfkit.__file__}, not from {SRC}")
    return ptfkit


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(ptfkit) -> dict:
    import numpy

    simplex = ptfkit._simplex
    get_backend = getattr(simplex, "get_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "backend": get_backend() if get_backend else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
    }


def setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh processes that import ptfkit and run one warm-up op.

    No timeout: with one, ``subprocess`` polls for the exit every 50 ms,
    which quantizes the measurement.
    """
    snippet = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]; "
        "import workloads; workloads.warm_up({name!r})"
    ).format(src=str(SRC), here=str(HERE), name=workload)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet],
            cwd=ROOT,
            env=dict(os.environ),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


class Checker:
    """Checks records and tallies them; the records themselves are dropped."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []

    def __call__(self, records) -> None:
        for op, answer, error, _ in records:
            self.attempted += 1
            if error is not None:
                problem = f"raised {type(error).__name__}: {error}"
            else:
                problem = self.workload.check(op, answer)
                self.wrong += problem is not None
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(problem)


def timed_loop(batches, seconds: float, call=None, check=None):
    """Run batches of operations for about ``seconds`` of loop time.

    A batch always runs whole; the loop stops at the batch boundary nearest
    the deadline (and after at least one batch).  A record is (op, answer,
    error, latency seconds); an operation that raises is recorded, not
    fatal.  With ``check``, every CHECK_CHUNK records are handed to it with
    the clock stopped and dropped, so memory does not grow with the number
    of operations.  Returns (records not yet checked, latencies, loop
    seconds).
    """
    records, latencies = [], array("d")
    elapsed = last = 0.0
    mark = time.perf_counter()
    for batch in batches:
        if latencies and elapsed + last / 2 >= seconds:
            break
        batch_start = elapsed
        for op in batch:
            t0 = time.perf_counter()
            try:
                answer = call(op.run) if call else op.run()
                error = None
            except Exception as exc:  # recorded as a failed operation
                answer, error = None, exc
            t1 = time.perf_counter()
            records.append((op, answer, error, t1 - t0))
            latencies.append(t1 - t0)
        elapsed += t1 - mark
        last = elapsed - batch_start
        if check is not None and len(records) >= CHECK_CHUNK:
            check(records)
            records = []
        mark = time.perf_counter()
    return records, latencies, elapsed


def replay(records):
    """Run the same operations again, untraced; same record shape."""
    return timed_loop([[r[0] for r in records]], float("inf"))[0]


def latency_summary(latencies) -> dict:
    ms = sorted(v * 1e3 for v in latencies)
    out = {"samples": len(ms), "p50_ms": statistics.median(ms)}
    # the highest percentile with at least ten samples beyond it
    if len(ms) >= 100:
        out["p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    return out


def run_untraced(workload, seconds: float, check: Checker):
    setup = setup_seconds(workload.name)
    workload.warm_up()
    records, latencies, wall = timed_loop(workload.batches(), seconds, check=check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"setup_probes_s": setup, "wall_s": wall, "latency": latency_summary(latencies)}
    return metrics, detail


def run_traced(workload, seconds: float, check: Checker):
    from tracer import Tracer

    workload.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_wall = timed_loop(workload.batches(), seconds, tracer.root)
    finally:
        tracer.uninstall()
    untraced = replay(traced)
    traced_ops_s = sum(r[3] for r in traced)
    untraced_ops_s = sum(r[3] for r in untraced)
    check(traced + untraced)
    metrics = layer_metrics(tracer, len(traced), traced_wall, traced_ops_s / untraced_ops_s)
    metrics["failed_frac"] = (check.failed / check.attempted, "ratio")
    detail = {
        "wall_s": traced_wall,
        "traced_ops_s": traced_ops_s,
        "untraced_replay_ops_s": untraced_ops_s,
        "self_s_total": sum(tracer.self_s.values()),
        "self_s_by_span": dict(sorted(tracer.self_s.items())),
        "calls_by_span": dict(sorted(tracer.calls.items())),
    }
    return metrics, detail


def layer_metrics(tracer, ops: int, traced_wall: float, slowdown: float) -> dict:
    """Per-layer metrics: self seconds per operation, run totals of counts, ratios."""
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    per_op = lambda *spans: sum(s[x] for x in spans) / ops  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    simplex_calls = c["simplex.extract"]
    lp_calls = c["lp.recheck"]
    realize_calls = c["ptf.encode"]
    return {
        "ops": (ops, "count"),
        "op_wall_s": (traced_wall / ops, "s/op"),
        "simplex.build_s": (per_op("simplex.build"), "s/op"),
        "simplex.pivot_s": (per_op("simplex.pivot"), "s/op"),
        "simplex.extract_s": (per_op("simplex.extract"), "s/op"),
        "simplex.calls": (simplex_calls, "count"),
        "simplex.tableau_cells": (n["simplex.tableau_cells"], "count"),
        "simplex.obj_fallbacks": (n["simplex.obj_fallbacks"], "count"),
        "simplex.fallback_frac": (ratio(n["simplex.obj_fallbacks"], simplex_calls), "ratio"),
        "lp.recheck_s": (per_op("lp.recheck"), "s/op"),
        "lp.calls": (lp_calls, "count"),
        "lp.feasible_frac": (ratio(n["lp.feasible"], lp_calls), "ratio"),
        "ptf.encode_s": (per_op("ptf.encode"), "s/op"),
        "ptf.other_s": (per_op("ptf.order", "ptf.share_weights", "ptf.family"), "s/op"),
        "ptf.realize_calls": (realize_calls, "count"),
        "ptf.lps_per_op": (lp_calls / ops, "count/op"),
        "ptf.lp_distinct_frac": (ratio(len(tracer.realized), realize_calls), "ratio"),
        "highorder.hov_s": (per_op("highorder.hov", "highorder.probe"), "s/op"),
        "highorder.probes": (c["highorder.probe"], "count"),
        "asummability.search_s": (per_op("asummability.search"), "s/op"),
        "asummability.calls": (c["asummability.search"], "count"),
        "asummability.found_frac": (
            ratio(n["asummability.found"], c["asummability.search"]), "ratio"),
        "multithreshold.synth_s": (per_op("multithreshold.synth"), "s/op"),
        "multithreshold.extend_s": (per_op("multithreshold.extend"), "s/op"),
        "cli.self_s": (per_op("cli"), "s/op"),
        "cli.error_exits": (n["cli.error_exits"], "count"),
        "harness.self_s": (per_op("harness.op"), "s/op"),
        "trace_overhead_frac": (slowdown - 1, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ptfkit = import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        check = Checker(workload)
        run = run_traced if args.trace else run_untraced
        metrics, detail = run(workload, args.seconds, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in check.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one thread",
        "environment": environment(ptfkit),
        "detail": detail,
        "failed_frac": check.failed / check.attempted,
    }
    result = {
        "correct": check.wrong == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
