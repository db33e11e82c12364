"""mconvex benchmark: certified CLI queries in a closed loop, one client.

    python3 perfbench/run.py --workload member-disc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each query is a JSON job document, generated from ``--seed`` by
``perfbench/workloads.py``, that goes through ``mconvex.cli.execute``;
the report goes through ``mconvex._jsonio.dump_report`` into an in-memory
buffer.  Latency runs from ``execute`` to the end of ``dump_report``.
Every report is then checked, outside the timed section, against the
verdict planted in its query (``perfbench/checker.py``).  Times are
reported at a nominal machine speed: each query's wall time is divided by
the slowdown of a fixed reference kernel timed just before and just after
the queries it belongs to (``perfbench/reference.py``), so that a shared
host's drift between fast and slow spells does not pass for a change in
the program.

``--trace 0`` measures the end-to-end metrics untraced, then runs one more
round under tracemalloc for the peak memory.  ``--trace 1`` alternates an
untraced and a traced pass over one fixed round and reports the per-layer
metrics from the spans (``perfbench/tracing.py``).  The last line of
standard output is one JSON object; a human summary goes to standard
error.  ``--workload all`` runs every workload in turn, each in a fresh
process, and prints every metric with its unit.
"""

from __future__ import annotations

import os

# one single-threaded process: pin the BLAS pools before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perfbench import checker, reference, tracing, workloads  # noqa: E402

#: set-ups per run; setup_s is their median
SETUP_REPS = 5
#: queries of the warm-up round run in every set-up
WARMUP_QUERIES = 2
#: rounds kept apart from the timed rounds 0, 1, 2, ...
WARMUP_ROUND = 1_000_000
MEMORY_ROUND = 1_000_001
#: the reference kernel runs once at least this much query time has
#: passed since it last ran, and at the end of every round
REFERENCE_EVERY_S = 0.05
#: reference-kernel time, as a share of the query time since it last ran
REFERENCE_SHARE = 0.05
#: reference-kernel time on each side of a set-up and before the first
#: query, in seconds
REFERENCE_S = 0.05
#: where the traced run writes its spans
SPAN_DIR = ROOT / ".perfbench_out"


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def round_inputs(workload: str, seed: int, r: int):
    """A round's queries with their job documents as JSON text."""
    return [(q, json.dumps(q.job)) for q in workloads.make_round(workload, seed, r)]


def import_program():
    """(Re-)import ``mconvex`` and ``mconvex.cli`` from this checkout."""
    for name in [n for n in sys.modules if n == "mconvex" or n.startswith("mconvex.")]:
        del sys.modules[name]
    cli = importlib.import_module("mconvex.cli")
    where = Path(sys.modules["mconvex"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"mconvex was imported from {where}, not from {SRC}")
    return cli


def run_query(cli, text: str) -> tuple[float, str | None, str | None]:
    """One CLI job: (seconds, report text, error)."""
    doc = json.loads(text)
    job = cli.JobSpec(doc["command"], doc["inputs"], doc["options"])
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        report, _ = cli.execute(job)
        cli.dump_report(report, buf)
    except Exception as exc:  # a query that raises is counted as failed
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, buf.getvalue(), None


def failure(q, report: str | None, error: str | None) -> str | None:
    """Why a query failed, or None when its report passes the checker."""
    return error if report is None else checker.check(q, report)


def set_up(workload: str, seed: int):
    """Import and warm up ``SETUP_REPS`` times; the median nominal time."""
    warm = round_inputs(workload, seed, WARMUP_ROUND)[:WARMUP_QUERIES]
    times = []
    for _ in range(SETUP_REPS):
        before = reference.slowdown(REFERENCE_S)
        t0 = time.perf_counter()
        cli = import_program()
        for _, text in warm:
            run_query(cli, text)
        dt = time.perf_counter() - t0
        after = reference.slowdown(REFERENCE_S)
        times.append(dt / (0.5 * (before + after)))
    log("set-up:", " ".join(f"{t:.3f}" for t in times), "s at nominal speed")
    return cli, statistics.median(times)


def class_figures(by_class: dict[str, list[float]]) -> tuple[float, float]:
    """(queries per second, p50 latency in ms) from each class's median.

    Every class is one query per round.  The throughput is that of a round
    made of each class's median query, so that one query caught by a
    change of machine speed halfway does not move it.  The geometric mean
    of the class medians weighs the classes equally and, unlike the median
    of the pooled mix, does not jump across the gap between two classes.
    """
    medians = [statistics.median(ts) for ts in by_class.values()]
    return (
        len(medians) / sum(medians),
        1e3 * math.exp(statistics.fmean(math.log(t) for t in medians)),
    )


def timed_run(cli, workload: str, seed: int, seconds: float):
    nominal: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    failures = []
    total = 0.0
    rounds = 0
    gc.collect()
    speed = reference.slowdown(REFERENCE_S)
    while True:
        inputs = round_inputs(workload, seed, rounds)
        pending: list[tuple[str, float]] = []
        for i, (q, text) in enumerate(inputs):
            dt, report, error = run_query(cli, text)
            pending.append((q.cls, dt))
            since = sum(t for _, t in pending)
            if since >= REFERENCE_EVERY_S or i == len(inputs) - 1:
                # the queries since the last gauge ran at the mean speed
                # of the gauges on either side of them
                after = reference.slowdown(REFERENCE_SHARE * since)
                for cls, t in pending:
                    nominal.setdefault(cls, []).append(t / (0.5 * (speed + after)))
                    wall.setdefault(cls, []).append(t)
                total += since / (0.5 * (speed + after))
                speed = after
                pending = []
            reason = failure(q, report, error)
            if reason:
                failures.append((q.qid, reason))
        rounds += 1
        if total >= seconds:
            break
    queries = sum(map(len, nominal.values()))
    qps, p50 = class_figures(nominal)
    metrics = {"queries_per_s": qps, "latency_p50_ms": p50}
    log(f"timed: {queries} queries in {rounds} rounds, {total:.3f} s at "
        f"nominal speed, {sum(map(sum, wall.values())):.3f} s of wall time")
    log("  wall clock: {:.4g} queries/s, p50 {:.4g} ms".format(*class_figures(wall)))
    for c, ts in nominal.items():
        log(f"  class {c}: p50 {1e3 * statistics.median(ts):.3f} ms over "
            f"{len(ts)} queries")
    return metrics, queries, failures


def peak_memory(cli, workload: str, seed: int) -> float:
    """Peak traced allocation over one round, in MB; answers are not kept."""
    inputs = round_inputs(workload, seed, MEMORY_ROUND)
    gc.collect()
    tracemalloc.start()
    try:
        for _, text in inputs:
            run_query(cli, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def traced_run(cli, workload: str, seed: int, seconds: float):
    inputs = round_inputs(workload, seed, 0)
    rec = tracing.Recorder()
    plain = traced = 0.0
    report_bytes = 0
    failures = []
    reps = 0
    gc.collect()
    while True:
        for _, text in inputs:
            plain += run_query(cli, text)[0]
        rec.install()
        try:
            for q, text in inputs:
                rec.query = f"{reps}/{q.qid}"
                dt, report, error = run_query(cli, text)
                traced += dt
                report_bytes += len(report or "")
                reason = failure(q, report, error)
                if reason:
                    failures.append((q.qid, reason))
        finally:
            rec.remove()
        reps += 1
        if plain + traced >= seconds:
            break
    queries = reps * len(inputs)
    metrics = tracing.layer_metrics(rec.spans, queries)
    metrics["cli.report_kb"] = report_bytes / 1024 / queries
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    log(f"traced: {reps} passes over {len(inputs)} queries, "
        f"untraced {plain:.3f} s, traced {traced:.3f} s")
    SPAN_DIR.mkdir(exist_ok=True)
    out = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    with open(out, "w", encoding="utf-8") as fp:
        json.dump({"environment": environment(),
                   "spans": [vars(s) for s in rec.spans]}, fp)
    log(f"  {len(rec.spans)} spans written to {out.relative_to(ROOT)}")
    return metrics, queries, failures


def run_one(args) -> int:
    if not (SRC / "mconvex" / "__init__.py").is_file():
        log(f"error: no program source at {SRC / 'mconvex'}")
        return 2
    log("environment:", json.dumps(environment()))
    t0 = time.perf_counter()
    cli, setup_s = set_up(args.workload, args.seed)
    t1 = time.perf_counter()
    if args.trace:
        metrics, attempted, failures = traced_run(
            cli, args.workload, args.seed, args.seconds
        )
    else:
        metrics, attempted, failures = timed_run(
            cli, args.workload, args.seed, args.seconds
        )
        t2 = time.perf_counter()
        metrics["peak_mem_mb"] = peak_memory(cli, args.workload, args.seed)
        metrics["setup_s"] = setup_s
        log(f"wall time: set-up {t1 - t0:.1f} s, timed loop and checks "
            f"{t2 - t1:.1f} s, tracemalloc pass {time.perf_counter() - t2:.1f} s")
    for qid, reason in failures:
        log(f"  FAILED {qid}: {reason}")
    log(f"failed_frac: {len(failures) / attempted:.6f} "
        f"({len(failures)} of {attempted})")
    units = declared_units()
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints every metric and unit."""
    code = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{w}: exited with {proc.returncode}")
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{w}: correct={result['correct']} failed_frac="
              f"{result['failed'] / result['attempted']:.6f} "
              f"({result['failed']} of {result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
