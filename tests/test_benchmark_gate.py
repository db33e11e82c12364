"""The benchmark's correctness gate on one round: every query of round 0
under seed 1, run through ``cli.execute`` and ``dump_report`` as the
benchmark runs it, passes the outside checker, with the SDP traffic
pinned and its 2 x 2 blocks kept off LAPACK."""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checker, workloads  # noqa: E402

import mconvex.cli as cli  # noqa: E402
import mconvex.ranges as ranges  # noqa: E402
import mconvex.sdp as sdp  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_passes_the_checker(workload):
    failed = {}
    for q in workloads.make_round(workload, 1, 0):
        doc = json.loads(json.dumps(q.job))
        job = cli.JobSpec(doc["command"], doc["inputs"], doc["options"])
        report, _ = cli.execute(job)
        buf = io.StringIO()
        cli.dump_report(report, buf)
        reason = checker.check(q, buf.getvalue())
        if reason is not None:
            failed[q.qid] = reason
    assert failed == {}


#: (solves, iterations, constraint rows summed over the solves) of round 0
#: under seed 1; a ucp solve of a Hermitian pair poses 1 + d = 3 rows, and
#: ucp-probes' six Out queries solve nothing (``ranges._support_cut``)
TRAFFIC = {
    "member-disc": (3, 12, 9),
    "theta-bisect": (20, 196, 60),
    "ucp-probes": (6, 60, 18),
    "transform-probes": (5, 44, 15),
}


def _count_traffic(monkeypatch) -> list:
    """(solves, iterations, rows) of every solve from here on, as ``TRAFFIC``."""
    counts = [0, 0, 0]
    solve = sdp._Compiled.solve

    def counted(self, tol, max_iter):
        verdict = solve(self, tol, max_iter)
        counts[0] += 1
        counts[1] += verdict.iterations
        counts[2] += self.m
        return verdict

    monkeypatch.setattr(sdp._Compiled, "solve", counted)
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_sdp_traffic_is_pinned(workload, monkeypatch):
    # a change that adds solves, iterations or rows fails here first
    counts = _count_traffic(monkeypatch)
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert tuple(counts) == TRAFFIC[workload]


def test_round_zero_ucp_outs_compile_nothing(monkeypatch):
    # every Out of ucp-probes is cut off by one scalar support line,
    # priced in closed form before the Choi SDP is compiled
    compiles, compile_ = [0], ranges._compile

    def counted_compile(problem):
        compiles[0] += 1
        return compile_(problem)

    monkeypatch.setattr(ranges, "_compile", counted_compile)
    outs = [q for q in workloads.make_round("ucp-probes", 1, 0)
            if q.planted["verdict"] == "Out"]
    assert len(outs) == 6
    for q in outs:
        report, _ = cli.execute(
            cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
        )
        assert (report["status"], report["detail"]) == (
            "Out", "outside the relaxed maximal set of the range's first level"
        )
    assert compiles[0] == 0


@pytest.mark.parametrize("workload, outs", [("member-disc", 3), ("ucp-probes", 6)])
def test_round_zero_scan_outs_pass_the_sdp_core(workload, outs, core_reprices):
    # two roads to one certificate: every Out that the scan prices in
    # closed form, re-priced by the SDP core on a compiled operator
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert core_reprices() == outs


@pytest.mark.parametrize(
    "workload", ["member-disc", "theta-bisect", "transform-probes"]
)
def test_round_zero_answers_alike_on_cached_operators(workload, monkeypatch):
    # the second pass compiles nothing, and every query still starts
    # cold: the same reports, apart from their wall time, and the same
    # solver traffic
    compiles, compile_ = [0], ranges._compile

    def counted_compile(problem):
        compiles[0] += 1
        return compile_(problem)

    monkeypatch.setattr(ranges, "_compile", counted_compile)
    counts = _count_traffic(monkeypatch)
    passes = []
    for _ in range(2):
        compiles[0], counts[:] = 0, [0, 0, 0]
        reports = []
        for q in workloads.make_round(workload, 1, 0):
            report, _ = cli.execute(
                cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
            )
            buf = io.StringIO()
            cli.dump_report(report, buf)
            doc = json.loads(buf.getvalue())
            doc.pop("wall_time_s")
            reports.append(json.dumps(doc, sort_keys=True))
        assert tuple(counts) == TRAFFIC[workload]
        passes.append((compiles[0], reports))
    assert passes[0][0] > 0 and passes[1][0] == 0
    assert passes[0][1] == passes[1][1]


@pytest.mark.parametrize("workload", ["theta-bisect", "member-disc"])
def test_round_zero_solves_take_2x2_blocks_in_closed_form(workload, monkeypatch):
    # every eigen call inside a solve on a stack of 2 x 2 blocks belongs to
    # the closed-form kernel; one that reaches LAPACK is a regression
    inside, lapack, solved_2x2 = [False], [], [0]
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            if inside[0]:
                lapack.append((_name, np.shape(a)))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    solve = sdp._Compiled.solve

    def flagged(self, tol, max_iter):
        outer, inside[0] = inside[0], True
        solved_2x2[0] += 2 in self.block_sizes
        try:
            return solve(self, tol, max_iter)
        finally:
            inside[0] = outer

    monkeypatch.setattr(sdp._Compiled, "solve", flagged)
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert solved_2x2[0] > 0
    assert [c for c in lapack if c[1][-2:] == (2, 2)] == []
