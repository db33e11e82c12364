"""The benchmark's correctness gate on one round: every query of round 0
under seed 1, run through ``cli.execute`` and ``dump_report`` as the
benchmark runs it, passes the outside checker, with the SDP traffic
pinned."""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checker, workloads  # noqa: E402

import mconvex.cli as cli  # noqa: E402
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
#: under seed 1; a ucp solve of a Hermitian pair poses 1 + d = 3 rows
TRAFFIC = {
    "member-disc": (6, 40, 18),
    "theta-bisect": (20, 196, 60),
    "ucp-probes": (12, 160, 36),
    "transform-probes": (8, 100, 24),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_sdp_traffic_is_pinned(workload, monkeypatch):
    # a change that adds solves, iterations or rows fails here first
    counts = [0, 0, 0]
    solve = sdp._Compiled.solve

    def counted(self, tol, max_iter):
        verdict = solve(self, tol, max_iter)
        counts[0] += 1
        counts[1] += verdict.iterations
        counts[2] += self.m
        return verdict

    monkeypatch.setattr(sdp._Compiled, "solve", counted)
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert tuple(counts) == TRAFFIC[workload]
