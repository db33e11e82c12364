"""The benchmark's correctness gate on one round: every query of round 0
under seed 1, run through ``cli.execute`` and ``dump_report`` as the
benchmark runs it, passes the outside checker."""

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
