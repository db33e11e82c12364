"""Digest of the benchmark workloads' reports, to show that a change keeps
every report byte.

For each workload of ``perfbench.workloads`` it runs rounds 0-5 of seeds
1-3 through ``mconvex.cli.execute`` and ``mconvex._jsonio.dump_report``,
as ``perfbench/run.py`` does, masks each report's ``wall_time_s`` and
prints one sha256 over the reports in order, their count, and how many
``perfbench.checker`` fails.  Run it from the repository root, before and
after a change, and compare the digests:

    python scripts/report_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mconvex import cli  # noqa: E402
from perfbench import checker, workloads  # noqa: E402

ROUNDS = range(6)
SEEDS = (1, 2, 3)

#: the one timing of a report, which no two runs share
_WALL_TIME = re.compile(r'"wall_time_s": [^,}]+')


def report_text(job: dict) -> str:
    """The report of one job document, with its wall time masked."""
    report, _ = cli.execute(cli.JobSpec(job["command"], job["inputs"], job["options"]))
    buf = io.StringIO()
    cli.dump_report(report, buf)
    return _WALL_TIME.sub('"wall_time_s": 0', buf.getvalue())


def main() -> int:
    for workload in workloads.WORKLOADS:
        digest, count, failed = hashlib.sha256(), 0, 0
        for seed in SEEDS:
            for r in ROUNDS:
                for q in workloads.make_round(workload, seed, r):
                    # the job as perfbench/run.py hands it over: through JSON
                    text = report_text(json.loads(json.dumps(q.job)))
                    digest.update(text.encode())
                    count += 1
                    failed += checker.check(q, text) is not None
        print(f"{workload:18s} {digest.hexdigest()} reports={count} failed={failed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
