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
#: under seed 1; a ucp solve of a Hermitian pair poses 1 + d = 3 rows,
#: ucp-probes' six Out queries solve nothing (``ranges._support_cut``),
#: and neither does any kmin or theta query over a disc
#: (``ranges._disc_member``, ``ranges._disc_theta``): not member-disc's,
#: nor theta-bisect's two disc queries
TRAFFIC = {
    "member-disc": (0, 0, 0),
    "theta-bisect": (15, 88, 45),
    "ucp-probes": (6, 60, 18),
    "transform-probes": (5, 44, 15),
}


#: (lower, upper, len(trace)) of each theta-bisect query of round 0 under
#: seed 1, by class: a speed change that moves a bracket or adds a probe
#: fails here
THETA = {
    "pauli-square": (1.4142093197403263, 1.4192093197403262, 2),
    "nilpotent-disc": (1.9999980000000002, 2.000000000002, 1),
    "n2-square": (1.3654929666469666, 1.3704929666469665, 6),
    "n3-square": (1.3934091825080128, 1.3984091825080127, 7),
    "n2-disc": (1.4472104455713721, 1.4472118927847122, 1),
}


def test_round_zero_theta_brackets_are_pinned():
    got = {}
    for q in workloads.make_round("theta-bisect", 1, 0):
        report, _ = cli.execute(
            cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
        )
        got[q.qid.split(".")[-1]] = (
            report["lower"], report["upper"], len(report["trace"])
        )
    assert got == THETA
    # the constants known in closed form: sqrt 2 for the Pauli pair, and
    # (1 + sqrt 3) / 2 for the symmetries at 60 degrees
    for name, constant in [("pauli-square", np.sqrt(2.0)),
                           ("n2-square", 0.5 * (1.0 + np.sqrt(3.0)))]:
        assert got[name][0] <= constant <= got[name][1]


def _solved(counts) -> tuple[int, int, int]:
    """(solves, iterations, rows) of a ``Traffic`` record, as ``TRAFFIC``."""
    return counts.solves, counts.iterations, counts.rows


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_zero_sdp_traffic_is_pinned(workload, traffic):
    # a change that adds solves, iterations or rows fails here first
    counts = traffic()
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert _solved(counts) == TRAFFIC[workload]


def test_round_zero_ucp_outs_compile_nothing(traffic):
    # every Out of ucp-probes is cut off by one scalar support line,
    # priced in closed form before the Choi SDP is compiled
    counts = traffic()
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
    assert counts.compiles == 0


def test_round_zero_ucp_pays_only_the_eigensolves_that_can_answer(monkeypatch):
    # ucp reads both tops of an antipodal scan pair from one spectrum, so
    # its two scans, over x and over a, hand eigvalsh 32 pencils each:
    # 12 queries, 768 pencils (1536 with the full ring); and a candidate
    # dual that no identity shift lifts to 10 tol is refused before its
    # pencil's eigensolve: none of the round's 9 failed tries reaches one
    scans, scanned, solved, tries = [], [0], [0], []
    pencils, eigvalsh = ranges.pencil_stack, np.linalg.eigvalsh
    spectra, certify = sdp.herm_eigvalsh, sdp._certificate_from_dual

    def recorded(mats, dirs):
        scans.append(pencils(mats, dirs))
        return scans[-1]

    def counted(a, *args, **kwargs):
        scanned[0] += len(a) if any(a is p for p in scans) else 0
        return eigvalsh(a, *args, **kwargs)

    def solves(v):
        solved[0] += 1
        return spectra(v)

    def tried(comp, coeffs, tol):
        before = solved[0]
        sep = certify(comp, coeffs, tol)
        tries.append((sep is None, solved[0] > before))
        return sep

    monkeypatch.setattr(ranges, "pencil_stack", recorded)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(sdp, "herm_eigvalsh", solves)
    monkeypatch.setattr(sdp, "_certificate_from_dual", tried)
    for q in workloads.make_round("ucp-probes", 1, 0):
        scans.clear()
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert scanned[0] == 768
    failed = [reached for refused, reached in tries if refused]
    assert (len(tries), len(failed), sum(failed)) == (9, 9, 0)


def test_round_zero_disc_ins_are_dilations_on_the_circle(traffic):
    # every In of member-disc is decomposed by a unitary dilation: 2n
    # blocks on points of the body's circle, which the outside checker
    # accepts (it does not look at where the vertices lie), and the round
    # compiles and solves nothing
    counts = traffic()
    ins = 0
    for q in workloads.make_round("member-disc", 1, 0):
        report, _ = cli.execute(
            cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
        )
        if q.planted["verdict"] != "In":
            continue
        ins += 1
        buf = io.StringIO()
        cli.dump_report(report, buf)
        assert checker.check(q, buf.getvalue()) is None
        body, cert = q.job["inputs"]["body"], report["certificate"]
        n = len(q.job["inputs"]["tuple"]["mats"][0])
        assert np.shape(cert["h"]) == (2 * n, n, n)
        dist = np.linalg.norm(np.asarray(cert["vertices"]) - body["center"], axis=1)
        assert np.abs(dist - body["radius"]).max() <= 1e-15
    assert ins == 3
    assert (counts.compiles, *_solved(counts)) == (0, 0, 0, 0)


def _circle_separator_margin(q, sep) -> float:
    """The margin of a disc kmin ``Out``'s dual on its query, recomputed by
    numpy, after checking that its pencil ``Y_0 + x_1 Y_1 + x_2 Y_2`` is
    NSD at 4096 points x of the circle and that the margin is ``r (||T||
    - 1)``."""
    body = q.job["inputs"]["body"]
    a = checker._mats(q.job["inputs"]["tuple"])
    center, r = np.asarray(body["center"], dtype=float), float(body["radius"])
    t = 2.0 * np.pi * np.arange(4096) / 4096
    x = center + r * np.column_stack([np.cos(t), np.sin(t)])
    y = np.asarray(sep.dual)
    pencil = y[0] + np.einsum("kl,lij->kij", x, y[1:])
    assert np.linalg.eigvalsh(pencil)[:, -1].max() <= 1e-12
    margin = np.trace(y[0]).real + sum(np.trace(yl @ al).real for yl, al in zip(y[1:], a))
    eye = np.eye(len(a[0]))
    norm = np.linalg.norm((a[0] - center[0] * eye) + 1j * (a[1] - center[1] * eye), 2)
    assert margin == pytest.approx(norm - r, rel=1e-9)
    return float(margin)


@pytest.mark.parametrize("workload, outs", [("member-disc", 3), ("ucp-probes", 6)])
def test_round_zero_scan_outs_pass_the_sdp_core(workload, outs, core_reprices):
    # two roads to one certificate: every Out that ucp's scan prices in
    # closed form, re-priced by the SDP core on a compiled operator, and
    # every disc Out, the dual of the top singular pair of T, priced by
    # numpy on its query and on the circle
    circle = 0
    for q in workloads.make_round(workload, 1, 0):
        report, _ = cli.execute(
            cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
        )
        if workload == "member-disc" and report["status"] == "Out":
            sep = report["certificate"]
            assert _circle_separator_margin(q, sep) == pytest.approx(report["margin"])
            circle += 1
    want = (0, outs) if workload == "member-disc" else (outs, 0)
    assert (core_reprices(), circle) == want


def test_round_zero_disc_thetas_hold_their_constants_in_closed_form(traffic):
    # theta over the unit disc is max(1, alpha*) in closed form: the
    # nilpotent pair's 2 and the planted ||T|| / w of ``DISC_OPERATOR``
    # (conjugated by a seeded unitary) lie in brackets 1e-5 wide, each
    # with one trace entry, and neither query solves anything
    counts = traffic()
    discs = [q for q in workloads.make_round("theta-bisect", 1, 0)
             if q.job["inputs"]["body"]["type"] == "disc"]
    assert [q.planted["constant"] for q in discs] == [2.0, 1.447211892783265]
    for q in discs:
        report, _ = cli.execute(
            cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"])
        )
        assert report["lower"] <= q.planted["constant"] <= report["upper"]
        assert report["upper"] - report["lower"] <= 1e-5
        assert report["trace"] == [(report["lower"], report["upper"])]
    assert _solved(counts) == (0, 0, 0)


@pytest.mark.parametrize(
    "workload", ["member-disc", "theta-bisect", "transform-probes"]
)
def test_round_zero_answers_alike_on_cached_operators(workload, traffic):
    # the second pass compiles nothing, and every query still starts
    # cold: the same reports, apart from their wall time, and the same
    # solver traffic
    passes = []
    for _ in range(2):
        counts = traffic()
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
        assert _solved(counts) == TRAFFIC[workload]
        passes.append((counts.compiles, reports))
    # a workload that solves compiles in the first pass only; member-disc
    # solves nothing, and compiles nothing in either
    assert (passes[0][0] > 0) == (TRAFFIC[workload][0] > 0)
    assert passes[1][0] == 0
    assert passes[0][1] == passes[1][1]


@pytest.mark.parametrize("workload", ["theta-bisect"])
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

    def flagged(self, *args):
        outer, inside[0] = inside[0], True
        solved_2x2[0] += 2 in self.block_sizes
        try:
            return solve(self, *args)
        finally:
            inside[0] = outer

    monkeypatch.setattr(sdp._Compiled, "solve", flagged)
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert solved_2x2[0] > 0
    assert [c for c in lapack if c[1][-2:] == (2, 2)] == []


@pytest.mark.parametrize("workload", ["theta-bisect", "transform-probes"])
def test_round_zero_circle_supports_take_no_lapack_call(workload, monkeypatch):
    # theta's disc precheck and choili's transform radius are 2 x 2 circle
    # supports, closed form end to end: not one eigh or eigvalsh inside
    inside, lapack, supports = [False], [], [0]
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, _name=name, **kwargs):
            if inside[0]:
                lapack.append((_name, np.shape(a)))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    support = ranges.circle_support

    def flagged(*args, **kwargs):
        outer, inside[0] = inside[0], True
        supports[0] += 1
        try:
            return support(*args, **kwargs)
        finally:
            inside[0] = outer

    monkeypatch.setattr(ranges, "circle_support", flagged)
    for q in workloads.make_round(workload, 1, 0):
        cli.execute(cli.JobSpec(q.job["command"], q.job["inputs"], q.job["options"]))
    assert supports[0] > 0
    assert lapack == []
