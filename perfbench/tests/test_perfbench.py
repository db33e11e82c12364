"""The benchmark's own tests: seeded generators, planted labels, checker."""

from __future__ import annotations

import copy
import io
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checker, reference, tracing, workloads  # noqa: E402
from perfbench.checker import _mats  # noqa: E402


def _dump(rounds) -> str:
    return json.dumps([(q.qid, q.job, q.planted) for q in rounds], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_under_a_seed(workload):
    first = _dump(workloads.make_round(workload, 7, 3))
    assert first == _dump(workloads.make_round(workload, 7, 3))
    assert first != _dump(workloads.make_round(workload, 8, 3))
    assert first != _dump(workloads.make_round(workload, 7, 4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_member_disc_labels_hold_by_construction(seed):
    for q in workloads.make_round("member-disc", seed, 0):
        a1, a2 = _mats(q.job["inputs"]["tuple"])
        lower, upper = workloads.radius_bracket(a1, a2)
        if q.planted["verdict"] == "In":
            assert upper <= 0.45
        else:
            assert lower >= 1.1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ucp_labels_hold_by_construction(seed):
    rng = np.random.default_rng(seed)
    for q in workloads.make_round("ucp-probes", seed, 0):
        b = _mats(q.job["inputs"]["tuple"])
        x = _mats(q.job["inputs"]["range_of"])

        def top(mats, c):
            return np.linalg.eigvalsh(c[0] * mats[0] + c[1] * mats[1])[-1]

        if q.planted["verdict"] == "Out":
            c = q.planted["direction"]
            assert top(b, c) > top(x, c) + 1e-3
        else:
            # a ucp image never exceeds the support function of x
            for c in rng.standard_normal((64, 2)):
                assert top(b, c) <= top(x, c) + 1e-9


def test_theta_pairs_lie_on_the_maximal_set_boundary():
    for q in workloads.make_round("theta-bisect", 5, 0):
        a1, a2 = _mats(q.job["inputs"]["tuple"])
        body = q.job["inputs"]["body"]["type"]
        if q.cls.endswith("square") and q.cls != "pauli-square":
            norms = [np.abs(np.linalg.eigvalsh(a)).max() for a in (a1, a2)]
            assert np.allclose(norms, 1.0)
        elif q.cls.endswith("disc") and q.cls != "nilpotent-disc":
            assert body == "disc"
            lower, upper = workloads.radius_bracket(a1, a2)
            assert 0.999 <= lower <= upper <= 1.0 + 1e-12


def _answer(q) -> str:
    from mconvex import cli

    doc = json.loads(json.dumps(q.job))
    report, _ = cli.execute(cli.JobSpec(doc["command"], doc["inputs"], doc["options"]))
    buf = io.StringIO()
    cli.dump_report(report, buf)
    return buf.getvalue()


def _query(workload: str, cls: str):
    return next(q for q in workloads.make_round(workload, 0, 0) if q.cls == cls)


@pytest.mark.parametrize(
    "workload, cls, block",
    [("member-disc", "n2-In", ("h", 0)), ("ucp-probes", "m2n3-In", ("choi",))],
)
def test_checker_rejects_a_corrupted_in_certificate(workload, cls, block):
    q = _query(workload, cls)
    text = _answer(q)
    assert checker.check(q, text) is None
    rep = json.loads(text)
    bad = copy.deepcopy(rep)
    target = bad["certificate"]
    for key in block[:-1]:
        target = target[key]
    target[block[-1]][0][0][0] += 5 * checker.RESIDUAL_TOL
    assert "misses its equations" in checker.check(q, json.dumps(bad))


@pytest.mark.parametrize("workload, cls", [("member-disc", "n2-Out"), ("ucp-probes", "m2n2-Out")])
def test_checker_rejects_a_flipped_verdict(workload, cls):
    q = _query(workload, cls)
    rep = json.loads(_answer(q))
    assert checker.check(q, json.dumps(rep)) is None
    rep["status"] = "In"
    assert checker.check(q, json.dumps(rep)) is not None


def test_checker_rejects_a_theta_bracket_off_its_constant():
    q = _query("theta-bisect", "pauli-square")
    rep = {"lower": 1.5, "upper": 1.505}
    assert checker.check(q, json.dumps(rep)) is not None
    rep = {"lower": 1.41, "upper": 1.416}
    assert checker.check(q, json.dumps(rep)) is None


def test_reference_slowdown_runs_for_the_time_asked():
    t0 = time.perf_counter()
    s = reference.slowdown(0.02)
    assert time.perf_counter() - t0 >= 0.02
    assert 0.0 < s < float("inf")


def test_self_times_subtract_direct_children():
    spans = [
        tracing.Span("cli", "execute", "q", -1, 0.0, 10.0),
        tracing.Span("ranges", "kmin_member", "q", 0, 1.0, 9.0),
        tracing.Span("sdp", "solve_feasibility", "q", 1, 2.0, 7.0,
                     {"status": "Feasible", "iterations": 16, "bytes": 2_000_000}),
        tracing.Span("sdp", "solve_feasibility", "q", 2, 3.0, 4.0,
                     {"status": "Unknown", "iterations": 4, "bytes": 0}),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 4.0, 1.0]
    m = tracing.layer_metrics(spans, queries=1)
    assert m["ranges.sdp_calls"] == 1 and m["sdp.nested_solves"] == 1
    assert m["sdp.solves"] == 2 and m["sdp.iterations"] == 20
    assert m["sdp.decided_frac"] == 0.5 and m["sdp.problem_mb"] == 2.0


def test_predictions_name_declared_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    end = {m["name"] for m in spec["end_to_end"]}
    table = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    for row in table:
        assert set(row["layer_metrics"]) <= layer
        assert set(row["end_to_end"]) <= end
        assert set(row["workloads"]) <= names
