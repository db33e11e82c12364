"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from outside the program: ``install`` replaces each
traced public function by a wrapper at every ``mconvex`` module that binds
it (``mconvex.ranges.solve_feasibility`` as well as
``mconvex.sdp.solve_feasibility``, so polish re-solves nest), and
``remove`` puts the originals back.  Untraced runs never install them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

import numpy as np

#: layer -> (defining module, public functions traced at every binding)
LAYERS = {
    "cli": [("mconvex.cli", "execute"), ("mconvex._jsonio", "dump_report")],
    "ranges": [
        ("mconvex.ranges", name)
        for name in (
            "kmin_member",
            "ucp_member",
            "theta_min_alpha",
            "kmax_member",
            "choi_li_equiv_check",
            "calibrate_choi_li",
        )
    ],
    "sdp": [("mconvex.sdp", "solve_feasibility")],
    "linalg": [("mconvex.linalg", "numerical_radius")],
    "geometry": [
        ("mconvex.geometry", name)
        for name in (
            "scale_body",
            "require_interior_zero",
            "hull_membership_gap",
            "clip_by_halfplanes",
        )
    ],
}


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    query: str
    parent: int
    start: float
    end: float = 0.0
    info: dict = dataclasses.field(default_factory=dict)


class Recorder:
    """Keeps every span of a run in memory, in the order spans open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.query = ""
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, layer: str, name: str, info: dict) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            Span(layer, name, self.query, parent, time.perf_counter(), info=info)
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _finish(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = {}
            if layer == "sdp":
                # computed, not measured: the bytes of the dense constraint
                # coefficients handed to the solver
                info["bytes"] = sum(
                    np.asarray(c.coeff).nbytes for c in args[0].constraints
                )
            idx = self._begin(layer, name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if layer == "sdp":
                info["status"] = result.status.value
                info["iterations"] = int(result.iterations)
            return result

        return traced

    def _count_eigvalsh(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].name == "numerical_radius":
                info = self.spans[self._open[-1]].info
                info["eigvalsh"] = info.get("eigvalsh", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "mconvex" or name.startswith("mconvex."))
        ]
        for layer, funcs in LAYERS.items():
            for modname, name in funcs:
                orig = getattr(sys.modules[modname], name)
                traced = self._wrap(layer, name, orig)
                for m in modules:
                    if getattr(m, name, None) is orig:
                        self._patches.append((m, name, orig))
                        setattr(m, name, traced)
        orig = np.linalg.eigvalsh
        self._patches.append((np.linalg, "eigvalsh", orig))
        np.linalg.eigvalsh = self._count_eigvalsh(orig)

    def remove(self) -> None:
        for m, name, orig in reversed(self._patches):
            setattr(m, name, orig)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], queries: int) -> dict[str, float]:
    """Per-layer metrics per traced query, from the spans of a traced run."""
    own = self_times(spans)

    def ms(pred) -> float:
        return 1e3 * sum(t for s, t in zip(spans, own) if pred(s)) / queries

    def count(pred) -> float:
        return sum(1 for s in spans if pred(s)) / queries

    sdp = [s for s in spans if s.layer == "sdp"]
    statuses = [s.info.get("status", "Raised") for s in sdp]
    decided = statuses.count("Feasible") + statuses.count("Infeasible")
    return {
        "cli.execute_self_ms": ms(lambda s: s.name == "execute"),
        "cli.encode_ms": ms(lambda s: s.name == "dump_report"),
        "ranges.self_ms": ms(lambda s: s.layer == "ranges"),
        "ranges.sdp_calls": count(
            lambda s: s.layer == "sdp" and s.parent >= 0
            and spans[s.parent].layer == "ranges"
        ),
        "sdp.solve_ms": ms(lambda s: s.layer == "sdp"),
        "sdp.solves": len(sdp) / queries,
        "sdp.nested_solves": count(
            lambda s: s.layer == "sdp" and s.parent >= 0
            and spans[s.parent].layer == "sdp"
        ),
        "sdp.iterations": sum(s.info.get("iterations", 0) for s in sdp) / queries,
        "sdp.feasible": statuses.count("Feasible") / queries,
        "sdp.infeasible": statuses.count("Infeasible") / queries,
        "sdp.unknown": statuses.count("Unknown") / queries,
        "sdp.decided_frac": decided / len(sdp) if sdp else 1.0,
        # integer bytes over the query count first, so that any number of
        # identical passes gives the same figure to the last bit
        "sdp.problem_mb": sum(s.info["bytes"] for s in sdp) / queries / 1e6,
        "linalg.nr_ms": ms(lambda s: s.layer == "linalg"),
        "linalg.nr_calls": count(lambda s: s.layer == "linalg"),
        "linalg.nr_eigvalsh_calls": sum(
            s.info.get("eigvalsh", 0) for s in spans if s.layer == "linalg"
        ) / queries,
        "geometry.ms": ms(lambda s: s.layer == "geometry"),
    }
