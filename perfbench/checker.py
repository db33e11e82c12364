"""Outside correctness checker for serialized CLI reports.

Works on the report JSON text and the query's own job document with numpy
alone, sharing no code with the program.  ``check`` returns ``None`` for a
correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np

from .workloads import THETA_TOL, Query

#: slack on raw-data residuals: the solver certifies 1e-7 per normalized
#: constraint, and the coefficients it normalizes have norm below ~10;
#: the certificates it returns meet their equations to about 1e-14
RESIDUAL_TOL = 1e-6
MIN_EIG_TOL = -1e-7
THETA_SLACK = 0.02


def _matrix(doc) -> np.ndarray:
    arr = np.asarray(doc, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _mats(tuple_doc) -> list[np.ndarray]:
    return [_matrix(m) for m in tuple_doc["mats"]]


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def _check_kmin(cert: dict, a: list[np.ndarray]) -> str | None:
    """``h_j >= 0``, ``sum h_j = I`` and ``sum_j v_jl h_j = a_l``."""
    h = [_matrix(b) for b in cert["h"]]
    verts = np.asarray(cert["vertices"], dtype=float)
    if len(h) != verts.shape[0]:
        return f"{len(h)} blocks for {verts.shape[0]} vertices"
    worst = min(_min_eig(b) for b in h)
    if worst < MIN_EIG_TOL:
        return f"decomposition block has eigenvalue {worst:.3e}"
    n = a[0].shape[0]
    gaps = [np.abs(sum(h) - np.eye(n)).max()]
    for l, al in enumerate(a):
        gaps.append(np.abs(sum(v * b for v, b in zip(verts[:, l], h)) - al).max())
    if max(gaps) > RESIDUAL_TOL:
        return f"decomposition misses its equations by {max(gaps):.3e}"
    return None


def _check_choi(choi_doc, x: list[np.ndarray], a: list[np.ndarray]) -> str | None:
    """Choi matrix PSD, partial trace I, and ``sum_pq (x_j)_pq C_pq = a_j``."""
    c = _matrix(choi_doc)
    m, n = x[0].shape[0], a[0].shape[0]
    if c.shape != (m * n, m * n):
        return f"Choi matrix has shape {c.shape}"
    if _min_eig(c) < MIN_EIG_TOL:
        return f"Choi matrix has eigenvalue {_min_eig(c):.3e}"
    blocks = c.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    gaps = [np.abs(np.einsum("ppij->ij", blocks) - np.eye(n)).max()]
    for xj, aj in zip(x, a):
        gaps.append(np.abs(np.einsum("pq,pqij->ij", xj, blocks) - aj).max())
    if max(gaps) > RESIDUAL_TOL:
        return f"Choi matrix misses its equations by {max(gaps):.3e}"
    return None


def _check_theta(rep: dict, planted: dict) -> str | None:
    """Bracket no wider than tol, around the constant when it is known,
    and inside [1, 2 + tol]: theta is at most d = 2 for a symmetric body."""
    lo, hi = float(rep["lower"]), float(rep["upper"])
    if hi - lo > THETA_TOL:
        return f"bracket [{lo}, {hi}] wider than {THETA_TOL}"
    c = planted.get("constant")
    if c is not None and not lo - THETA_SLACK <= c <= hi + THETA_SLACK:
        return f"bracket [{lo}, {hi}] misses the constant {c}"
    if lo < 1.0 or hi > 2.0 + THETA_TOL:
        return f"bracket [{lo}, {hi}] leaves [1, {2.0 + THETA_TOL}]"
    return None


def check(query: Query, report_text: str) -> str | None:
    """Compare one serialized report with what is planted in its query."""
    rep = json.loads(report_text)
    inputs = query.job["inputs"]
    command = query.job["command"]
    if command == "member":
        want = query.planted["verdict"]
        if rep["status"] != want:
            return f"status {rep['status']}, planted {want}"
        if want != "In":
            return None
        a = _mats(inputs["tuple"])
        if inputs["kind"] == "kmin":
            return _check_kmin(rep["certificate"], a)
        return _check_choi(rep["certificate"]["choi"], _mats(inputs["range_of"]), a)
    if command == "theta":
        return _check_theta(rep, query.planted)
    if command == "choili":
        if rep["square_min"]["status"] == "Unknown":
            return "square membership is Unknown"
        if rep["status"] != "Consistent":
            return f"status {rep['status']}"
        return None
    return f"no check for command {command!r}"
