"""Seeded query generators with planted verdicts, one per workload.

Each workload is an endless sequence of rounds.  A round holds one query
of every class the workload mixes (matrix size, planted verdict, body),
in a fixed order, so any whole number of rounds has the same mix.  Round
``r`` of workload ``w`` under seed ``s`` is drawn from its own generator
``default_rng([s, index of w, r])``: the same seed gives the same inputs,
and rounds can be made one at a time.

The program sees only the JSON job document of a query (``Query.job``).
The planted facts the checker compares against (``Query.planted``) are
known by construction, from numpy alone, and never from the program.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

WORKLOADS = ("member-disc", "theta-bisect", "ucp-probes", "transform-probes")

#: bisection tolerance of every theta query
THETA_TOL = 0.01

#: angles used to bracket a numerical radius by its support function
_ANGLES = 2048


@dataclasses.dataclass(frozen=True)
class Query:
    """One CLI job document plus what the checker knows about its answer."""

    qid: str
    cls: str
    job: dict
    planted: dict


def _matrix_doc(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _tuple_doc(mats) -> dict:
    """A Hermitian tuple, symmetrized so the wire copy is exactly Hermitian."""
    return {
        "n": int(mats[0].shape[0]),
        "d": len(mats),
        "hermitian": True,
        "mats": [_matrix_doc(0.5 * (m + m.conj().T)) for m in mats],
    }


DISC_DOC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
SQUARE_DOC = {
    "type": "polytope",
    "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
}


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(g)
    return q


def noncommuting_pair(n: int, rng: np.random.Generator):
    """A random Hermitian pair whose commutator is clearly nonzero."""
    while True:
        a1, a2 = random_hermitian(n, rng), random_hermitian(n, rng)
        if np.abs(a1 @ a2 - a2 @ a1).max() > 1e-3:
            return a1, a2


def radius_bracket(a1: np.ndarray, a2: np.ndarray) -> tuple[float, float]:
    """Bracket the numerical radius of ``a1 + i a2`` (Hermitian a1, a2).

    ``w = max_t lambda_max(cos t a1 + sin t a2)`` is the largest support
    value of the numerical range.  The best sampled value is a lower
    bound; the sampled supporting lines enclose the range in a polygon
    whose vertices lie within ``1 / cos(pi / N)`` of that bound.
    """
    t = 2.0 * np.pi * np.arange(_ANGLES) / _ANGLES
    pencil = np.cos(t)[:, None, None] * a1 + np.sin(t)[:, None, None] * a2
    lower = float(np.linalg.eigvalsh(pencil)[:, -1].max())
    return lower, lower / math.cos(math.pi / _ANGLES)


# ---------------------------------------------------------------------------
# member-disc: kmin over the unit disc, planted In (w <= 0.45) and Out
# (w >= 1.1)
# ---------------------------------------------------------------------------


def _member_disc(rng: np.random.Generator) -> list[tuple[str, dict, dict]]:
    out = []
    for n in (2, 3, 4):
        for verdict in ("In", "Out"):
            a1, a2 = noncommuting_pair(n, rng)
            lower, upper = radius_bracket(a1, a2)
            if verdict == "In":
                # w(a) <= 0.45 puts a in (1/2) D^max, inside D^min
                target = 0.45 * rng.uniform(0.8, 1.0)
                scale = target / upper
            else:
                # w(a) >= 1.1 puts a outside D^max, hence outside D^min
                target = rng.uniform(1.1, 1.3)
                scale = target / lower
            job = {
                "command": "member",
                "inputs": {
                    "kind": "kmin",
                    "tuple": _tuple_doc((scale * a1, scale * a2)),
                    "body": DISC_DOC,
                },
                "options": {},
            }
            out.append((f"n{n}-{verdict}", job, {"verdict": verdict}))
    return out


# ---------------------------------------------------------------------------
# theta-bisect: scaling constants of fixed pairs with known values and of
# random unitary conjugates of pairs on the boundary of the maximal set
# ---------------------------------------------------------------------------

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)


def _theta_job(body: dict, mats) -> dict:
    return {
        "command": "theta",
        "inputs": {"body": body, "tuple": _tuple_doc(mats)},
        "options": {"tol": THETA_TOL},
    }


#: noncommuting symmetries (``s^2 = I``) on the corner of the square's
#: maximal set, as the Pauli pair is
SQUARE_PAIRS = {
    2: (PAULI_Z, 0.5 * PAULI_Z + 0.5 * math.sqrt(3.0) * PAULI_X),
    3: (np.diag([1.0, 1.0, -1.0]).astype(complex),
        np.eye(3, dtype=complex) - 2.0 / 3.0 * np.ones((3, 3))),
}

#: T = a_1 + i a_2 for the disc pair, before scaling onto w(T) = 1; a
#: 3 x 3 disc pair would take 2.4 s a query, and a run would hold two
DISC_OPERATOR = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)


def conjugate(mats, rng: np.random.Generator):
    """``(u a_j u*)_j`` for a random unitary ``u``."""
    u = random_isometry(mats[0].shape[0], mats[0].shape[0], rng)
    return tuple(u @ m @ u.conj().T for m in mats)


def disc_pair(t: np.ndarray):
    """``(Re T, Im T) / w(T)`` and its theta over the disc, ``||T|| / w(T)``.

    The disc's maximal set is ``{w(a_1 + i a_2) <= 1}`` and, by unitary
    dilation, its minimal set is the contractions.  The pair is scaled by
    the upper end of the radius bracket, onto ``w = 1`` from below, so the
    maximal-set precheck passes.
    """
    a1, a2 = 0.5 * (t + t.conj().T), (t - t.conj().T) / 2j
    _, upper = radius_bracket(a1, a2)
    return (a1 / upper, a2 / upper), float(np.linalg.norm(t, 2)) / upper


def _theta_bisect(rng: np.random.Generator) -> list[tuple[str, dict, dict]]:
    nil_re = 0.5 * (NILPOTENT + NILPOTENT.conj().T)
    nil_im = (NILPOTENT - NILPOTENT.conj().T) / 2j
    out = [
        ("pauli-square", _theta_job(SQUARE_DOC, (PAULI_X, PAULI_Z)),
         {"constant": math.sqrt(2.0)}),
        ("nilpotent-disc", _theta_job(DISC_DOC, (nil_re, nil_im)),
         {"constant": 2.0}),
    ]
    # theta is invariant under unitary conjugation: each query rotates a
    # fixed boundary pair by a seeded random unitary, so the SDP data vary
    # with the seed while every run bisects the same constants
    for n in (2, 3):
        out.append((f"n{n}-square",
                    _theta_job(SQUARE_DOC, conjugate(SQUARE_PAIRS[n], rng)), {}))
    pair, constant = disc_pair(DISC_OPERATOR)
    out.append(("n2-disc", _theta_job(DISC_DOC, conjugate(pair, rng)),
                {"constant": constant}))
    return out


# ---------------------------------------------------------------------------
# ucp-probes: matrix-range membership of compressed ampliations pulled
# inside the range (In) and of probes pushed past a support line (Out)
# ---------------------------------------------------------------------------

UCP_SIZES = ((2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (4, 4))


def range_probe(x, n: int, rng: np.random.Generator):
    """A level-n member of the range of ``x``, strictly inside it.

    Compresses an ampliation of ``x`` (a pure ucp image, whose Choi
    matrix has low rank) and mixes in 10 % of the scalar point
    ``tr(x_j) / m``, whose Choi matrix is ``I / m``.  The mixed map has a
    positive definite Choi matrix.  Exact compressions sit on the boundary
    of the range, where solve times spread from milliseconds to seconds.
    """
    m = x[0].shape[0]
    r = -(-n // m)
    v = random_isometry(m * r, n, rng)
    return tuple(
        0.9 * (v.conj().T @ np.kron(xj, np.eye(r)) @ v)
        + 0.1 * np.trace(xj).real / m * np.eye(n)
        for xj in x
    )


def push_out(x, b, rng: np.random.Generator):
    """Move ``b`` past a support line of the range of ``x``.

    Along a random direction ``c``, adds ``s c_j u u*`` to ``b_j`` where
    ``u`` is a top eigenvector of ``sum c_j b_j``; this lifts that top
    eigenvalue to a quarter of the width of ``x`` in direction ``c``
    above ``lambda_max(sum c_j x_j)``, which no ucp image of ``x`` can
    exceed.
    """
    c = rng.standard_normal(2)
    c /= np.linalg.norm(c)
    xs = np.linalg.eigvalsh(c[0] * x[0] + c[1] * x[1])
    vals, vecs = np.linalg.eigh(c[0] * b[0] + c[1] * b[1])
    u = vecs[:, -1:]
    lift = (xs[-1] - vals[-1]) + 0.25 * (xs[-1] - xs[0])
    return tuple(bj + lift * cj * (u @ u.conj().T) for bj, cj in zip(b, c)), c


def _ucp_job(x, b) -> dict:
    return {
        "command": "member",
        "inputs": {"kind": "ucp", "tuple": _tuple_doc(b), "range_of": _tuple_doc(x)},
        "options": {},
    }


def _ucp_probes(rng: np.random.Generator) -> list[tuple[str, dict, dict]]:
    out = []
    for m, n in UCP_SIZES:
        x = noncommuting_pair(m, rng)
        b = range_probe(x, n, rng)
        pushed, c = push_out(x, b, rng)
        out.append((f"m{m}n{n}-In", _ucp_job(x, b), {"verdict": "In"}))
        out.append((f"m{m}n{n}-Out", _ucp_job(x, pushed),
                    {"verdict": "Out", "direction": c.tolist()}))
    return out


# ---------------------------------------------------------------------------
# transform-probes: square/disc transform cross-checks on 2 x 2 matrices
# drawn uniformly from the ball of radius 1.5 in C^{2x2}
# ---------------------------------------------------------------------------

TRANSFORM_ROUND = 8


def _transform_probes(rng: np.random.Generator) -> list[tuple[str, dict, dict]]:
    out = []
    for _ in range(TRANSFORM_ROUND):
        g = rng.standard_normal(8)
        v = 1.5 * rng.random() ** (1.0 / 8.0) * g / np.linalg.norm(g)
        y = np.array([[v[0] + 1j * v[1], v[2] + 1j * v[3]],
                      [v[4] + 1j * v[5], v[6] + 1j * v[7]]])
        job = {"command": "choili", "inputs": {"y": _matrix_doc(y)}, "options": {}}
        out.append(("y2", job, {}))
    return out


_MAKERS = {
    "member-disc": _member_disc,
    "theta-bisect": _theta_bisect,
    "ucp-probes": _ucp_probes,
    "transform-probes": _transform_probes,
}


def make_round(workload: str, seed: int, r: int) -> list[Query]:
    """Round ``r`` of a workload under ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
    return [
        Query(f"r{r}.{i}.{cls}", cls, job, planted)
        for i, (cls, job, planted) in enumerate(_MAKERS[workload](rng))
    ]
