"""Membership and scaling for matrix convex sets over convex bodies.

For a compact convex K in R^d, two canonical matrix convex sets share K
as their scalar level: the minimal one, whose level-n points decompose
as sums ``a_l = sum_j lambda_jl h_j`` with positive ``h_j`` summing to
the identity and atoms ``lambda_j`` in K, and the maximal one, the
tuples whose joint numerical range lies inside K.  This module decides
membership in both (SDP for the minimal set, support inequalities for
the maximal), brackets the scaling constant between them, decides
membership in matrix ranges ``W_n(x)`` through Choi-matrix feasibility,
decides matrix-range equality by two such solves, tests extremality of
free symmetric or unitary tuples, and houses the square-to-disc
numerical radius transform together with its calibration.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotCommuting,
    NotInKmax,
    TupleMismatch,
)
from .geometry import (
    Box,
    ConvexBody,
    Disc,
    Polytope,
    Sampled,
    box_vertices,
    halfplanes,
    point_gap,
    require_interior_zero,
)
from .linalg import (
    OperatorTuple,
    _require_bytes,
    _simdiag,
    as_matrix,
    circle_support,
    commutant_dimension,
    herm_eigvalsh,
    herm_part,
    op_norm,
    pencil_stack,
    skew_part,
)
from .sdp import (
    MAX_ITER,
    WITNESS_RESIDUAL,
    Separator,
    Status,
    Verdict,
    _Compiled,
    _row_norms,
    _separator,
)

#: default membership tolerance; every Boundary band is 10x this
MEMBER_TOL = 1e-7

#: vertex-set operators kept compiled per process (``_vertex_operator``),
#: the least recently used dropped first
CACHED_OPERATORS = 16

#: directions of ucp's support scan in the plane, in antipodal pairs
SCAN_DIRECTIONS = 64

#: copies of the Choi variable a range solve holds at once: the
#: Douglas-Rachford iterate, its two projections, the reflection, their
#: gap and the cone step's temporaries
_CHOI_COPIES = 8

#: deviation allowed when testing a_j^2 = I or a_j* a_j = I
EXTREME_DEV = 1e-8

#: a normalization constant sometimes quoted for the square-to-disc
#: transform; it fails the scalar corner check and is kept only so the
#: calibration report can show the discrepancy
CL_REFERENCE_CONSTANT = 1.0 / (1.0 + 1.0j)

#: the calibrated transform normalization (see ``calibrate_choi_li``)
CL_CALIBRATED_CONSTANT = 0.5

#: the square [-1, 1]^2 of ``choi_li_equiv_check``
SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))


class MembershipStatus(enum.Enum):
    IN = "In"
    OUT = "Out"
    BOUNDARY = "Boundary"
    UNKNOWN = "Unknown"


IN, OUT, BOUNDARY, UNKNOWN = MembershipStatus


class Path(enum.Enum):
    """The rung of a membership query that answered it."""

    SINGLETON = "singleton"
    JOINT_SPECTRUM = "joint-spectrum"
    SUPPORT_SCAN = "support-scan"
    DISC_DILATION = "disc-dilation"
    DISC_CUT = "disc-cut"
    CIRCLE_SUPPORT = "circle-support"
    SDP = "sdp"


@dataclasses.dataclass(frozen=True, eq=False)
class Decomposition:
    """Positive ``h_j`` summing to I with ``sum_j vertices[j, l] h_j = a_l``."""

    h: list | np.ndarray
    vertices: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class ChoiWitness:
    """The Choi matrix of a ucp map onto the query: an In of ucp."""

    choi: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class JointSpectrum:
    """A commuting tuple's joint eigenvalues and its joint eigenbasis."""

    joint_points: np.ndarray
    unitary: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class SupportRecord:
    """A support scan's gaps ``lambda_max(sum c_j a_j) - offset``; its worst row."""

    direction: np.ndarray
    gaps: np.ndarray


@dataclasses.dataclass(frozen=True)
class CircleBracket:
    """Both ends of a numerical radius bracket."""

    radius: float
    upper: float


@dataclasses.dataclass(frozen=True, eq=False)
class SingletonPoint:
    """The one point of a body."""

    point: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class MembershipResult:
    """Answer to a membership query, and the ``path`` it took.

    ``margin`` measures the strength of the certificate, not a Euclidean
    distance: for In it is the witness slack (smallest eigenvalue of the
    verified decomposition, the support-inequality slack, or a disc
    dilation's ``r - ||T||``), for Out the verified separation, for
    Boundary the bracketing half-width.  ``detail`` is prose for people.
    """

    status: MembershipStatus
    margin: float
    path: Path
    certificate: object = None
    detail: str = ""


@dataclasses.dataclass(frozen=True, eq=False)
class ThetaEstimate:
    """Certified bracket for the minimal alpha with ``a`` in (alpha K)^min.

    ``witness_point`` is ``a`` rescaled by ``1/upper``.  It is certified
    in the minimal set of K's relaxed body (the vertices scaled by ``1 +
    10 MEMBER_TOL``), just as a Boundary answer of ``kmin_member`` is: by
    the Feasible step that set ``upper``, or, when no step did, by the
    start's decomposition; over a disc, by a unitary dilation.

    The bracket starts at ``upper = hi = max(2, 2 d max_l ||a_l|| / r)``
    with r the inradius bound of ``require_interior_zero``, and no search:
    ``b = a / hi`` has ``sum_l ||b_l|| <= r / 2``, so the positive
    ``h_(+-l) = (||b_l|| I +- b_l) / 2r`` at the points ``+-r e_l`` of K,
    with the slack ``(1 - sum_l ||b_l|| / r) I / 2`` on each of ``+-r e_1``,
    sum to I and decompose ``b``.  So ``a / hi`` is in K^min, and in the
    relaxed body's.

    ``lower_separator`` is the certificate behind ``lower``: the
    ``Separator`` of the Infeasible probe whose alpha* set it, re-priced
    at ``lower`` (alpha* rounded down by a relative 1e-12), so its
    ``margin`` clears 10 tol there.  Its ``dual`` pairs with the rows of
    ``_range_rows`` of the relaxed body's vertices at the rhs of ``a /
    lower`` there, ``c + (a / lower - c) / s`` for its center c and
    relaxed scale s (the problem at that point), so it shows ``a / lower``
    outside the relaxed body's minimal set, and with it every ``a /
    alpha`` for alpha below; over a disc it is ``_disc_cut``'s, priced on
    ``a / lower`` itself.  It is None when ``lower`` is the starting 1.0:
    for every commuting tuple, and when the first probe is Feasible or
    Unknown.

    ``trace`` holds the (lower, upper) bracket, as floats, after each
    solve, a continuation included: one entry over a disc, and ``((1.0,
    1.0),)`` for a commuting tuple.
    """

    lower: float
    upper: float
    witness_point: OperatorTuple
    lower_separator: Separator | None
    trace: tuple[tuple[float, float], ...]


def _require_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"needs a positive finite tol, not {tol}")


def _require_max_iter(max_iter: int) -> None:
    """Raise ``ValueError`` unless ``max_iter`` is nonnegative."""
    if not max_iter >= 0:
        raise ValueError(f"needs a nonnegative max_iter, not {max_iter}")


def _sdp_tol(tol: float) -> float:
    """The tol of a query's SDP solves: the query's, at most 1e-7.  A
    separator of such a solve clears the margin ``10 _sdp_tol(tol)``."""
    return min(tol, 1e-7)


def _statuses(violation: float, tol: float) -> MembershipStatus:
    """In / Out / Boundary from a signed support violation."""
    if violation <= tol:
        return IN
    if violation > 10.0 * tol:
        return OUT
    return BOUNDARY


# ---------------------------------------------------------------------------
# maximal set: support inequalities
# ---------------------------------------------------------------------------


def _pencil_tops(mats, dirs: np.ndarray) -> np.ndarray:
    """``lambda_max(sum_j c_j mats_j)`` for each row c of ``dirs``, from
    one ``eigvalsh`` over their ``pencil_stack``.  On ucp's ring
    (``_scan_directions``: rows ``[half; -half]``, each pair exactly
    antipodal) the ``eigvalsh`` runs over the half alone, and the top
    eigenvalue at ``-c`` is read as ``-lambda_min`` at c."""
    if dirs is not _scan_directions(dirs.shape[1]):
        return np.linalg.eigvalsh(pencil_stack(mats, dirs))[:, -1]
    vals = np.linalg.eigvalsh(pencil_stack(mats, dirs[:len(dirs) // 2]))
    return np.concatenate([vals[:, -1], -vals[:, 0]])


def _support_gaps(
    dirs: np.ndarray, offsets: np.ndarray, a: OperatorTuple
) -> tuple[float, int, SupportRecord]:
    """Worst violation of ``lambda_max(sum c_j a_j) <= offset`` over the
    rows c of ``dirs``, from ``_pencil_tops`` (one ``eigvalsh``, over
    half of ucp's antipodal ring), the row it is at, and the record."""
    gaps = _pencil_tops(a.mats, dirs) - offsets
    k = int(np.argmax(gaps))
    return float(gaps[k]), k, SupportRecord(dirs[k], gaps)


def kmax_member(
    K: ConvexBody, a: OperatorTuple, tol: float = MEMBER_TOL
) -> MembershipResult:
    """Is the joint numerical range of ``a`` contained in K?

    Discs are checked through the numerical radius of the recentered
    complex combination; every other body exactly on its facet list
    (``geometry.halfplanes``: a box's +-e_j, a sampled body's own
    directions, a polytope's hull facets in any dimension).  Status is
    Boundary when the worst support gap lands in ``(tol, 10 tol]``.
    Raises ``ValueError`` unless ``tol`` is positive and finite.
    """
    _require_tol(tol)
    if not a.hermitian:
        raise NonHermitianInput("maximal-set membership needs a Hermitian tuple")
    if K.dim != a.d:
        raise DimensionMismatch(f"body dim {K.dim} != tuple length {a.d}")
    if isinstance(K, Disc):
        m = _recentered(K, a)
        return _radius_member(lambda k: circle_support(0.0, m, k)[:2], K.radius, tol)
    viol, _, cert = _support_gaps(*halfplanes(K), a)
    return MembershipResult(_statuses(viol, tol), abs(viol), Path.SUPPORT_SCAN, cert)


def _recentered(K: Disc, a: OperatorTuple) -> np.ndarray:
    """``(a_1 - c_1) + i (a_2 - c_2)`` for the center c of the disc K."""
    eye = np.eye(a.n)
    return (a.mats[0] - K.center[0] * eye) + 1j * (a.mats[1] - K.center[1] * eye)


def _radius_member(bracket: Callable, radius: float, tol: float) -> MembershipResult:
    """The disc rule of ``kmax_member`` and ``choi_li_equiv_check``: the
    lower end of a numerical radius ``bracket(kernel tol)`` against
    ``radius``, with the statuses of a support gap and both ends kept."""
    w, up = bracket(min(tol * 1e-2, 1e-9))
    gap, cert = w - radius, CircleBracket(w, up)
    return MembershipResult(_statuses(gap, tol), abs(gap), Path.CIRCLE_SUPPORT, cert)


# ---------------------------------------------------------------------------
# the range problem: one Choi SDP for kmin, theta and ucp
# ---------------------------------------------------------------------------


def _range_rows(
    xs: np.ndarray, a: OperatorTuple, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the Choi SDP of a unital completely positive map from
    the direct sum of the summands ``xs`` onto ``a``.

    ``xs`` is a (count, d, k, k) stack: summand i is the tuple ``xs[i]``
    and gets one PSD block ``C_i`` of size k n, the Choi matrix of the
    map on it (a k x k grid of n x n blocks).  The rows are unitality
    ``sum_i sum_p (C_i)_pp = I`` (pattern ``I_k``), then the Hermitian
    parts of the image equations ``sum_i sum_pq (xs[i, j])_pq (C_i)_pq =
    a_j``, then their skew parts: patterns ``herm(conj x_j)`` and
    ``skew(conj x_j)``, rhs ``herm(a_j)`` and ``-skew(a_j)`` at ``a``
    and ``Re(center_j) I`` and ``-Im(center_j) I`` at the scalar tuple
    ``c``.  A row that reads 0 = 0 at both ends, and so along the whole
    line from c to a, is not posed.  Returns the (1 + r, count, k, k)
    complex stack of the patterns of the unit row and the r posed tuple
    rows, the tuple rows' (r, n, n) rhs stacks at ``a`` and at ``c``, and
    which of the unit row and the 2 d tuple rows are posed.  Raises
    ``TooLarge`` first when the Choi variable exceeds the memory budget.

    ``ucp_member`` passes ``x`` as one summand.  ``kmin_member`` passes
    the vertices as 1 x 1 summands, ``verts[:, :, None, None]``, since
    ``W(diag V)`` is the minimal set over ``conv V``: one block ``h_j``
    per vertex and, for a Hermitian tuple, the d + 1 equations ``sum_j
    h_j = I`` and ``sum_j verts[j, l] h_j = a_l``.
    """
    count, _, k, _ = xs.shape
    _require_bytes(_CHOI_COPIES * 16 * count * (k * a.n) ** 2, "the Choi variable")
    conj = np.conj(xs.swapaxes(0, 1))
    # the Hermitian parts of the d image equations, then their skew parts
    patterns = np.concatenate([herm_part(conj), skew_part(conj)])
    at_a = np.concatenate([herm_part(a.mats), -skew_part(a.mats)])
    at_c = np.concatenate([center.real, -center.imag])[:, None, None] * np.eye(a.n)
    posed = patterns.any(axis=(1, 2, 3)) | at_a.any(axis=(1, 2)) | at_c.any(axis=(1, 2))
    unit = np.broadcast_to(np.eye(k), (1, *patterns.shape[1:]))
    stack = np.concatenate([unit, patterns[posed]])
    return stack, at_a[posed], at_c[posed], np.concatenate([[True], posed])


def _range_operator(
    stack: np.ndarray, n: int, rhs: np.ndarray | None = None
) -> _Compiled:
    """The Choi operator of ``_range_rows``' ``stack`` at level ``n``: one
    block of size k n per summand, compiled at the (rows, n, n) ``rhs``,
    or at a zero rhs, which every solve re-poses."""
    rows, count, k, _ = stack.shape
    rhs = np.zeros((rows, n, n)) if rhs is None else rhs
    return _Compiled((k * n,) * count, [stack], rhs)


@functools.lru_cache(maxsize=CACHED_OPERATORS)
def _vertex_operator(stack: bytes, shape: tuple[int, ...], n: int) -> _Compiled:
    """The read-only ``_range_operator`` of a vertex set's pattern stack
    (``stack`` as bytes of complex entries, of ``shape``) at level ``n``.
    Only these decide the operator; the query's point is only its rhs."""
    comp = _range_operator(np.frombuffer(stack, complex).reshape(shape), n)
    comp.freeze()
    return comp


def _range_solver(
    rows: tuple, tol: float, max_iter: int
) -> tuple[Callable[..., Verdict], Callable[..., tuple[float, float]]]:
    """Compile the operator of ``_range_rows``' output ``rows``, and move
    along its rhs line.

    A vertex set's operator (1 x 1 summands: kmin, theta, and ucp over a
    scalar tuple) comes from ``_vertex_operator``, shared by every query
    on it; the Choi operator of a matrix tuple (ucp) is compiled on every
    call, at the query's own rhs (f = alpha = 1), so its first
    ``solve(1.0)`` runs on it with no ``with_rhs``: one rhs set per
    compile.  The query holds the Douglas-Rachford iterate: its first
    solve starts from zero, so no query's answer depends on the queries
    before it, and each later one from where the solve before it
    stopped.

    Returns ``solve(f, alpha=1)``, which poses the unit row as I and the
    tuple rows at the point ``c + f (a / alpha - c)``, ``(f / alpha)
    at_a + (1 - f) at_c`` (the same ``(f, alpha)`` twice running re-solves
    the operator posed for it, bit for bit as re-posing would, with no
    ``with_rhs``); and ``terms(sep, f)``, the ``(c0, c1)`` with
    ``c0 + c1 / alpha`` the margin of ``sep`` on the rhs of ``solve(f,
    alpha)``: the pencil does not depend on the rhs, so only this
    pairing moves with alpha.
    """
    stack, at_a, at_c, _ = rows
    n = at_a.shape[-1]
    unit, z, key, posed = np.eye(n)[None], None, None, None
    if stack.shape[2] == 1:
        comp = _vertex_operator(stack.tobytes(), stack.shape, n)
    else:
        # the rhs of solve(1.0), to the last bit (see below)
        comp = _range_operator(stack, n, np.concatenate([unit, at_a]))
        key, posed = (1.0, 1.0), comp

    def solve(f: float, alpha: float = 1.0) -> Verdict:
        nonlocal z, key, posed
        if key != (f, alpha):
            # at f = alpha = 1 this is the rhs at a to the last bit
            rows = (f / alpha) * at_a + (1.0 - f) * at_c
            key, posed = (f, alpha), comp.with_rhs(np.concatenate([unit, rows]))
        verdict, z = posed.solve(_sdp_tol(tol), max_iter, z)
        return verdict

    def terms(sep: Separator, f: float) -> tuple[float, float]:
        y = sep.dual

        def pairing(rows: np.ndarray) -> float:
            return float(np.einsum("rij,rji->", rows, y[1:]).real)

        c0 = float(np.einsum("ii->", y[0]).real) + (1.0 - f) * pairing(at_c)
        return c0, f * pairing(at_a)

    return solve, terms


def _support_cut(
    rows: tuple, a: OperatorTuple, center: np.ndarray, dirs: np.ndarray,
    h: np.ndarray, pull: float, tol: float,
) -> Separator | None:
    """The separator of ``a`` from the relaxed set along the row c of
    ``dirs`` whose support line ``_support_gaps`` finds it furthest past,
    with nothing compiled; None if there is none or ``rows`` (``_range_rows``'
    output) pose a skew row.  ``h`` holds the posed set's support values,
    ``along + (h - along) / pull``, ``along = <c, center>``, the relaxed
    set's.  With u a top eigenvector of ``sum_l c_l a_l``, the dual ``(-h,
    c) kron uu*`` has the pencil ``(sum_l c_l conj(x_il) - h I) kron uu*`` on
    summand i; scaled to the rows ``sdp._row_norms`` normalizes, it is
    priced by ``sdp._separator`` at ``pull``, its margin kept at f = 1."""
    stack, _, _, posed = rows
    if posed[1 + a.d:].any():
        return None
    along = dirs @ center.real
    gap, j, _ = _support_gaps(dirs, along + (h - along) / pull, a)
    if gap <= 0.0:
        return None
    norms, zero = _row_norms([stack])
    w = np.concatenate([[-h[j]], dirs[j][posed[1:1 + a.d]]])
    scale = 1.0 / np.linalg.norm(w * norms)
    pencil = scale * np.einsum("r,rcpq->cpq", np.where(zero, 0.0, w), stack)
    vals, vecs = np.linalg.eigh(pencil_stack(a.mats, dirs[j][None]))
    u = vecs[0, :, -1]
    # the dual's pairing with the rhs at f = pull, and at the f reported
    f = np.array([pull, 1.0])
    at = scale * (along[j] + f * (vals[0, -1] - along[j]) - h[j])
    sep = _separator(
        scale * w[:, None, None] * np.outer(u, u.conj()),
        float(herm_eigvalsh(pencil)[:, -1].max()), float(np.abs(pencil).max()),
        float(at[0]), _sdp_tol(tol),
    )
    return None if sep is None else dataclasses.replace(sep, margin=float(at[1]))


# ---------------------------------------------------------------------------
# minimal set: positive decompositions
# ---------------------------------------------------------------------------


def _joint_spectrum(a: OperatorTuple) -> JointSpectrum | None:
    """The joint points and eigenbasis ``u`` of ``_simdiag`` on the tuple's
    stack (``u = I`` for a diagonal tuple), or None when it refuses the
    tuple: a failed commutator test or a near degenerate spectrum."""
    try:
        u, values = _simdiag(a.mats[:, None], "entry {}".format)
    except NotCommuting:
        return None
    return JointSpectrum(values, u)


def _singleton_point(K: ConvexBody) -> SingletonPoint | None:
    if isinstance(K, Polytope) and (K.vertices == K.vertices[0]).all():
        return SingletonPoint(K.vertices[0].copy())
    if isinstance(K, Box) and (K.lo == K.hi).all():
        return SingletonPoint(K.lo.copy())
    if isinstance(K, Disc) and K.radius == 0.0:
        return SingletonPoint(K.center.copy())
    return None


def _disc_cut(K: Disc, a: OperatorTuple, w: np.ndarray, vh: np.ndarray) -> tuple:
    """The separator over the disc K (center c, radius r) of the top
    singular pair ``T v = ||T|| u`` of the SVD ``T = W S V*``, and its
    ``(c0, c1) = (tr Y_0, sum_l tr(Y_l a_l))``: its margin on ``a /
    alpha`` is ``c0 + c1 / alpha``.  For ``W = v u*`` it takes ``Y_1 = (W
    + W*) / 2``, ``Y_2 = (W* - W) / 2i`` and ``Y_0 = -(r / 2)(uu* + vv*)
    - c_1 Y_1 - c_2 Y_2``, whose pencil ``Y_0 + x_1 Y_1 + x_2 Y_2`` is NSD
    on the disc, as ``Re((z - c)(e* v)(u* e)) <= r |u* e| |v* e|`` there.
    For ``_disc_member``'s T, ``c0 + c1 = r (||T|| - 1)``."""
    u, v = w[:, 0], vh[0].conj()
    vu = v[:, None] * u.conj()
    y1, y2 = herm_part(vu), -skew_part(vu)
    y0 = -0.5 * K.radius * (u[:, None] * u.conj() + v[:, None] * v.conj())
    dual = np.array([y0 - K.center[0] * y1 - K.center[1] * y2, y1, y2])
    c0 = float(np.trace(dual[0]).real)
    c1 = float(np.einsum("rij,rji->", dual[1:], a.mats).real)
    return Separator(dual=dual, margin=c0 + c1, psd_slack=0.0), (c0, c1)


def _disc_member(K: Disc, a: OperatorTuple, tol: float) -> MembershipResult:
    """kmin over a disc from one SVD ``T = W S V*`` of ``T = ((a_1 - c_1)
    + i (a_2 - c_2)) / r``: D^min is the set of pairs with ``||T|| <= 1``
    (Halmos, Proc. AMS 1950; Passer, Shalit and Solel, J. Funct. Anal.
    2018).  Past ``||T|| = 1 + 10 tol``, outside the disc dilated by ``1 +
    10 tol``, it is Out by ``_disc_cut``; Boundary, margin ``10 tol``,
    before.  Otherwise, for ``D_T = V sqrt((1 - S)(1 + S)) V*`` and
    ``D_(T*)`` the same with W, the unitary ``U = [[T, D_(T*)], [D_T,
    -T*]]`` has a Schur form ``Z diag(l) Z*`` that compresses to ``T =
    sum_k l_k z_k z_k*``, ``z_k`` the top n entries of column k of Z: In
    on 2n rank-one blocks at the points ``c + r l_k / |l_k|``, margin ``r
    (1 - ||T||)``; Unknown if they miss by more than ``WITNESS_RESIDUAL``."""
    n = a.n
    _require_bytes(16 * (4 * n * n + 2 * n**3), "the unitary dilation")
    t = _recentered(K, a) / K.radius
    w, s, vh = np.linalg.svd(t)
    if s[0] > 1.0 + 10.0 * tol:
        sep, _ = _disc_cut(K, a, w, vh)
        detail = "separated from the disc by the top singular pair of T"
        return MembershipResult(OUT, sep.margin, Path.DISC_CUT, sep, detail)
    if s[0] > 1.0:
        detail = "outside the disc, inside it dilated by 1 + 10 tol"
        return MembershipResult(BOUNDARY, 10.0 * tol, Path.DISC_CUT, None, detail)
    defect = np.sqrt((1.0 - s) * (1.0 + s))
    u = np.empty((2 * n, 2 * n), dtype=complex)
    u[:n, :n], u[n:, n:] = t, -t.conj().T
    u[:n, n:], u[n:, :n] = (w * defect) @ w.conj().T, (vh.conj().T * defect) @ vh
    from scipy.linalg.lapack import zgees

    # scipy.linalg.schur's LAPACK calls without its checks; the residual
    # below checks the Schur form, so LAPACK's status is not read
    lwork = zgees(lambda x: None, u, lwork=-1)[-2][0].real.astype(np.int_)
    schur, _, _, z, _, _ = zgees(lambda x: None, u, lwork=lwork)
    lam = np.diagonal(schur) / np.abs(np.diagonal(schur))
    top = z[:n].T
    h = top[:, :, None] * top.conj()[:, None, :]
    resid = max(np.abs(h.sum(axis=0) - np.eye(n)).max(),
                np.abs(np.einsum("k,kij->ij", lam, h) - t).max())
    if not resid <= WITNESS_RESIDUAL:
        detail = f"the unitary dilation misses its equations by {resid:.2e}"
        return MembershipResult(UNKNOWN, 0.0, Path.DISC_DILATION, None, detail)
    cert = Decomposition(h, K.center + K.radius * lam.view(float).reshape(-1, 2))
    detail = "decomposed on the circle by a unitary dilation"
    margin = K.radius * (1.0 - float(s[0]))
    return MembershipResult(IN, margin, Path.DISC_DILATION, cert, detail)


def _vertex_sets(K: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and center of ``kmin_member``: a polytope's extreme
    points, in listed order, about the mean of its list, a box's corners
    about its middle, and a sampled body's ``Sampled._clipped`` vertices
    about their mean."""
    if isinstance(K, Polytope):
        verts, center = K._hull[1], K.vertices.mean(axis=0)
    elif isinstance(K, Box):
        verts, center = box_vertices(K), 0.5 * (K.lo + K.hi)
    elif isinstance(K, Sampled):
        verts = K._clipped
        center = verts.mean(axis=0)
    else:
        raise DimensionMismatch(f"unknown body type {type(K)!r}")
    return verts, center


def _bracket(
    solve: Callable[[float], Verdict], terms: Callable, tol: float, pull: float,
    accept: Callable[[Verdict], object], push: float | None = None,
) -> MembershipResult:
    """In / Out / Boundary / Unknown from the solves of one range query,
    on ``_range_solver``'s rhs line: f = 1 poses the query, f = ``pull``
    < 1 the relaxed set, and ``push`` > 1, if given, a harder point.

    1. Feasible at f = 1 is In: ``accept`` makes the certificate, the
       least eigenvalue of the blocks (``Verdict.min_eig``) the margin.
    2. An Infeasible separator, priced at ``pull`` by ``terms``, that
       clears ``10 _sdp_tol(tol)`` there is Out with no second solve; one
       that falls short is Out unless a solve at ``pull`` is Feasible,
       which makes it Boundary.
    3. Only after an Unknown, Feasible at ``push`` is In, margin ``10
       tol``: the query is a convex combination of the center and that
       point.  Then one solve at ``pull``: Infeasible is Out, Feasible
       Boundary, else Unknown.

    Every answer's path is ``Path.SDP``, every Boundary's margin ``10 tol``.
    """
    band, sdp = 10.0 * tol, Path.SDP
    verdict = solve(1.0)
    if verdict.status is Status.FEASIBLE:
        return MembershipResult(IN, max(verdict.min_eig, 0.0), sdp, accept(verdict))
    if (sep := verdict.separator) is not None:
        c0, c1 = terms(sep, pull)
        if c0 + c1 >= 10.0 * _sdp_tol(tol) or solve(pull).status is not Status.FEASIBLE:
            return MembershipResult(OUT, sep.margin, sdp, sep)
        detail = "outside at scale 1, inside at scale 1 + 10 tol"
        return MembershipResult(BOUNDARY, band, sdp, sep, detail)
    if push is not None and (pushed := solve(push)).status is Status.FEASIBLE:
        detail = "resolved by outward bracketing"
        return MembershipResult(IN, band, sdp, accept(pushed), detail)
    outer = solve(pull)
    if outer.status is Status.INFEASIBLE:
        sep, detail = outer.separator, "resolved on the relaxed set"
        return MembershipResult(OUT, sep.margin, sdp, sep, detail)
    if outer.status is Status.FEASIBLE:
        detail = "undecided at scale 1, inside the relaxed set"
        return MembershipResult(BOUNDARY, band, sdp, None, detail)
    return MembershipResult(UNKNOWN, 0.0, sdp, None, "neither certificate closes")


def kmin_member(
    K: ConvexBody,
    a: OperatorTuple,
    tol: float = MEMBER_TOL,
    max_iter: int = MAX_ITER,
) -> MembershipResult:
    """Does ``a`` admit a positive decomposition over points of K?

    A commuting tuple is decided by its joint spectrum
    (``_joint_spectrum``), any other pair over a disc by the norm of one
    matrix, with nothing compiled (``_disc_member``).  Otherwise the
    decomposition SDP is posed on a polytope's extreme points, a box's
    corners or the vertices a sampled body's facet list bounds (an
    unbounded, empty or flat one raises ``BadProblem``) (``_vertex_sets``),
    and ``_bracket`` decides; its relaxed set, the body dilated about its
    center c by ``1 + 10 tol``, is the rhs at ``c + (a - c) / s``.  Before
    anything is compiled, a point outside the relaxed body's maximal set
    is Out on the path ``Path.SUPPORT_SCAN``, from one support line of the
    body's facet normals (``_support_cut``).
    Raises ``ValueError`` unless ``tol`` is positive and finite and
    ``max_iter`` nonnegative.

    In answers carry the ``Decomposition`` ``h_j`` on its ``vertices``, Out
    answers the verified separating functional, priced on the query.
    """
    _require_tol(tol)
    _require_max_iter(max_iter)
    if not a.hermitian:
        raise NonHermitianInput("minimal-set membership needs a Hermitian tuple")
    if K.dim != a.d:
        raise DimensionMismatch(f"body dim {K.dim} != tuple length {a.d}")

    if (cert := _singleton_point(K)) is not None:
        eye = np.eye(a.n)
        dev = max(op_norm(m - lam * eye) for m, lam in zip(a.mats, cert.point))
        return MembershipResult(_statuses(dev, tol), dev, Path.SINGLETON, cert)

    if (cert := _joint_spectrum(a)) is not None:
        viol = point_gap(K, cert.joint_points)
        detail = "commuting tuple: decided through the joint spectrum"
        status = _statuses(viol, tol)
        return MembershipResult(status, abs(viol), Path.JOINT_SPECTRUM, cert, detail)

    if isinstance(K, Disc):
        return _disc_member(K, a, tol)

    verts, center = _vertex_sets(K)
    rows = _range_rows(verts[:, :, None, None], a, center)
    pull = 1.0 / (1.0 + 10.0 * tol)
    dirs = halfplanes(K)[0]
    h = (verts @ dirs.T).max(axis=0)
    if (sep := _support_cut(rows, a, center, dirs, h, pull, tol)) is not None:
        detail = "outside the relaxed body's maximal set"
        return MembershipResult(OUT, sep.margin, Path.SUPPORT_SCAN, sep, detail)
    solve, terms = _range_solver(rows, tol, max_iter)
    return _bracket(solve, terms, tol, pull, lambda v: Decomposition(v.blocks, verts))


# ---------------------------------------------------------------------------
# scaling constant
# ---------------------------------------------------------------------------


def theta_min_alpha(
    K: ConvexBody, a: OperatorTuple, tol: float = 1e-2
) -> ThetaEstimate:
    """The least ``alpha >= 1`` with ``a`` in (alpha K)^min, bracketed by
    certificates at both ends.

    Requires a positive finite ``tol`` (raises ``ValueError`` otherwise),
    ``a`` to be a maximal-set point of K (raises ``NotInKmax``
    otherwise) and 0 to be interior to K (raises ``NoInteriorZero``), so
    the scaled bodies ``alpha K`` are nested.  Scales the tuple, not the
    body: ``a`` is in (alpha K)^min exactly when ``a / alpha`` is in K^min.
    Over a disc of center c and radius r that is a closed form
    (``_disc_theta``): one ``trace`` entry, nothing compiled, and a bracket
    at most about ``1e-6 theta / (r - |c|)`` wide, whatever ``tol``.
    Otherwise the decomposition SDP of ``kmin_member`` is compiled once
    per body and level, and shared with ``kmin_member``
    (``_range_solver``), and each probe re-solves it, with only the
    right-hand side moved, for
    ``a / alpha`` in the relaxed body (the one a Boundary answer of
    ``kmin_member`` rests on).  The bracket starts at [1, hi] with no
    search: ``a / hi`` is in K^min by the decomposition in
    ``ThetaEstimate``'s docstring.  The first probe is alpha = 1.

    A Feasible probe sets the upper end.  An Infeasible one sets the
    lower end to the largest alpha its separator certifies: the pencil
    does not depend on the right-hand side, and its margin on ``a /
    alpha`` is ``c0 + c1 / alpha`` (``_range_solver``), so it shows
    ``a / alpha'`` outside the relaxed body's minimal set for every
    ``alpha' <= alpha*``.  That separator, re-priced at the new lower
    end, is kept as ``lower_separator``.  The next probe is at ``min(lo +
    tol / 2, (lo + hi) / 2)``, so a separator that certifies past theta
    closes the query with a Feasible probe and a bracket tol / 2 wide.
    An Infeasible probe at alpha > 1 whose separator lifted the lower end
    at least tol / 2 past ``max(alpha, lo)``, lo as it was before the
    probe (as far as a tight probe's does), stays put: the same alpha is solved again, and the
    Douglas-Rachford iteration goes on from where it stopped, its gap
    tending to the least displacement between the affine set and the
    cone, the strongest separator the probe has (Pazy 1971; Banjac,
    Goulart, Stellato and Boyd 2019).  Tight probes and these
    continuations spend one budget, plain bisection's step count; after
    it the probes bisect, so weak separators, and strong but slow ones,
    cost at most twice bisection's solves.  An Unknown probe moves
    neither end.  Past alpha = 1 it ends the search, so the bracket
    returned is the certified one, however wide; an Unknown opener at
    alpha = 1 is followed by the usual next probe, at 1 + tol / 2.

    The first probe iterates from zero and each later one from the
    iterate the last one stopped at (``_range_solver``).  A commuting
    tuple (``_joint_spectrum``) gets [1, 1] before anything is compiled: its
    joint numerical range is the hull of its joint spectrum, so K^max
    and K^min agree at it.  Values below 1 are reported as the
    degenerate bracket [1, 1].  The estimate's ``trace`` records the
    bracket after each solve.
    """
    _require_tol(tol)
    pre = kmax_member(K, a)
    if pre.status not in (IN, BOUNDARY):
        raise NotInKmax(
            f"tuple is not a maximal-set point of the body "
            f"(status {pre.status.value}, margin {pre.margin:.3e})"
        )
    slack = require_interior_zero(K)

    if _joint_spectrum(a) is not None:
        return ThetaEstimate(1.0, 1.0, a, None, ((1.0, 1.0),))
    floor = 10.0 * _sdp_tol(MEMBER_TOL)
    lo, lo_sep, trace = 1.0, None, []
    hi = max(2.0, 2.0 * a.d * max(op_norm(m) for m in a.mats) / slack)

    def lift(sep: Separator, priced: tuple[float, float], alpha: float) -> None:
        # lo to alpha*, where the margin c0 + c1 / alpha meets the floor
        # (at least alpha), rounded down so the separator, re-priced
        # there, clears it
        nonlocal lo, lo_sep
        c0, c1 = priced
        star = max(alpha, c1 / (floor - c0)) if c1 > 0.0 and c0 < floor else alpha
        if (cut := min(star * (1.0 - 1e-12), hi)) > lo:
            lo, lo_sep = cut, dataclasses.replace(sep, margin=c0 + c1 / cut)

    if isinstance(K, Disc):
        hi, *cut = _disc_theta(K, a, hi)
        lift(*cut, 1.0)
        trace.append((lo, hi))
    else:
        verts, center = _vertex_sets(K)
        solve, terms = _range_solver(
            _range_rows(verts[:, :, None, None], a, center), MEMBER_TOL, MAX_ITER
        )
        pull = 1.0 / (1.0 + 10.0 * MEMBER_TOL)
        # plain bisection's step count: after as many tight probes and
        # continuations, bisect
        tight = math.ceil(math.log2((hi - 1.0) / tol))
        alpha = 1.0
        while True:
            before = max(alpha, lo)
            verdict = solve(pull, alpha)
            if verdict.status is Status.FEASIBLE:
                hi = alpha
            elif verdict.status is Status.INFEASIBLE:
                lift(verdict.separator, terms(verdict.separator, pull), alpha)
            trace.append((lo, hi))
            if hi - lo <= tol or (verdict.status is Status.UNKNOWN and alpha > 1.0):
                break
            if tight > 0 and alpha > 1.0 and lo >= before + 0.5 * tol:
                # its separator reached tol / 2 further: go on iterating
                # at the same alpha, from where the solve stopped
                tight -= 1
                continue
            alpha = 0.5 * (lo + hi)
            if tight > 0:
                tight -= 1
                alpha = min(lo + 0.5 * tol, alpha)
    return ThetaEstimate(lo, hi, a.scaled(1.0 / hi), lo_sep, tuple(trace))


def _disc_theta(K: Disc, a: OperatorTuple, start: float) -> tuple:
    """theta's upper end over a disc of center c and radius r, and
    ``_disc_cut`` at ``a / alpha*`` (margin 0 there) for its lower end.
    ``a / alpha`` is in D^min when ``||T_a - alpha c|| <= alpha r`` (``T_a
    = a_1 + i a_2``), that is when ``alpha B - A`` is PSD for ``A = -[[0,
    T_a], [T_a*, 0]]`` and ``B = [[r, -c], [-conj c, r]] kron I``, positive
    definite as ``|c| < r``: theta is ``max(1, alpha*)``, ``alpha*`` the
    top generalized eigenvalue of ``(A, B)``.  The upper end, that raised
    by a relative 1e-12, is certified by ``_disc_member``'s dilation, or
    else is ``start``."""
    from scipy.linalg import eigh

    t, c = a.mats[0] + 1j * a.mats[1], complex(*K.center)
    off = np.kron([[0.0, 1.0], [0.0, 0.0]], t)
    metric = np.kron([[K.radius, -c], [-c.conjugate(), K.radius]], np.eye(a.n))
    alpha = float(eigh(-off - off.conj().T, metric, eigvals_only=True)[-1])
    hi = max(1.0, alpha * (1.0 + 1e-12))
    if _disc_member(K, a.scaled(1.0 / hi), MEMBER_TOL).status is not IN:
        hi = start
    w, _, vh = np.linalg.svd(_recentered(K, a.scaled(1.0 / alpha)))
    return hi, *_disc_cut(K, a, w, vh)


# ---------------------------------------------------------------------------
# matrix ranges through ucp maps
# ---------------------------------------------------------------------------


@functools.cache
def _scan_directions(d: int) -> np.ndarray | None:
    """ucp's scan directions, read-only: ``SCAN_DIRECTIONS`` equally
    spaced angles in the plane, +-1 on the line, and None (no scan) in
    d > 2, which no benchmark workload poses.  The ring is ``[half;
    -half]``: the first half of the angles (just 1 on the line), then
    those directions negated, so each pair is antipodal to the bit and
    ``_pencil_tops`` reads both tops of a pair from one spectrum."""
    if d > 2:
        return None
    half = np.ones((1, 1))
    if d == 2:
        angles = 2.0 * np.pi * np.arange(SCAN_DIRECTIONS // 2) / SCAN_DIRECTIONS
        half = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs = np.concatenate([half, -half])
    dirs.flags.writeable = False
    return dirs


def ucp_member(
    x: OperatorTuple,
    a: OperatorTuple,
    tol: float = MEMBER_TOL,
    max_iter: int = MAX_ITER,
) -> MembershipResult:
    """Is there a unital completely positive map sending ``x_j`` to ``a_j``?

    This is membership of ``a`` at level ``a.n`` in the matrix range of
    ``x``; the map is asked for on the full matrix algebra, which loses
    nothing since matrix states extend.  Hermiticity of the Choi
    variable makes the map a *-map, so ``x_j* -> a_j*`` comes for free.
    A ucp image has ``lambda_max(sum c_l a_l) <= lambda_max(sum c_l
    x_l)``, so, before the SDP is compiled, a point past that relaxed line
    along one of ``_scan_directions(d)`` is Out by a rank-one Choi pencil
    (``_support_cut``).  Otherwise ``_bracket`` decides from the SDP's
    solves on the line from the scalar tuple ``tr(x_j)/m`` (a member)
    through ``a``: pull ``1 - 10 tol``, push ``1 + 10 tol``, band ``10
    tol``.  An image equation with zero coefficient (a Hermitian ``x_j``,
    a non-Hermitian ``a_j``) reads ``0 = rhs``: Out past 10 tol by the SDP
    core's zero-row rule, Unknown above the witness residual, met below
    it; a row that is 0 = 0 at ``a`` and at the scalar tuple is not posed.
    Raises ``ValueError`` unless ``tol`` is positive and finite and
    ``max_iter`` nonnegative.
    """
    _require_tol(tol)
    _require_max_iter(max_iter)
    if x.d != a.d:
        raise TupleMismatch(f"tuple lengths differ: {x.d} vs {a.d}")
    center = np.trace(x.mats, axis1=1, axis2=2) / x.n
    rows = _range_rows(x.mats[None], a, center)
    eps = 10.0 * tol
    if (dirs := _scan_directions(x.d)) is not None:
        h = _pencil_tops(x.mats, dirs)
        if (sep := _support_cut(rows, a, center, dirs, h, 1.0 - eps, tol)):
            detail = "outside the relaxed maximal set of the range's first level"
            return MembershipResult(OUT, sep.margin, Path.SUPPORT_SCAN, sep, detail)
    solve, terms = _range_solver(rows, tol, max_iter)
    return _bracket(
        solve, terms, tol, 1.0 - eps, lambda v: ChoiWitness(v.blocks[0]), push=1.0 + eps
    )


def mrange_equal(
    x: OperatorTuple, y: OperatorTuple, tol: float = MEMBER_TOL
) -> tuple[bool, dict]:
    """Decide equality of the matrix ranges of two tuples.

    ``W(y)`` lies inside ``W(x)`` exactly when ``y`` is a ucp image of
    ``x`` (a ucp image of an image is an image), which is one
    ``ucp_member(x, y)`` solve at ``y``'s level; equality is the two
    inclusions.  Returns ``(equal, report)``, with the two statuses in
    the report as ``y_in_range_x`` and ``x_in_range_y``.  ``equal`` is
    True only when both are In, so it never rests on an unresolved
    solve: an Out refutes equality, and a Boundary or Unknown leaves it
    unproved (False as well; the report tells the cases apart).
    """
    if x.d != y.d:
        raise TupleMismatch(f"tuple lengths differ: {x.d} vs {y.d}")
    report = {
        "y_in_range_x": ucp_member(x, y, tol).status.value,
        "x_in_range_y": ucp_member(y, x, tol).status.value,
    }
    return all(s == "In" for s in report.values()), report


# ---------------------------------------------------------------------------
# extremality of free tuples
# ---------------------------------------------------------------------------


def _extreme(a: OperatorTuple, square, failed: str, held: str) -> tuple[bool, str]:
    """Is ``||square(a_j) - I|| <= EXTREME_DEV`` for every entry, and the
    commutant dimension 1?  With the reason: ``failed`` formats the first
    failing entry ``j`` and its ``dev``, ``held`` says what all entries do."""
    eye = np.eye(a.n)
    for j, m in enumerate(a.mats):
        dev = op_norm(square(m) - eye)
        if dev > EXTREME_DEV:
            return False, failed.format(j=j, dev=dev)
    dim = commutant_dimension(a)
    if dim != 1:
        return False, f"tuple is reducible: commutant dimension {dim}"
    return True, (
        f"all entries {held} and the tuple is irreducible "
        "(commutant dimension 1)"
    )


def is_matrix_extreme_free_symmetric(a: OperatorTuple) -> tuple[bool, str]:
    """Matrix extremality test for tuples of selfadjoint contractions.

    A Hermitian tuple is accepted exactly when every entry is a symmetry
    (``a_j^2 = I`` within 1e-8) and the tuple is irreducible (commutant
    dimension 1).
    """
    if not a.hermitian:
        raise NonHermitianInput("extremality test needs a Hermitian tuple")
    return _extreme(
        a, lambda m: m @ m, "entry {j} is not a symmetry: ||a_j^2 - I|| = {dev:.2e}",
        "square to the identity",
    )


def is_matrix_extreme_free_unitary(a: OperatorTuple) -> tuple[bool, str]:
    """Matrix extremality test for tuples of unitaries (isometry + irreducible)."""
    return _extreme(
        a, lambda m: m.conj().T @ m,
        "entry {j} is not unitary: ||a_j* a_j - I|| = {dev:.2e}", "are unitary",
    )


# ---------------------------------------------------------------------------
# square <-> disc transform
# ---------------------------------------------------------------------------


def choi_li_transform(y, normalization: complex | None = None) -> np.ndarray:
    """Anti-diagonal 2n x 2n block matrix tying square membership to the disc.

    With ``S = y* + y`` and ``T = i(y* - y)`` (twice the Hermitian and
    skew parts of ``y``), returns::

        normalization * [[0, S + T], [S - T, 0]]

    The default normalization is the calibrated constant 1/2, under which

        (Re y, Im y) lies in square^min
            <=>  numerical_radius(choi_li_transform(y)) <= 1

    holds: for scalars the radius is ``max(|Re y|, |Im y|)`` on the nose,
    and square corners land exactly on radius 1.  A tempting alternative
    constant 1/(1+i) fails that corner check (the corner 1+i maps to
    radius sqrt(2)); ``calibrate_choi_li`` measures and records the
    discrepancy rather than trusting either constant.
    """
    a = as_matrix(y)
    if normalization is None:
        normalization = CL_CALIBRATED_CONSTANT
    n = a.shape[0]
    s = a.conj().T + a
    t = 1j * (a.conj().T - a)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = normalization * (s + t)
    out[n:, :n] = normalization * (s - t)
    return out


def _transform_radius(y, tol: float, normalization: complex = CL_CALIBRATED_CONSTANT):
    """Bracket ``w(choi_li_transform(y, N))`` to ``tol`` unbuilt: it is ``2 N
    [[0, P], [Q, 0]]``, ``P, Q = Re y +- Im y``, so ``w = |N| max_psi ||P +
    e^{i psi} Q||``, the root of an n x n ``circle_support`` of ``P^2 + Q^2
    + Re(e^{i psi} 2 P Q)``, which ``2 tol sqrt(tr(P^2 + Q^2) / n) / |N|``
    keeps within ``tol``."""
    a = as_matrix(y)
    p, q = herm_part(a) + skew_part(a), herm_part(a) - skew_part(a)
    y0 = p @ p + q @ q
    scale = abs(normalization)
    ftol = 2.0 * tol / scale * math.sqrt(np.trace(y0).real / len(a))
    lower, upper, _ = circle_support(y0, 2.0 * p @ q, ftol)
    return scale * math.sqrt(lower), scale * math.sqrt(upper)


def calibrate_choi_li() -> dict:
    """Fix the transform normalization from the scalar corner check.

    The corner ``y = 1 + i`` of the square is a scalar point of the
    square, so its transform must have numerical radius exactly 1.  The
    radius is homogeneous in the constant's modulus, so one measurement
    at normalization 1 determines the calibrated value; each radius is
    bracketed to 1e-9.  The report also
    records the radius produced by the reference constant 1/(1+i), which
    misses the corner target.
    """
    def radius(constant: complex) -> float:
        return _transform_radius(np.array([[1.0 + 1.0j]]), 1e-9, constant)[0]

    calibrated = 1.0 / radius(1.0)
    return {
        "corner": 1.0 + 1.0j,
        "calibrated_constant": calibrated,
        "calibrated_corner_radius": radius(calibrated),
        "reference_constant": CL_REFERENCE_CONSTANT,
        "reference_corner_radius": radius(CL_REFERENCE_CONSTANT),
    }


@functools.cache
def _calibration() -> tuple:
    """``calibrate_choi_li()``, once per process, frozen as items so that
    no caller can change the shared record."""
    return tuple(calibrate_choi_li().items())


def choi_li_equiv_check(y, tol: float = 1e-6) -> dict:
    """Cross-check square^min membership against the transform's radius.

    Computes both sides independently: the decomposition SDP for
    ``(Re y, Im y)`` over the square ``[-1, 1]^2``, and the numerical
    radius of the calibrated transform against 1, by the disc rule of
    ``kmax_member`` (``_radius_member``), from ``_transform_radius``.
    ``consistent`` is True when the two statuses agree; Boundary or
    Unknown on either side excludes the probe from the comparison
    (``excluded`` is then True).
    """
    a = np.asarray(y, dtype=complex)
    tup = OperatorTuple((herm_part(a), skew_part(a)), hermitian=True)
    square_min = kmin_member(SQUARE, tup, tol=tol)
    disc_max = _radius_member(lambda k: _transform_radius(a, k), 1.0, tol)
    excluded = not {square_min.status, disc_max.status} <= {IN, OUT}
    consistent = excluded or square_min.status is disc_max.status
    return {
        "square_min": square_min,
        "disc_max": disc_max,
        "radius": disc_max.certificate.radius,
        "consistent": consistent,
        "excluded": excluded,
        "calibration": dict(_calibration()),
    }
