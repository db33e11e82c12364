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
    as_matrix,
    commutant_dimension,
    herm_eigvalsh,
    herm_part,
    numerical_radius,
    op_norm,
    pencil_stack,
    simdiag_hermitian,
    skew_part,
)
from .sdp import (
    AffineConstraint,
    SdpFeasibility,
    Separator,
    Status,
    Verdict,
    _compile,
    _Compiled,
    _row_norms,
    _separator,
)

#: default membership tolerance; ``_bracket``'s Boundary band is 10x
#: this, except for a disc (its circumscribed polygon, ``_vertex_sets``)
MEMBER_TOL = 1e-7

#: circle discretization for minimal-set membership over a disc
DISC_GRID = 96

#: iteration budget of each decomposition or Choi SDP solve
MAX_ITER = 50000

#: vertex-set operators kept compiled per process (``_vertex_operator``),
#: the least recently used dropped first
CACHED_OPERATORS = 16

#: directions of ucp's support scan in the plane
SCAN_DIRECTIONS = 64

#: copies of the Choi variable a range solve holds at once: the
#: Douglas-Rachford iterate, its two projections, the reflection, their
#: gap and the cone step's temporaries
_CHOI_COPIES = 8

#: deviation allowed when testing a_j^2 = I or a_j* a_j = I
EXTREME_DEV = 1e-8

#: commutator size, relative to the product of its entries' sizes less
#: their scalar parts, below which ``_joint_spectrum`` diagonalizes a tuple
COMMUTING_TOL = 1e-10

#: a normalization constant sometimes quoted for the square-to-disc
#: transform; it fails the scalar corner check and is kept only so the
#: calibration report can show the discrepancy
CL_REFERENCE_CONSTANT = 1.0 / (1.0 + 1.0j)

#: the calibrated transform normalization (see ``calibrate_choi_li``)
CL_CALIBRATED_CONSTANT = 0.5

#: the square [-1, 1]^2 of ``choi_li_equiv_check``, built once, so that
#: its one Qhull run serves every query
SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))


class MembershipStatus(enum.Enum):
    IN = "In"
    OUT = "Out"
    BOUNDARY = "Boundary"
    UNKNOWN = "Unknown"


@dataclasses.dataclass(frozen=True)
class MembershipResult:
    """Answer to a membership query.

    ``margin`` measures the strength of the certificate, not a Euclidean
    distance: for In it is the witness slack (smallest eigenvalue of the
    verified decomposition, or the support-inequality slack), for Out the
    verified separation, for Boundary the bracketing half-width.
    """

    status: MembershipStatus
    margin: float
    certificate: object = None
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class ThetaEstimate:
    """Certified bracket for the minimal alpha with ``a`` in (alpha K)^min.

    ``witness_point`` is ``a`` rescaled by ``1/upper``.  It is certified
    in the minimal set of K's relaxed body (the circumscribed polygon of
    a disc, the vertices scaled by ``1 + 10 MEMBER_TOL`` otherwise), just
    as a Boundary answer of ``kmin_member`` is: by the Feasible step that
    set ``upper``, or, when no step did, by the start's decomposition.

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
    ``margin`` clears 10 tol there.  Its ``dual`` is posed over
    ``_range_sdp`` of the relaxed body's vertices at the rhs of ``a /
    lower`` there, ``c + (a / lower - c) / s`` for its center c and
    relaxed scale s (the problem at that point), so it shows ``a / lower``
    outside the relaxed body's minimal set, and with it every ``a /
    alpha`` for alpha below.  It is None when ``lower`` is the starting
    1.0: for every commuting tuple, and when the first probe is Feasible
    or Unknown.
    """

    lower: float
    upper: float
    witness_point: OperatorTuple
    lower_separator: Separator | None = None


def _require_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"needs a positive finite tol, not {tol}")


def _sdp_tol(tol: float) -> float:
    """The tol of a query's SDP solves: the query's, at most 1e-7.  A
    separator of such a solve clears the margin ``10 _sdp_tol(tol)``."""
    return min(tol, 1e-7)


def _statuses(violation: float, tol: float) -> MembershipStatus:
    """In / Out / Boundary from a signed support violation."""
    if violation <= tol:
        return MembershipStatus.IN
    if violation > 10.0 * tol:
        return MembershipStatus.OUT
    return MembershipStatus.BOUNDARY


# ---------------------------------------------------------------------------
# maximal set: support inequalities
# ---------------------------------------------------------------------------


def _support_gaps(
    dirs: np.ndarray, offsets: np.ndarray, a: OperatorTuple
) -> tuple[float, int, dict]:
    """Worst violation of ``lambda_max(sum c_j a_j) <= offset`` over the
    rows c of ``dirs``, from one ``eigvalsh`` over their ``pencil_stack``,
    the row it is at, and a trace."""
    gaps = np.linalg.eigvalsh(pencil_stack(a.mats, dirs))[:, -1] - offsets
    k = int(np.argmax(gaps))
    return float(gaps[k]), k, {"direction": dirs[k], "gaps": gaps}


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
        eye = np.eye(a.n)
        m = (a.mats[0] - K.center[0] * eye) + 1j * (a.mats[1] - K.center[1] * eye)
        return _radius_member(m, K.radius, tol)
    viol, _, cert = _support_gaps(*halfplanes(K), a)
    return MembershipResult(_statuses(viol, tol), abs(viol), cert)


def _radius_member(m: np.ndarray, radius: float, tol: float) -> MembershipResult:
    """The disc rule of ``kmax_member`` and ``choi_li_equiv_check``: the
    numerical radius of ``m`` against ``radius``, with the statuses of a
    support gap."""
    w = numerical_radius(m, tol=min(tol * 1e-2, 1e-9))
    return MembershipResult(_statuses(w - radius, tol), abs(w - radius), {"radius": w})


# ---------------------------------------------------------------------------
# the range problem: one Choi SDP for kmin, theta and ucp
# ---------------------------------------------------------------------------


def _range_rows(
    xs: np.ndarray, a: OperatorTuple, center: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tuple rows of the Choi SDP of a unital completely positive map
    from the direct sum of the summands ``xs`` onto ``a``.

    ``xs`` is a (count, d, k, k) stack: summand i is the tuple ``xs[i]``
    and gets one PSD block ``C_i`` of size k n, the Choi matrix of the
    map on it (a k x k grid of n x n blocks).  The rows are unitality
    ``sum_i sum_p (C_i)_pp = I`` (pattern ``I_k``), then the Hermitian
    parts of the image equations ``sum_i sum_pq (xs[i, j])_pq (C_i)_pq =
    a_j``, then their skew parts: patterns ``herm(conj x_j)`` and
    ``skew(conj x_j)``, rhs ``herm(a_j)`` and ``-skew(a_j)`` at ``a``
    and ``Re(center_j) I`` and ``-Im(center_j) I`` at the scalar tuple
    ``c``.  A row that reads 0 = 0 at both ends, and so along the whole
    line from c to a, is not posed.  Returns the posed tuple rows'
    (r, count, k, k) patterns and (r, n, n) rhs stacks at ``a`` and at
    ``c``, and which of the unit row and the 2 d tuple rows are posed.
    Raises ``TooLarge`` first when the Choi variable exceeds the memory
    budget.

    ``ucp_member`` passes ``x`` as one summand.  ``kmin_member`` passes
    the vertices as 1 x 1 summands, ``verts[:, :, None, None]``, since
    ``W(diag V)`` is the minimal set over ``conv V``: one block ``h_j``
    per vertex and, for a Hermitian tuple, the d + 1 equations ``sum_j
    h_j = I`` and ``sum_j verts[j, l] h_j = a_l``.
    """
    count, _, k, _ = xs.shape
    _require_bytes(
        _CHOI_COPIES * 16 * count * (k * a.n) ** 2, "the Choi variable"
    )
    conj, mats = np.conj(xs.swapaxes(0, 1)), np.array(a.mats)
    # the Hermitian parts of the d image equations, then their skew parts
    patterns = np.concatenate([herm_part(conj), skew_part(conj)])
    at_a = np.concatenate([herm_part(mats), -skew_part(mats)])
    at_c = np.concatenate([center.real, -center.imag])[:, None, None] * np.eye(a.n)
    posed = patterns.any(axis=(1, 2, 3)) | at_a.any(axis=(1, 2)) | at_c.any(axis=(1, 2))
    return patterns[posed], at_a[posed], at_c[posed], np.concatenate([[True], posed])


def _range_sdp(patterns: np.ndarray, at_a: np.ndarray) -> SdpFeasibility:
    """The Choi SDP of ``_range_rows``' posed rows, at ``a``."""
    _, count, k, _ = patterns.shape
    n = at_a.shape[-1]
    unit = AffineConstraint(np.repeat(np.eye(k)[None], count, axis=0), np.eye(n))
    rows = map(AffineConstraint, patterns, at_a)
    return SdpFeasibility(count * k * n, (unit, *rows), block_sizes=(k * n,) * count)


@functools.lru_cache(maxsize=CACHED_OPERATORS)
def _vertex_operator(patterns: bytes, shape: tuple[int, ...], n: int) -> _Compiled:
    """The compiled, read-only operator of a vertex set's posed pattern
    stack (``patterns`` as bytes of complex entries, of ``shape``) at
    level ``n``.  Only these decide the operator; the query's point is
    only its rhs, which every solve re-poses, so it is compiled at a
    zero rhs."""
    stack = np.frombuffer(patterns, complex).reshape(shape)
    comp = _compile(_range_sdp(stack, np.zeros((shape[0], n, n))))
    comp.freeze()
    return comp


def _range_solver(
    rows: tuple, tol: float, max_iter: int
) -> tuple[Callable[..., Verdict], Callable[..., tuple[float, float]]]:
    """Compile ``_range_sdp`` of ``_range_rows``' output ``rows``, and
    move along its rhs line.

    A vertex set's operator (1 x 1 summands: kmin, theta, and ucp over a
    scalar tuple) comes from ``_vertex_operator``, and each query solves
    on a ``cold`` copy of it, so no query's answer depends on the queries
    before it; the Choi operator of a matrix tuple (ucp) is compiled on
    every call.

    Returns ``solve(f, alpha=1)``, which poses the unit row as I and the
    tuple rows at the point ``c + f (a / alpha - c)``, ``(f / alpha)
    at_a + (1 - f) at_c``; and ``terms(sep, f)``, the ``(c0, c1)`` with
    ``c0 + c1 / alpha`` the margin of ``sep`` on the rhs of ``solve(f,
    alpha)``: the pencil does not depend on the rhs, so only this
    pairing moves with alpha.
    """
    patterns, at_a, at_c, _ = rows
    unit = np.eye(at_a.shape[-1])[None]
    if patterns.shape[2] == 1:
        comp = _vertex_operator(patterns.tobytes(), patterns.shape, len(unit[0])).cold()
    else:
        comp = _compile(_range_sdp(patterns, at_a))

    def solve(f: float, alpha: float = 1.0) -> Verdict:
        # at f = alpha = 1 this is the rhs at a to the last bit
        rows = (f / alpha) * at_a + (1.0 - f) * at_c
        return comp.with_rhs(np.concatenate([unit, rows])).solve(_sdp_tol(tol), max_iter)

    def terms(sep: Separator, f: float) -> tuple[float, float]:
        y = sep.dual

        def pairing(rows: np.ndarray) -> float:
            return float(np.einsum("rij,rji->", rows, y[1:]).real)

        c0 = float(np.einsum("ii->", y[0]).real) + (1.0 - f) * pairing(at_c)
        return c0, f * pairing(at_a)

    return solve, terms


def _support_cut(
    rows: tuple, a: OperatorTuple, center: np.ndarray, dirs: np.ndarray,
    h: np.ndarray, pull: float, tol: float, exact: bool,
) -> Separator | None:
    """The separator of ``a`` from the relaxed set along the row c of
    ``dirs`` whose support line ``_support_gaps`` finds it furthest past,
    with nothing compiled; None if there is none or ``rows`` (``_range_rows``'
    output) pose a skew row.  ``h`` holds the posed set's support values,
    ``along + (h - along) / pull``, ``along = <c, center>``, the relaxed
    set's.  With u a top eigenvector of ``sum_l c_l a_l``, the dual ``(-h,
    c) kron uu*`` has the pencil ``(sum_l c_l conj(x_il) - h I) kron uu*`` on
    summand i; scaled to the rows ``sdp._row_norms`` normalizes, it is
    priced by ``sdp._separator`` at ``pull``, its margin kept at f = 1 if
    ``exact``."""
    patterns, _, _, posed = rows
    if posed[1 + a.d:].any():
        return None
    along = dirs @ center.real
    gap, j, _ = _support_gaps(dirs, along + (h - along) / pull, a)
    if gap <= 0.0:
        return None
    count, k = patterns.shape[1:3]
    stack = np.concatenate([np.broadcast_to(np.eye(k), (1, count, k, k)), patterns])
    norms, zero = _row_norms([stack])
    w = np.concatenate([[-h[j]], dirs[j][posed[1:1 + a.d]]])
    scale = 1.0 / np.linalg.norm(w * norms)
    pencil = scale * np.einsum("r,rcpq->cpq", np.where(zero, 0.0, w), stack)
    vals, vecs = np.linalg.eigh(pencil_stack(a.mats, dirs[j][None]))
    u = vecs[0, :, -1]
    # the dual's pairing with the rhs at f = pull, and at the f reported
    f = np.array([pull, 1.0 if exact else pull])
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


def _joint_spectrum(a: OperatorTuple) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(u, values)`` of ``simdiag_hermitian`` (``u = I`` for a
    diagonal tuple) when every commutator is within ``COMMUTING_TOL``
    times the product of its entries' sizes, less their scalar parts,
    which no commutator sees; None otherwise, or when the joint
    eigenbasis refuses the tuple (a near degenerate spectrum)."""
    mats, eye = a.mats, np.eye(a.n)
    sizes = [float(np.abs(m - np.trace(m) / a.n * eye).max()) for m in mats]
    for j in range(a.d):
        for k in range(j + 1, a.d):
            comm = mats[j] @ mats[k] - mats[k] @ mats[j]
            if float(np.abs(comm).max()) > COMMUTING_TOL * sizes[j] * sizes[k]:
                return None
    if not (stack := np.array(mats))[:, eye == 0].any():
        return eye.astype(complex), np.diagonal(stack, axis1=1, axis2=2).real.T.copy()
    try:
        return simdiag_hermitian(a.mats, tol=1e-9)
    except NotCommuting:
        return None


def _singleton_point(K: ConvexBody) -> np.ndarray | None:
    if isinstance(K, Polytope) and (K.vertices == K.vertices[0]).all():
        return K.vertices[0].copy()
    if isinstance(K, Box) and (K.lo == K.hi).all():
        return K.lo.copy()
    if isinstance(K, Disc) and K.radius == 0.0:
        return K.center.copy()
    return None


def _vertex_sets(
    K: ConvexBody, tol: float, m_grid: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """The vertices, center and relaxed scale of ``kmin_member``.

    A disc gives its inscribed ``m_grid``-gon, whose dilation by
    ``1 / cos(pi / m_grid)`` is the circumscribed one.  A polytope gives
    its extreme points (``extreme_points`` at tol 0), in listed order,
    about the mean of its list, a box its corners about its middle,
    and a sampled body, in any dimension, the vertices its facet list
    (``halfplanes``) bounds about their mean (``Sampled._clipped``);
    each with the relaxed scale ``1 + 10 tol``.
    """
    if isinstance(K, Disc):
        angles = 2.0 * np.pi * np.arange(m_grid) / m_grid
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        return K.center + K.radius * ring, K.center, 1.0 / np.cos(np.pi / m_grid)
    if isinstance(K, Polytope):
        verts, center = K._hull[1], K.vertices.mean(axis=0)
    elif isinstance(K, Box):
        verts, center = box_vertices(K), 0.5 * (K.lo + K.hi)
    elif isinstance(K, Sampled):
        verts = K._clipped
        center = verts.mean(axis=0)
    else:
        raise DimensionMismatch(f"unknown body type {type(K)!r}")
    return verts, center, 1.0 + 10.0 * tol


def _bracket(
    solve: Callable[[float], Verdict], terms: Callable, tol: float, pull: float,
    band: float, exact: bool, accept: Callable[[Verdict], object],
    push: float | None = None,
) -> MembershipResult:
    """In / Out / Boundary / Unknown from the solves of one range query,
    on ``_range_solver``'s rhs line: f = 1 poses the query (its own set
    when ``exact``; a disc's is its inscribed polygon), f = ``pull`` < 1
    the relaxed set, and ``push`` > 1, if given, a harder point.

    1. Feasible at f = 1 is In: ``accept`` makes the certificate, the
       least eigenvalue of the blocks is the margin.
    2. An Infeasible separator, priced at ``pull`` by ``terms``, that
       clears ``10 _sdp_tol(tol)`` there is Out with no second solve: with
       its own margin if ``exact``, else with the margin at ``pull``.
    3. Only after an Unknown, Feasible at ``push`` is In, margin ``band``:
       the query is a convex combination of the center and that point.
    4. One solve at ``pull``.  If ``exact`` and step 2's separator fell
       short, Feasible is Boundary carrying it, else Out with it.
       Otherwise Infeasible is Out, Feasible Boundary, else Unknown.

    Every Boundary has the margin ``band``.
    """
    verdict = solve(1.0)
    if verdict.status is Status.FEASIBLE:
        slack = float(herm_eigvalsh(np.stack(verdict.blocks))[:, 0].min())
        return MembershipResult(MembershipStatus.IN, max(slack, 0.0), accept(verdict))
    sep = verdict.separator if verdict.status is Status.INFEASIBLE else None
    if sep is not None:
        c0, c1 = terms(sep, pull)
        if c0 + c1 >= 10.0 * _sdp_tol(tol):
            sep = sep if exact else dataclasses.replace(sep, margin=c0 + c1)
            return MembershipResult(MembershipStatus.OUT, sep.margin, sep)
    elif push is not None and (pushed := solve(push)).status is Status.FEASIBLE:
        detail = "resolved by outward bracketing"
        return MembershipResult(MembershipStatus.IN, band, accept(pushed), detail)
    outer = solve(pull)
    if exact and sep is not None:
        if outer.status is Status.FEASIBLE:
            detail = "outside at scale 1, inside at scale 1 + 10 tol"
            return MembershipResult(MembershipStatus.BOUNDARY, band, sep, detail)
        return MembershipResult(MembershipStatus.OUT, sep.margin, sep)
    if outer.status is Status.INFEASIBLE:
        sep, detail = outer.separator, "resolved on the relaxed set"
        return MembershipResult(MembershipStatus.OUT, sep.margin, sep, detail)
    if outer.status is Status.FEASIBLE:
        detail = "undecided at scale 1, inside the relaxed set"
        return MembershipResult(MembershipStatus.BOUNDARY, band, None, detail)
    detail = "neither certificate closes"
    return MembershipResult(MembershipStatus.UNKNOWN, 0.0, None, detail)


def kmin_member(
    K: ConvexBody,
    a: OperatorTuple,
    tol: float = MEMBER_TOL,
    m_grid: int = DISC_GRID,
    max_iter: int = MAX_ITER,
) -> MembershipResult:
    """Does ``a`` admit a positive decomposition over points of K?

    The decomposition SDP is posed on a polytope's extreme points, a
    box's corners, the vertices a sampled body's facet list bounds (an
    unbounded, empty or flat one raises ``BadProblem``) or a disc's
    inscribed ``m_grid``-gon (``_vertex_sets``), and ``_bracket``
    decides; its relaxed set, the body dilated about its center c by
    ``1 + 10 tol`` or to a disc's circumscribed polygon, is the rhs at
    ``c + (a - c) / s``.  Before anything is compiled, a point outside the
    relaxed body's maximal set is Out, with the detail "outside the
    relaxed body's maximal set", from one support line of the posed set's
    facet normals (``_support_cut``), and a commuting tuple is decided by
    its joint spectrum (``_joint_spectrum``).  Raises ``ValueError`` unless
    ``tol`` is positive and finite, and ``DimensionMismatch`` for a disc
    with ``m_grid`` below 3.

    In answers carry the decomposition ``h_j``; Out answers the verified
    separating functional over the posed vertices, priced on the query,
    or for a disc on its point rescaled to the circumscribed polygon.
    """
    _require_tol(tol)
    if not a.hermitian:
        raise NonHermitianInput("minimal-set membership needs a Hermitian tuple")
    if K.dim != a.d:
        raise DimensionMismatch(f"body dim {K.dim} != tuple length {a.d}")
    if isinstance(K, Disc) and m_grid < 3:
        raise DimensionMismatch(f"a disc's polygon needs m_grid >= 3, not {m_grid}")

    if (point := _singleton_point(K)) is not None:
        eye = np.eye(a.n)
        dev = max(op_norm(m - lam * eye) for m, lam in zip(a.mats, point))
        return MembershipResult(_statuses(dev, tol), dev, {"point": point})

    if (spectrum := _joint_spectrum(a)) is not None:
        u, values = spectrum
        viol = point_gap(K, values)
        detail = "commuting tuple: decided through the joint spectrum"
        cert = {"joint_points": values, "unitary": u}
        return MembershipResult(_statuses(viol, tol), abs(viol), cert, detail)

    verts, center, relax = _vertex_sets(K, tol, m_grid)
    rows = _range_rows(verts[:, :, None, None], a, center)
    pull = 1.0 / relax
    # f = 1 poses K itself, except for a disc: its inscribed polygon
    exact = not isinstance(K, Disc)
    # the posed set's facet normals: for a disc, its polygon's edge normals
    angles = np.pi * (2.0 * np.arange(len(verts)) + 1.0) / len(verts)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs = halfplanes(K)[0] if exact else ring
    h = (verts @ dirs.T).max(axis=0)
    if (sep := _support_cut(rows, a, center, dirs, h, pull, tol, exact)) is not None:
        detail = "outside the relaxed body's maximal set"
        return MembershipResult(MembershipStatus.OUT, sep.margin, sep, detail)
    solve, terms = _range_solver(rows, tol, max_iter)
    band = 10.0 * tol if exact else K.radius * (relax - 1.0)
    return _bracket(
        solve, terms, tol, pull, band, exact,
        lambda v: {"h": v.blocks, "vertices": verts},
    )


# ---------------------------------------------------------------------------
# scaling constant
# ---------------------------------------------------------------------------


def theta_min_alpha(
    K: ConvexBody,
    a: OperatorTuple,
    tol: float = 1e-2,
    trace: list | None = None,
) -> ThetaEstimate:
    """The least ``alpha >= 1`` with ``a`` in (alpha K)^min, bracketed by
    certificates at both ends.

    Requires a positive finite ``tol`` (raises ``ValueError`` otherwise),
    ``a`` to be a maximal-set point of K (raises ``NotInKmax``
    otherwise) and 0 to be interior to K (raises ``NoInteriorZero``), so
    the scaled bodies ``alpha K`` are nested.  Scales the tuple, not the
    body: ``a`` is in (alpha K)^min exactly when ``a / alpha`` is in K^min.
    So the decomposition SDP of ``kmin_member`` is compiled once per body
    and level, and shared with ``kmin_member`` (``_range_solver``), and
    each probe re-solves it, with only the right-hand side moved, for
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
    closes the query with a Feasible probe and a bracket tol / 2 wide;
    after as many such tight probes as plain bisection takes steps, the
    probes bisect.  An Unknown probe moves neither end and ends the
    search, so the bracket returned is the certified one, however wide.

    The probes share one warm slot, which starts empty, so each probe
    iterates from where the last one stopped.  A commuting tuple
    (``_joint_spectrum``) gets [1, 1] before anything is compiled: its
    joint numerical range is the hull of its joint spectrum, so K^max
    and K^min agree at it.  Values below 1 are reported as the
    degenerate bracket [1, 1].  Pass a list as ``trace`` to collect the
    (lower, upper) bracket, as floats, after each probe.
    """
    _require_tol(tol)
    pre = kmax_member(K, a)
    if pre.status not in (MembershipStatus.IN, MembershipStatus.BOUNDARY):
        raise NotInKmax(
            f"tuple is not a maximal-set point of the body "
            f"(status {pre.status.value}, margin {pre.margin:.3e})"
        )
    slack = require_interior_zero(K)

    def record(lo: float, hi: float) -> None:
        if trace is not None:
            trace.append((lo, hi))

    if _joint_spectrum(a) is not None:
        record(1.0, 1.0)
        return ThetaEstimate(1.0, 1.0, a)
    verts, center, relax = _vertex_sets(K, MEMBER_TOL, DISC_GRID)
    solve, terms = _range_solver(
        _range_rows(verts[:, :, None, None], a, center), MEMBER_TOL, MAX_ITER
    )
    pull = 1.0 / relax
    floor = 10.0 * _sdp_tol(MEMBER_TOL)
    lo, lo_sep, lo_terms = 1.0, None, (0.0, 0.0)
    hi = max(2.0, 2.0 * a.d * max(op_norm(m) for m in a.mats) / slack)
    # plain bisection's step count: after as many tight probes, bisect
    tight = math.ceil(math.log2((hi - 1.0) / tol))
    alpha = 1.0
    while True:
        verdict = solve(pull, alpha)
        if verdict.status is Status.FEASIBLE:
            hi = alpha
        elif verdict.status is Status.INFEASIBLE:
            c0, c1 = priced = terms(verdict.separator, pull)
            # alpha*, where the margin c0 + c1 / alpha meets the floor; at
            # least the probe, which the separator certifies
            star = alpha
            if c1 > 0.0 and c0 < floor:
                star = max(star, c1 / (floor - c0))
            # rounded down, so the stored separator clears the floor there
            cut = min(star * (1.0 - 1e-12), hi)
            if cut > lo:
                lo, lo_sep, lo_terms = cut, verdict.separator, priced
        record(lo, hi)
        if verdict.status is Status.UNKNOWN or hi - lo <= tol:
            break
        alpha = 0.5 * (lo + hi)
        if tight > 0:
            tight -= 1
            alpha = min(lo + 0.5 * tol, alpha)
    if lo_sep is not None:
        c0, c1 = lo_terms
        lo_sep = dataclasses.replace(lo_sep, margin=c0 + c1 / lo)
    return ThetaEstimate(lo, hi, a.scaled(1.0 / hi), lo_sep)


# ---------------------------------------------------------------------------
# matrix ranges through ucp maps
# ---------------------------------------------------------------------------


@functools.cache
def _scan_directions(d: int) -> np.ndarray | None:
    """ucp's scan directions, read-only: ``SCAN_DIRECTIONS`` equally
    spaced angles in the plane, +-1 on the line, and None (no scan) in
    d > 2, which no benchmark workload poses."""
    if d > 2:
        return None
    angles = 2.0 * np.pi * np.arange(SCAN_DIRECTIONS) / SCAN_DIRECTIONS
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs = ring if d == 2 else np.array([[1.0], [-1.0]])
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
    Raises ``ValueError`` unless ``tol`` is positive and finite.
    """
    _require_tol(tol)
    if x.d != a.d:
        raise TupleMismatch(f"tuple lengths differ: {x.d} vs {a.d}")
    center = np.array([np.trace(xj) / x.n for xj in x.mats])
    rows = _range_rows(np.array(x.mats)[None], a, center)
    eps = 10.0 * tol
    if (dirs := _scan_directions(x.d)) is not None:
        h = np.linalg.eigvalsh(pencil_stack(x.mats, dirs))[:, -1]
        if (sep := _support_cut(rows, a, center, dirs, h, 1.0 - eps, tol, True)):
            detail = "outside the relaxed maximal set of the range's first level"
            return MembershipResult(MembershipStatus.OUT, sep.margin, sep, detail)
    solve, terms = _range_solver(rows, tol, max_iter)
    return _bracket(
        solve, terms, tol, 1.0 - eps, eps, True,
        lambda v: {"choi": v.blocks[0]}, push=1.0 + eps,
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


def calibrate_choi_li(tol: float = 1e-9) -> dict:
    """Fix the transform normalization from the scalar corner check.

    The corner ``y = 1 + i`` of the square is a scalar point of the
    square, so its transform must have numerical radius exactly 1.  The
    radius is homogeneous in the constant's modulus, so one measurement
    at normalization 1 determines the calibrated value.  The report also
    records the radius produced by the reference constant 1/(1+i), which
    misses the corner target.
    """
    def radius(constant: complex) -> float:
        corner = np.array([[1.0 + 1.0j]])
        return numerical_radius(choi_li_transform(corner, constant), tol=tol)

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
    """``calibrate_choi_li()`` at its default tolerance, once per process,
    frozen as items so that no caller can change the shared record."""
    return tuple(calibrate_choi_li().items())


def choi_li_equiv_check(y, tol: float = 1e-6) -> dict:
    """Cross-check square^min membership against the transform's radius.

    Computes both sides independently: the decomposition SDP for
    ``(Re y, Im y)`` over the square ``[-1, 1]^2``, and the numerical
    radius of the calibrated transform against 1, by the disc rule of
    ``kmax_member`` (``_radius_member``).  ``consistent`` is True when
    the two statuses agree; Boundary or Unknown on either side excludes
    the probe from the comparison (``excluded`` is then True).
    """
    a = np.asarray(y, dtype=complex)
    tup = OperatorTuple((herm_part(a), skew_part(a)), hermitian=True)
    square_min = kmin_member(SQUARE, tup, tol=tol)
    disc_max = _radius_member(choi_li_transform(a), 1.0, tol)
    decisive = {MembershipStatus.IN, MembershipStatus.OUT}
    excluded = not {square_min.status, disc_max.status} <= decisive
    consistent = excluded or square_min.status is disc_max.status
    return {
        "square_min": square_min,
        "disc_max": disc_max,
        "radius": disc_max.certificate["radius"],
        "consistent": consistent,
        "excluded": excluded,
        "calibration": dict(_calibration()),
    }
