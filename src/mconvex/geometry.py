"""Convex bodies in R^d and joint numerical range geometry.

Bodies come in four flavours: explicit polytopes (vertex lists), coordinate
boxes, planar discs, and support-sampled bodies (direction/value pairs).
Every hull question goes to Qhull (``scipy.spatial.ConvexHull``), run
inside the affine span of the points: a polytope's facet list in any
dimension, the extreme points of a point list, simplex detection and
the drawn polygons of a range sandwich.  A sampled body's vertices come
from Qhull's halfspace intersection, in any dimension.
``hull_membership_gap`` is a linear program kept as a reference that
shares no code with Qhull.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence, Union

import numpy as np
import scipy.optimize
from scipy.spatial import ConvexHull, HalfspaceIntersection

from .errors import BadProblem, DimensionMismatch, NoInteriorZero, NonHermitianInput
from .linalg import (
    OperatorTuple,
    _require_bytes,
    herm_part,
    is_hermitian,
    pencil_stack,
)

#: default slack used when classifying a point as extreme
EXTREME_TOL = 1e-9


def _require_finite(what: str, *values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DimensionMismatch(f"{what} must be finite")


@dataclasses.dataclass(frozen=True)
class Polytope:
    """Convex hull of a finite vertex list, stored as a read-only copy in
    a (k, d) array, so the facet list built from it stays valid."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.array(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[0] == 0:
            raise DimensionMismatch("polytope needs a (k, d) vertex array")
        _require_finite("polytope vertices", v)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @functools.cached_property
    def _hull(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The facet list ``halfplanes`` returns, and the listed points
        that ``extreme_points(self, tol=0.0)`` returns, kept in listed
        order: one Qhull run on first use, shared, read-only, by every
        later call."""
        v = self.vertices
        (center, span, normals), y, hull, ext = _span_hull(v)
        if hull is not None:
            _, first = np.unique(hull.equations, axis=0, return_index=True)
            eq = hull.equations[np.sort(first)]
            dirs, offsets = eq[:, :-1] @ span, -eq[:, -1]
        else:
            dirs = np.vstack([span, -span])
            offsets = np.concatenate([y.max(axis=0), -y.min(axis=0)])
        along = normals @ center
        facets = (
            np.vstack([dirs, normals, -normals]),
            np.concatenate([offsets, along, -along]),
        )
        extreme = v[np.unique(ext)]
        for arr in (*facets, extreme):
            arr.flags.writeable = False
        return facets, extreme


@dataclasses.dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals [lo_j, hi_j]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        _require_finite("box bounds", lo, hi)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise DimensionMismatch("box needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


@dataclasses.dataclass(frozen=True)
class Disc:
    """Planar disc with given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.shape != (2,):
            raise DimensionMismatch("disc center must live in R^2")
        _require_finite("disc center and radius", c, self.radius)
        if self.radius < 0:
            raise DimensionMismatch("disc radius must be nonnegative")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return 2


@dataclasses.dataclass(frozen=True)
class Sampled:
    """Outer description by support values along sampled unit directions."""

    directions: np.ndarray
    support_values: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.directions, dtype=float))
        s = np.atleast_1d(np.asarray(self.support_values, dtype=float))
        if d.shape[0] != s.shape[0] or d.shape[0] == 0:
            raise DimensionMismatch("need one support value per direction")
        _require_finite("sampled directions and support values", d, s)
        norms = np.linalg.norm(d, axis=1)
        if np.any(norms <= 0):
            raise DimensionMismatch("directions must be nonzero")
        object.__setattr__(self, "directions", d / norms[:, None])
        object.__setattr__(self, "support_values", s / norms)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @functools.cached_property
    def _clipped(self) -> np.ndarray:
        """The vertices the facet list bounds (``clip_by_halfplanes``):
        one halfspace intersection on first use, shared read-only."""
        verts = clip_by_halfplanes(self.directions, self.support_values)
        verts.flags.writeable = False
        return verts


ConvexBody = Union[Polytope, Box, Disc, Sampled]


@dataclasses.dataclass(frozen=True)
class PolygonSandwich:
    """Inner and outer polygonal approximations of a planar convex set."""

    inner: Polytope
    outer: Polytope
    hausdorff_bound: float


def support_value(t: OperatorTuple, c: Sequence[float]) -> float:
    """Support function of the joint numerical range of a Hermitian tuple.

    Returns ``lambda_max(sum_j c_j a_j)``, which equals
    ``max { <c, x> : x in W_1(t) }``.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (t.d,):
        raise DimensionMismatch("direction length must match tuple length")
    acc = pencil_stack(t.mats, c[None, :])
    if not is_hermitian(acc):
        raise NonHermitianInput("the combination sum_j c_j a_j is not Hermitian")
    return float(np.linalg.eigvalsh(herm_part(acc))[0, -1])


def scale_body(body: ConvexBody, factor: float, center=None) -> ConvexBody:
    """Dilate a body by ``factor`` about ``center`` (default: the origin)."""
    if isinstance(body, Polytope):
        c = np.zeros(body.dim) if center is None else np.asarray(center, float)
        return Polytope(c + factor * (body.vertices - c))
    if isinstance(body, Box):
        c = np.zeros(body.dim) if center is None else np.asarray(center, float)
        return Box(c + factor * (body.lo - c), c + factor * (body.hi - c))
    if isinstance(body, Disc):
        c = np.zeros(2) if center is None else np.asarray(center, float)
        return Disc(c + factor * (body.center - c), factor * body.radius)
    if isinstance(body, Sampled):
        if center is not None and np.any(np.asarray(center) != 0):
            raise DimensionMismatch("sampled bodies only scale about 0")
        return Sampled(body.directions, factor * body.support_values)
    raise DimensionMismatch(f"unknown body type {type(body)!r}")


def hull_distance(points: np.ndarray, p: np.ndarray) -> float:
    """Upper bound on the Euclidean distance from ``p`` to conv(points).

    A nonnegative least squares fit with a homogenized sum-to-one row
    produces near-optimal convex weights; normalizing them gives a point
    of the hull whose distance to ``p`` certifies the bound, and a few
    line-search polish steps tighten it.  Inside the hull the bound is 0
    to machine precision.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.asarray(p, dtype=float)
    scale = max(float(np.abs(pts).max()), float(np.abs(p).max())) or 1.0
    s = 1e4 * scale
    a = np.vstack([pts.T, s * np.ones((1, pts.shape[0]))])
    b = np.concatenate([p, [s]])
    w, _ = scipy.optimize.nnls(a, b)
    total = float(w.sum())
    if total <= 0:
        x = pts[0].astype(float).copy()
    else:
        x = pts.T @ (w / total)
    # polish the feasible point with exact line searches toward vertices
    for _ in range(64):
        g = x - p
        k = int(np.argmin(pts @ g))
        dvec = pts[k] - x
        denom = float(dvec @ dvec)
        if denom <= 1e-30:
            break
        gamma = float(np.clip(-(g @ dvec) / denom, 0.0, 1.0))
        if gamma <= 1e-16:
            break
        x = x + gamma * dvec
    return float(np.linalg.norm(x - p))


def clip_by_halfplanes(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The vertices of ``{x : normals @ x <= offsets}``, in any dimension:
    Qhull's halfspace intersection (through the polar dual hull) about
    the Chebyshev centre, found by one linear program on the offsets over
    their largest size, then ``extreme_points``; in d = 1 the interval is
    its own Chebyshev ball.  Raises ``BadProblem`` when the set is
    unbounded (0 not strictly inside the hull of the normals), empty or
    flat (a Chebyshev radius of at most ``EXTREME_TOL``)."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    offsets = np.asarray(offsets, dtype=float)
    d = normals.shape[1]
    if point_gap(Polytope(normals), np.zeros(d)) > -EXTREME_TOL:
        raise BadProblem("unbounded: 0 is not inside the hull of the normals")
    scale = float(np.abs(offsets).max()) or 1.0
    b = offsets / scale
    # Chebyshev centre: maximize r subject to n_i . x + |n_i| r <= b_i
    res = scipy.optimize.linprog(
        np.r_[np.zeros(d), -1.0],
        A_ub=np.column_stack([normals, np.linalg.norm(normals, axis=1)]),
        b_ub=b, bounds=[(None, None)] * d + [(0, None)], method="highs",
    )
    if res.status != 0 or res.x[-1] <= EXTREME_TOL:
        raise BadProblem("the halfspaces bound an empty or flat set")
    centre, r = res.x[:-1], res.x[-1]
    if d == 1:
        return scale * np.array([centre - r, centre + r])
    halfspaces = np.column_stack([normals, -b])
    pts = HalfspaceIntersection(halfspaces, centre).intersections
    return extreme_points(scale * pts, tol=0.0)


def jnr_sandwich(t: OperatorTuple, m: int = 64) -> PolygonSandwich:
    """Polygonal inner/outer approximation of a planar joint numerical range.

    For a Hermitian pair, one ``eigh`` over the ``pencil_stack`` of ``m``
    unit directions gives support values ``h_k`` (the supporting lines)
    and top eigenvectors, whose expectation points span the inner
    polygon.  Every line touches the range and adjacent normals are less
    than pi apart, so the outer polygon is spanned by the points where
    consecutive lines meet; points within ``1e-12 max |h_k|`` of a lower
    dimensional span count as flat.  The Hausdorff gap between the two
    bounds the approximation error of either against the true range.
    """
    if t.d != 2:
        raise DimensionMismatch("sandwich approximation needs a pair (d = 2)")
    if not t.hermitian:
        raise DimensionMismatch("sandwich approximation needs Hermitian entries")
    if m < 8:
        raise DimensionMismatch("need at least 8 directions")
    # the (m, n, n) pencil stack and its eigenvectors
    _require_bytes(2 * 16 * m * t.n**2, "the sandwich's pencil stack")
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    normals = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals, vecs = np.linalg.eigh(pencil_stack(t.mats, normals))
    h, psi = vals[:, -1], vecs[:, :, -1]
    inner_pts = np.einsum("ki,jil,kl->kj", psi.conj(), np.stack(t.mats), psi).real
    c, s = normals.T
    c1, s1, h1 = np.roll(c, -1), np.roll(s, -1), np.roll(h, -1)
    # where the supporting lines of directions k and k + 1 meet
    corners = np.column_stack([h * s1 - h1 * s, c * h1 - c1 * h])
    corners /= np.sin(2.0 * np.pi / m)
    outer_poly = extreme_points(corners, tol=1e-12 * float(np.abs(h).max()))
    inner_poly = extreme_points(inner_pts, tol=0.0)
    bound = max(hull_distance(inner_poly, q) for q in outer_poly)
    return PolygonSandwich(Polytope(inner_poly), Polytope(outer_poly), float(bound))


def _affine_span(v: np.ndarray, tol: float = 0.0) -> tuple[np.ndarray, ...]:
    """The mean of the rows of ``v``, an orthonormal basis of their affine
    span and the span's normals.  The rank, at most k - 1 for k rows,
    counts the singular values of the centred rows above ``max(tol,
    EXTREME_TOL * s_max, k eps |v|_max)``, the last the centring's
    rounding; at full rank the basis is the identity, so that a
    full-dimensional hull stays in its own coordinates and axis-aligned
    facets come out exact."""
    center = v.mean(axis=0)
    _, s, vt = np.linalg.svd(v - center, full_matrices=v.shape[0] < v.shape[1])
    noise = v.shape[0] * np.finfo(float).eps * float(np.abs(v).max())
    rank = min(int(np.sum(s > max(tol, EXTREME_TOL * s[0], noise))), v.shape[0] - 1)
    span = np.eye(v.shape[1]) if rank == v.shape[1] else vt[:rank]
    return center, span, vt[rank:]


def _span_hull(v: np.ndarray, tol: float = 0.0) -> tuple:
    """``_affine_span(v, tol)``, the rows ``y`` in the span, their Qhull
    hull at rank 2 or more (else None) and the extreme rows' indices: the
    hull's in Qhull's order, a segment's two ends or a point's row 0."""
    center, span, normals = _affine_span(v, tol)
    y = v @ span.T
    if span.shape[0] >= 2:
        hull = ConvexHull(y)
        return (center, span, normals), y, hull, hull.vertices
    ends = [int(np.argmin(y)), int(np.argmax(y))] if y.size else [0]
    return (center, span, normals), y, None, np.array(ends)


def _hull_vertices(points, tol: float) -> tuple[np.ndarray, int]:
    """``extreme_points`` of a point list or polytope, and its rank."""
    pts = points.vertices if isinstance(points, Polytope) else np.atleast_2d(points)
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return pts.copy(), 0
    (_, span, _), _, _, ext = _span_hull(pts, tol)
    return pts[ext], span.shape[0]


def extreme_points(
    points: np.ndarray | Polytope, tol: float = EXTREME_TOL
) -> np.ndarray:
    """Extreme points of the convex hull of a point list, as rows of it.

    Qhull's hull vertices inside the affine span of the points, where a
    direction along which the centred points have singular value at most
    ``tol`` (or ``EXTREME_TOL`` times the largest) is flat.  A segment
    gives its two ends, a point one row, an empty list stays empty; in
    the plane the points come counterclockwise.
    """
    return _hull_vertices(points, tol)[0]


def hull_membership_gap(points: np.ndarray, p: np.ndarray) -> float:
    """Exact LP gap for membership of ``p`` in conv(points).

    Zero (up to LP tolerance) when the point lies in the hull; otherwise
    the smallest infinity-norm reconstruction error over convex weights,
    which lower-bounds the Euclidean distance to the hull.  It shares no
    code with Qhull, so it is the reference for the hull routines.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.asarray(p, dtype=float)
    k, d = pts.shape
    # variables: weights w (k), epigraph t (1); minimize t
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    a_ub = np.zeros((2 * d, k + 1))
    b_ub = np.zeros(2 * d)
    a_ub[:d, :k] = pts.T
    a_ub[:d, -1] = -1.0
    b_ub[:d] = p
    a_ub[d:, :k] = -pts.T
    a_ub[d:, -1] = -1.0
    b_ub[d:] = -p
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = scipy.optimize.linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * k + [(0, None)], method="highs",
    )
    if res.status != 0:
        return float("inf")
    return float(res.fun)


def is_simplex(points: np.ndarray, tol: float = 1e-9) -> tuple[bool, dict]:
    """Whether the hull of ``points`` is a simplex.

    The extreme points and the affine rank come from one computation
    (``extreme_points`` with this ``tol``): the hull is a simplex exactly
    when it has rank + 1 extreme points, so single points and segments
    count.  The certificate reports the extreme set, their count, the
    rank and, when not a simplex, a null combination of the differences.
    """
    ext, rank = _hull_vertices(points, tol)
    k = ext.shape[0]
    cert: dict = {"extreme_points": ext, "count": k, "rank": rank}
    if k == rank + 1:
        return True, cert
    # expose one dependency among the differences
    _, _, vt = np.linalg.svd((ext[1:] - ext[0]).T, full_matrices=True)
    cert["dependency"] = vt[-1]
    return False, cert


def essential_range_hull(samples: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Hull and extreme points of complex symbol samples, as R^2 data.

    Both are ``extreme_points`` of the samples: the hull polygon's
    vertices, counterclockwise (a segment's two ends, or one point).
    Accepts at least one sample.
    """
    z = np.asarray(samples, dtype=complex).ravel()
    if z.size == 0:
        raise DimensionMismatch("need at least one sample")
    ext = extreme_points(np.column_stack([z.real, z.imag]))
    return ext, ext


def box_vertices(box: Box) -> np.ndarray:
    """All 2^d corner points of a box (d is small here)."""
    d = box.dim
    if d > 16:
        raise DimensionMismatch("box vertex enumeration capped at d = 16")
    corners = np.empty((1 << d, d))
    for i in range(1 << d):
        for j in range(d):
            corners[i, j] = box.hi[j] if (i >> j) & 1 else box.lo[j]
    return corners


def halfplanes(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """The facet list of a body: unit ``directions`` and ``offsets`` with
    ``body = {x : directions @ x <= offsets}`` exactly.

    A box gives ``e_j`` and ``-e_j`` in coordinate order, a sampled body
    its own directions.  A polytope, in any dimension, gives the facets
    of its hull inside the affine span of its vertices (Qhull's
    triangulated facets merged back into one per hyperplane; a point or
    a segment gives its extent), followed by each normal ``u`` of that
    span as the pair ``u . x <= u . c`` and ``-u . x <= -u . c``, so a
    flat polytope has an offset of at most 0; Qhull runs once per
    polytope, whose read-only list every later call returns.  A disc has
    no such list and raises ``DimensionMismatch``.
    """
    if isinstance(body, Box):
        dirs = np.repeat(np.eye(body.dim), 2, axis=0)
        dirs[1::2] *= -1.0
        return dirs, np.column_stack([body.hi, -body.lo]).ravel()
    if isinstance(body, Sampled):
        return body.directions, body.support_values
    if isinstance(body, Polytope):
        return body._hull[0]
    raise DimensionMismatch(f"no facet list for body type {type(body)!r}")


def point_gap(body: ConvexBody, p: np.ndarray) -> float:
    """Signed slack of a point, or the largest over a ``(k, d)`` stack of
    points, against a body: positive outside, at most 0 inside.  A disc
    gives the distance to its center minus its radius, every other body
    ``max(c . p - h)`` over its facet list, built once for the stack."""
    p = np.asarray(p, dtype=float)
    if isinstance(body, Disc):
        dist = np.linalg.norm(p - body.center, axis=-1)
        return float(np.max(dist)) - body.radius
    dirs, offsets = halfplanes(body)
    return float(np.max(p @ dirs.T - offsets))


def require_interior_zero(body: ConvexBody, tol: float = 1e-9) -> float:
    """Return a positive inradius bound at 0, or raise ``NoInteriorZero``.

    A disc gives its radius less the distance to its center, every other
    body the least offset of its facet list (``halfplanes``), the
    distance from 0 to its nearest facet; a flat polytope's span normals
    give an offset of at most 0, so it raises.
    """
    if isinstance(body, Disc):
        slack = body.radius - float(np.linalg.norm(body.center))
    else:
        slack = float(np.min(halfplanes(body)[1]))
    if slack <= tol:
        raise NoInteriorZero(
            f"0 is not interior to the {type(body).__name__.lower()} "
            f"(slack {slack:.3e})"
        )
    return slack
