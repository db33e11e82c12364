import concurrent.futures
import dataclasses
import logging
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import zgees

from conftest import count_traffic, profile_max, range_sdp
import mconvex.linalg as linalg
import mconvex.ranges as ranges
import mconvex.sdp as sdp
from mconvex.errors import (
    BadProblem,
    DimensionMismatch,
    NonHermitianInput,
    NotInKmax,
    TooLarge,
    TupleMismatch,
)
from mconvex.geometry import (
    Box,
    Disc,
    Polytope,
    Sampled,
    box_vertices,
    clip_by_halfplanes,
    extreme_points,
    halfplanes,
    hull_membership_gap,
    point_gap,
    require_interior_zero,
    scale_body,
)
from mconvex.linalg import (
    OperatorTuple,
    commutant_dimension,
    herm_eigvalsh,
    herm_part,
    numerical_radius,
    op_norm,
    pencil_stack,
    random_hermitian,
    skew_part,
)
from mconvex.ranges import (
    MembershipStatus,
    calibrate_choi_li,
    choi_li_equiv_check,
    choi_li_transform,
    is_matrix_extreme_free_symmetric,
    is_matrix_extreme_free_unitary,
    kmax_member,
    kmin_member,
    mrange_equal,
    theta_min_alpha,
    ucp_member,
)
from mconvex.sdp import (
    AffineConstraint,
    SdpFeasibility,
    Separator,
    Status,
    Verdict,
    _Compiled,
    _compile,
    dual_witness,
    solve_feasibility,
    verify_witness,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0]).astype(complex)
ROOT2 = np.sqrt(2.0)

SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
UNIT_DISC = Disc(np.zeros(2), 1.0)
#: the relaxed scale of kmin and theta at the default tol: every body is
#: dilated by 1 + 10 tol about its center
RELAX = 1.0 + 10 * ranges.MEMBER_TOL
#: the unit disc's circumscribed 96-gon, whose incircle is the numerical
#: range of the nilpotent pair: a polygon on which the disc's former SDP
#: examples still pose the decomposition SDP
DISC_96 = Polytope(np.column_stack([
    np.cos(2.0 * np.pi * np.arange(96) / 96), np.sin(2.0 * np.pi * np.arange(96) / 96)
]) / np.cos(np.pi / 96))


def _kmin_problem(verts, mats) -> SdpFeasibility:
    """kmin's decomposition SDP at the point ``mats``: the range problem
    of the vertices as 1 x 1 summands, posed at that point."""
    verts = np.asarray(verts, dtype=float)
    a = OperatorTuple(tuple(mats), hermitian=True)
    center = np.zeros(verts.shape[1])
    return range_sdp(ranges._range_rows(verts[:, :, None, None], a, center))


def pauli(scale: float = 1.0) -> OperatorTuple:
    return OperatorTuple((scale * X, scale * Z), hermitian=True)


def nilpotent_pair() -> OperatorTuple:
    s = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    return OperatorTuple((herm_part(s), skew_part(s)), hermitian=True)


def shift_pair(n: int, scale: float) -> OperatorTuple:
    """``(Re T, Im T)`` of ``T = scale J``, J the n x n shift: ``||T|| =
    scale`` and ``w(T) = scale cos(pi / (n + 1))``, so at scale 1.1 and n
    = 2-4 the pair lies in the unit disc's maximal set and outside its
    minimal set, and kmin over the disc reaches the SDP."""
    t = scale * np.eye(n, k=1, dtype=complex)
    return OperatorTuple((herm_part(t), skew_part(t)), hermitian=True)


def symmetry_pair() -> OperatorTuple:
    """Two noncommuting 3 x 3 symmetries: a point of the square's maximal
    set whose theta takes the separators several probes."""
    s2 = np.eye(3) - 2.0 / 3.0 * np.ones((3, 3))
    return OperatorTuple((np.diag([1.0, 1.0, -1.0]), s2), hermitian=True)


def _disc_norm(K: Disc, a: OperatorTuple) -> float:
    """``||T||`` for ``T = ((a_1 - c_1) + i (a_2 - c_2)) / r``, by numpy."""
    eye = np.eye(a.n)
    t = (a.mats[0] - K.center[0] * eye) + 1j * (a.mats[1] - K.center[1] * eye)
    return float(np.linalg.norm(t, 2)) / K.radius


def _circle_pencil_max(K: Disc, dual: np.ndarray) -> float:
    """The largest eigenvalue of ``Y_0 + x_1 Y_1 + x_2 Y_2`` over 4096
    equally spaced points x of the circle of K, by numpy."""
    t = 2.0 * np.pi * np.arange(4096) / 4096
    x = K.center + K.radius * np.column_stack([np.cos(t), np.sin(t)])
    pencil = dual[0] + np.einsum("kl,lij->kij", x, dual[1:])
    return float(np.linalg.eigvalsh(pencil)[:, -1].max())


class TestKmax:
    def test_pauli_in_square(self):
        assert kmax_member(SQUARE, pauli()).status is MembershipStatus.IN

    def test_scaled_pauli_out(self):
        res = kmax_member(SQUARE, OperatorTuple((1.2 * X, Z), hermitian=True))
        assert res.status is MembershipStatus.OUT
        assert res.margin == pytest.approx(0.2, abs=1e-9)

    def test_box_matches_square(self):
        assert kmax_member(UNIT_BOX, pauli()).status is MembershipStatus.IN

    def test_disc_nilpotent_boundary_in(self):
        res = kmax_member(UNIT_DISC, nilpotent_pair())
        assert res.status is MembershipStatus.IN
        assert res.margin <= 1e-9

    def test_disc_outside(self):
        res = kmax_member(UNIT_DISC, nilpotent_pair().scaled(1.1))
        assert res.status is MembershipStatus.OUT

    def test_sampled_body(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        body = Sampled(dirs, np.ones(4))
        assert kmax_member(body, pauli()).status is MembershipStatus.IN

    def test_rejects_non_hermitian(self):
        t = OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]), Z), hermitian=False)
        with pytest.raises(NonHermitianInput):
            kmax_member(SQUARE, t)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kmax_member(SQUARE, OperatorTuple((X,), hermitian=True))

    def test_box_in_three_dimensions(self):
        # W_1 of the Pauli triple is the unit ball, whose extent along
        # each axis is 1
        cube = Box(-np.ones(3), np.ones(3))
        triple = OperatorTuple((X, Y, Z), hermitian=True)
        res = kmax_member(cube, triple.scaled(0.5))
        assert res.status is MembershipStatus.IN
        assert res.margin == pytest.approx(0.5, abs=1e-12)
        res = kmax_member(cube, triple.scaled(1.2))
        assert res.status is MembershipStatus.OUT
        assert res.margin == pytest.approx(0.2, abs=1e-12)

    def test_cube_polytope_agrees_with_the_box(self):
        # the cube's Qhull facets are the box's +-e_j, so the two bodies
        # give the same gaps up to rounding
        box = Box(-np.ones(3), np.ones(3))
        cube = Polytope(box_vertices(box))
        rng = np.random.default_rng(7)
        statuses = set()
        for n in (1, 2, 3):
            for scale in (0.3, 0.7, 1.0, 1.5):
                mats = tuple(random_hermitian(n, rng) for _ in range(3))
                a = OperatorTuple(mats, hermitian=True)
                a = a.scaled(scale / max(op_norm(m) for m in mats))
                want, got = kmax_member(box, a), kmax_member(cube, a)
                assert got.status is want.status
                assert got.margin == pytest.approx(want.margin, rel=0, abs=1e-12)
                statuses.add(got.status)
        assert statuses == {MembershipStatus.IN, MembershipStatus.OUT}


@st.composite
def lattice_polytopes(draw):
    """Lattice polytopes in d = 1, 2, 3, points and flat ones included."""
    d = draw(st.integers(1, 3))
    corners = draw(st.lists(
        st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=7
    ))
    return Polytope(np.array(corners, dtype=float) / 4.0)


@settings(max_examples=60, deadline=None)
@given(lattice_polytopes(), st.integers(min_value=0, max_value=10**6))
def test_polytope_agrees_with_its_halfplanes(poly, seed):
    # a polytope and the sampled body of its facet list are one set
    sampled = Sampled(*halfplanes(poly))
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        a = OperatorTuple(
            tuple(random_hermitian(n, rng) for _ in range(poly.dim)), hermitian=True
        )
        want, got = kmax_member(poly, a), kmax_member(sampled, a)
        assert want.status is got.status
        np.testing.assert_allclose(
            got.certificate["gaps"], want.certificate["gaps"], rtol=0, atol=1e-12
        )
    # points about the vertex mean, so that some of them fall inside
    center = poly.vertices.mean(axis=0)
    for p in center + rng.uniform(-1.5, 1.5, size=(12, poly.dim)):
        gap = point_gap(sampled, p)
        if abs(gap) > 1e-6:
            assert (gap > 0) == (hull_membership_gap(poly.vertices, p) > 1e-9)
    for v in poly.vertices:
        assert point_gap(poly, v) <= 1e-12
    # the facet list bounds the polytope itself, also at 1e-12 P; a flat
    # polytope bounds no full-dimensional set
    dirs, offsets = halfplanes(poly)
    full = np.linalg.matrix_rank(poly.vertices - poly.vertices[0]) == poly.dim
    for s in (1.0, 1e-12):
        if not full:
            with pytest.raises(BadProblem):
                clip_by_halfplanes(dirs, s * offsets)
            continue
        got, want = clip_by_halfplanes(dirs, s * offsets), extreme_points(poly)
        assert got.shape == want.shape
        dist = np.abs(got[:, None, :] - s * want[None, :, :]).max(axis=2)
        assert dist.min(axis=0).max() <= 1e-9 * s


class TestKmin:
    def test_square_boundary_point(self):
        res = kmin_member(SQUARE, pauli(1.0 / ROOT2))
        assert res.status is MembershipStatus.IN
        h = res.certificate["h"]
        assert len(h) == 4
        total = sum(h)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-7)

    def test_square_interior(self):
        res = kmin_member(SQUARE, pauli(0.5))
        assert res.status is MembershipStatus.IN
        assert res.margin > 0.01

    def test_square_outside(self):
        res = kmin_member(SQUARE, pauli())
        assert res.status is MembershipStatus.OUT
        assert res.margin > 0.1

    def test_commuting_fast_path(self):
        t = OperatorTuple((Z, Z), hermitian=True)
        res = kmin_member(SQUARE, t)
        assert res.status is MembershipStatus.IN
        assert "joint spectrum" in res.detail

    @pytest.mark.parametrize("scale", [1e-6, 1e-7])
    def test_a_small_non_commuting_pair_goes_through_the_sdp(self, scale):
        # the commutator 2 scale^2 is tiny in absolute terms, not relative
        # to the entries' sizes
        res = kmin_member(SQUARE, pauli(scale))
        assert res.status is MembershipStatus.IN
        assert "joint spectrum" not in res.detail
        assert len(res.certificate["h"]) == 4

    def test_a_large_commuting_pair_keeps_the_joint_spectrum(self):
        # conjugated diagonals at 1e6: the commutator is rounding, about
        # 2e-5 in absolute terms
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        mats = tuple(
            herm_part(1e6 * q @ np.diag(d) @ q.conj().T)
            for d in ([0.5, -0.2, 0.1], [0.1, 0.3, -0.4])
        )
        res = kmin_member(SQUARE, OperatorTuple(mats, hermitian=True))
        assert res.status is MembershipStatus.OUT
        assert "joint spectrum" in res.detail

    @pytest.mark.parametrize("e", [3e-7, 5e-7, 1e-6, 3e-6])
    @pytest.mark.parametrize("body", [SQUARE, UNIT_DISC], ids=["square", "disc"])
    def test_a_small_pair_about_a_scalar_goes_through_the_sdp(self, body, e):
        # the commutator 2 e^2 is tiny next to the scalar parts +-0.5 I,
        # which no commutator sees; sized by them, the pair counted as
        # commuting and the joint eigenbasis refused it (NotCommuting)
        eye = np.eye(2)
        a = OperatorTuple((0.5 * eye + e * X, -0.5 * eye + e * Z), hermitian=True)
        res = kmin_member(body, a)
        assert res.status is MembershipStatus.IN
        assert "joint spectrum" not in res.detail

    def test_a_near_degenerate_pair_the_eigenbasis_refuses_is_posed(
        self, traffic
    ):
        # the commutator, 9e-12, passes the size test, but the eigenvalues
        # 0.3 and 0.3 + 3e-9 of A split apart, and B is not diagonal in
        # that basis: kmin and theta pose the SDP, and theta's [1, 1]
        # rests on its Feasible probe, not on a joint spectrum; theta
        # solves on the operator kmin compiled
        a = OperatorTuple((
            0.3 * np.diag([1.0, 1.0 + 1e-8, -2.0 - 1e-8]).astype(complex),
            0.3 * np.array([[0, 0.01, 0], [0.01, 0, 0], [0, 0, 1]], dtype=complex),
        ), hermitian=True)
        res = kmin_member(SQUARE, a)
        assert res.status is MembershipStatus.IN
        assert len(res.certificate["h"]) == 4
        counts = traffic()
        est = theta_min_alpha(SQUARE, a)
        assert (est.lower, est.upper) == (1.0, 1.0)
        assert (counts.compiles, counts.solves) == (0, 1)
        assert ranges._joint_spectrum(a) is None

    @staticmethod
    def _check_commuting_support_slack(body):
        t = OperatorTuple(
            (np.diag([0.5, -0.2]).astype(complex), np.diag([0.1, 0.3]).astype(complex)),
            hermitian=True,
        )
        res = kmin_member(body, t)
        assert res.status is MembershipStatus.IN
        # the joint points (0.5, 0.1) and (-0.2, 0.3) lie 0.5 and 0.7 inside
        assert res.margin == pytest.approx(0.5, abs=1e-12)

    def test_commuting_in_box_reports_the_support_slack(self):
        self._check_commuting_support_slack(UNIT_BOX)

    def test_commuting_in_polytope_reports_the_support_slack(self):
        # the square's facet list gives the box's slack
        self._check_commuting_support_slack(SQUARE)

    def test_commuting_path_builds_the_facet_list_once(self, monkeypatch):
        # 60 joint points, one Qhull run; the Box reads the same slack
        rng = np.random.default_rng(0)
        diags = rng.uniform(-0.9, 0.9, size=(3, 60))
        t = OperatorTuple(tuple(np.diag(x).astype(complex) for x in diags), hermitian=True)
        cube = Box(-np.ones(3), np.ones(3))
        calls = []
        hull = scipy.spatial.ConvexHull
        monkeypatch.setattr(
            scipy.spatial, "ConvexHull", lambda *a, **k: calls.append(1) or hull(*a, **k)
        )
        res = kmin_member(Polytope(box_vertices(cube)), t)
        assert len(calls) == 1
        want = kmin_member(cube, t)
        assert res.status is want.status is MembershipStatus.IN
        assert res.margin == pytest.approx(want.margin, abs=1e-12)
        assert want.margin == pytest.approx(0.10493, abs=1e-5)

    def test_commuting_outside(self):
        t = OperatorTuple((2.0 * Z, Z), hermitian=True)
        res = kmin_member(SQUARE, t)
        assert res.status is MembershipStatus.OUT

    def test_singleton_body(self):
        point = Polytope(np.array([[0.5, -0.5]]))
        eye = np.eye(2, dtype=complex)
        good = OperatorTuple((0.5 * eye, -0.5 * eye), hermitian=True)
        assert kmin_member(point, good).status is MembershipStatus.IN
        assert kmin_member(point, pauli()).status is MembershipStatus.OUT

    def test_disc_sandwich(self):
        # ||a_1 + i a_2|| = 0.9: In by the unitary dilation, on 2n = 4
        # rank-one blocks at points of the circle, with the margin 1 - 0.9
        inside = nilpotent_pair().scaled(0.45)
        res = kmin_member(UNIT_DISC, inside)
        assert res.status is MembershipStatus.IN
        assert res.detail == "decomposed on the circle by a unitary dilation"
        assert res.margin == pytest.approx(0.1, abs=1e-15)
        assert np.shape(res.certificate["h"]) == (4, 2, 2)
        assert np.linalg.norm(res.certificate["vertices"], axis=1) == pytest.approx(1.0)
        # ||T|| = 1.1: Out, separated with the margin ||T|| - 1 by the
        # dual of the top singular pair, whose pencil is NSD on the disc
        outside = nilpotent_pair().scaled(0.55)
        res = kmin_member(UNIT_DISC, outside)
        assert res.status is MembershipStatus.OUT
        assert res.detail == "separated from the disc by the top singular pair of T"
        assert res.margin == res.certificate.margin == pytest.approx(0.1, abs=1e-15)
        assert _circle_pencil_max(UNIT_DISC, res.certificate.dual) <= 1e-12
        # ||T|| = 1 + 5e-7, inside the disc dilated by 1 + 10 tol: Boundary
        res = kmin_member(UNIT_DISC, nilpotent_pair().scaled(0.5 * (1 + 5e-7)))
        assert (res.status, res.margin, res.certificate) == (
            MembershipStatus.BOUNDARY, 1e-6, None
        )

    def test_an_sdp_in_margin_is_the_least_block_eigenvalue(self):
        res = kmin_member(SQUARE, pauli(0.6))
        assert res.status is MembershipStatus.IN
        # the margin is the smallest eigenvalue of the blocks h_j, from the
        # library's spectrum helper (closed form at n = 2), and LAPACK's
        # agrees to rounding
        h = np.stack(res.certificate["h"])
        assert res.margin == max(float(herm_eigvalsh(h)[:, 0].min()), 0.0)
        slack = min(float(np.linalg.eigvalsh(hj)[0]) for hj in h)
        assert res.margin == pytest.approx(max(slack, 0.0), rel=0, abs=1e-15)

    def test_disc_problem_is_block_native(self):
        # 96-gon, n = 6, d = 2: d + 1 = 3 matrix equations, each stated as
        # 96 one-entry patterns (a column of W = [1 | vertices]) with a 6 x 6
        # right-hand side, and none as a dense (96 * 6)^2 matrix
        angles = 2.0 * np.pi * np.arange(96) / 96
        verts = np.column_stack([np.cos(angles), np.sin(angles)])
        rng = np.random.default_rng(0)
        mats = [herm_part(rng.standard_normal((6, 6))) for _ in range(2)]
        problem = _kmin_problem(verts, mats)
        shapes = {np.shape(c.coeff) for c in problem.constraints}
        assert shapes == {(96, 1, 1)}
        assert {np.shape(c.rhs) for c in problem.constraints} == {(6, 6)}
        assert len(problem.constraints) == 3
        entries = sum(np.asarray(c.coeff).size for c in problem.constraints)
        assert entries == 3 * 96

    def test_box_body(self):
        res = kmin_member(UNIT_BOX, pauli(1.0 / ROOT2))
        assert res.status is MembershipStatus.IN

    def test_sampled_clips_to_polygon(self):
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        body = Sampled(dirs, np.ones(4))
        res = kmin_member(body, pauli(1.0 / ROOT2))
        assert res.status is MembershipStatus.IN

    @pytest.mark.parametrize(
        "vertices",
        [
            box_vertices(Box(-np.ones(3), np.ones(3))),
            np.vstack([np.eye(3), -np.eye(3)]),
        ],
        ids=["cube", "octahedron"],
    )
    def test_sampled_body_in_three_dimensions(self, vertices):
        # the sampled body of a polytope's facet list decides as the polytope
        poly = Polytope(vertices)
        sampled = Sampled(*halfplanes(poly))
        rng = np.random.default_rng(11)
        statuses = set()
        for scale in (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7):
            mats = tuple(random_hermitian(2, rng) for _ in range(3))
            a = OperatorTuple(mats, hermitian=True)
            a = a.scaled(scale / max(op_norm(m) for m in mats))
            want, got = kmin_member(poly, a), kmin_member(sampled, a)
            assert got.status is want.status
            statuses.add(got.status)
        assert statuses == {MembershipStatus.IN, MembershipStatus.OUT}

    @pytest.mark.parametrize(
        "dirs, values",
        [
            # the normals' hull misses 0, or has it on its boundary
            ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5]),
            ([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0]),
            # x <= -1 and -x <= -1
            ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-1, -1, 1, 1]),
        ],
        ids=["wedge", "strip", "empty"],
    )
    def test_sampled_body_without_vertices_raises(self, dirs, values):
        # no vertex list describes an unbounded or an empty body
        body = Sampled(np.array(dirs), np.array(values, dtype=float))
        with pytest.raises(BadProblem):
            kmin_member(body, pauli(0.1))

    def test_commuting_tuple_over_an_unbounded_body_is_decided(self):
        # the joint spectrum needs no vertex list: a commuting tuple over
        # the wedge x <= 1, y <= 1, x + y <= 1.5 is decided, and a
        # non-commuting one raises
        wedge = Sampled(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                        np.array([1.0, 1.0, 1.5]))
        commuting = OperatorTuple((-3.0 * Z, -3.0 * Z), hermitian=True)
        assert kmin_member(wedge, commuting).status is MembershipStatus.OUT
        with pytest.raises(BadProblem):
            kmin_member(wedge, pauli(0.1))

    def test_segment_in_a_coordinate_hyperplane(self):
        # over {(t, 0) : |t| <= 1} the second equation has a zero
        # coefficient: sum_j 0 h_j = a_2.  The support line y <= 0 along
        # the span normal separates a_2 = 0.3 Z with margin 0.3, before
        # any solve (the zero-row rule itself is tested in test_sdp.py)
        segment = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        a = OperatorTuple((0.5 * X, 0.3 * Z), hermitian=True)
        res = kmin_member(segment, a)
        assert res.status is MembershipStatus.OUT
        assert res.detail == "outside the relaxed body's maximal set"
        assert res.margin == pytest.approx(0.3, rel=1e-9)
        _check_separator(_kmin_problem(segment.vertices, a.mats), res.certificate)
        # a_2 = 1e-9 Z is met to within the witness residual
        a = OperatorTuple((0.5 * X, 1e-9 * Z), hermitian=True)
        assert kmin_member(segment, a).status is MembershipStatus.IN

    def test_tiny_triangle_is_not_a_point(self):
        # a triangle of size 1e-13 holds its own centroid (1e-13, 1e-13)
        tri = Polytope(1e-13 * np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
        c = tri.vertices.mean(axis=0)
        point = OperatorTuple(
            tuple(np.array([[x]], complex) for x in c), hermitian=True
        )
        assert kmin_member(tri, point, tol=1e-15).status is MembershipStatus.IN

    @pytest.mark.parametrize("scale", [1.002, 1.005, 1.008])
    def test_just_outside_the_square_is_boundary_with_a_separator(self, scale):
        # past the Kmin boundary point pauli(1/sqrt 2) by less than the
        # dilation 1 + 10 tol: Infeasible at scale 1, Feasible relaxed
        a = pauli(scale / ROOT2)
        res = kmin_member(SQUARE, a, tol=1e-3)
        assert res.status is MembershipStatus.BOUNDARY
        assert res.detail == "outside at scale 1, inside at scale 1 + 10 tol"
        assert res.margin == pytest.approx(0.01)
        sep = res.certificate
        assert isinstance(sep, Separator)
        report = dual_witness(
            _kmin_problem(SQUARE.vertices, a.mats),
            Verdict(Status.INFEASIBLE, None, sep, 0, 0.0),
        )
        assert report["margin"] > 0
        assert report["margin_gap"] <= 1e-9
        assert report["pencil_max_eig"] <= sep.psd_slack + 1e-12


class TestTheta:
    def test_square_brackets_root2(self):
        est = theta_min_alpha(SQUARE, pauli(), tol=0.02)
        assert est.lower <= ROOT2 <= est.upper + 0.02
        assert est.upper - est.lower <= 0.02 + 1e-12
        res = kmin_member(
            Polytope(SQUARE.vertices * est.upper), est.witness_point.scaled(est.upper)
        )
        assert res.status in (MembershipStatus.IN, MembershipStatus.BOUNDARY)

    def test_disc_brackets_two(self, traffic):
        # theta = ||T|| = 2 in closed form: one trace entry, nothing
        # compiled, the upper end a hair above 2 and the lower end where
        # the separator at a / 2 prices to 10 tol
        counts = traffic()
        trace = []
        est = theta_min_alpha(UNIT_DISC, nilpotent_pair(), tol=0.02, trace=trace)
        assert est.lower <= 2.0 <= est.upper
        assert est.upper - est.lower <= 2.0 * 1e-6 * 1.01
        assert trace == [(est.lower, est.upper)]
        assert (counts.compiles, counts.solves) == (0, 0)
        assert est.lower_separator.margin >= 10 * 1e-7

    def test_inside_returns_unit(self):
        est = theta_min_alpha(SQUARE, pauli(0.5), tol=0.02)
        assert est.lower == est.upper == 1.0

    def test_requires_kmax(self):
        with pytest.raises(NotInKmax):
            theta_min_alpha(SQUARE, pauli(3.0))

    def test_cube_brackets_root3_as_polytope_and_box(self):
        # theta of the cube [-1, 1]^3 is sqrt(3), attained by the Pauli
        # triple, whose joint numerical range is the unit ball
        box = Box(-np.ones(3), np.ones(3))
        triple = OperatorTuple((X, Y, Z), hermitian=True)
        est = theta_min_alpha(Polytope(box_vertices(box)), triple)
        ref = theta_min_alpha(box, triple)
        assert (est.lower, est.upper) == (ref.lower, ref.upper)
        assert est.lower <= np.sqrt(3.0) <= est.upper

    def test_trace_collects_brackets(self):
        trace = []
        est = theta_min_alpha(SQUARE, pauli(), tol=0.05, trace=trace)
        # alpha = 1's separator lifts the lower end at once; the upper end
        # starts at the certified hi = 4 and ends at the probe tol / 2 above
        assert len(trace) == 2 and trace[0][1] == 4.0
        assert trace[-1] == (est.lower, est.upper)
        assert all(type(end) is float for bracket in trace for end in bracket)
        lows, highs = zip(*trace)
        assert list(lows) == sorted(lows)
        assert list(highs) == sorted(highs, reverse=True)


def square_max_boundary_pair() -> OperatorTuple:
    """A seeded 3 x 3 pair bisected onto the boundary of square^max.

    ``||a_2|| = 1 + 1e-6`` is inside kmax_member's Boundary band.  The
    nominal square cannot decide it within the budget; the relaxed square
    holds a decomposition.
    """
    rng = np.random.default_rng(0)
    g = [herm_part(rng.standard_normal((3, 3))
                   + 1j * rng.standard_normal((3, 3))) for _ in range(2)]
    base = (0.2 * g[0] / op_norm(g[0]), g[1] / op_norm(g[1]))

    def pair(s):
        return OperatorTuple(tuple(s * m for m in base), hermitian=True)

    lo, hi = 0.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if kmax_member(SQUARE, pair(mid)).status is MembershipStatus.OUT:
            hi = mid
        else:
            lo = mid
    return pair(lo)


def _scaled_body_theta(K, a, tol):
    """Plain bisection with the scaled-body oracle: ``kmin_member(
    scale_body(K, alpha), a)`` returning In or Boundary."""

    def inside(alpha):
        res = kmin_member(scale_body(K, alpha), a)
        return res.status in (MembershipStatus.IN, MembershipStatus.BOUNDARY)

    if inside(1.0):
        return 1.0, 1.0
    lo = 1.0
    hi = max(2.0, 2.0 * a.d * max(op_norm(m) for m in a.mats)
             / require_interior_zero(K))
    while not inside(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _shared_operators(monkeypatch) -> list:
    """The operators that queries re-pose with ``with_rhs``, once per
    solve, in the order they solve."""
    shared, with_rhs = [], _Compiled.with_rhs

    def spied_with_rhs(self, rhs):
        shared.append(self)
        return with_rhs(self, rhs)

    monkeypatch.setattr(_Compiled, "with_rhs", spied_with_rhs)
    return shared


def _bits(result: ranges.MembershipResult) -> tuple:
    """A membership answer's status, margin and certificate arrays, each
    array as its shape and bytes, so that equal answers agree to the
    bit."""
    cert = result.certificate
    fields = dataclasses.asdict(cert) if dataclasses.is_dataclass(cert) else cert
    arrays = {k: v if isinstance(v, list) else [v] for k, v in fields.items()}
    return result.status, result.margin, {
        k: [(np.shape(x), np.asarray(x).tobytes()) for x in v]
        for k, v in arrays.items()
    }


SQUARE_SAMPLED = Sampled(
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
)


class TestThetaCompiledOnce:
    @pytest.mark.parametrize(
        "body, pair", [(SQUARE, pauli), (DISC_96, nilpotent_pair)]
    )
    def test_one_compile_and_one_solve_per_step(self, traffic, body, pair):
        counts = traffic()
        trace = []
        theta_min_alpha(body, pair(), tol=0.02, trace=trace)
        # alpha = 1, then one solve per bisection step: the first upper
        # end is certified without one
        assert (counts.compiles, counts.solves) == (1, len(trace))

    def test_one_hull_per_polytope(self, monkeypatch):
        # the kmax precheck and the inradius bound share one facet list,
        # built from vertices that cannot change under it
        calls = []
        hull = scipy.spatial.ConvexHull
        monkeypatch.setattr(
            scipy.spatial, "ConvexHull", lambda *a, **k: calls.append(1) or hull(*a, **k)
        )
        square = Polytope(SQUARE.vertices.copy())
        est = theta_min_alpha(square, pauli(), tol=0.02)
        assert len(calls) == 1
        assert halfplanes(square) is halfplanes(square)
        assert not halfplanes(square)[0].flags.writeable
        assert not square.vertices.flags.writeable
        assert est.lower <= math.sqrt(2.0) <= est.upper

    @pytest.mark.parametrize("tol", [0.02, 0.05])
    @pytest.mark.parametrize(
        "body, pair",
        [
            (SQUARE, pauli),
            (UNIT_DISC, nilpotent_pair),
            (UNIT_BOX, pauli),
            (SQUARE_SAMPLED, pauli),
        ],
    )
    def test_matches_the_scaled_body_bisection(self, body, pair, tol):
        # both brackets hold theta of the relaxed body, so they meet; the
        # separators' bracket closes tol / 2 wide
        est = theta_min_alpha(body, pair(), tol=tol)
        lo, hi = _scaled_body_theta(body, pair(), tol)
        assert max(est.lower, lo) <= min(est.upper, hi)
        assert est.upper - est.lower <= tol / 2 + 1e-12

    def test_decides_a_maximal_boundary_point_in_one_solve(self, traffic):
        a = square_max_boundary_pair()
        assert kmax_member(SQUARE, a).status is MembershipStatus.BOUNDARY
        assert op_norm(a.mats[1]) == pytest.approx(1.0 + 1e-6, abs=1e-8)
        counts = traffic()
        est = theta_min_alpha(SQUARE, a, tol=0.01)
        assert (est.lower, est.upper) == (1.0, 1.0)
        assert (counts.compiles, counts.solves) == (1, 1)

    def test_commuting_tuple_runs_no_sdp(self, traffic):
        counts = traffic()
        est = theta_min_alpha(SQUARE, OperatorTuple((Z, Z), hermitian=True))
        assert (est.lower, est.upper) == (1.0, 1.0)
        assert (counts.compiles, counts.solves) == (0, 0)

    def test_commuting_tuple_in_the_boundary_band_is_one_at_once(
        self, monkeypatch, traffic
    ):
        # 5e-7 past the square's edge x = 1: in kmax_member's Boundary band
        a = OperatorTuple(
            (np.diag([1.0 + 5e-7, 0.3]), np.diag([0.2, -1.0])), hermitian=True
        )
        assert kmax_member(SQUARE, a).status is MembershipStatus.BOUNDARY
        counts = traffic()

        def no_eigenbasis(*args, **kwargs):
            raise AssertionError("a diagonal tuple needs no eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", no_eigenbasis)
        trace = []
        est = theta_min_alpha(SQUARE, a, trace=trace)
        assert (est.lower, est.upper) == (1.0, 1.0)
        assert trace == [(1.0, 1.0)]
        assert (counts.compiles, counts.solves) == (0, 0)

    def test_logs_one_debug_line_per_solve(self, caplog):
        trace = []
        with caplog.at_level(logging.DEBUG, logger="mconvex"):
            theta_min_alpha(SQUARE, pauli(), tol=0.05, trace=trace)
        lines = [r.getMessage() for r in caplog.records if r.name == "mconvex"]
        assert len(lines) == len(trace)
        assert all(line.startswith("sdp solve: ") for line in lines)
        assert all("m=3, n=2, 4 blocks" in line for line in lines)


def _record_steps(monkeypatch) -> list:
    """Record (rhs, verdict) for every solve of a ``with_rhs`` copy."""
    steps = []
    with_rhs, solve = _Compiled.with_rhs, _Compiled.solve

    def recorded_with_rhs(self, rhs):
        out = with_rhs(self, rhs)
        out.posed_rhs = np.array(rhs)
        return out

    def recorded_solve(self, *args):
        verdict, z = solve(self, *args)
        steps.append((self.posed_rhs, verdict))
        return verdict, z

    monkeypatch.setattr(_Compiled, "with_rhs", recorded_with_rhs)
    monkeypatch.setattr(_Compiled, "solve", recorded_solve)
    return steps


def _check_cold_steps(body, steps) -> list:
    """Re-solve cold every recorded step: the cold status must be the
    same, and the step's own certificate must re-check on its problem.
    Returns the statuses of the steps."""
    verts = ranges._vertex_sets(body)[0]
    for rhs, verdict in steps:
        problem = _kmin_problem(verts, list(rhs[1:]))
        cold = solve_feasibility(problem, 1e-7, ranges.MAX_ITER)
        assert cold.status is verdict.status
        if verdict.status is Status.FEASIBLE:
            min_eig, resid = verify_witness(problem, verdict)
            assert min_eig >= sdp.WITNESS_MIN_EIG
            assert resid <= sdp.WITNESS_RESIDUAL
        else:
            _check_separator(problem, verdict.separator)
    return [v.status for _, v in steps]


def _check_separator(problem, sep) -> None:
    report = dual_witness(problem, Verdict(Status.INFEASIBLE, None, sep, 0, 0.0))
    assert report["margin"] >= 10 * 1e-7
    assert report["margin_gap"] <= 1e-9
    assert report["pencil_max_eig"] <= sep.psd_slack + 1e-12


class TestWarmSteps:
    @pytest.mark.parametrize(
        "body, pair",
        [
            (SQUARE, pauli),
            (DISC_96, nilpotent_pair),
            (UNIT_BOX, pauli),
            (SQUARE_SAMPLED, pauli),
        ],
    )
    def test_theta_skipped_steps_match_a_cold_solve(self, monkeypatch, body, pair):
        steps = _record_steps(monkeypatch)
        trace = []
        theta_min_alpha(body, pair(), tol=0.01, trace=trace)
        monkeypatch.undo()
        assert len(steps) == len(trace)
        # alpha = 1's separator certifies to within tol / 2 of theta, and
        # the probe there is Feasible: two cold-speed steps, none skipped
        assert [(v.status, v.iterations) for _, v in steps] == [
            (Status.INFEASIBLE, 4), (Status.FEASIBLE, 4)
        ]
        assert _check_cold_steps(body, steps) == [Status.INFEASIBLE, Status.FEASIBLE]

    def test_theta_steps_of_a_longer_query_match_a_cold_solve(self, monkeypatch):
        steps = _record_steps(monkeypatch)
        theta_min_alpha(SQUARE, symmetry_pair(), tol=0.01)
        monkeypatch.undo()
        # the probe tol / 2 above alpha = 1's lower end reaches further
        # on each of four continuations, which re-solve its posed rhs
        assert [(v.status, v.iterations) for _, v in steps] == [
            (Status.INFEASIBLE, 8), (Status.INFEASIBLE, 8), (Status.INFEASIBLE, 4),
            (Status.INFEASIBLE, 4), (Status.INFEASIBLE, 4), (Status.INFEASIBLE, 4),
            (Status.FEASIBLE, 8),
        ]
        assert len({id(rhs) for rhs, _ in steps}) == 3
        assert _check_cold_steps(SQUARE, steps) == [v.status for _, v in steps]

    def test_disc_out_rests_on_a_repriced_separator(self, monkeypatch):
        steps = _record_steps(monkeypatch)
        a = nilpotent_pair().scaled(0.55)
        res = kmin_member(DISC_96, a)
        monkeypatch.undo()
        assert res.status is MembershipStatus.OUT
        # inside the 96-gon's maximal set (w = 0.55), so the support scan
        # finds nothing; the nominal separator, which also clears 10 tol
        # on the relaxed polygon's rhs: no second solve
        assert res.detail == ""
        assert [v.status for _, v in steps] == [Status.INFEASIBLE]
        assert _check_cold_steps(DISC_96, steps) == [Status.INFEASIBLE]
        verts, mats = _relaxed_point(DISC_96, a)
        relaxed = dual_witness(
            _kmin_problem(verts, mats),
            Verdict(Status.INFEASIBLE, None, res.certificate, 0, 0.0),
        )
        assert relaxed["margin"] >= 10 * 1e-7
        _check_separator(_kmin_problem(verts, a.mats), res.certificate)
        assert res.margin == res.certificate.margin
        assert np.array_equal(res.certificate.dual, steps[0][1].separator.dual)

    def test_theta_closes_in_two_solves(self, monkeypatch):
        steps = _record_steps(monkeypatch)
        est = theta_min_alpha(DISC_96, nilpotent_pair(), tol=0.01)
        assert est.lower <= 2.0 <= est.upper
        # plain bisection took 10 solves here (100 iterations cold); the
        # separator at alpha = 1 lifts the lower end to 2 cos(pi / 96)
        # less a hair, and the probe tol / 2 above it is Feasible
        assert len(steps) == 2
        assert sum(v.iterations for _, v in steps) == 8
        assert est.lower == pytest.approx(2.0 * np.cos(np.pi / 96), abs=1e-4)

    @pytest.mark.parametrize(
        "body, pair", [(SQUARE, pauli), (DISC_96, nilpotent_pair)]
    )
    def test_lower_end_carries_its_separator(self, body, pair):
        a = pair()
        est = theta_min_alpha(body, a, tol=0.01)
        assert est.lower > 1.0 and est.lower_separator is not None
        # the step's own problem: a / lower in the relaxed body
        verts, center = ranges._vertex_sets(body)
        mats = [
            m / est.lower / RELAX + (1.0 - 1.0 / RELAX) * c * np.eye(a.n)
            for m, c in zip(a.mats, center)
        ]
        _check_separator(_kmin_problem(verts, mats), est.lower_separator)

    def test_lower_end_without_a_step_has_no_separator(self):
        assert theta_min_alpha(SQUARE, pauli(0.5)).lower_separator is None
        commuting = OperatorTuple((Z, Z), hermitian=True)
        assert theta_min_alpha(SQUARE, commuting).lower_separator is None


def _alpha_star(K, a, sep) -> tuple[float, float, float]:
    """``(c0, c1, alpha*)`` of a theta separator, from numpy traces of its
    dual alone: its margin on the relaxed SDP of ``a / alpha`` is ``c0 +
    c1 / alpha``, and alpha* is where that meets 10 tol."""
    _, center = ranges._vertex_sets(K)
    y = sep.dual
    c0 = np.trace(y[0]).real + (1.0 - 1.0 / RELAX) * sum(
        c * np.trace(y[l + 1]).real for l, c in enumerate(center)
    )
    c1 = sum(np.trace(m @ y[l + 1]).real for l, m in enumerate(a.mats)) / RELAX
    return c0, c1, c1 / (10 * 1e-7 - c0)


class TestThetaFromSeparators:
    @pytest.mark.parametrize(
        "body, pair",
        [(SQUARE, pauli), (DISC_96, nilpotent_pair), (SQUARE, symmetry_pair)],
    )
    def test_lower_end_is_the_alpha_star_of_its_separator(self, body, pair):
        a = pair()
        est = theta_min_alpha(body, a, tol=0.01)
        c0, c1, alpha_star = _alpha_star(body, a, est.lower_separator)
        assert alpha_star * (1.0 - 1e-9) <= est.lower <= alpha_star
        assert est.lower_separator.margin == pytest.approx(c0 + c1 / est.lower)
        assert est.lower_separator.margin >= 10 * 1e-7

    def test_an_unknown_step_moves_no_end_and_ends_the_search(self, monkeypatch):
        solve = _Compiled.solve
        calls = []

        def unknown_second(self, *args):
            calls.append(None)
            verdict, z = solve(self, *args)
            if len(calls) == 2:
                return Verdict(Status.UNKNOWN, None, None, verdict.iterations, 1.0), z
            return verdict, z

        monkeypatch.setattr(_Compiled, "solve", unknown_second)
        trace = []
        est = theta_min_alpha(SQUARE, pauli(), tol=0.01, trace=trace)
        # the bracket stays the certified [alpha*(alpha = 1), 4]
        assert len(calls) == 2
        assert trace == [trace[0]] * 2
        assert (est.lower, est.upper) == trace[0] and est.upper == 4.0
        assert est.lower == pytest.approx(ROOT2, abs=1e-4)
        assert _alpha_star(SQUARE, pauli(), est.lower_separator)[2] >= est.lower

    def test_an_unknown_first_step_keeps_the_start(self, monkeypatch):
        def unknown(self, tol, max_iter, z=None):
            return Verdict(Status.UNKNOWN, None, None, max_iter, 1.0), z

        monkeypatch.setattr(_Compiled, "solve", unknown)
        trace = []
        est = theta_min_alpha(SQUARE, pauli(), tol=0.01, trace=trace)
        assert (est.lower, est.upper, est.lower_separator) == (1.0, 4.0, None)
        # the opener at alpha = 1 is followed by one probe, at 1 + tol / 2,
        # whose Unknown ends the search
        assert trace == [(1.0, 4.0)] * 2

    def test_weak_separators_cost_at_most_twice_the_bisection(self, monkeypatch):
        # every separator weakened until it certifies just its own probe:
        # its dual on the sum-to-identity row shifted by -excess / n times
        # I, which moves the pencil by -excess / n times I (still negative
        # semidefinite) and the margin down to a hair above 10 tol
        solve = _Compiled.solve
        calls = []

        def weakened(self, tol, *args):
            calls.append(None)
            verdict, z = solve(self, tol, *args)
            sep = verdict.separator
            if sep is None:
                return verdict, z
            excess = sep.margin - 10 * tol * (1.0 + 1e-9)
            dual = sep.dual.copy()
            dual[0] -= excess / self.n * np.eye(self.n)
            sep = dataclasses.replace(sep, dual=dual, margin=sep.margin - excess)
            return dataclasses.replace(verdict, separator=sep), z

        monkeypatch.setattr(_Compiled, "solve", weakened)
        a = pauli()
        est = theta_min_alpha(SQUARE, a, tol=0.01)
        # weak enough to outlast the tight probes, yet capped by bisecting:
        # plain bisection solves at alpha = 1, then halves [1, 4] to 0.01
        bisection = 1 + math.ceil(math.log2((4.0 - 1.0) / 0.01))
        assert bisection < len(calls) <= 2 * bisection
        assert est.lower <= ROOT2 <= est.upper
        assert est.upper - est.lower <= 0.01
        verts, center = ranges._vertex_sets(SQUARE)
        mats = [
            m / est.lower / RELAX + (1.0 - 1.0 / RELAX) * c * np.eye(a.n)
            for m, c in zip(a.mats, center)
        ]
        _check_separator(_kmin_problem(verts, mats), est.lower_separator)

    def test_steady_separators_stay_within_twice_the_bisection(self, monkeypatch):
        # every separator cut back, as above, until it certifies just over
        # tol / 2 past max(lo, alpha): each probe past alpha = 1 stays put,
        # and its continuations spend the tight probes' budget
        tol, trace, alphas = 0.01, [], []
        floor = 10 * ranges._sdp_tol(ranges.MEMBER_TOL)
        range_solver = ranges._range_solver

        def steady(rows, *args):
            solve, terms = range_solver(rows, *args)

            def stepped(f, alpha=1.0):
                alphas.append(alpha)
                lo = trace[-1][0] if trace else 1.0
                reach = max(lo, alpha) + 0.5 * tol * (1.0 + 1e-3)
                verdict = solve(f, alpha)
                if (sep := verdict.separator) is None:
                    return verdict
                c0, c1 = terms(sep, f)
                excess = c0 - (floor - c1 / reach)
                if excess <= 0.0:
                    return verdict
                n = sep.dual.shape[-1]
                dual = sep.dual.copy()
                dual[0] -= excess / n * np.eye(n)
                sep = dataclasses.replace(sep, dual=dual, margin=sep.margin - excess)
                return dataclasses.replace(verdict, separator=sep)

            return stepped, terms

        monkeypatch.setattr(ranges, "_range_solver", steady)
        a = pauli()
        est = theta_min_alpha(SQUARE, a, tol=tol, trace=trace)
        tight = math.ceil(math.log2((4.0 - 1.0) / tol))
        bisection = 1 + tight
        # the opener, one tight probe, then a continuation for each step
        # of the budget left, and bisection
        stays = sum(p == q for p, q in zip(alphas, alphas[1:]))
        assert stays == tight - 1 and alphas[2:tight + 1] == [alphas[1]] * (tight - 1)
        assert len(alphas) == len(trace) <= 2 * bisection
        assert est.lower <= ROOT2 <= est.upper
        assert est.upper - est.lower <= tol
        verts, center = ranges._vertex_sets(SQUARE)
        mats = [
            m / est.lower / RELAX + (1.0 - 1.0 / RELAX) * c * np.eye(a.n)
            for m, c in zip(a.mats, center)
        ]
        _check_separator(_kmin_problem(verts, mats), est.lower_separator)

    def test_continuations_re_pose_nothing(self, monkeypatch):
        # a probe that stays put re-solves the operator it posed, from the
        # iterate its last solve stopped at: one with_rhs per distinct
        # rhs, and every verdict bit-identical to a freshly posed copy's
        with_rhs, solve = _Compiled.with_rhs, _Compiled.solve
        posed, solves = [], []

        def recorded_with_rhs(self, rhs):
            out = with_rhs(self, rhs)
            out.posed_from = (self, np.array(rhs))
            posed.append(out)
            return out

        def recorded_solve(self, tol, max_iter, z=None):
            verdict, z_out = solve(self, tol, max_iter, z)
            solves.append((self, tol, max_iter, None if z is None else z.copy(), verdict))
            return verdict, z_out

        monkeypatch.setattr(_Compiled, "with_rhs", recorded_with_rhs)
        monkeypatch.setattr(_Compiled, "solve", recorded_solve)
        theta_min_alpha(SQUARE, symmetry_pair(), tol=0.01)
        monkeypatch.undo()
        distinct = {op.posed_from[1].tobytes() for op, *_ in solves}
        assert len(posed) == len(distinct) == 3 < len(solves) == 7
        for op, tol, max_iter, z, verdict in solves:
            base, rhs = op.posed_from
            again, _ = base.with_rhs(rhs).solve(tol, max_iter, z)
            assert (again.status, again.iterations, again.residual) == (
                verdict.status, verdict.iterations, verdict.residual
            )
            if verdict.separator is not None:
                assert again.separator.margin == verdict.separator.margin
                assert np.array_equal(again.separator.dual, verdict.separator.dual)

    @pytest.mark.parametrize("tol", [0.0, -0.01, np.inf, np.nan])
    def test_theta_rejects_a_tol_that_is_not_positive_and_finite(self, tol):
        # the count of tight probes needs a positive finite tol
        with pytest.raises(ValueError):
            theta_min_alpha(SQUARE, pauli(), tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize(
    "query",
    [
        lambda tol: kmin_member(SQUARE, pauli(0.3), tol=tol),
        lambda tol: kmax_member(SQUARE, pauli(0.3), tol=tol),
        lambda tol: ucp_member(pauli(), pauli(0.3), tol=tol),
        lambda tol: mrange_equal(pauli(), pauli(), tol=tol),
        lambda tol: choi_li_equiv_check(0.3 * X, tol=tol),
    ],
    ids=["kmin", "kmax", "ucp", "equal", "choili"],
)
def test_membership_rejects_a_tol_that_is_not_positive_and_finite(query, tol):
    with pytest.raises(ValueError):
        query(tol)


def test_a_zero_row_in_the_band_is_unknown_at_once():
    # the equation 0 = e Z on a zero row, the flat segment's second
    # coordinate for kmin and the skew part of a Hermitian x's image
    # equation for ucp: too far off the range for any witness, too near
    # it to certify.  At 5e-7 the residue's Frobenius norm shows it; at
    # 1.2e-7 and 2e-7 only its entries, above the witness residual, do
    segment = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    for e in (5e-7, 1.2e-7, 2e-7):
        kmin_point = OperatorTuple((0.5 * X, e * Z), hermitian=True)
        ucp_point = OperatorTuple((0.5 * X + e * 1j * Z,))
        for query in (lambda: kmin_member(segment, kmin_point),
                      lambda: ucp_member(OperatorTuple((X,)), ucp_point)):
            t0 = time.perf_counter()
            res = query()
            assert time.perf_counter() - t0 < 0.5
            assert res.status is MembershipStatus.UNKNOWN


def _kmax_scale(K: Polytope, a: OperatorTuple) -> float:
    """The s with ``s a`` on the boundary of K^max, for 0 interior to K."""
    dirs, offsets = halfplanes(K)
    lam = np.linalg.eigvalsh(pencil_stack(a.mats, dirs))[:, -1]
    return float(np.min(offsets[lam > 0] / lam[lam > 0]))


#: the regular hexagon on the unit circle
HEXAGON = Polytope(np.column_stack([
    np.cos(np.pi * np.arange(6) / 3), np.sin(np.pi * np.arange(6) / 3)
]))


def test_theta_brackets_of_seeded_kmax_boundary_pairs():
    # 16 seeded pairs at n = 2-4 on the boundary of the maximal set: over
    # the square each matrix scaled to norm 1, over the hexagon the pair
    # scaled onto its nearest facet.  Every bracket is tol wide at most,
    # its lower end re-checks on its own problem and its witness point
    # is In; the iterations, summed, are pinned, so a change that spends
    # more on separators that reach further fails here
    tol, solves, iterations = 0.01, 0, 0
    solve = _Compiled.solve

    def counted(self, *args):
        nonlocal solves, iterations
        verdict, z = solve(self, *args)
        solves, iterations = solves + 1, iterations + verdict.iterations
        return verdict, z

    for seed in range(16):
        body, n = (SQUARE, HEXAGON)[seed % 2], 2 + (seed // 2) % 3
        rng = np.random.default_rng(seed)
        mats = [random_hermitian(n, rng) for _ in range(2)]
        if body is SQUARE:
            mats = [m / np.linalg.norm(m, 2) for m in mats]
        a = OperatorTuple(tuple(mats), hermitian=True)
        a = a.scaled(_kmax_scale(body, a))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Compiled, "solve", counted)
            est = theta_min_alpha(body, a, tol=tol)
        assert 1.0 <= est.lower <= est.upper <= est.lower + tol
        assert kmin_member(body, est.witness_point).status is MembershipStatus.IN
        if est.lower_separator is None:
            assert est.lower == 1.0
            continue
        verts, center = ranges._vertex_sets(body)
        point = [
            m / est.lower / RELAX + (1.0 - 1.0 / RELAX) * c * np.eye(n)
            for m, c in zip(a.mats, center)
        ]
        _check_separator(_kmin_problem(verts, point), est.lower_separator)
    assert (solves, iterations) == (52, 1736)


def test_theta_after_an_unknown_opener_probes_just_past_one(monkeypatch):
    # the seed-38 pair over the square, each matrix scaled to norm 1, on
    # the boundary of the maximal set: with a budget of 400 iterations
    # the opener at alpha = 1 is Unknown, and the search goes on to the
    # usual next probe, at 1 + tol / 2, which is Feasible
    monkeypatch.setattr(ranges, "MAX_ITER", 400)
    statuses = []
    solve = _Compiled.solve

    def recorded(self, *args):
        verdict, z = solve(self, *args)
        statuses.append(verdict.status)
        return verdict, z

    monkeypatch.setattr(_Compiled, "solve", recorded)
    rng = np.random.default_rng(38)
    mats = [random_hermitian(5, rng) for _ in range(2)]
    a = OperatorTuple(tuple(m / np.linalg.norm(m, 2) for m in mats), hermitian=True)
    trace = []
    est = theta_min_alpha(SQUARE, a, tol=0.01, trace=trace)
    assert statuses == [Status.UNKNOWN, Status.FEASIBLE]
    assert (est.lower, est.upper) == (1.0, 1.0 + 0.5 * 0.01)
    assert len(trace) == 2 and trace[0][0] == 1.0 and trace[0][1] > 2.0
    assert kmin_member(SQUARE, est.witness_point).status is MembershipStatus.IN


def test_kmin_over_a_polytope_agrees_with_ucp_over_its_vertices():
    # W(diag V) is the minimal set over conv V, so the decomposition SDP
    # and the Choi SDP of the diagonal tuple never answer In against Out;
    # seeded polytopes in d = 2, 3 with 3-7 vertices about their mean,
    # random points, and points at 0.95-1.05 of the kmin boundary (from a
    # theta bracket of a K^max boundary point) where 0 is interior
    rng = np.random.default_rng(0)
    answers = []
    for d in (2, 3):
        for count in range(3, 8):
            verts = rng.standard_normal((count, d))
            verts -= verts.mean(axis=0)
            body = Polytope(verts)
            diag = OperatorTuple(
                tuple(np.diag(verts[:, l]).astype(complex) for l in range(d)),
                hermitian=True,
            )
            a = OperatorTuple(
                tuple(random_hermitian(2, rng) for _ in range(d)), hermitian=True
            )
            points = [a.scaled(s) for s in rng.uniform(0.05, 0.8, 3)]
            if count > d:
                b = a.scaled(_kmax_scale(body, a))
                est = theta_min_alpha(body, b, tol=1e-3)
                mid = 0.5 * (est.lower + est.upper)
                points += [b.scaled(f / mid) for f in (0.95, 0.99, 1.01, 1.05)]
            for p in points:
                pair = {kmin_member(body, p).status, ucp_member(diag, p).status}
                assert pair != {MembershipStatus.IN, MembershipStatus.OUT}
                answers.append(pair)
    # the two decisive answers both occur, agreed on by both sides
    assert {MembershipStatus.IN} in answers and {MembershipStatus.OUT} in answers


def exact_compression(seed: int, m: int, n: int):
    """A random pair x of size m and a level-n compression of an
    ampliation of x: a point on the boundary of the matrix range of x."""
    rng = np.random.default_rng(seed)
    x = [herm_part(rng.standard_normal((m, m))
                   + 1j * rng.standard_normal((m, m))) for _ in range(2)]
    r = -(-n // m)
    g = rng.standard_normal((m * r, n)) + 1j * rng.standard_normal((m * r, n))
    v, _ = np.linalg.qr(g)
    b = [v.conj().T @ np.kron(xj, np.eye(r)) @ v for xj in x]
    return OperatorTuple(tuple(x), hermitian=True), OperatorTuple(tuple(b), hermitian=True)


def _ucp_scalar_past_one():
    # 1 + 5e-7 lies past W(Z) = [-1, 1] by less than any certificate can
    # show (10 tol = 1e-6); pulled in by 1 - 1e-6 it is a member
    point = OperatorTuple((np.array([[1.0 + 5e-7 + 0j]]),), hermitian=True)
    return ucp_member(OperatorTuple((Z,), hermitian=True), point, max_iter=200)


class TestMembershipCompiledOnce:
    @pytest.mark.parametrize(
        "query, status, solves",
        [
            # the square's decomposition feasible
            (lambda: kmin_member(SQUARE, pauli(0.6)), "In", 1),
            # the 96-gon's nominal Infeasible, whose separator also shows
            # the relaxed polygon infeasible
            (lambda: kmin_member(DISC_96, nilpotent_pair().scaled(0.55)),
             "Out", 1),
            # nominal Infeasible, whose separator also shows the relaxed
            # square infeasible
            (lambda: kmin_member(SQUARE, pauli()), "Out", 1),
            # nominal, pushed-out and pulled-in points all Unknown; each
            # solve continues from the last one's iterate, and by 28
            # iterations a side closes (the ucp-warm Boundary case below)
            (lambda: ucp_member(*exact_compression(0, 2, 3), max_iter=16),
             "Unknown", 3),
        ],
        ids=["square-in", "disc-out", "square-out", "ucp-unknown"],
    )
    def test_one_compile_per_query(self, traffic, query, status, solves):
        counts = traffic()
        assert query().status.value == status
        assert (counts.compiles, counts.solves) == (1, solves)

    @pytest.mark.parametrize(
        "query, solves",
        [
            # nominal square Unknown, relaxed square Feasible
            (lambda: kmin_member(SQUARE, square_max_boundary_pair(), max_iter=300),
             2),
            # nominal and pushed-out point Unknown, pulled-in point Feasible
            (_ucp_scalar_past_one, 3),
            # the same, on a boundary compression whose pulled-in solve
            # starts from the pushed-out solve's iterate
            (lambda: ucp_member(*exact_compression(0, 2, 3), max_iter=64), 3),
        ],
        ids=["kmin", "ucp", "ucp-warm"],
    )
    def test_relaxed_feasible_is_boundary(self, traffic, query, solves):
        # a Feasible relaxed solve puts the point within the Boundary band,
        # whatever the solve on the other side gave
        counts = traffic()
        res = query()
        assert res.status is MembershipStatus.BOUNDARY
        assert res.margin == pytest.approx(1e-6)
        assert (counts.compiles, counts.solves) == (1, solves)


def _body_scaled_kmin(K, a, max_iter):
    """kmin_member's bracketing with one compile per scale: the
    decomposition SDP over the dilated vertices ``c + s (v - c)``, or,
    for a disc, its rule from ``||T||`` alone, Out past ``1 + 10 tol``.
    Returns the status and, for Out, the margin."""
    if isinstance(K, Disc):
        norm = _disc_norm(K, a)
        if norm <= 1.0:
            return "In", None
        if norm <= 1.0 + 10 * ranges.MEMBER_TOL:
            return "Boundary", None
        return "Out", K.radius * (norm - 1.0)
    verts, center = ranges._vertex_sets(K)

    def solve(s):
        problem = _kmin_problem(center + s * (verts - center), a.mats)
        return solve_feasibility(problem, 1e-7, max_iter)

    nominal = solve(1.0)
    if nominal.status is Status.FEASIBLE:
        return "In", None
    if nominal.status is Status.INFEASIBLE:
        if solve(RELAX).status is Status.FEASIBLE:
            return "Boundary", None
        return "Out", nominal.separator.margin
    relaxed = solve(RELAX)
    if relaxed.status is Status.INFEASIBLE:
        return "Out", relaxed.separator.margin
    return ("Boundary" if relaxed.status is Status.FEASIBLE else "Unknown"), None


def _around(center, scale, pair) -> OperatorTuple:
    return OperatorTuple(
        tuple(c * np.eye(pair.n) + scale * m for c, m in zip(center, pair.mats)),
        hermitian=True,
    )


OFF_DISC = Disc(np.array([0.3, -0.2]), 1.2)
OFF_BOX = Box(np.array([-0.5, -1.0]), np.array([1.5, 1.0]))
OFF_TRIANGLE = Polytope(np.array([[-1.0, -0.5], [1.5, -0.5], [0.2, 1.5]]))
TRIANGLE_CENTER = OFF_TRIANGLE.vertices.mean(axis=0)


def _relaxed_point(K, a) -> tuple[np.ndarray, list]:
    """kmin's posed vertices, and the point ``c + (a - c) / s`` that
    stands for ``a`` on its relaxed body (center c, relaxed scale s)."""
    verts, center = ranges._vertex_sets(K)
    mats = [
        m / RELAX + (1.0 - 1.0 / RELAX) * c * np.eye(a.n)
        for m, c in zip(a.mats, center)
    ]
    return verts, mats


def _scale_to_kmax_boundary(K, a: OperatorTuple) -> float:
    """The s with ``s a`` on the boundary of K^max, for 0 interior to K."""
    if isinstance(K, Disc):
        m = (a.mats[0] - K.center[0] * np.eye(a.n)) + 1j * (
            a.mats[1] - K.center[1] * np.eye(a.n)
        )
        return K.radius / numerical_radius(m, tol=1e-12)
    return _kmax_scale(K, a)


def _no_scan(*args, **kwargs):
    return None


UCP_SCAN_DETAIL = "outside the relaxed maximal set of the range's first level"


TRIANGLE = Polytope(np.array([[2.0, 0.0], [-1.0, 1.5], [-1.0, -1.5]]))


class TestSupportScan:
    @pytest.mark.parametrize(
        "body, a",
        [
            (DISC_96, nilpotent_pair().scaled(1.2)),
            (SQUARE, pauli(1.2)),
            (UNIT_BOX, pauli(1.2)),
            (SQUARE_SAMPLED, pauli(1.2)),
            (OFF_TRIANGLE, _around(TRIANGLE_CENTER, 3.0, pauli(0.3))),
        ],
        ids=["disc", "square", "box", "sampled", "off-center-triangle"],
    )
    def test_out_of_the_maximal_set_is_out_without_a_solve(
        self, traffic, body, a, core_reprices
    ):
        assert kmax_member(body, a).status is MembershipStatus.OUT
        counts = traffic()
        res = kmin_member(body, a)
        assert (counts.compiles, counts.solves) == (0, 0)
        assert res.status is MembershipStatus.OUT
        assert res.detail == "outside the relaxed body's maximal set"
        sep = res.certificate
        assert res.margin == sep.margin
        # the pencil is negative semidefinite and the margin clears 10 tol
        # on the relaxed body
        verts, mats = _relaxed_point(body, a)
        relaxed = dual_witness(
            _kmin_problem(verts, mats), Verdict(Status.INFEASIBLE, None, sep, 0, 0.0)
        )
        assert relaxed["margin"] >= 10 * 1e-7
        assert relaxed["pencil_max_eig"] <= sep.psd_slack + 1e-12
        # the reported margin is priced on the query itself
        _check_separator(_kmin_problem(verts, a.mats), sep)
        # the SDP core accepts the closed-form price on the same rows
        assert core_reprices() == 1

    @pytest.mark.parametrize(
        "x, a",
        [
            (OperatorTuple((Z,), hermitian=True),
             OperatorTuple((np.diag([1.2, 0.3]),), hermitian=True)),
            (pauli(), pauli(1.2)),
            (pauli(), nilpotent_pair().scaled(1.3)),
        ],
        ids=["interval", "pauli", "nilpotent"],
    )
    def test_ucp_out_of_the_first_level_is_out_without_a_compile(
        self, monkeypatch, traffic, x, a, core_reprices
    ):
        # lambda_max(sum c_l a_l) <= h_x(c) fails along a scanned c, so the
        # rank-one Choi pencil answers before the SDP is compiled
        counts = traffic()
        res = ucp_member(x, a)
        assert (counts.compiles, counts.solves) == (0, 0)
        assert res.status is MembershipStatus.OUT
        assert res.detail == UCP_SCAN_DETAIL
        assert res.margin == res.certificate.margin >= 10 * 1e-7
        assert core_reprices() == 1
        monkeypatch.setattr(ranges, "_support_cut", _no_scan)
        assert ucp_member(x, a).status is MembershipStatus.OUT

    def test_ucp_over_a_triple_is_not_scanned(self, traffic):
        # the scan covers d <= 2 only: a triple past its first level is
        # still Out, from the Choi SDP
        triple = OperatorTuple((X, Z, Y), hermitian=True)
        counts = traffic()
        res = ucp_member(triple, triple.scaled(1.2))
        assert res.status is MembershipStatus.OUT
        assert res.detail != UCP_SCAN_DETAIL
        assert counts.compiles == 1

    def test_the_separator_is_the_support_line_of_a_rank_one_pencil(self):
        # over the square, (1.2 X + 0.1, 0.5 Z) is cut off by x <= 1 the
        # furthest, 0.3: the dual is (-1, 1, 0) kron uu* up to its
        # normalization, u the top eigenvector of X
        a = OperatorTuple((1.2 * X + 0.1 * np.eye(2), 0.5 * Z), hermitian=True)
        res = kmin_member(SQUARE, a)
        y = res.certificate.dual
        u = np.linalg.eigh(X)[1][:, -1]
        uu = np.outer(u, u.conj())
        coef = np.array([np.vdot(uu, yr).real for yr in y])
        np.testing.assert_allclose(
            y, coef[:, None, None] * uu[None], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(coef / coef[1], [-1.0, 1.0, 0.0], atol=1e-12)
        assert res.margin == pytest.approx(0.3 * coef[1], rel=1e-12)

    @pytest.mark.parametrize(
        "body", [DISC_96, SQUARE, TRIANGLE], ids=["disc", "square", "triangle"]
    )
    def test_statuses_do_not_depend_on_the_scan(self, monkeypatch, body):
        # points at 0.9-1.1 of the K^max boundary along seeded pairs; with
        # the scan finding nothing the solves decide every one of them
        rng = np.random.default_rng(23)
        points = []
        for n in (2, 3):
            for _ in range(2):
                b = OperatorTuple(
                    tuple(random_hermitian(n, rng) for _ in range(2)), hermitian=True
                )
                b = b.scaled(_scale_to_kmax_boundary(body, b))
                points += [b.scaled(f) for f in (0.9, 0.97, 1.0, 1.03, 1.1)]
        with_scan = [kmin_member(body, p) for p in points]
        monkeypatch.setattr(ranges, "_support_cut", _no_scan)
        without = [kmin_member(body, p).status for p in points]
        assert [r.status for r in with_scan] == without
        assert set(without) == {MembershipStatus.IN, MembershipStatus.OUT}
        scanned = [r.detail == "outside the relaxed body's maximal set"
                   for r in with_scan]
        # the scan answers exactly the points past the K^max boundary
        assert scanned == [f > 1.0 for _ in range(4) for f in (0.9, 0.97, 1.0, 1.03, 1.1)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_kmin_and_kmax_nest(seed):
    # K^min and K^max share their scalar level, so K^min lies in K^max:
    # kmin In is never kmax Out, and a point outside the relaxed body's
    # maximal set is kmin Out.  Seeded polytopes in d = 2, 3 about their
    # mean, with points along a seeded tuple about the K^max boundary
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    verts = rng.standard_normal((int(rng.integers(d + 1, 8)), d))
    body = Polytope(verts - verts.mean(axis=0))
    verts, center = ranges._vertex_sets(body)
    relaxed = scale_body(body, RELAX, center)
    n = int(rng.integers(1, 4))
    b = OperatorTuple(tuple(random_hermitian(n, rng) for _ in range(d)), hermitian=True)
    b = b.scaled(_kmax_scale(body, b))
    for f in (0.5, 0.9, 0.99, 1.01, 1.1):
        p = b.scaled(f)
        kmin = kmin_member(body, p).status
        if kmin is MembershipStatus.IN:
            assert kmax_member(body, p).status is not MembershipStatus.OUT
        if kmax_member(relaxed, p).status is MembershipStatus.OUT:
            assert kmin is MembershipStatus.OUT


def _conjugate(u: np.ndarray, a: OperatorTuple) -> OperatorTuple:
    return OperatorTuple(tuple(u @ m @ u.conj().T for m in a.mats), a.hermitian)


def _agree(*results) -> None:
    """In against Out is a disagreement; Boundary or Unknown is none."""
    statuses = {r.status for r in results}
    assert statuses != {MembershipStatus.IN, MembershipStatus.OUT}


#: the budget of the identities' solves: a point in the band answers
#: Unknown, which agrees with anything, instead of running 50000 steps
_IDENTITY_ITER = 2000


def _range_points(seed: int):
    """A seeded Hermitian pair x of size 2 or 3 and points along a level-n
    compression of its ampliation, about its scalar tuple: inside, near
    the boundary and outside W_n(x)."""
    m, n = [2, 3][seed % 2], 1 + (seed // 2) % 2
    x, b = exact_compression(seed, m, n)
    center = [np.trace(xj).real / m for xj in x.mats]
    points = [
        OperatorTuple(
            tuple(c * np.eye(n) + f * (bj - c * np.eye(n))
                  for c, bj in zip(center, b.mats)),
            hermitian=True,
        )
        for f in (0.5, 0.99, 1.01, 1.5)
    ]
    return x, points


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_ucp_over_x_and_over_x_direct_sum_x_agree(seed):
    # x and its direct sum with itself have one matrix range
    x, points = _range_points(seed)
    xx = linalg.direct_sum(x, x)
    for p in points:
        _agree(ucp_member(x, p, max_iter=_IDENTITY_ITER),
               ucp_member(xx, p, max_iter=_IDENTITY_ITER))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_ucp_is_invariant_under_unitary_conjugation(seed):
    # W_n(x) is closed under conjugating a, and W(x) = W(w x w*)
    x, points = _range_points(seed)
    rng = np.random.default_rng(seed)
    w = linalg.random_isometry(x.n, x.n, rng)
    for p in points:
        u = linalg.random_isometry(p.n, p.n, rng)
        _agree(ucp_member(x, p, max_iter=_IDENTITY_ITER),
               ucp_member(x, _conjugate(u, p), max_iter=_IDENTITY_ITER),
               ucp_member(_conjugate(w, x), p, max_iter=_IDENTITY_ITER))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_kmin_is_invariant_under_unitary_conjugation(seed):
    # seeded polytopes in d = 2, 3 about their mean, with points along a
    # seeded tuple about the K^max boundary and a unitary conjugate of each
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    verts = rng.standard_normal((int(rng.integers(d + 1, 8)), d))
    body = Polytope(verts - verts.mean(axis=0))
    n = int(rng.integers(2, 4))
    b = OperatorTuple(tuple(random_hermitian(n, rng) for _ in range(d)), hermitian=True)
    b = b.scaled(_kmax_scale(body, b))
    u = linalg.random_isometry(n, n, rng)
    for f in (0.5, 0.8, 0.95, 1.05):
        p = b.scaled(f)
        _agree(kmin_member(body, p, max_iter=_IDENTITY_ITER),
               kmin_member(body, _conjugate(u, p), max_iter=_IDENTITY_ITER))


_DILATION = "decomposed on the circle by a unitary dilation"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_a_disc_is_decided_as_its_dilation_says(seed):
    # D^min is {||T|| <= 1}, T = ((a_1 - c_1) + i (a_2 - c_2)) / r, and it
    # holds the minimal set of its inscribed 96-gon P.  Seeded discs and
    # non-normal T (so the pair does not commute) at ||T|| around 1: In
    # exactly when ||T|| <= 1, by the dilation, Boundary up to 1 + 10 tol
    # and Out past it, with nothing compiled or solved; every Out carries
    # a dual that numpy prices at r (||T|| - 1) and finds NSD on the
    # circle; and In over P is never Out over the disc
    rng = np.random.default_rng(seed)
    disc = Disc(rng.uniform(-2.0, 2.0, 2), float(rng.uniform(0.2, 3.0)))
    angles = 2.0 * np.pi * np.arange(96) / 96
    polygon = Polytope(disc.center + disc.radius * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    ))
    n = int(rng.integers(2, 4))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for f in (0.5, 0.99, 1 + 3e-7, 1.01, 1.5):
        t = f * disc.radius * g / np.linalg.norm(g, 2)
        p = OperatorTuple(
            tuple(c * np.eye(n) + m for c, m in zip(disc.center, (herm_part(t), skew_part(t)))),
            hermitian=True,
        )
        norm = _disc_norm(disc, p)
        with pytest.MonkeyPatch.context() as mp:
            counts = count_traffic(mp)
            res = kmin_member(disc, p)
        assert (counts.compiles, counts.solves) == (0, 0)
        if norm <= 1.0:
            assert (res.status, res.detail) == (MembershipStatus.IN, _DILATION)
        elif norm <= 1.0 + 10 * ranges.MEMBER_TOL:
            assert res.status is MembershipStatus.BOUNDARY
        else:
            assert res.status is MembershipStatus.OUT
            y = res.certificate.dual
            priced = np.trace(y[0]).real + sum(
                np.trace(yl @ al).real for yl, al in zip(y[1:], p.mats)
            )
            assert priced == pytest.approx(disc.radius * (norm - 1.0), rel=1e-9, abs=1e-12)
            assert res.margin == pytest.approx(priced, rel=1e-12, abs=1e-15)
            assert _circle_pencil_max(disc, y) <= 1e-12
        if kmin_member(polygon, p, max_iter=_IDENTITY_ITER).status is MembershipStatus.IN:
            assert res.status is not MembershipStatus.OUT


def test_a_dilation_that_misses_its_equations_is_unknown(monkeypatch, traffic):
    # the dilation is checked against the witness residual before it is
    # reported; with no path left to fall through to, a miss is Unknown
    a = nilpotent_pair().scaled(0.45)
    assert kmin_member(UNIT_DISC, a).status is MembershipStatus.IN
    monkeypatch.setattr(ranges, "WITNESS_RESIDUAL", -1.0)
    counts = traffic()
    res = kmin_member(UNIT_DISC, a)
    assert (res.status, res.margin, res.certificate) == (
        MembershipStatus.UNKNOWN, 0.0, None
    )
    assert res.detail.startswith("the unitary dilation misses its equations by ")
    assert (counts.compiles, counts.solves) == (0, 0)


def _block_dilation(K: Disc, a: OperatorTuple) -> tuple:
    """The unitary dilation of ``_disc_member`` as it was built before it
    was assembled in place, with ``np.block``, its ``scipy.linalg.schur``
    form and the In certificate read from that form."""
    n = a.n
    t = ranges._recentered(K, a) / K.radius
    w, s, vh = np.linalg.svd(t)
    defect = np.sqrt((1.0 - s) * (1.0 + s))
    u = np.block([
        [t, (w * defect) @ w.conj().T],
        [(vh.conj().T * defect) @ vh, -t.conj().T],
    ])
    schur, z = scipy.linalg.schur(u, output="complex")
    lam = np.diagonal(schur) / np.abs(np.diagonal(schur))
    top = z[:n].T
    verts = K.center + K.radius * np.column_stack([lam.real, lam.imag])
    cert = {"h": top[:, :, None] * top.conj()[:, None, :], "vertices": verts}
    return u, (schur, z), cert


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_in_place_dilation_is_the_block_dilation_to_the_bit(n):
    # zgees with scipy.linalg.schur's workspace query and arguments gives
    # its Schur form to the bit, so the certificate is unchanged
    rng = np.random.default_rng(50 + n)
    disc = Disc(rng.uniform(-1.0, 1.0, 2), float(rng.uniform(0.5, 2.0)))
    for f in (0.3, 0.9, 0.999):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = f * disc.radius * g / np.linalg.norm(g, 2)
        a = OperatorTuple(tuple(
            c * np.eye(n) + m for c, m in zip(disc.center, (herm_part(t), skew_part(t)))
        ), hermitian=True)
        u, (schur, z), want = _block_dilation(disc, a)
        lwork = zgees(lambda x: None, u, lwork=-1)[-2][0].real.astype(np.int_)
        got = zgees(lambda x: None, u, lwork=lwork)
        assert got[0].tobytes() == schur.tobytes() and got[3].tobytes() == z.tobytes()
        res = ranges._disc_member(disc, a, ranges.MEMBER_TOL)
        assert (res.status, res.detail) == (MembershipStatus.IN, _DILATION)
        for key in ("h", "vertices"):
            assert res.certificate[key].tobytes() == want[key].tobytes()


def test_an_overflowing_pair_is_out_without_a_warning():
    # (m + m*) / 2 stored inf for the entry 1e308, and kmax read its
    # verdict from the overflow: Boundary with a NaN margin; the commutator
    # of the raw entries overflowed too.  Both queries are plainly Out
    a = OperatorTuple((np.array([[0.0, 1e308], [1e308, 0.0]]), Z), hermitian=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ranges._joint_spectrum(a) is None
        for res in (kmax_member(UNIT_BOX, a), kmin_member(UNIT_DISC, a)):
            assert res.status is MembershipStatus.OUT
            assert math.isfinite(res.margin) and res.margin >= 1e300


def _disc_alpha_by_bisection(K: Disc, a: OperatorTuple) -> float:
    """The least alpha > 0 with ``||T_a / alpha - c|| <= r``, for ``T_a =
    a_1 + i a_2`` and c the center of K as a complex number, by bisection
    in numpy: ``a / alpha`` is in D^min from there on."""
    t, c = a.mats[0] + 1j * a.mats[1], complex(*K.center)

    def inside(alpha):
        return np.linalg.norm(t / alpha - c * np.eye(a.n), 2) <= K.radius

    lo, hi = 1e-6, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_theta_over_a_disc_is_its_closed_form(seed):
    # seeded off-center discs and non-normal pairs on their maximal set's
    # boundary: the bracket, at most tol wide with nothing compiled or
    # solved, holds the alpha* that numpy bisects; the witness point is
    # In by the dilation, and the lower end's separator, NSD on the
    # circle, re-prices on a / lower to its stored margin
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(0.2, 3.0))
    disc = Disc(radius * rng.uniform(-0.55, 0.55, 2), radius)
    n = int(rng.integers(2, 4))
    b = OperatorTuple(tuple(random_hermitian(n, rng) for _ in range(2)), hermitian=True)
    b = b.scaled(_scale_to_kmax_boundary(Disc(np.zeros(2), radius), b))
    a = _around(disc.center, 1.0, b)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_traffic(mp)
        trace = []
        est = theta_min_alpha(disc, a, tol=0.01, trace=trace)
    assert (counts.compiles, counts.solves) == (0, 0)
    assert trace == [(est.lower, est.upper)]
    assert est.upper - est.lower <= 0.01
    alpha = _disc_alpha_by_bisection(disc, a)
    assert est.lower <= max(alpha, 1.0) <= est.upper
    assert kmin_member(disc, est.witness_point).detail == _DILATION
    sep = est.lower_separator
    if est.lower == 1.0:
        assert sep is None
        return
    y = sep.dual
    priced = np.trace(y[0]).real + sum(
        np.trace(yl @ al).real for yl, al in zip(y[1:], a.mats)
    ) / est.lower
    assert priced == pytest.approx(sep.margin, rel=1e-9)
    assert sep.margin >= 10 * 1e-7
    assert _circle_pencil_max(disc, y) <= 1e-12


def test_theta_below_one_over_a_disc_is_one():
    # ||T|| = 0.8 < 1: a is in D^min itself
    trace = []
    est = theta_min_alpha(UNIT_DISC, nilpotent_pair().scaled(0.4), trace=trace)
    assert (est.lower, est.upper, est.lower_separator) == (1.0, 1.0, None)
    assert trace == [(1.0, 1.0)]


def test_theta_over_a_disc_keeps_its_start_when_the_dilation_fails():
    # the nilpotent pair (theta 2): when the dilation does not certify
    # alpha*, the upper end stays at the start of the search, whose point
    # a / start is In on its own; the lower end is _disc_cut's at alpha*
    # all the same, and re-prices on a / lower to its stored margin
    a = nilpotent_pair()
    closed = theta_min_alpha(UNIT_DISC, a)
    unknown = ranges.MembershipResult(MembershipStatus.UNKNOWN, 0.0, None, "planted")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranges, "_disc_member", lambda *args: unknown)
        est = theta_min_alpha(UNIT_DISC, a)
    slack = require_interior_zero(UNIT_DISC)
    start = max(2.0, 2.0 * a.d * max(op_norm(m) for m in a.mats) / slack)
    assert est.upper == start > closed.upper
    assert est.lower == closed.lower and 2.0 - 1e-5 < est.lower <= 2.0
    sep = est.lower_separator
    priced = np.trace(sep.dual[0]).real + sum(
        np.trace(yl @ al).real for yl, al in zip(sep.dual[1:], a.mats)
    ) / est.lower
    assert priced == pytest.approx(sep.margin, rel=1e-9)
    assert sep.margin >= 10 * 1e-7
    assert _circle_pencil_max(UNIT_DISC, sep.dual) <= 1e-12
    assert kmin_member(UNIT_DISC, est.witness_point).status is MembershipStatus.IN


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_theta_of_a_unitary_conjugate_overlaps(seed):
    # theta is invariant under unitary conjugation, so the certified
    # brackets of a and of u a u* overlap; seeded pairs on the boundary of
    # the maximal set of the square and of an off-center disc
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    u = linalg.random_isometry(n, n, rng)
    b = OperatorTuple(tuple(random_hermitian(n, rng) for _ in range(2)), hermitian=True)
    disc = Disc(np.array([0.2, -0.1]), 0.8)
    points = [
        (SQUARE, b.scaled(_scale_to_kmax_boundary(SQUARE, b))),
        (disc, _around(disc.center, _scale_to_kmax_boundary(Disc(np.zeros(2), 0.8), b), b)),
    ]
    for body, p in points:
        first = theta_min_alpha(body, p, tol=0.05)
        other = theta_min_alpha(body, _conjugate(u, p), tol=0.05)
        assert max(first.lower, other.lower) <= min(first.upper, other.upper)


@pytest.mark.parametrize("r", [0.98, 0.995])
def test_a_disc_point_off_a_coarse_polygon_is_a_dilation(traffic, r):
    # (r cos 15 D + eps X, r sin 15 D), D = diag(1, -1), eps = 1e-3, is in
    # D^min (||T|| <= r + eps < 1) but outside the maximal set of the
    # inscribed 12-gon, whose support scan cuts it off; over the disc the
    # dilation decides it on 4 blocks, with no compile and no solve
    dd, eps, angle = np.diag([1.0, -1.0]), 1e-3, math.radians(15.0)
    a = OperatorTuple((r * math.cos(angle) * dd + eps * X, r * math.sin(angle) * dd),
                      hermitian=True)
    twelve = 2.0 * np.pi * np.arange(12) / 12
    res = kmin_member(Polytope(np.column_stack([np.cos(twelve), np.sin(twelve)])), a)
    assert (res.status, res.detail) == (
        MembershipStatus.OUT, "outside the relaxed body's maximal set"
    )
    counts = traffic()
    res = kmin_member(UNIT_DISC, a)
    assert (res.status, res.detail) == (MembershipStatus.IN, _DILATION)
    assert np.shape(res.certificate["h"]) == (4, 2, 2)
    assert (counts.compiles, counts.solves) == (0, 0)


@pytest.mark.parametrize(
    "query",
    [
        lambda max_iter: kmin_member(SQUARE, pauli(0.3), max_iter=max_iter),
        lambda max_iter: kmin_member(UNIT_DISC, nilpotent_pair().scaled(0.55),
                                     max_iter=max_iter),
        lambda max_iter: ucp_member(pauli(), pauli(0.3), max_iter=max_iter),
    ],
    ids=["kmin", "kmin-disc", "ucp"],
)
def test_membership_rejects_a_negative_max_iter(query):
    # a negative budget ran no iteration and answered Unknown
    with pytest.raises(ValueError, match="needs a nonnegative max_iter, not -5"):
        query(-5)


def test_interior_points_of_a_polytope_pose_no_block(traffic):
    # the square's corners among 60 interior points: the 4 corners are
    # posed, in listed order, so both bodies share one operator, compiled
    # once, and the answer is the square's to the bit
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(-0.9, 0.9, (30, 2)), SQUARE.vertices,
                     rng.uniform(-0.9, 0.9, (30, 2))])
    a = pauli(0.6)
    counts = traffic()
    res = kmin_member(Polytope(pts), a)
    want = kmin_member(SQUARE, a)
    assert [op.block_sizes for op in counts.compiled] == [(2,) * 4]
    assert res.status is want.status is MembershipStatus.IN
    assert np.array_equal(res.certificate["vertices"], SQUARE.vertices)
    assert all(np.array_equal(g, w) for g, w in
               zip(res.certificate["h"], want.certificate["h"]))
    assert res.margin == want.margin


def test_a_sampled_body_clips_its_facet_list_once(monkeypatch):
    # two kmin queries and a theta bracket pose one vertex list
    calls = []
    clip = scipy.spatial.HalfspaceIntersection
    monkeypatch.setattr(
        scipy.spatial, "HalfspaceIntersection",
        lambda *a, **k: calls.append(1) or clip(*a, **k),
    )
    body = Sampled(SQUARE_SAMPLED.directions, SQUARE_SAMPLED.support_values)
    assert kmin_member(body, pauli(0.5)).status is MembershipStatus.IN
    assert kmin_member(body, pauli(0.9)).status is MembershipStatus.OUT
    est = theta_min_alpha(body, pauli(0.9), tol=0.05)
    assert est.lower <= 0.9 * ROOT2 <= est.upper + 0.05
    assert calls == [1]
    assert not body._clipped.flags.writeable


def test_choili_builds_its_square_once(monkeypatch):
    import mconvex.acceptance as acceptance

    assert acceptance.SQUARE is ranges.SQUARE
    choi_li_equiv_check(0.3 * X)
    calls = []
    hull = scipy.spatial.ConvexHull
    monkeypatch.setattr(
        scipy.spatial, "ConvexHull", lambda *a, **k: calls.append(1) or hull(*a, **k)
    )
    report = choi_li_equiv_check(np.array([[1.2, 0.1], [0.0, -0.3]]))
    assert report["square_min"].status is MembershipStatus.OUT
    assert calls == []


class TestBodyScaledReference:
    # In, Out and near-boundary points of off-center bodies.  The disc's
    # minimal set is the contractions (recentered and rescaled), so the
    # nilpotent pair, of norm 2, leaves it at scale 1/2, and its reference
    # is that rule, computed by numpy; the box is a
    # translated square, whose minimal set the Pauli pair leaves at
    # 1/sqrt(2); the triangle is a simplex, whose minimal and maximal sets
    # agree, and 0.3 (X, Z) reaches its nearest edge at scale 20/9
    @pytest.mark.parametrize(
        "body, a, status",
        [
            (OFF_DISC, _around(OFF_DISC.center, 1.2 * 0.4, nilpotent_pair()),
             "In"),
            (OFF_DISC, _around(OFF_DISC.center, 1.2 * 0.6, nilpotent_pair()),
             "Out"),
            (OFF_DISC, _around(OFF_DISC.center, 0.6 * (1 + 3e-7),
                               nilpotent_pair()), "Boundary"),
            (OFF_BOX, _around((0.5, 0.0), 0.5, pauli()), "In"),
            (OFF_BOX, _around((0.5, 0.0), 0.9, pauli()), "Out"),
            (OFF_BOX, _around((0.5, 0.0), (1 + 8e-7) / ROOT2, pauli()),
             "Boundary"),
            (OFF_TRIANGLE, _around(TRIANGLE_CENTER, 10 / 9, pauli(0.3)), "In"),
            (OFF_TRIANGLE, _around(TRIANGLE_CENTER, 30 / 9, pauli(0.3)), "Out"),
            (OFF_TRIANGLE, _around(TRIANGLE_CENTER, 20 / 9 * (1 + 8e-7),
                                   pauli(0.3)), "Boundary"),
        ],
        ids=["disc-in", "disc-out", "disc-near", "box-in", "box-out",
             "box-near", "triangle-in", "triangle-out", "triangle-near"],
    )
    def test_off_center_statuses(self, body, a, status):
        res = kmin_member(body, a, max_iter=300)
        want, _ = _body_scaled_kmin(body, a, 300)
        assert res.status.value == want == status

    @pytest.mark.parametrize(
        "body, a",
        [(UNIT_DISC, nilpotent_pair().scaled(0.55)), (SQUARE, pauli())],
        ids=["disc", "square"],
    )
    def test_centered_out_margins(self, body, a):
        res = kmin_member(body, a)
        want, margin = _body_scaled_kmin(body, a, ranges.MAX_ITER)
        assert (res.status.value, want) == ("Out", "Out")
        assert res.margin == pytest.approx(margin, rel=1e-9)


def _reference_basis(n: int) -> np.ndarray:
    """An orthonormal basis of the Hermitian n x n matrices, as a stack."""
    out = []
    for p in range(n):
        for q in range(n):
            e = np.zeros((n, n), dtype=complex)
            if p == q:
                e[p, p] = 1.0
            elif p < q:
                e[p, q] = e[q, p] = 1.0 / ROOT2
            else:
                e[q, p], e[p, q] = 1j / ROOT2, -1j / ROOT2
            out.append(e)
    return np.array(out)


def _scalar_rows(problem: SdpFeasibility):
    """A problem of n x n matrix equations lowered to scalar rows: row
    (r, k) has coefficient ``P_r kron Z_k`` on every block and rhs
    ``tr(Z_k B_r)``, over the basis ``Z_k``."""
    basis = _reference_basis(np.shape(problem.constraints[0].rhs)[0])
    rows = []
    for c in problem.constraints:
        patterns = [c.coeff] if np.ndim(c.coeff) == 2 else list(c.coeff)
        for z in basis:
            rows.append(AffineConstraint(
                [np.kron(p, z) for p in patterns], float(np.trace(z @ c.rhs).real)
            ))
    return (
        SdpFeasibility(problem.var_size, tuple(rows), block_sizes=problem.block_sizes),
        basis,
    )


#: what ``_Compiled`` derives from its patterns alone
OPERATOR_ARRAYS = (
    "coeff_groups", "norms", "zero_rows", "gram_pinv", "coeff_lsq", "identity_combo"
)


def _same_operator(got: _Compiled, want: _Compiled) -> bool:
    """``OPERATOR_ARRAYS`` of two operators agree, dtype and bits."""

    def same(g, w) -> bool:
        if isinstance(w, list):
            return len(g) == len(w) and all(map(same, g, w))
        if w is None or g is None:
            return g is w
        return g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    return got.block_sizes == want.block_sizes and all(
        same(getattr(got, name), getattr(want, name)) for name in OPERATOR_ARRAYS
    )


def _kmin_square_pauli(traffic) -> SdpFeasibility:
    return _kmin_problem(SQUARE.vertices, pauli().mats)


def _choi_pair_to_level_two(traffic) -> SdpFeasibility:
    # a non-Hermitian 3 x 3 pair and a level-2 point inside its range; the
    # problem is the one ucp_member compiles, operator for operator
    rng = np.random.default_rng(4)
    x = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
         for _ in range(2)]
    v, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    b = [0.9 * v.conj().T @ xj @ v + 0.1 * np.trace(xj) / 3 * np.eye(2) for xj in x]
    x, b = OperatorTuple(tuple(x)), OperatorTuple(tuple(b))
    counts = traffic()
    ucp_member(x, b)
    center = np.array([np.trace(xj) / 3 for xj in x.mats])
    problem = range_sdp(ranges._range_rows(np.array(x.mats)[None], b, center))
    assert _same_operator(counts.compiled[0], _compile(problem))
    return problem


@pytest.mark.parametrize(
    "pose", [_kmin_square_pauli, _choi_pair_to_level_two], ids=["kmin", "choi"]
)
def test_matrix_equations_match_their_scalar_rows(traffic, pose):
    problem = pose(traffic)
    lowered, basis = _scalar_rows(problem)
    mat, rows = _compile(problem), _compile(lowered)
    n2 = mat.n * mat.n
    assert mat.n > 1 and rows.n == 1 and rows.m == mat.m * n2
    assert solve_feasibility(problem).status is solve_feasibility(lowered).status

    def coords(y):  # basis coordinates, in the row order (r, k)
        return np.einsum("kij,rij->rk", basis.conj(), y).real.reshape(-1, 1, 1)

    # the Gram over the basis is the pattern Gram kron I_{n^2}
    assert np.abs(rows.gram - np.kron(mat.gram, np.eye(n2))).max() <= 1e-13
    rng = np.random.default_rng(0)
    v = [herm_part(g + 1j * rng.standard_normal(g.shape))
         for g in (rng.standard_normal(z.shape) for z in mat.zero())]
    assert np.abs(rows.apply(v) - coords(mat.apply(v))).max() <= 1e-13
    y = herm_part(rng.standard_normal((mat.m, mat.n, mat.n))
                  + 1j * rng.standard_normal((mat.m, mat.n, mat.n)))
    for got, want in zip(mat.pencil(y), rows.pencil(coords(y))):
        assert np.abs(got - want).max() <= 1e-13
    # pencil is the adjoint of apply: sum_r Re tr(Y_r A(V)_r) = Re tr(A*(Y) V)
    pairing = sum(np.vdot(p, vg).real for p, vg in zip(mat.pencil(y), v))
    assert abs(np.vdot(y, mat.apply(v)).real - pairing) <= 1e-12


@pytest.mark.parametrize(
    "xs, a, zero_rows",
    [
        (SQUARE.vertices[:, :, None, None], pauli(0.6), 0),
        (np.array([[X, Z]]), pauli(0.5), 0),
        # (X, N) for N the 2 x 2 shift at a non-Hermitian point: x_1 = X
        # is Hermitian, so its skew row, posed for the skew part of a_1,
        # is a zero row; N's skew row is not
        (np.array([[X, np.eye(2, k=1)]]),
         OperatorTuple((0.3 * X + 0.1j * Z, 0.2 * np.eye(2, k=1))), 1),
    ],
    ids=["kmin", "ucp-hermitian", "ucp-skew-and-zero-rows"],
)
def test_a_range_operator_is_the_compile_of_its_reference_problem(xs, a, zero_rows):
    # the operator ranges builds straight from its pattern stack against
    # ``_compile`` of the same rows posed through the public API, whose
    # unit row ``range_sdp`` builds on its own
    center = np.trace(xs, axis1=2, axis2=3).mean(axis=0) / xs.shape[-1]
    rows = ranges._range_rows(xs, a, center)
    direct = ranges._range_operator(rows[0], a.n)
    reference = _compile(range_sdp(rows))
    assert _same_operator(direct, reference)
    assert int(direct.zero_rows.sum()) == zero_rows
    assert rows[3].sum() == direct.m == 1 + (2 * a.d if zero_rows else a.d)
    # at the query's rhs, every solve's data agree as well
    rhs = np.concatenate([np.eye(a.n)[None], rows[1]])
    posed = direct.with_rhs(rhs)
    assert np.array_equal(posed.b, reference.b)
    assert np.array_equal(posed.b_lsq, reference.b_lsq)


def test_the_direct_compile_is_priced_against_the_budget(monkeypatch):
    # ucp of (X, Z) at a 1 x 1 point: its Choi variable fits in 600
    # bytes, but the four copies of its 3 x 1 x 2 x 2 compiled
    # constraints, 768 bytes, do not
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", 600)
    point = OperatorTuple((np.array([[0.1]]), np.array([[0.2]])), hermitian=True)
    with pytest.raises(TooLarge, match="the compiled constraints needs about"):
        ucp_member(pauli(), point)


def test_kmin_at_level_twelve_stays_small():
    # kmin over the 96-gon at n = 12: three 12 x 12 matrix equations over
    # 96 blocks; spelt out over a Hermitian basis it took ~210 MB
    rng = np.random.default_rng(0)
    mats = [herm_part(rng.standard_normal((12, 12))
                      + 1j * rng.standard_normal((12, 12))) for _ in range(2)]
    a = OperatorTuple(tuple(0.3 * m / op_norm(m) for m in mats), hermitian=True)
    tracemalloc.start()
    try:
        res = kmin_member(DISC_96, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status is MembershipStatus.IN
    assert peak < 10e6


def _pair(n: int, seed: int) -> OperatorTuple:
    rng = np.random.default_rng(seed)
    mats = tuple(0.3 * random_hermitian(n, rng) / n for _ in range(2))
    return OperatorTuple(mats, hermitian=True)


@pytest.mark.parametrize(
    "what, call",
    [
        ("intertwiner system", lambda: commutant_dimension(_pair(8, 0))),
        ("Choi variable", lambda: ucp_member(_pair(8, 1), _pair(8, 2))),
        ("Choi variable", lambda: kmin_member(DISC_96, shift_pair(4, 1.1))),
        ("unitary dilation", lambda: kmin_member(UNIT_DISC, _pair(18, 4))),
    ],
)
def test_over_budget_is_refused_before_allocating(monkeypatch, what, call):
    # each call prices an array of at least 190 KiB against a 64 KiB
    # budget, and traces far less than that before it refuses
    budget = 1 << 16
    monkeypatch.setattr(linalg, "MEMORY_BUDGET", budget)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=f"the {what} needs about .* MiB"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


class TestOperatorCache:
    def test_a_query_starts_cold_on_a_shared_operator(self, monkeypatch, traffic):
        # theta between two equal kmin queries solves on the square's one
        # operator, and each query's first solve is passed no iterate,
        # later ones the iterate the solve before returned: the second
        # kmin answers as the first, to the bit
        a = pauli(0.6)
        counts = traffic()
        shared = _shared_operators(monkeypatch)
        passed, returned, solve = [], [], _Compiled.solve

        def spied_solve(self, tol, max_iter, z=None):
            verdict, z_end = solve(self, tol, max_iter, z)
            passed.append(z)
            returned.append(z_end)
            return verdict, z_end

        monkeypatch.setattr(_Compiled, "solve", spied_solve)
        first = kmin_member(SQUARE, a)
        theta_min_alpha(SQUARE, pauli(), tol=0.02)
        again = kmin_member(SQUARE, a)
        assert counts.compiles == 1
        assert first.status is again.status is MembershipStatus.IN
        assert first.margin == again.margin
        assert all(np.array_equal(g, w) for g, w in
                   zip(first.certificate["h"], again.certificate["h"]))
        assert ranges._vertex_operator.cache_info().currsize == 1
        assert len(shared) > 2 and all(op is shared[0] for op in shared)
        # one solve each for the kmin queries, the rest theta's
        assert len(passed) == len(shared) > 3
        assert [i for i, z in enumerate(passed) if z is None] == [0, 1, len(passed) - 1]
        assert all(passed[i] is returned[i - 1] for i in range(2, len(passed) - 1))

    def test_the_budget_is_checked_before_the_cache(self, monkeypatch):
        a = shift_pair(4, 1.1)
        assert kmin_member(DISC_96, a).status is MembershipStatus.OUT
        assert ranges._vertex_operator.cache_info().currsize == 1
        monkeypatch.setattr(linalg, "MEMORY_BUDGET", 1 << 16)
        with pytest.raises(TooLarge, match="the Choi variable needs about .* MiB"):
            kmin_member(DISC_96, a)

    def test_a_shared_operator_is_read_only(self, monkeypatch):
        operators = _shared_operators(monkeypatch)
        kmin_member(SQUARE, pauli(0.6))
        shared = operators[0]
        arrays = [arr for value in vars(shared).values()
                  for arr in (value if isinstance(value, list) else [value])
                  if isinstance(arr, np.ndarray)]
        assert len(arrays) >= 10
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            shared.gram_pinv[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            shared.coeff_groups[0][...] = 0.0

    def test_the_cache_keeps_the_most_recent_operators(self, traffic):
        bodies = [Polytope(SQUARE.vertices * (1.0 + 0.1 * i))
                  for i in range(ranges.CACHED_OPERATORS + 2)]
        for body in bodies:
            assert kmin_member(body, pauli(0.3)).status is MembershipStatus.IN
        assert ranges._vertex_operator.cache_info().currsize == ranges.CACHED_OPERATORS
        counts = traffic()
        kmin_member(bodies[-1], pauli(0.3))
        assert counts.compiles == 0
        kmin_member(bodies[0], pauli(0.3))
        assert counts.compiles == 1
        assert ranges._vertex_operator.cache_info().currsize == ranges.CACHED_OPERATORS

    def test_ucp_compiles_on_every_query(self, traffic):
        counts = traffic()
        for _ in range(2):
            assert ucp_member(pauli(), pauli(0.5)).status is MembershipStatus.IN
        assert counts.compiles == 2
        assert ranges._vertex_operator.cache_info().currsize == 0

    def test_threads_share_the_cache_without_a_lock(self):
        # four threads pose the same queries at once on a cleared cache:
        # every answer equals the serial one to the bit, and the cache
        # keeps one operator per (pattern stack, level)
        queries = [
            lambda: kmin_member(DISC_96, shift_pair(2, 1.1)),
            lambda: kmin_member(DISC_96, shift_pair(3, 1.1)),
            lambda: kmin_member(SQUARE, pauli(0.6)),
            lambda: theta_min_alpha(SQUARE, pauli(), tol=0.02),
        ]

        def answers() -> list:
            *kmin, theta = (query() for query in queries)
            return [*map(_bits, kmin), (theta.lower, theta.upper)]

        serial = answers()
        ranges._vertex_operator.cache_clear()
        start = threading.Barrier(4)

        def threaded() -> list:
            start.wait()
            return answers()

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(threaded) for _ in range(4)]
            assert all(run.result() == serial for run in runs)
        # the 96-gon at levels 2 and 3, the square (kmin and theta) at 2
        assert ranges._vertex_operator.cache_info().currsize == 3


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-6.0, max_value=math.log10(0.25)),
)
def test_a_ucp_scan_out_never_meets_a_feasible_choi_solve(seed, exponent):
    # ucp's scalar-level Out against the Choi SDP of the same query: for a
    # seeded Hermitian x (m = 2-4, d = 1-2), a level-n member b of its
    # range (a compressed ampliation mixed with the scalar point) and b
    # lifted past the support line along a scanned direction c by 1e-6 to
    # 0.25 of the width of x along c, a scan Out is never a Feasible solve
    rng = np.random.default_rng(seed)
    m, n, d = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (1, 4), (1, 3)))
    x = OperatorTuple(tuple(random_hermitian(m, rng) for _ in range(d)), hermitian=True)
    g = rng.standard_normal((m * n, n)) + 1j * rng.standard_normal((m * n, n))
    v = np.linalg.qr(g)[0]
    b = OperatorTuple(tuple(
        0.9 * (v.conj().T @ np.kron(xl, np.eye(n)) @ v)
        + 0.1 * np.trace(xl).real / m * np.eye(n) for xl in x.mats
    ), hermitian=True)
    dirs = ranges._scan_directions(d)
    c = dirs[int(rng.integers(len(dirs)))]
    xs = np.linalg.eigvalsh(pencil_stack(x.mats, c[None]))[0]
    vals, vecs = np.linalg.eigh(pencil_stack(b.mats, c[None]))
    u = vecs[0, :, -1:]
    lift = xs[-1] - vals[0, -1] + 10.0**exponent * (xs[-1] - xs[0])
    a = OperatorTuple(tuple(
        bl + lift * cl * (u @ u.conj().T) for bl, cl in zip(b.mats, c)
    ), hermitian=True)
    center = np.array([np.trace(xl) / m for xl in x.mats])
    cut = []
    for point in (b, a):
        cut.append(ucp_member(x, point).detail == UCP_SCAN_DETAIL)
        if cut[-1]:
            rows = ranges._range_rows(np.array(x.mats)[None], point, center)
            solve, _ = ranges._range_solver(rows, ranges.MEMBER_TOL, 2000)
            assert solve(1.0).status is not Status.FEASIBLE
    # the member is never cut off, and a point lifted by 1e-3 of the width
    # or more always is
    assert not cut[0] and (cut[1] or exponent < -3.0)


class TestUcp:
    def test_projection_out_of_interval(self):
        x = OperatorTuple((Z,), hermitian=True)
        bad = OperatorTuple((np.array([[2.0 + 0j]]),), hermitian=True)
        res = ucp_member(x, bad)
        assert res.status is MembershipStatus.OUT
        assert res.margin == pytest.approx(0.5, abs=1e-6)

    def test_scalar_in_interval(self):
        x = OperatorTuple((Z,), hermitian=True)
        good = OperatorTuple((np.array([[0.3 + 0j]]),), hermitian=True)
        res = ucp_member(x, good)
        assert res.status is MembershipStatus.IN

    def test_identity_map(self):
        x = pauli()
        assert ucp_member(x, x).status is MembershipStatus.IN

    def test_compression_is_member(self):
        rng = np.random.default_rng(2)
        x = pauli()
        g = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        v = g / np.linalg.norm(g)
        comp = OperatorTuple(
            tuple(v.conj().T @ m @ v for m in x.mats), hermitian=True
        )
        assert ucp_member(x, comp).status is MembershipStatus.IN

    def test_zero_coefficient_image_equation(self):
        # x = (X,) is Hermitian, so the skew-part equation has a zero
        # pattern: 0 = -skew(a_1) = -0.3 Z is Out with a separator, a skew
        # part within the witness residual is met by the witness, and one
        # between that and 10 tol can be neither met nor separated
        x = OperatorTuple((X,))
        a = OperatorTuple((0.5 * X + 0.3j * Z,))
        res = ucp_member(x, a)
        assert res.status is MembershipStatus.OUT
        assert res.margin == pytest.approx(0.3 * ROOT2, rel=1e-9)
        patterns = [np.eye(2), herm_part(np.conj(X)), skew_part(np.conj(X))]
        rhs = [np.eye(2), herm_part(a.mats[0]), -skew_part(a.mats[0])]
        choi = SdpFeasibility(4, tuple(map(AffineConstraint, patterns, rhs)))
        _check_separator(choi, res.certificate)
        near = OperatorTuple((0.5 * X + 1e-8j * Z,))
        assert ucp_member(x, near).status is MembershipStatus.IN
        for e in (1.2e-7, 5e-7):
            band = OperatorTuple((0.5 * X + e * 1j * Z,))
            assert ucp_member(x, band).status is MembershipStatus.UNKNOWN

    def test_tuple_mismatch(self):
        with pytest.raises(TupleMismatch):
            ucp_member(pauli(), OperatorTuple((X,), hermitian=True))

    def test_unknown_nominal_solve_is_resolved_by_outward_bracketing(
        self, monkeypatch
    ):
        x = OperatorTuple(
            (np.diag([1.0, 0.0, -1.0]).astype(complex),
             np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / 2),
            hermitian=True,
        )
        a = OperatorTuple((0.5 * Z, 0.2 * X), hermitian=True)
        calls = []
        solve = _Compiled.solve

        def first_unknown(self, tol, *args):
            calls.append(tol)
            if len(calls) == 1:
                return Verdict(Status.UNKNOWN, None, None, 0, np.inf), None
            return solve(self, tol, *args)

        monkeypatch.setattr(_Compiled, "solve", first_unknown)
        res = ucp_member(x, a)
        eps = 10 * ranges.MEMBER_TOL
        assert res.status is MembershipStatus.IN
        assert res.detail == "resolved by outward bracketing"
        assert res.margin == eps
        assert len(calls) == 2
        # the Choi matrix: a 3 x 3 grid of 2 x 2 blocks C_pq
        choi = res.certificate["choi"]
        assert np.linalg.eigvalsh(choi)[0] >= 0
        blocks = choi.reshape(3, 2, 3, 2).transpose(0, 2, 1, 3)
        np.testing.assert_allclose(np.einsum("ppij->ij", blocks), np.eye(2), atol=1e-9)
        # it maps x to the pushed point c + (1 + eps)(a - c), here c = 0
        for xj, aj in zip(x.mats, a.mats):
            image = np.einsum("pq,pqij->ij", xj, blocks)
            assert np.abs(image - (1 + eps) * aj).max() <= 1e-9
            assert np.abs(image - aj).max() >= 0.1 * eps


def _sep(margin: float) -> Separator:
    return Separator(np.full((3, 1, 1), margin), margin, 0.0)


#: scripted verdicts of ``_bracket``'s solves; the nominal separators
#: price at f = pull to the (c0, c1) of ``_PRICED``, against the floor
#: 10 _sdp_tol(1e-7) = 1e-6
_FEASIBLE = Verdict(Status.FEASIBLE, [0.25 * np.eye(2)], None, 4, 0.0)
_CLEARS, _SHORT, _OUTER = _sep(3e-6), _sep(2e-6), _sep(5e-6)
_PRICED = {id(_CLEARS): (1e-6, 5e-7), id(_SHORT): (2e-7, 5e-7)}
_NOMINAL = {
    "feasible": _FEASIBLE,
    "clears": Verdict(Status.INFEASIBLE, None, _CLEARS, 4, 0.0),
    "short": Verdict(Status.INFEASIBLE, None, _SHORT, 4, 0.0),
    "unknown": Verdict(Status.UNKNOWN, None, None, 4, 1.0),
}
_OTHER = {
    "feasible": _FEASIBLE,
    "infeasible": Verdict(Status.INFEASIBLE, None, _OUTER, 4, 0.0),
    "unknown": Verdict(Status.UNKNOWN, None, None, 4, 1.0),
}
_PULL, _PUSH, _BAND = 0.5, 2.0, 1e-6
#: kmin's pull over a polytope, at tol 1e-7: the body dilated by 1 + 10 tol
_KMIN_PULL = 1.0 / (1.0 + 1e-6)


def _ladder_oracle(nominal, push, outer):
    """(status, separator, margin, detail, solves) of the ladder, row by
    row: the nominal solve, then the push (only after Unknown), then the
    outer solve."""
    if nominal == "feasible":
        return "In", None, 0.25, "", [1.0]
    if nominal == "clears":
        return "Out", _CLEARS, 3e-6, "", [1.0]
    if nominal == "short":
        if outer == "feasible":
            detail = "outside at scale 1, inside at scale 1 + 10 tol"
            return "Boundary", _SHORT, _BAND, detail, [1.0, _PULL]
        return "Out", _SHORT, 2e-6, "", [1.0, _PULL]
    solves = [1.0]
    if push != "absent":
        solves.append(_PUSH)
        if push == "feasible":
            return "In", None, _BAND, "resolved by outward bracketing", solves
    solves.append(_PULL)
    if outer == "infeasible":
        return "Out", _OUTER, 5e-6, "resolved on the relaxed set", solves
    if outer == "feasible":
        detail = "undecided at scale 1, inside the relaxed set"
        return "Boundary", None, _BAND, detail, solves
    return "Unknown", None, 0.0, "neither certificate closes", solves


class TestBracket:
    # "exact": ``_bracket`` itself, on the scripted pull and push;
    # "polygon": the same script through ``kmin_member`` over the square,
    # which poses its own pull, 1 / (1 + 10 tol), and never a push
    @pytest.mark.parametrize("caller", ["exact", "polygon"])
    @pytest.mark.parametrize("outer", list(_OTHER), ids=lambda s: f"outer-{s}")
    @pytest.mark.parametrize(
        "push", ["absent", "feasible", "unknown"], ids=lambda s: f"push-{s}"
    )
    @pytest.mark.parametrize("nominal", list(_NOMINAL))
    def test_ladder(self, monkeypatch, nominal, push, outer, caller):
        pull = _PULL if caller == "exact" else _KMIN_PULL
        script = {1.0: _NOMINAL[nominal], _PUSH: _OTHER.get(push), pull: _OTHER[outer]}
        posed = []

        def solve(f):
            posed.append(f)
            return script[f]

        def terms(sep, f):
            assert f == pull
            return _PRICED[id(sep)]

        if caller == "exact":
            res = ranges._bracket(
                solve, terms, 1e-7, _PULL, lambda v: ("witness", v),
                push=None if push == "absent" else _PUSH,
            )
            witness = ("witness", _FEASIBLE)
        else:
            monkeypatch.setattr(ranges, "_range_solver", lambda *args: (solve, terms))
            res = kmin_member(SQUARE, pauli(0.6))
            push, witness = "absent", {"h": _FEASIBLE.blocks, "vertices": SQUARE.vertices}
        status, sep, margin, detail, solves = _ladder_oracle(nominal, push, outer)
        assert (res.status.value, res.margin, res.detail) == (status, margin, detail)
        assert posed == [pull if f == _PULL else f for f in solves]
        if status == "In" and caller == "exact":
            assert res.certificate == witness
        elif status == "In":
            assert res.certificate["h"] is witness["h"]
            assert np.array_equal(res.certificate["vertices"], witness["vertices"])
        elif sep is None:
            assert res.certificate is None
        else:
            # the separator itself; an Out's margin is its own, and a
            # Boundary's is the band
            assert res.certificate is sep
            want = res.margin if status == "Out" else sep.margin
            assert res.certificate.margin == want


class TestMrangeEqual:
    def test_tuple_equals_itself(self):
        ok, report = mrange_equal(pauli(), pauli())
        assert ok
        assert report["y_in_range_x"] == "In"

    def test_unitary_conjugate_equal(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / ROOT2
        other = OperatorTuple(
            (h @ X @ h.conj().T, h @ Z @ h.conj().T), hermitian=True
        )
        ok, _ = mrange_equal(pauli(), other)
        assert ok

    def test_strict_inclusion_detected(self):
        ok, report = mrange_equal(pauli(), pauli(0.5))
        assert not ok
        assert report["x_in_range_y"] == "Out"


class TestExtremality:
    def test_accepts_irreducible_symmetries(self):
        ok, why = is_matrix_extreme_free_symmetric(pauli())
        assert ok and "irreducible" in why

    def test_rejects_non_symmetry(self):
        ok, why = is_matrix_extreme_free_symmetric(pauli(0.5))
        assert not ok and "symmetry" in why

    def test_rejects_reducible(self):
        t = OperatorTuple(
            (np.kron(np.eye(2), X), np.kron(np.eye(2), Z)), hermitian=True
        )
        ok, why = is_matrix_extreme_free_symmetric(t)
        assert not ok and "reducible" in why

    def test_unitary_variant(self):
        w = np.exp(2j * np.pi / 3)
        u1 = np.diag([1.0, w, w * w])
        u2 = np.roll(np.eye(3), 1, axis=0).astype(complex)
        ok, why = is_matrix_extreme_free_unitary(
            OperatorTuple((u1, u2), hermitian=False)
        )
        assert ok

    def test_unitary_rejects_contraction(self):
        ok, why = is_matrix_extreme_free_unitary(
            OperatorTuple((X / 2,), hermitian=False)
        )
        assert not ok and "unitary" in why


#: a 2 x 2 y whose transform's profile is symmetric about a scanned angle
#: that sits between two of its peaks
STATIONARY_MINIMUM_Y = np.array(
    [[-0.26710118 + 0.15594314j, -0.7576671 + 0.25136644j],
     [0.50817631 + 0.35488789j, -0.17666918 - 0.12765087j]]
)


class TestChoiLi:
    def test_scalar_transforms(self):
        m = choi_li_transform(np.array([[1.0 + 0j]]))
        np.testing.assert_allclose(m, np.array([[0.0, 1.0], [1.0, 0.0]]))
        corner = choi_li_transform(np.array([[1.0 + 1.0j]]))
        np.testing.assert_allclose(corner, np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert numerical_radius(corner) == pytest.approx(1.0, abs=1e-9)

    def test_calibration_report(self):
        cal = calibrate_choi_li()
        # the corner's reduced profile is the constant 4: no rounding at all
        assert cal["calibrated_constant"] == 0.5
        assert cal["calibrated_corner_radius"] == 1.0
        # the tempting reference constant overshoots the corner by sqrt(2)
        assert cal["reference_corner_radius"] == pytest.approx(ROOT2, abs=1e-9)

    def test_calibration_is_shared_but_not_mutable(self):
        first = choi_li_equiv_check(np.array([[0.5]]))["calibration"]
        first["calibrated_constant"] = 7.0
        again = choi_li_equiv_check(np.array([[0.5]]))["calibration"]
        assert again["calibrated_constant"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "y,expected",
        [
            (1.0, "In"),
            (1.0j, "In"),
            (1.05, "Out"),
            (1.0 + 1.0j, "In"),
            (1.2 + 1.2j, "Out"),
            (0.3 - 0.8j, "In"),
        ],
    )
    def test_scalar_consistency(self, y, expected):
        rep = choi_li_equiv_check(np.array([[y]]))
        assert rep["consistent"]
        assert rep["square_min"].status.value == expected

    def test_matrix_consistency(self):
        y = (X + 1j * Z) / ROOT2
        rep = choi_li_equiv_check(y)
        assert rep["consistent"]
        assert rep["radius"] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            choi_li_transform(np.zeros((2, 3)))

    @staticmethod
    def _criterion_3_draws(count):
        # the probes of acceptance criterion 3, in its order
        rng = np.random.default_rng(0)
        for _ in range(count):
            g = rng.standard_normal(8)
            v = 1.5 * rng.random() ** (1.0 / 8.0) * g / np.linalg.norm(g)
            yield np.array([[v[0] + 1j * v[1], v[2] + 1j * v[3]],
                            [v[4] + 1j * v[5], v[6] + 1j * v[7]]])

    def test_reduced_radius_matches_a_dense_scan_of_the_transform(self):
        # the radius comes from one 2 x 2 circle support, never from the
        # 4 x 4 transform; a brute-force scan of the transform agrees
        ys = [*self._criterion_3_draws(100), STATIONARY_MINIMUM_Y]
        for y in ys:
            ref, _ = profile_max(0.0, choi_li_transform(y))
            rep = choi_li_equiv_check(y)
            assert abs(rep["radius"] - ref) <= 1e-10
            # the bracket holds the radius to the kernel's 1e-9
            upper = rep["disc_max"].certificate["upper"]
            assert ref - 1e-12 <= upper <= rep["radius"] + 1e-9

    def test_a_transform_profile_symmetric_about_a_scanned_angle(self):
        # the transform of this y has its profile's peaks one scan step on
        # either side of a scanned angle, where refining the 4 x 4 scan used
        # to stop 2e-5 low and call the point just outside the disc In
        s = (1.0 + 1.5e-5) / 0.7301151431
        rep = choi_li_equiv_check(s * STATIONARY_MINIMUM_Y)
        assert rep["square_min"].status is MembershipStatus.OUT
        assert rep["disc_max"].status is MembershipStatus.OUT
        assert rep["consistent"] and not rep["excluded"]
        assert rep["disc_max"].certificate["upper"] >= rep["radius"]
