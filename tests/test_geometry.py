import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings, strategies as st

from mconvex._jsonio import decode_body
from mconvex.errors import DimensionMismatch, NoInteriorZero, NonHermitianInput
from mconvex.geometry import (
    Box,
    Disc,
    Polytope,
    box_vertices,
    clip_by_halfplanes,
    essential_range_hull,
    extreme_points,
    halfplanes,
    hull_membership_gap,
    is_simplex,
    jnr_sandwich,
    point_gap,
    require_interior_zero,
    scale_body,
    support_value,
)
from mconvex.linalg import (
    OperatorTuple,
    direct_sum,
    herm_part,
    random_hermitian,
    skew_part,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

SQUARE = Polytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
TRIANGLE = Polytope(np.array([[2.0, 0.0], [-1.0, 1.5], [-1.0, -1.5]]))


def test_support_value_pauli():
    t = OperatorTuple((X, Z), hermitian=True)
    # sX + tZ has top eigenvalue sqrt(s^2 + t^2)
    assert support_value(t, [1.0, 0.0]) == pytest.approx(1.0)
    assert support_value(t, [1.0, 1.0]) == pytest.approx(np.sqrt(2.0))


def test_jnr_sandwich_nesting_and_shrinking():
    t = OperatorTuple((X, Z), hermitian=True)
    bounds = []
    for m in (16, 32, 64, 128):
        sw = jnr_sandwich(t, m=m)
        bounds.append(sw.hausdorff_bound)
        exact = np.tan(np.pi / m) * np.sin(np.pi / m)
        assert sw.hausdorff_bound == pytest.approx(exact, rel=0, abs=1e-12)
        # every inner vertex lies inside the outer polygon
        normals, offsets = halfplanes(sw.outer)
        assert (sw.inner.vertices @ normals.T - offsets[None, :]).max() <= 1e-9
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    # W_1 of the Pauli pair is the unit disc
    sw = jnr_sandwich(t, m=64)
    radii = np.linalg.norm(sw.inner.vertices, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-9)


def _hull_distance(vertices: np.ndarray, q: np.ndarray) -> float:
    """Brute-force distance from ``q`` to the hull of counterclockwise
    polygon vertices: 0 inside, else the least distance to an edge."""
    edge = np.roll(vertices, -1, axis=0) - vertices
    off = q - vertices
    left = edge[:, 0] * off[:, 1] >= edge[:, 1] * off[:, 0]
    if len(vertices) >= 3 and left.all():
        return 0.0
    length = (edge * edge).sum(1)
    dots = (off * edge).sum(1)
    along = np.divide(dots, length, out=np.zeros(len(edge)), where=length > 0)
    nearest = np.clip(along, 0.0, 1.0)[:, None] * edge
    return float(np.linalg.norm(off - nearest, axis=1).min())


@pytest.mark.parametrize("m", [16, 64, 256])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_jnr_sandwich_bound_is_the_largest_corner_distance(n, m):
    rng = np.random.default_rng(100 * n + m)
    thetas = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    for _ in range(3):
        mats = (random_hermitian(n, rng), random_hermitian(n, rng))
        t = OperatorTuple(mats, hermitian=True)
        sw = jnr_sandwich(t, m=m)
        exact = max(_hull_distance(sw.inner.vertices, q) for q in sw.outer.vertices)
        h = max(abs(support_value(t, [np.cos(a), np.sin(a)])) for a in thetas)
        assert abs(sw.hausdorff_bound - exact) <= 1e-12 * h


def test_jnr_direct_sum_hull():
    t1 = OperatorTuple((X / 2, Z / 2), hermitian=True)
    t2 = OperatorTuple((X, Z), hermitian=True)
    sw = jnr_sandwich(direct_sum(t1, t2), m=64)
    target = jnr_sandwich(t2, m=64)
    assert abs(sw.outer.vertices.max() - target.outer.vertices.max()) < 1e-9


def test_extreme_points_drops_interior():
    pts = np.vstack([SQUARE.vertices, [[0.0, 0.0], [0.5, 0.5]]])
    ext = extreme_points(pts)
    assert sorted(map(tuple, ext.tolist())) == sorted(map(tuple, SQUARE.vertices.tolist()))


def test_extreme_points_keep_a_corner_just_past_its_neighbour():
    # (1, 1) lies on the edge from (-1, 1) to the true corner
    corner = np.array([1.0 + 1e-10, 1.0])
    pts = np.vstack([SQUARE.vertices, corner])
    ext = extreme_points(pts)
    assert ext.shape[0] == 4
    assert any(np.array_equal(row, corner) for row in ext)
    assert not any(np.array_equal(row, [1.0, 1.0]) for row in ext)
    flag, cert = is_simplex(pts)
    assert not flag and cert["count"] == 4 and cert["rank"] == 2


def test_jnr_sandwich_does_not_depend_on_scale():
    ratios = []
    for s in (1.0, 1e-6, 1e-10, 1e-12):
        sw = jnr_sandwich(OperatorTuple((s * X, s * Z), hermitian=True), m=64)
        assert sw.inner.vertices.shape == (64, 2)
        assert sw.outer.vertices.shape == (64, 2)
        ratios.append(sw.hausdorff_bound / s)
    assert ratios[1:] == pytest.approx([ratios[0]] * 3, rel=1e-6)


def test_jnr_sandwich_of_a_scalar_pair_is_one_point():
    eye = np.eye(3)
    sw = jnr_sandwich(OperatorTuple((eye, 0.5 * eye), hermitian=True), m=64)
    assert sw.inner.vertices.shape == (1, 2)
    assert sw.outer.vertices.shape == (1, 2)
    np.testing.assert_allclose(sw.outer.vertices[0], [1.0, 0.5], atol=1e-15)
    assert sw.hausdorff_bound <= 1e-13


def test_support_value_rejects_a_non_hermitian_combination():
    t = OperatorTuple((X, np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(NonHermitianInput):
        support_value(t, [1.0, 1.0])


@st.composite
def lattice_points(draw):
    """Integer points in R^d, d = 1..3, on a lattice of rank 0..d."""
    d = draw(st.integers(1, 3))
    r = draw(st.integers(0, d))
    coords = st.integers(-3, 3)
    k = draw(st.integers(1, 10))
    low = np.array(draw(st.lists(
        st.lists(coords, min_size=r, max_size=r), min_size=k, max_size=k)))
    embed = np.array(draw(st.lists(
        st.lists(coords, min_size=r, max_size=r), min_size=d, max_size=d)))
    shift = np.array(draw(st.lists(coords, min_size=d, max_size=d)))
    return (low.reshape(k, r) @ embed.reshape(d, r).T + shift).astype(float)


@settings(max_examples=100, deadline=None)
@given(lattice_points())
def test_extreme_points_agree_with_the_lp(pts):
    uniq = np.unique(pts, axis=0)
    want = {
        tuple(p) for i, p in enumerate(uniq)
        if hull_membership_gap(np.delete(uniq, i, axis=0), p) > 1e-9
    }
    got = extreme_points(pts)
    assert len(got) == len(want)
    assert set(map(tuple, got)) == want


@settings(max_examples=100, deadline=None)
@given(lattice_points())
def test_a_polytope_keeps_its_extreme_points_in_listed_order(pts):
    # the rows extreme_points returns at tol 0, from the facet list's
    # Qhull run, as a subsequence of the (duplicate-free) list
    _, first = np.unique(pts, axis=0, return_index=True)
    pts = pts[np.sort(first)]
    got = Polytope(pts)._hull[1]
    want = extreme_points(pts, tol=0.0)
    assert set(map(tuple, got)) == set(map(tuple, want))
    rows = [int(np.flatnonzero((pts == g).all(axis=1))[0]) for g in got]
    assert rows == sorted(set(rows)) and len(rows) == len(want)
    assert not got.flags.writeable


def test_polytopes_decoded_from_one_vertex_list_share_one_hull(monkeypatch):
    # each query decodes its own Polytope; Qhull runs once per vertex list,
    # and the facet list and extreme points it leaves are shared read-only
    from mconvex import geometry

    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return hull(*args, **kwargs)

    hull = scipy.spatial.ConvexHull
    monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
    geometry._polytope_hull.cache_clear()
    doc = {"type": "polytope",
           "vertices": [[1.5, 0.25], [-0.75, 1.0], [-0.5, -1.25], [0.125, 0.0]]}
    first, second = decode_body(doc), decode_body(doc)
    assert first is not second
    assert point_gap(first, [0.0, 0.0]) < 0.0
    assert require_interior_zero(second) > 0.0
    assert second._hull[1].shape == (3, 2)
    assert len(runs) == 1
    shared = (*halfplanes(first), first._hull[1])
    for got, want in zip((*halfplanes(second), second._hull[1]), shared):
        assert got is want
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    # another vertex list is another hull
    halfplanes(decode_body({**doc, "vertices": doc["vertices"][:3]}))
    assert len(runs) == 2


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.lists(st.integers(-12, 0), min_size=3, max_size=3),
)
def test_thin_rotated_sets_never_raise(seed, d, exponents):
    rng = np.random.default_rng(seed)
    spreads = 10.0 ** np.array(exponents[:d], dtype=float)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    pts = rng.random((int(rng.integers(1, 12)), d)) * spreads @ rotation.T
    pts = pts + rng.standard_normal(d)
    ext = extreme_points(pts)
    assert all((pts == row).all(axis=1).any() for row in ext)
    flag, cert = is_simplex(pts)
    assert cert["count"] == len(ext)
    assert flag == (cert["count"] == cert["rank"] + 1)


#: two vertices in R^4 about 1e-12 apart, and one point listed three times
#: in R^1: the centring's rounding must not count as rank
NEAR_PAIR = np.array([[0.3, -0.2, 0.7, 0.1], [0.3 + 1e-12, -0.2, 0.7 - 1e-12, 0.1 + 5e-13]])
TRIPLE = np.array([[0.1], [0.1], [0.1]])


def test_nearly_coincident_points_get_no_noise_rank():
    # the pair had rank 2 and Qhull raised QH6214; it is a segment, and
    # its facet list holds both points and nothing 1e-9 away
    dirs, offsets = halfplanes(Polytope(NEAR_PAIR))
    assert (NEAR_PAIR @ dirs.T - offsets).max() <= 1e-15
    assert point_gap(Polytope(NEAR_PAIR), NEAR_PAIR[0] + 1e-9) > 5e-10
    assert is_simplex(NEAR_PAIR, tol=0.0)[1]["rank"] == 1
    # the triple is one point at every tol, not a segment of rounding
    for tol in (0.0, 1e-9):
        flag, cert = is_simplex(TRIPLE, tol=tol)
        assert flag and (cert["count"], cert["rank"]) == (1, 0)
        np.testing.assert_array_equal(extreme_points(TRIPLE, tol=tol), TRIPLE[:1])
    assert np.allclose(halfplanes(Polytope(TRIPLE))[1], [0.1, -0.1], rtol=0, atol=1e-16)


def test_hull_distance_and_membership_gap():
    square = extreme_points(SQUARE)
    assert _hull_distance(square, np.array([0.25, -0.5])) == 0.0
    assert _hull_distance(square, np.array([2.0, 0.5])) == 1.0
    assert _hull_distance(square, np.array([2.0, 5.0])) == pytest.approx(np.sqrt(17.0))
    assert _hull_distance(np.array([[1.0, 1.0]]), np.array([2.0, 1.0])) == 1.0
    assert hull_membership_gap(SQUARE.vertices, np.array([0.25, -0.5])) <= 1e-9
    assert hull_membership_gap(SQUARE.vertices, np.array([1.5, 0.0])) > 0.2


def test_is_simplex_examples():
    flag, _ = is_simplex(TRIANGLE.vertices)
    assert flag
    flag, _ = is_simplex(SQUARE.vertices)
    assert not flag
    tetra = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    flag, _ = is_simplex(tetra)
    assert flag


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_simplex_affine_invariant(seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((2, 2))
    while abs(np.linalg.det(mat)) < 0.1:
        mat = rng.standard_normal((2, 2))
    shift = rng.standard_normal(2)
    for pts, expect in ((TRIANGLE.vertices, True), (SQUARE.vertices, False)):
        moved = pts @ mat.T + shift
        flag, _ = is_simplex(moved)
        assert flag is expect


def test_essential_range_hull_cases():
    theta = np.linspace(0.0, 2 * np.pi, 361)[:-1]
    hull, ext = essential_range_hull(np.exp(1j * theta))
    assert hull.shape[0] == 360 and ext.shape[0] == 360
    hull, ext = essential_range_hull([2.0 + 0.0j])
    assert hull.shape[0] == 1
    hull, ext = essential_range_hull([0.0, 1.0, 0.5, 0.25])
    assert sorted(ext[:, 0].tolist()) == [0.0, 1.0]


def test_polytope_facets_triangle():
    normals, offsets = halfplanes(TRIANGLE)
    assert normals.shape == (3, 2)
    # every vertex satisfies all facet inequalities with equality on two
    vals = TRIANGLE.vertices @ normals.T - offsets[None, :]
    assert vals.max() <= 1e-12
    assert ((np.abs(vals) < 1e-9).sum(axis=1) == 2).all()


def test_clip_by_halfplanes_square():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    verts = clip_by_halfplanes(normals, np.ones(4))
    assert sorted(map(tuple, np.round(verts, 9).tolist())) == sorted(
        map(tuple, SQUARE.vertices.tolist())
    )
    # the hexagon |x|, |y|, |x + y| <= s keeps its six corners at any scale
    normals = np.vstack([normals, [[1.0, 1.0], [-1.0, -1.0]]])
    unit = clip_by_halfplanes(normals, np.ones(6))
    assert unit.shape == (6, 2)
    for s in (1e-12, 1e-13):
        verts = clip_by_halfplanes(normals, np.full(6, s))
        assert verts.shape == (6, 2)
        dist = np.abs(verts[:, None, :] - s * unit[None, :, :]).max(axis=2)
        assert dist.min(axis=0).max() <= 1e-12 * s


def test_scale_body_about_center():
    scaled = scale_body(SQUARE, 2.0)
    assert scaled.vertices[:, 0].max() == pytest.approx(2.0)
    disc = scale_body(Disc(np.array([1.0, 0.0]), 1.0), 3.0, center=np.array([1.0, 0.0]))
    assert disc.radius == pytest.approx(3.0)
    assert disc.center[0] == pytest.approx(1.0)


def test_box_vertices_count():
    box = Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 3.0]))
    verts = box_vertices(box)
    assert verts.shape == (8, 3)
    assert point_gap(box, verts[0]) <= 0.0


def test_require_interior_zero():
    assert require_interior_zero(SQUARE) == pytest.approx(1.0)
    shifted = Polytope(SQUARE.vertices + np.array([5.0, 5.0]))
    with pytest.raises(NoInteriorZero):
        require_interior_zero(shifted)


def test_require_interior_zero_decides_a_polytope_off_the_plane():
    # the base triangle sits at height 1e-3, so 0 lies just below the
    # tetrahedron; sampled support directions all reached past it
    delta = 1e-3
    tetrahedron = Polytope(np.array([
        [-1.0, -1.0, delta], [1.0, -1.0, delta], [0.0, 1.0, delta], [0.0, 0.0, 5.0],
    ]))
    with pytest.raises(NoInteriorZero):
        require_interior_zero(tetrahedron)


def test_require_interior_zero_bounds_the_cube_inradius():
    cube = Polytope(box_vertices(Box(-np.ones(3), np.ones(3))))
    assert require_interior_zero(cube) == 1.0
    # Qhull's triangles merge back into the cube's six faces
    assert halfplanes(cube)[0].shape == (6, 3)


def test_require_interior_zero_rejects_a_segment_in_space():
    # 0 lies on the segment, but a segment has no interior in R^3
    segment = Polytope(np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(NoInteriorZero):
        require_interior_zero(segment)


NAN = float("nan")


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "polytope", "vertices": [[1.0, 0.0], [NAN, 1.0], [-1.0, -1.0]]},
        {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, NAN]},
        {"type": "box", "lo": [-float("inf"), -1.0], "hi": [1.0, 1.0]},
        {"type": "disc", "center": [0.0, 0.0], "radius": NAN},
        {"type": "disc", "center": [NAN, 0.0], "radius": 1.0},
        {"type": "sampled", "directions": [[1.0, 0.0], [0.0, 1.0]],
         "support_values": [1.0, NAN]},
        {"type": "sampled", "directions": [[1.0, NAN], [0.0, 1.0]],
         "support_values": [1.0, 1.0]},
    ],
    ids=["polytope", "box-nan", "box-inf", "disc-radius", "disc-center",
         "sampled-value", "sampled-direction"],
)
def test_bodies_reject_non_finite_data(doc):
    with pytest.raises(DimensionMismatch, match="must be finite"):
        decode_body(doc)


def test_nilpotent_range_is_disc():
    s = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    t = OperatorTuple((herm_part(s), skew_part(s)), hermitian=True)
    sw = jnr_sandwich(t, m=64)
    radii = np.linalg.norm(sw.inner.vertices, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-9)
