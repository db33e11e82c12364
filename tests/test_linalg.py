from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import profile_max
from mconvex.errors import DimensionMismatch, NonHermitianInput, NotCommuting
from mconvex.linalg import (
    OperatorTuple,
    circle_support,
    commutant_dimension,
    direct_sum,
    herm_eigvalsh,
    herm_part,
    is_hermitian,
    numerical_radius,
    op_norm,
    pencil_stack,
    psd_part,
    random_hermitian,
    random_isometry,
    simdiag_hermitian,
    skew_part,
    words_equivalent,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_herm_skew_decomposition():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h, s = herm_part(m), skew_part(m)
    np.testing.assert_allclose(h, h.conj().T)
    np.testing.assert_allclose(s, s.conj().T)
    np.testing.assert_allclose(h + 1j * s, m)


def test_pencil_stack_is_the_term_by_term_sum():
    rng = np.random.default_rng(3)
    mats = [random_hermitian(4, rng) for _ in range(3)]
    dirs = rng.standard_normal((10, 3))
    want = dirs[:, 0, None, None] * mats[0]
    for j in (1, 2):
        want = want + dirs[:, j, None, None] * mats[j]
    assert np.array_equal(pencil_stack(mats, dirs), want)


def test_pencil_stack_repeats_the_numerical_radius_scan():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    re, im = herm_part(m), skew_part(m)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    dirs = np.column_stack([np.cos(thetas), -np.sin(thetas)])
    want = np.stack([np.cos(t) * re - np.sin(t) * im for t in thetas])
    assert np.array_equal(pencil_stack((re, im), dirs), want)


def test_numerical_radius_nilpotent():
    s = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    assert numerical_radius(s) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 1 + 1j])
def test_numerical_radius_rank_one(c):
    m = np.array([[0.0, c], [0.0, 0.0]], dtype=complex)
    assert numerical_radius(m) == pytest.approx(abs(c) / 2.0, abs=1e-9)


def test_numerical_radius_hermitian_is_norm():
    rng = np.random.default_rng(1)
    m = random_hermitian(5, rng)
    assert numerical_radius(m) == pytest.approx(op_norm(m), abs=1e-8)


def _golden_radius(m, tol=1e-8, grid=64):
    """The golden-section refinement that ``numerical_radius`` replaced,
    kept as the reference: every local peak of the 64-angle scan is
    refined by golden-section search to an angle width of 1e-2 sqrt(tol)."""
    a = np.asarray(m, dtype=complex)
    re, im = herm_part(a), skew_part(a)

    def f(theta):
        return float(np.linalg.eigvalsh(np.cos(theta) * re - np.sin(theta) * im)[-1])

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = np.array([f(t) for t in thetas])
    step = 2.0 * np.pi / grid
    best = float(vals.max())
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    width_target = max(np.sqrt(max(tol, 1e-15)) * 1e-2, 1e-12)
    for k in range(grid):
        if vals[k] < vals[(k - 1) % grid] or vals[k] < vals[(k + 1) % grid]:
            continue
        lo, hi = thetas[k] - step, thetas[k] + step
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc, fd = f(c), f(d)
        while hi - lo > width_target:
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = f(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = f(d)
        best = max(best, fc, fd)
    return best


def _radius_case(kind, n, rng):
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, _ = np.linalg.qr(draw(n, n))
    if kind == "normal":
        return u @ np.diag(draw(n)) @ u.conj().T
    if kind == "nilpotent":
        return u @ np.triu(draw(n, n), 1) @ u.conj().T
    if kind == "rank-one":
        return np.outer(draw(n), draw(n).conj())
    if kind == "repeated-block":
        half = max(n // 2, 1)
        return np.kron(np.eye(2), draw(half, half))
    return draw(n, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["generic", "normal", "nilpotent", "rank-one", "repeated-block"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1e-8, 1e-9]),
)
def test_numerical_radius_agrees_with_golden_section(kind, n, seed, tol):
    m = _radius_case(kind, n, np.random.default_rng(seed))
    ref = _golden_radius(m, tol=tol)
    w = numerical_radius(m, tol=tol)
    assert abs(w - ref) <= 1e-12
    assert w >= ref - 1e-12
    assert w <= op_norm(m) + 1e-12


def _lapack_calls(monkeypatch, m) -> int:
    calls = []
    for name in ("eigvalsh", "eigh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    numerical_radius(m)
    return len(calls)


def test_numerical_radius_flat_profile_call_count(monkeypatch):
    # the corner transform's numerical range is a disc about 0, a flat
    # profile; golden section took 1534 calls here, the 64-angle LAPACK
    # scan 57, and the closed-form 2 x 2 kernel takes none
    from mconvex.ranges import choi_li_transform

    assert _lapack_calls(monkeypatch, choi_li_transform([[1 + 1j]], 1.0)) == 0


@pytest.mark.parametrize("seed", range(5))
def test_numerical_radius_generic_call_count(monkeypatch, seed):
    # golden section took 92-148 calls on these
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert _lapack_calls(monkeypatch, m) < 40


def test_numerical_radius_refines_both_sides_of_a_stationary_minimum():
    # the transform's profile is symmetric about a scanned angle that sits
    # between two peaks, one scan step away on either side; that angle
    # looks like a peak of the scan but is a stationary minimum, where the
    # refinement used to stop 2e-5 low
    from mconvex.ranges import choi_li_transform

    y = np.array([[-0.26710118 + 0.15594314j, -0.7576671 + 0.25136644j],
                  [0.50817631 + 0.35488789j, -0.17666918 - 0.12765087j]])
    m = choi_li_transform(y)
    ref, _ = profile_max(0.0, m)
    assert abs(numerical_radius(m, tol=1e-9) - ref) <= 1e-12


#: (n, numerical radius, eigh calls) of seeded n x n matrices (two per n,
#: drawn in order from default_rng(33)) as computed when every final
#: Newton step took an eigh and every pencil a zero y0 term
RADII_3_TO_6 = [
    (3, 2.531714248438491, 8), (3, 3.05605662197848, 7),
    (4, 3.553517374436156, 4), (4, 2.958742269631726, 4),
    (5, 3.4174843421953534, 7), (5, 4.447501741338936, 8),
    (6, 4.728781435245688, 8), (6, 4.113672474570485, 8),
]


def test_numerical_radius_takes_the_last_newton_value_alone(monkeypatch):
    # at n >= 3 the last Newton step needs f, not its derivatives: an
    # eigvalsh, not an eigh; the radii move by rounding only
    eighs = []
    orig = np.linalg.eigh

    def counted(*args, **kwargs):
        eighs.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(33)
    for n, want, before in RADII_3_TO_6:
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eighs.clear()
        assert numerical_radius(m) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert len(eighs) < before


def _support_case(kind, rng):
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, _ = np.linalg.qr(draw(2, 2))
    if kind == "hermitian":
        return herm_part(draw(2, 2))
    if kind == "nilpotent":
        return u @ np.triu(draw(2, 2), 1) @ u.conj().T
    if kind == "scalar":
        return draw(1)[0] * np.eye(2)
    if kind == "normal":
        return u @ np.diag(draw(2)) @ u.conj().T
    if kind == "rank-one":
        return np.outer(draw(2), draw(2).conj())
    return draw(2, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["generic", "hermitian", "nilpotent", "scalar", "normal", "rank-one"]),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1e-6, 1e-9]),
)
def test_circle_support_brackets_the_2x2_maximum(kind, shifted, seed, tol):
    # generic profiles, segments (Hermitian t), circles about 0 (nilpotent
    # t), sinusoids (scalar t), normal and rank-one t, with and without y0
    rng = np.random.default_rng(seed)
    t = _support_case(kind, rng)
    y0 = random_hermitian(2, rng) if shifted else 0.0
    lower, upper, theta = circle_support(y0, t, tol)
    ref, plain = profile_max(y0, t, scan=4096)
    assert lower <= upper
    assert upper >= max(plain, ref) - 1e-12
    assert abs(lower - ref) <= 1e-12
    assert upper - lower <= tol
    # the value sits at the returned angle
    y0 = y0 * np.eye(2) if np.ndim(y0) == 0 else y0
    at = np.linalg.eigvalsh(herm_part(y0 + np.exp(1j * theta) * t))[-1]
    assert abs(at - lower) <= 1e-12
    # the LAPACK path agrees on a direct sum whose second block lies far
    # below the first
    c = 10.0 * (np.abs(y0).sum() + np.abs(t).sum()) + 1.0
    big = circle_support(
        scipy.linalg.block_diag(y0, y0 - c * np.eye(2)), scipy.linalg.block_diag(t, t), tol
    )
    assert abs(big[0] - lower) <= 1e-12
    assert big[1] >= ref - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["generic", "hermitian", "normal", "rank-one"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_the_2x2_certificate_holds_above_the_maximum_only(kind, seed):
    # just above the maximum the S-lemma bound certifies; just below, it
    # names an angle whose value beats the bound
    from mconvex.linalg import _circle_certificate

    rng = np.random.default_rng(seed)
    t, y0 = _support_case(kind, rng), random_hermitian(2, rng)
    ref, _ = profile_max(y0, t)
    rows = [
        [0.5 * (m[0, 0] + m[1, 1]).real, 0.5 * (m[0, 0] - m[1, 1]).real,
         0.5 * (m[1, 0] + m[0, 1].conj()).real, 0.5 * (m[1, 0] + m[0, 1].conj()).imag]
        for m in (y0, t, 1j * t)
    ]
    gram = [[float(np.dot(r[1:], q[1:])) for q in rows] for r in rows]
    assert _circle_certificate(rows, gram, ref + 1e-9 * (1.0 + abs(ref))) is None
    below = ref - 1e-6 * (1.0 + abs(ref))
    theta = _circle_certificate(rows, gram, below)
    assert theta is not None
    assert np.linalg.eigvalsh(herm_part(y0 + np.exp(1j * theta) * t))[-1] > below


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["generic", "normal", "rank-one", "nilpotent"])
def test_a_short_first_climb_restarts_from_the_certificates_angle(
    monkeypatch, kind, seed
):
    # the first climb stops at the lowest peak of the 16-angle scan, below
    # the maximum (off the scan's angles for these kinds): the certificate
    # names an angle, the climb from there reaches the maximum, and the
    # bracket still holds it within 4 tol
    from mconvex import linalg

    climb, certificate = linalg._climb, linalg._circle_certificate
    named = []

    def short_climb(stack, starts, *args):
        monkeypatch.setattr(linalg, "_climb", climb)
        return min((linalg._value(stack, t), t) for t in starts)

    def recorded(*args):
        named.append(certificate(*args))
        return named[-1]

    monkeypatch.setattr(linalg, "_climb", short_climb)
    monkeypatch.setattr(linalg, "_circle_certificate", recorded)
    rng = np.random.default_rng(seed)
    t, y0 = _support_case(kind, rng), random_hermitian(2, rng)
    tol = 1e-8
    lower, upper, _ = circle_support(y0, t, tol)
    ref, _ = profile_max(y0, t)
    assert named[0] is not None
    assert lower - 1e-12 <= ref <= upper + 1e-12
    assert upper - lower <= 4.0 * tol


@pytest.mark.parametrize(
    "y0,t,top",
    [
        (0.0, [[0.0, 2.0], [0.0, 0.0]], 1.0),  # a disc about 0: a flat profile
        (1.5, [[2.0j, 0.0], [0.0, 2.0j]], 3.5),  # scalar t: a sinusoid
        (np.eye(2), np.zeros((2, 2)), 1.0),  # a constant
    ],
)
def test_circle_support_is_exact_on_flat_and_scalar_profiles(y0, t, top):
    lower, upper, _ = circle_support(y0, t)
    assert lower == upper == top


def test_circle_support_rejects_a_mismatched_y0():
    with pytest.raises(DimensionMismatch, match="y0"):
        circle_support(np.eye(3), np.eye(2))


def test_operator_tuple_validation():
    with pytest.raises(NonHermitianInput):
        OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),), hermitian=True)
    with pytest.raises(DimensionMismatch):
        OperatorTuple((X, np.eye(3, dtype=complex)), hermitian=True)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_a_non_hermitian_entry_is_refused_at_any_scale(scale):
    # against max(1, |m|), 1e-12 N passed and was symmetrized to 5e-13 X;
    # each entry is tested at its own scale, also beside a larger one
    n = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_hermitian(n)
    for mats in ((n,), (X, n)):
        with pytest.raises(NonHermitianInput):
            OperatorTuple(mats, hermitian=True)


def test_zero_entries_are_hermitian():
    zero = np.zeros((2, 2))
    assert is_hermitian(zero) and is_hermitian(np.zeros((0, 0)))
    t = OperatorTuple((zero, X), hermitian=True)
    assert np.array_equal(t.stack[0], zero)


def test_exactly_hermitian_entries_pass_at_1e_300():
    mats = (1e-300 * X, 1e-300 * np.array([[1.0, -2j], [2j, 0.0]]))
    assert is_hermitian(np.array(mats))
    t = OperatorTuple(mats, hermitian=True)
    assert all(np.array_equal(g, w) for g, w in zip(t.mats, mats))


def test_complex_views_are_accepted():
    # m.T and m.conj().T are views whose last axis is not contiguous
    m = np.array([[1.0 + 2.0j, 0.5j], [0.0, -1.0 + 0.25j]])
    pair = OperatorTuple((m, m.conj().T))
    np.testing.assert_array_equal(pair.mats[1], m.conj().T)
    assert op_norm(m.T) == pytest.approx(op_norm(m), rel=1e-12)
    assert numerical_radius(m.T) == pytest.approx(numerical_radius(m), rel=1e-9)


@pytest.mark.parametrize(
    "entry", [complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0)]
)
def test_non_finite_complex_entries_are_refused(entry):
    m = np.eye(2, dtype=complex)
    m[0, 1] = entry
    with pytest.raises(DimensionMismatch, match="non-finite"):
        OperatorTuple((m, m.T))
    with pytest.raises(DimensionMismatch, match="non-finite"):
        op_norm(m.T)


def test_operator_tuple_scaled():
    t = OperatorTuple((X, Z), hermitian=True)
    assert op_norm(t.scaled(0.5).mats[0] - X / 2) < 1e-15


def test_real_rescales_of_a_hermitian_tuple_are_not_rechecked(monkeypatch):
    # a real rescale of an exactly Hermitian tuple is exactly Hermitian:
    # the result equals the checked, symmetrized one, and nothing
    # re-checks it
    from mconvex import linalg

    rng = np.random.default_rng(8)
    t = OperatorTuple(tuple(random_hermitian(3, rng) for _ in range(2)), True)
    want = OperatorTuple(tuple(-0.37 * m for m in t.mats), True)

    def refuse(*args, **kwargs):
        raise AssertionError("a real rescale of a Hermitian tuple was re-checked")

    monkeypatch.setattr(linalg, "is_hermitian", refuse)
    got = t.scaled(np.float64(-0.37))
    assert got.hermitian
    for g, w in zip(got.mats, want.mats):
        assert g.dtype == complex and np.array_equal(g, w)
        assert np.array_equal(g, g.conj().T)
    assert t.scaled(2).mats[0].tolist() == (2 * t.mats[0]).tolist()
    # a rescale that overflows is refused as before
    with np.errstate(over="ignore"), pytest.raises(DimensionMismatch):
        t.scaled(1e308)


def test_complex_scale_of_a_hermitian_tuple_is_refused():
    t = OperatorTuple((X, Z), hermitian=True)
    with pytest.raises(NonHermitianInput):
        t.scaled(1j)
    assert not OperatorTuple((X, Z)).scaled(1j).hermitian


def _checked_entry_by_entry(mats, hermitian):
    """The validation ``OperatorTuple`` made one entry at a time before it
    stacked them, kept as the reference for its types and messages."""
    from mconvex.linalg import as_matrix, is_hermitian

    mats = tuple(as_matrix(m) for m in mats)
    if not mats:
        raise DimensionMismatch("operator tuple needs at least one matrix")
    if any(m.shape[0] != mats[0].shape[0] for m in mats):
        raise DimensionMismatch("tuple entries must share one size")
    if hermitian and not all(is_hermitian(m) for m in mats):
        raise NonHermitianInput("hermitian flag set but an entry is not Hermitian")


_NAN = np.full((2, 2), np.nan)


@pytest.mark.parametrize(
    "mats, hermitian",
    [
        ((), False),
        ((X, np.eye(3)), True),
        ((np.eye(3), X), False),
        ((np.ones((2, 3)), np.ones((2, 3))), False),
        ((X, np.ones((2, 3))), False),
        ((np.ones(2),), False),
        ((1.0, 2.0), False),
        ((np.ones((1, 2, 2)),), False),
        ((X, _NAN), False),
        ((np.full((3, 3), np.inf), X), True),
        ((X, [[1.0, 2.0], [3.0]]), False),
        ((X, "entry"), False),
        # a non-Hermitian entry beside one 1e6 times larger: each entry is
        # measured against its own scale, not the stack's
        ((np.array([[1.0, 1e-9], [0.0, 1.0]]), 1e6 * Z), True),
        ((1e6 * Z, np.array([[1.0, 0.0], [1e-9, 1.0]])), True),
    ],
    ids=[
        "empty", "sizes", "sizes-reversed", "non-square", "non-square-beside",
        "vector", "scalars", "rank-3-entry", "nan", "inf-and-sizes",
        "ragged-entry", "string", "small-beside-large", "large-beside-small",
    ],
)
def test_the_stacked_tuple_raises_as_entry_by_entry_checks_did(mats, hermitian):
    with pytest.raises(Exception) as want:
        _checked_entry_by_entry(mats, hermitian)
    with pytest.raises(want.type) as got:
        OperatorTuple(mats, hermitian)
    assert type(got.value) is want.type
    assert str(got.value) == str(want.value)


def test_each_entry_is_measured_against_its_own_scale():
    # 1e-7 off Hermitian is within 1e-12 of an entry of size 1e6, not of
    # an entry of size 1
    large = 1e6 * X + np.array([[0.0, 1e-7], [0.0, 0.0]])
    t = OperatorTuple((large, Z), hermitian=True)
    assert np.array_equal(t.mats[0], herm_part(large))


def test_stacked_entries_are_the_hermitian_parts_to_the_bit():
    # m/2 + m*/2 rounds as (m + m*)/2 does: halving is exact in range
    rng = np.random.default_rng(37)
    for n, d in ((1, 1), (2, 2), (3, 2), (4, 3), (6, 2)):
        mats = []
        for _ in range(d):
            g = random_hermitian(n, rng) * 10.0 ** rng.integers(-3, 4)
            mats.append(g + 1e-13 * np.abs(g).max() * rng.standard_normal((n, n)))
        t = OperatorTuple(tuple(mats), hermitian=True)
        assert t.stack.shape == (d, n, n)
        for m, got, row in zip(mats, t.mats, t.stack):
            assert np.shares_memory(got, t.stack) and got is not m
            assert got.tobytes() == row.tobytes() == herm_part(m).tobytes()
            assert got.tobytes() == (0.5 * (m + m.conj().T)).tobytes()


def test_symmetrizing_a_huge_entry_does_not_overflow():
    # (m + m*) / 2 overflowed to inf for entries near the float limit
    t = OperatorTuple((np.array([[0.0, 1e308], [1e308, 0.0]]), Z), hermitian=True)
    assert t.mats[0][0, 1] == 1e308 and np.isfinite(t.stack).all()


def test_direct_sum_shapes():
    t = direct_sum(
        OperatorTuple((X, Z), hermitian=True),
        OperatorTuple((Z, X), hermitian=True),
    )
    assert t.n == 4 and t.d == 2
    np.testing.assert_allclose(t.mats[0][:2, :2], X)
    np.testing.assert_allclose(t.mats[0][2:, 2:], Z)


def test_commutant_dimensions():
    assert commutant_dimension(OperatorTuple((X, Z), hermitian=True)) == 1
    assert commutant_dimension(OperatorTuple((np.eye(2, dtype=complex),), hermitian=True)) == 4
    assert commutant_dimension(OperatorTuple((Z,), hermitian=True)) == 2
    doubled = OperatorTuple(
        (np.kron(np.eye(2), X), np.kron(np.eye(2), Z)), hermitian=True
    )
    assert commutant_dimension(doubled) == 4


@pytest.mark.parametrize("scale", [1e-9, 1e-15])
def test_the_nullity_cut_is_at_the_tuples_scale(scale):
    # the cut 1e-8 max(sigma_max, 1) was absolute below scale 1: the
    # irreducible pair had a commutant of dimension 4, and it counted as
    # equivalent to (X, Z / 2)
    a = OperatorTuple((scale * X, scale * Z), hermitian=True)
    b = OperatorTuple((scale * X, 0.5 * scale * Z), hermitian=True)
    assert commutant_dimension(a) == commutant_dimension(b) == 1
    assert not words_equivalent(a, b)
    assert commutant_dimension(OperatorTuple((scale * Z,), hermitian=True)) == 2


def _hadamard_pair():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    t1 = OperatorTuple((X, Z), hermitian=True)
    t2 = OperatorTuple((h @ X @ h.conj().T, h @ Z @ h.conj().T), hermitian=True)
    return t1, t2


def _seeded_conjugate_pair():
    # entries of norm about 2.8: traces of words of length 32 can reach
    # 1e15, so their rounding swamps an absolute trace tolerance, while
    # the intertwiner ranks use a relative cutoff
    rng = np.random.default_rng(1)
    h = random_hermitian(4, rng)
    g = rng.standard_normal((4, 4))
    t1 = OperatorTuple((h, g))
    return t1, t1.conjugated(random_isometry(4, 4, rng))


@pytest.mark.parametrize(
    "pair", [_hadamard_pair, _seeded_conjugate_pair], ids=["hadamard", "seeded-n4"]
)
def test_words_equivalent_hadamard(pair):
    t1, t2 = pair()
    assert words_equivalent(t1, t2)
    first = t1.mats[0]
    assert not words_equivalent(t1, OperatorTuple((first, first), t1.hermitian))


def _random_tuple(rng, n, d, norm):
    mats = []
    for _ in range(d):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(norm * m / op_norm(m))
    return OperatorTuple(tuple(mats))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_words_equivalent_decides_unitary_equivalence(n, d, norm, seed):
    rng = np.random.default_rng(seed)
    a = _random_tuple(rng, n, d, norm)
    b = _random_tuple(rng, n, d, norm)
    assert words_equivalent(a, a.conjugated(random_isometry(n, n, rng)))
    swapped = direct_sum(b, a).conjugated(random_isometry(2 * n, 2 * n, rng))
    assert words_equivalent(direct_sum(a, b), swapped)
    assert not words_equivalent(direct_sum(a, a), direct_sum(a, b))
    e = _random_tuple(rng, n, d, 1e-3 * norm)
    moved = OperatorTuple(tuple(x + y for x, y in zip(a.mats, e.mats)))
    assert not words_equivalent(a, moved)


def test_simdiag_planted():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u, _ = np.linalg.qr(g)
    d1 = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    d2 = np.array([0.0, 1.0, 0.0, 1.0, 2.0, 2.0])
    mats = [u @ np.diag(d) @ u.conj().T for d in (d1, d2)]
    q, vals = simdiag_hermitian(mats)
    for m, col in zip(mats, vals.T):
        np.testing.assert_allclose(
            q.conj().T @ m @ q, np.diag(col), atol=1e-10
        )
    got = sorted(map(tuple, np.round(vals, 8).tolist()))
    assert got == sorted(zip(d1, d2))


def test_simdiag_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        simdiag_hermitian([X, np.diag([1.0, 2.0]).astype(complex)])


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-7, 1e-9, 1e-12])
def test_simdiag_rejects_a_non_commuting_pair_at_any_scale(scale):
    # the off-diagonal mass test alone is absolute below scale 1, and
    # accepted the pair at scale <= 1e-7
    with pytest.raises(NotCommuting, match="matrix 0 and matrix 1 do not commute"):
        simdiag_hermitian([scale * X, scale * Z])


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
def test_simdiag_refuses_a_near_degenerate_pair_at_every_scale(scale):
    # the eigenvalues 0.3 and 0.3 + 3e-9 of A split apart, and B is not
    # diagonal in that basis; against max(1, |m|), the gap was too small
    # to split below scale 1, and the pair was accepted at 1e-3 and less
    a = 0.3 * scale * np.diag([1.0, 1.0 + 1e-8, -2.0 - 1e-8])
    b = 0.3 * scale * np.array([[0, 0.01, 0], [0.01, 0, 0], [0, 0, 1]])
    with pytest.raises(NotCommuting, match="not diagonal in the joint eigenbasis"):
        simdiag_hermitian([a, b])


def _conjugates(*diagonals):
    # Q (c I) Q* less its scalar part is rounding noise
    q = random_isometry(3, 3, np.random.default_rng(1))
    return [q @ np.diag(d) @ q.conj().T for d in diagonals]


def test_simdiag_accepts_a_part_at_rounding_level():
    # over its own size, the noise was scaled up to size 1 and commuted
    # with nothing: NotCommuting
    u, vals = simdiag_hermitian(_conjugates([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]))
    np.testing.assert_allclose(sorted(vals[:, 0]), [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(vals[:, 1], 2.0, atol=1e-12)


def test_simdiag_floors_each_part_at_its_own_entry():
    # two parts of pure noise: a floor taken from the largest part of
    # the stack would be noise too, and refuse the pair
    u, vals = simdiag_hermitian(_conjugates([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]))
    np.testing.assert_allclose(vals, [[2.0, 3.0]] * 3, atol=1e-12)


@pytest.mark.parametrize("small", [1e-6, 1e-12])
def test_simdiag_rejects_a_small_non_commuting_part(small):
    # the size floor, 1e-4 of the largest entry, hides no part this large
    with pytest.raises(NotCommuting, match="matrix 0 and matrix 1 do not commute"):
        simdiag_hermitian([X, small * Z])


def test_random_isometry_columns():
    rng = np.random.default_rng(5)
    v = random_isometry(6, 3, rng)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_numerical_radius_unitary_invariance(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    w1 = numerical_radius(m, tol=1e-9)
    w2 = numerical_radius(u.conj().T @ m @ u, tol=1e-9)
    assert w1 == pytest.approx(w2, rel=1e-7, abs=1e-8)


# --- the closed-form 2 x 2 kernel against LAPACK ---------------------------


def _lapack_psd_part(v):
    """The reference cone step: LAPACK's eigh, clipped and rebuilt by one
    batched matrix product."""
    vals, vecs = np.linalg.eigh(herm_part(v))
    clipped = vecs * np.maximum(vals, 0.0)[..., None, :]
    return np.matmul(clipped, vecs.conj().swapaxes(-1, -2))


def _gaussian(rng, count):
    return rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))


def _rank_one(rng, count, sign):
    u = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    lam = sign * rng.uniform(0.1, 2.0, count)
    return lam[:, None, None] * np.einsum("ni,nj->nij", u, u.conj())


def _definite(rng, count):
    g = _gaussian(rng, count)
    return g @ np.conj(np.swapaxes(g, -1, -2)) + 0.1 * np.eye(2)


#: the 2 x 2 cases: a name and a seeded stack maker
KERNEL_CASES = {
    "general": lambda rng: _gaussian(rng, 300),
    "psd": lambda rng: _definite(rng, 300),
    "nsd": lambda rng: -_definite(rng, 300),
    "rank-one": lambda rng: _rank_one(rng, 300, 1.0),
    "negative rank-one": lambda rng: _rank_one(rng, 300, -1.0),
    "zero": lambda rng: np.zeros((4, 2, 2), dtype=complex),
    "scalar": lambda rng: rng.standard_normal(300)[:, None, None] * np.eye(2),
}


def _psd_with_slack(p, slack) -> bool:
    """``p + slack I`` is PSD, decided exactly in rational arithmetic."""
    t = Fraction(slack)
    a, c = Fraction(p[0, 0].real) + t, Fraction(p[1, 1].real) + t
    b2 = Fraction(p[1, 0].real) ** 2 + Fraction(p[1, 0].imag) ** 2
    return a >= 0 and c >= 0 and a * c >= b2


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-300, 1e300])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_closed_form_kernel_matches_lapack(case, scale):
    rng = np.random.default_rng(sorted(KERNEL_CASES).index(case))
    v = scale * KERNEL_CASES[case](rng).astype(complex)
    h = herm_part(v)
    # no overflow (squares of 1e300 would), while gradual underflow of a
    # vanishing eigenvalue's weight is harmless
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        vals = herm_eigvalsh(v)
        p = psd_part(v)
    ref = np.linalg.eigvalsh(h)
    norm = np.abs(ref).max(axis=1)
    bound = 1e-13 * np.maximum(1.0, norm)
    assert (np.abs(vals - ref).max(axis=1) <= bound).all()
    assert (np.abs(p - _lapack_psd_part(v)).max(axis=(1, 2)) <= bound).all()
    # Hermitian to the bit, and PSD to within 1e-15 ||H||
    assert np.array_equal(p, np.conj(np.swapaxes(p, -1, -2)))
    assert all(_psd_with_slack(pk, 1e-15 * nk) for pk, nk in zip(p, norm))
    # exact on the cone and on its polar
    psd, nsd = vals[:, 0] >= 0.0, vals[:, 1] <= 0.0
    assert np.array_equal(p[psd], h[psd])
    assert not p[nsd].any()
    assert psd.all() or case != "psd"
    assert nsd.all() or case not in ("nsd", "zero")


@pytest.mark.parametrize("size", [1, 3, 4])
def test_other_block_sizes_take_lapack_unchanged(size):
    rng = np.random.default_rng(size)
    v = rng.standard_normal((5, size, size)) + 1j * rng.standard_normal((5, size, size))
    assert np.array_equal(herm_eigvalsh(v), np.linalg.eigvalsh(herm_part(v)))
    assert np.array_equal(psd_part(v), _lapack_psd_part(v))
