from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconvex.errors import DimensionMismatch, NonHermitianInput, NotCommuting
from mconvex.linalg import (
    OperatorTuple,
    commutant_dimension,
    direct_sum,
    herm_eigvalsh,
    herm_part,
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
    # the corner transform's numerical range is a disc about 0, so every
    # angle of the scan is a peak; golden section took 1534 calls here
    from mconvex.ranges import choi_li_transform

    assert _lapack_calls(monkeypatch, choi_li_transform([[1 + 1j]], 1.0)) < 200


@pytest.mark.parametrize("seed", range(5))
def test_numerical_radius_generic_call_count(monkeypatch, seed):
    # golden section took 92-148 calls on these
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert _lapack_calls(monkeypatch, m) < 40


@pytest.mark.parametrize("grid", [0, -3])
def test_numerical_radius_rejects_an_empty_grid(grid):
    with pytest.raises(DimensionMismatch, match="grid"):
        numerical_radius(np.eye(2), grid=grid)


def test_operator_tuple_validation():
    with pytest.raises(NonHermitianInput):
        OperatorTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),), hermitian=True)
    with pytest.raises(DimensionMismatch):
        OperatorTuple((X, np.eye(3, dtype=complex)), hermitian=True)


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


def test_operator_tuple_scaled_shifted():
    t = OperatorTuple((X, Z), hermitian=True)
    assert op_norm(t.scaled(0.5).mats[0] - X / 2) < 1e-15
    shifted = t.shifted([1.0, -1.0])
    np.testing.assert_allclose(shifted.mats[0], X - np.eye(2))
    np.testing.assert_allclose(shifted.mats[1], Z + np.eye(2))


def test_complex_scale_or_shift_of_a_hermitian_tuple_is_refused():
    t = OperatorTuple((X, Z), hermitian=True)
    with pytest.raises(NonHermitianInput):
        t.scaled(1j)
    with pytest.raises(NonHermitianInput):
        t.shifted([0.5j, 0.0])
    assert not OperatorTuple((X, Z)).scaled(1j).hermitian


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
    """The reference cone step: LAPACK's eigh, clipped and reconstructed."""
    vals, vecs = np.linalg.eigh(herm_part(v))
    return np.einsum("nik,nk,njk->nij", vecs, np.maximum(vals, 0.0), vecs.conj())


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
