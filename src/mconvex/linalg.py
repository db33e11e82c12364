"""Dense complex linear algebra for small operator tuples.

Everything here works on plain ``numpy`` arrays at desk scale (matrix sizes
up to roughly 64).  The routines favour certified, re-checkable output over
raw speed: eigendecompositions come from LAPACK via ``numpy.linalg``,
apart from stacks of 2 x 2 blocks, whose eigenvalues (``herm_eigvalsh``)
and PSD part (``psd_part``) come in closed form, and the few iterative
pieces (numerical radius refinement) state what their
tolerance bounds.  ``_require_bytes`` refuses, before allocating, an
array that grows with the input past ``MEMORY_BUDGET``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonHermitianInput, NotCommuting, TooLarge

#: relative tolerance for accepting a matrix as Hermitian
HERM_RTOL = 1e-12

#: relative SVD threshold used when counting null directions
NULLITY_RTOL = 1e-8

#: angles per ``eigvalsh`` call in the ``numerical_radius`` scan.  One
#: (grid, n, n) stack for the whole scan would be the largest allocation
#: of a small query and set its peak memory; chunks of 8 keep the peak
#: near that of one call per angle, in 8 LAPACK calls instead of 64.
_SCAN_CHUNK = 8

#: bytes one query may ask for in the arrays that grow with its input
#: (``_require_bytes``); fixed, so a query either fits everywhere or is
#: refused everywhere
MEMORY_BUDGET = 1 << 30


def _require_bytes(estimate: float, what: str) -> None:
    """Raise ``TooLarge`` when ``estimate`` bytes exceed ``MEMORY_BUDGET``.

    Called before the allocation it prices, so a query too large for the
    budget fails at once instead of exhausting memory or running for
    minutes."""
    if estimate > MEMORY_BUDGET:
        raise TooLarge(
            f"{what} needs about {estimate / 2**20:.4g} MiB, over the "
            f"{MEMORY_BUDGET / 2**20:.4g} MiB budget"
        )


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, validating the shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionMismatch("matrix contains non-finite entries")
    return a


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes (a stack of matrices)."""
    return np.conj(np.swapaxes(m, -1, -2))


def herm_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m*) / 2, matrix by matrix over leading axes."""
    return 0.5 * (m + _adjoint(m))


def skew_part(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian matrix (m - m*) / 2i."""
    return (m - _adjoint(m)) / 2j


def _spectrum2(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entry ``b = H_10`` of the Hermitian part ``H`` of each block
    of a stack of 2 x 2 blocks, and the eigenvalues ``lo <= hi`` of ``H``:
    ``(a/2 + c/2) -+ hypot(a/2 - c/2, |b|)`` with ``a = H_00`` and
    ``c = H_11``, halved before they are added so that no intermediate
    overflows."""
    b = 0.5 * (v[..., 1, 0] + np.conj(v[..., 0, 1]))
    half_a, half_c = 0.5 * v[..., 0, 0].real, 0.5 * v[..., 1, 1].real
    mid = half_a + half_c
    rad = np.hypot(half_a - half_c, np.abs(b))
    return b, mid - rad, mid + rad


def herm_eigvalsh(v: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of each block of a
    ``(count, s, s)`` stack: in closed form (``_spectrum2``) when s = 2,
    else from LAPACK's ``eigvalsh``.  The closed form's absolute error is
    O(eps ||H||), as LAPACK's is."""
    if v.shape[-1] == 2:
        _, lo, hi = _spectrum2(v)
        return np.stack([lo, hi], axis=-1)
    return np.linalg.eigvalsh(herm_part(v))


def psd_part(v: np.ndarray) -> np.ndarray:
    """The positive semidefinite part of the Hermitian part ``H`` of each
    block of a ``(count, s, s)`` stack: ``H`` with its negative
    eigenvalues set to 0, the nearest PSD matrix in Frobenius norm.

    For s = 2 it is ``w (H - lo- I)`` in closed form, with ``hi+ =
    max(hi, 0)``, ``lo- = min(lo, 0)`` and ``w = hi+ / (hi+ - lo-)`` (0
    when both vanish), one formula without branches: ``H`` itself when
    it is PSD, 0 when it is negative semidefinite, and ``hi u u*`` for
    the top eigenvector ``u`` in between.  The result is Hermitian to
    the bit.  Other sizes clip LAPACK's ``eigh`` and reconstruct.
    """
    if v.shape[-1] == 2:
        b, lo, hi = _spectrum2(v)
        lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
        den = hi - lo
        w = np.divide(hi, den, out=np.zeros_like(hi), where=den > 0.0)
        wb = w * b
        out = np.empty(v.shape, dtype=complex)
        out[..., 0, 0] = w * (v[..., 0, 0].real - lo)
        out[..., 1, 1] = w * (v[..., 1, 1].real - lo)
        out[..., 1, 0] = wb
        out[..., 0, 1] = np.conj(wb)
        return out
    vals, vecs = np.linalg.eigh(herm_part(v))
    vals = np.maximum(vals, 0.0)
    return np.einsum("nik,nk,njk->nij", vecs, vals, vecs.conj())


def is_hermitian(m: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    """Every matrix of the stack ``m`` is Hermitian relative to the largest entry."""
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    return float(np.abs(m - _adjoint(m)).max(initial=0.0)) <= rtol * scale


def pencil_stack(mats: Sequence[np.ndarray], dirs: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack of pencils ``sum_j dirs[r, j] mats[j]``, one per
    row of the (k, d) array ``dirs``.

    Each term is an outer product, added in coordinate order, so a pencil
    repeats to the bit whatever rows share its stack; a broadcast
    (k, 1, 1) product would allocate iterator buffers of twice the stack.
    """
    n = mats[0].shape[0]
    stack = dirs[:, :1] @ mats[0].reshape(1, -1)
    for j in range(1, len(mats)):
        stack += dirs[:, j:j + 1] @ mats[j].reshape(1, -1)
    return stack.reshape(-1, n, n)


def op_norm(m) -> float:
    """Operator (spectral) norm, the largest singular value."""
    a = as_matrix(m)
    if not a.size:
        return 0.0
    return float(np.linalg.norm(a, 2))


def numerical_radius(m, tol: float = 1e-8, grid: int = 64) -> float:
    """Numerical radius ``w(m) = max_theta lambda_max(Re(e^{i theta} m))``.

    With ``H(theta) = cos(theta) Re m - sin(theta) Im m``, the profile
    ``f(theta) = lambda_max(H(theta))`` is scanned at ``grid`` equispaced
    angles, ``delta = 2 pi / grid`` apart: ``pencil_stack`` builds the
    ``H(theta)`` of each chunk of ``_SCAN_CHUNK`` angles, with one
    ``eigvalsh`` per chunk.  Each local maximum
    ``theta_k`` of the scan is refined inside its bracket
    ``[theta_k - delta, theta_k + delta]`` by Newton steps on
    ``f'(theta) = 0``, from ``theta_k``.  One ``eigh`` of ``H(theta)``
    gives both derivatives (Johnson 1978): with
    eigenpairs ``(lambda_k, v_k)``, top pair ``(lambda_1, u)`` and
    ``H' = dH/dtheta``, ``f' = u* H' u`` and ``f'' = -lambda_1 + 2
    sum_{k>1} |v_k* H' u|^2 / (lambda_1 - lambda_k)``, leaving out the
    eigenvalues within ``1e-12`` of ``lambda_1``.

    The safeguard: after each evaluation the bracket shrinks to the side
    that the sign of ``f'`` points to, and where ``f''`` is not negative
    or the Newton step would leave the bracket, the next angle is the
    bracket's midpoint.  Like golden-section search, this assumes each
    peak is unimodal inside its bracket.  A peak is done once ``f'``
    vanishes to rounding (a flat profile, as for a matrix whose
    numerical range is a disc about 0) or the step falls below
    ``1e-2 sqrt(tol)``; the angle that step reaches is evaluated too.
    ``tol`` thus bounds the error in the value: the angle is resolved to
    well below ``sqrt(tol)``, and the profile is locally quadratic.

    Returns the largest ``lambda_max`` evaluated: a sampled lower bound on
    ``w(m)``, within ``tol`` of it for desk-scale matrices.

    Raises
    ------
    DimensionMismatch
        If ``m`` is not a finite square matrix, or ``grid < 1``.
    """
    if grid < 1:
        raise DimensionMismatch(
            f"numerical radius needs a scan grid of at least 1 angle, got {grid}"
        )
    a = as_matrix(m)
    if a.shape[0] == 0:
        return 0.0
    re = herm_part(a)
    im = skew_part(a)

    def h(theta):
        return np.cos(theta) * re - np.sin(theta) * im

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    # h at every angle, equal to h(theta) to the bit
    dirs = np.column_stack([np.cos(thetas), -np.sin(thetas)])
    vals = np.concatenate([
        np.linalg.eigvalsh(pencil_stack((re, im), dirs[k:k + _SCAN_CHUNK]))[:, -1]
        for k in range(0, grid, _SCAN_CHUNK)
    ])
    step = 2.0 * np.pi / grid
    best = float(vals.max())
    # |f'| below this is rounding: f' = u* H(theta + pi/2) u, and every
    # |lambda(H)| is at most w(m), which the scan's maximum approximates
    flat = 1e-14 * abs(best)
    angle_target = max(np.sqrt(max(tol, 1e-15)) * 1e-2, 1e-12)
    for k in range(grid):
        if vals[k] < vals[(k - 1) % grid] or vals[k] < vals[(k + 1) % grid]:
            continue
        theta = thetas[k]
        lo, hi = theta - step, theta + step
        while True:
            lam, vecs = np.linalg.eigh(h(theta))
            best = max(best, float(lam[-1]))
            # H'(theta) = H(theta + pi/2), in the eigenbasis, against u
            coup = vecs.conj().T @ (h(theta + 0.5 * np.pi) @ vecs[:, -1])
            d1 = float(coup[-1].real)
            if abs(d1) <= flat:
                break
            gaps = lam[-1] - lam[:-1]
            far = gaps > 1e-12
            d2 = -lam[-1] + 2.0 * float(
                np.sum(np.abs(coup[:-1][far]) ** 2 / gaps[far])
            )
            if d1 > 0.0:
                lo = theta
            else:
                hi = theta
            nxt = theta - d1 / d2 if d2 < 0.0 else np.nan
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - theta) < angle_target:
                best = max(best, float(np.linalg.eigvalsh(h(nxt))[-1]))
                break
            theta = nxt
    return best


@dataclasses.dataclass(frozen=True)
class OperatorTuple:
    """A d-tuple of n-by-n complex matrices.

    ``hermitian`` asserts that every entry equals its adjoint within
    relative tolerance ``1e-12``; entries are symmetrized on construction
    when the flag is set.
    """

    mats: tuple[np.ndarray, ...]
    hermitian: bool = False

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.mats)
        if not mats:
            raise DimensionMismatch("operator tuple needs at least one matrix")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != n:
                raise DimensionMismatch("tuple entries must share one size")
        if self.hermitian:
            for m in mats:
                if not is_hermitian(m):
                    raise NonHermitianInput(
                        "hermitian flag set but an entry is not Hermitian"
                    )
            mats = tuple(herm_part(m) for m in mats)
        object.__setattr__(self, "mats", mats)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def scaled(self, factor: float) -> "OperatorTuple":
        return OperatorTuple(tuple(factor * m for m in self.mats), self.hermitian)

    def shifted(self, offsets: Sequence[float]) -> "OperatorTuple":
        """Subtract ``offsets[j] * I`` from the j-th entry."""
        eye = np.eye(self.n)
        return OperatorTuple(
            tuple(m - o * eye for m, o in zip(self.mats, offsets)),
            self.hermitian,
        )

    def conjugated(self, u: np.ndarray) -> "OperatorTuple":
        """Return ``(u* a_j u)_j`` for a unitary or isometry ``u``."""
        return OperatorTuple(
            tuple(u.conj().T @ m @ u for m in self.mats), self.hermitian
        )


def direct_sum(*tuples: OperatorTuple) -> OperatorTuple:
    """Blockwise direct sum of operator tuples (same d)."""
    d = tuples[0].d
    if any(t.d != d for t in tuples):
        raise DimensionMismatch("direct sum requires equal tuple lengths")
    mats = tuple(
        scipy.linalg.block_diag(*(t.mats[j] for t in tuples)).astype(complex)
        for j in range(d)
    )
    return OperatorTuple(mats, all(t.hermitian for t in tuples))


def _intertwiner_system(t1: OperatorTuple, t2: OperatorTuple) -> np.ndarray:
    """Stack the linear maps S -> S a_j - b_j S and S -> S a_j* - b_j* S,
    for ``a = t1``, ``b = t2`` and S of shape ``(t2.n, t1.n)``: a
    (2 d n_1 n_2) x (n_1 n_2) complex matrix, priced twice over for the
    copy its SVD takes."""
    cols = t1.n * t2.n
    _require_bytes(2 * 16 * (2 * t1.d * cols) * cols, "the intertwiner system")
    eye1, eye2 = np.eye(t1.n), np.eye(t2.n)
    rows = []
    for a, b in zip(t1.mats, t2.mats):
        for x, y in ((a, b), (a.conj().T, b.conj().T)):
            # row-major vec: vec(S x) = (I kron x^T) vec(S), vec(y S) = (y kron I) vec(S)
            rows.append(np.kron(eye2, x.T) - np.kron(y, eye1))
    return np.vstack(rows)


def _intertwiner_dimension(t1: OperatorTuple, t2: OperatorTuple) -> int:
    """Complex dimension of ``{S : S a_j = b_j S and S a_j* = b_j* S}``.

    Computed as the nullity of the stacked intertwiner system, with
    singular values below ``1e-8 * max(sigma_max, 1)`` counted as zero.
    """
    sys = _intertwiner_system(t1, t2)
    svals = np.linalg.svd(sys, compute_uv=False)
    if svals.size == 0:
        return sys.shape[1]
    cutoff = NULLITY_RTOL * max(float(svals[0]), 1.0)
    return sys.shape[1] - int(np.sum(svals > cutoff))


def commutant_dimension(t: OperatorTuple) -> int:
    """Complex dimension of ``{S : S a_j = a_j S and S a_j* = a_j* S}``,
    the intertwiners from ``t`` to itself."""
    return _intertwiner_dimension(t, t)


def words_equivalent(t1: OperatorTuple, t2: OperatorTuple) -> bool:
    """Decide simultaneous unitary equivalence from intertwiner dimensions.

    Two tuples of equal size are unitarily equivalent exactly when
    ``dim Hom(t1, t2) = dim End(t1) = dim End(t2)``, where Hom is the
    space of intertwiners ``S a_j = b_j S``, ``S a_j* = b_j* S``.  The
    C*-algebra a tuple generates is semisimple, so with multiplicities
    ``m_i`` and ``k_i`` of the irreducible types in ``t1`` and ``t2``,
    Schur's lemma gives ``dim Hom = sum m_i k_i`` and ``dim End =
    sum m_i^2``; equality of all three forces ``m = k`` (Cauchy-Schwarz).
    The name recalls Specht's criterion (equal traces of all words in
    ``a_j, a_j*``), which states the same equivalence.

    Raises
    ------
    DimensionMismatch
        If the tuples have different ``d`` or different ``n``.
    """
    if t1.d != t2.d:
        raise DimensionMismatch("tuples have different lengths d")
    if t1.n != t2.n:
        raise DimensionMismatch("tuples have different matrix sizes n")
    hom = _intertwiner_dimension(t1, t2)
    return hom == commutant_dimension(t1) == commutant_dimension(t2)


def simdiag_hermitian(
    mats: Sequence[np.ndarray], tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneously diagonalize a commuting family of Hermitian matrices.

    Classic partition refinement: diagonalize the first matrix, split the
    basis into eigenvalue clusters (gap threshold ``tol`` times the matrix
    scale), then diagonalize each subsequent matrix inside every cluster.

    Returns
    -------
    (u, values)
        ``u`` unitary, ``values`` a real (n, len(mats)) array with
        ``values[k, j]`` the j-th matrix's eigenvalue along column k of
        ``u``.

    Raises
    ------
    NotCommuting
        If some matrix keeps off-diagonal mass above ``1e-7`` times its
        scale in the refined basis, which is the numerical symptom of a
        non-commuting input.
    """
    ms = [as_matrix(m) for m in mats]
    if not ms:
        raise DimensionMismatch("need at least one matrix")
    n = ms[0].shape[0]
    u = np.eye(n, dtype=complex)
    blocks = [(0, n)]
    for m in ms:
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        refined: list[tuple[int, int]] = []
        for lo, hi in blocks:
            if hi - lo == 1:
                refined.append((lo, hi))
                continue
            ub = u[:, lo:hi]
            vals, vecs = np.linalg.eigh(herm_part(ub.conj().T @ m @ ub))
            u[:, lo:hi] = ub @ vecs
            start = lo
            for k in range(1, hi - lo):
                if vals[k] - vals[k - 1] > tol * scale:
                    refined.append((start, lo + k))
                    start = lo + k
            refined.append((start, hi))
        blocks = refined
    values = np.empty((n, len(ms)))
    for j, m in enumerate(ms):
        t = u.conj().T @ m @ u
        values[:, j] = np.real(np.diag(t))
        off = t - np.diag(np.diag(t))
        scale = max(1.0, float(np.abs(t).max(initial=0.0)))
        if float(np.abs(off).max(initial=0.0)) > 1e-7 * scale:
            raise NotCommuting(
                f"matrix {j} is not diagonal in the joint eigenbasis "
                f"(off-diagonal mass {float(np.abs(off).max()):.3e})"
            )
    return u, values


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, handy for seeded probes and tests."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * herm_part(g)


def compressed_ampliation(
    x: OperatorTuple, n: int, rng: np.random.Generator
) -> OperatorTuple:
    """A guaranteed level-n member of the matrix range of ``x``: compress
    the ampliation ``x kron I_r`` by a random isometry."""
    r = -(-n // x.n)
    eye = np.eye(r)
    v = random_isometry(x.n * r, n, rng)
    mats = tuple(v.conj().T @ np.kron(m, eye) @ v for m in x.mats)
    return OperatorTuple(mats, x.hermitian)


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish isometry with ``rows >= cols`` (QR of a Gaussian)."""
    if rows < cols:
        raise DimensionMismatch("an isometry needs rows >= cols")
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    # fix the phase so the factorization is unique and seeded runs repeat
    ph = np.diagonal(r).copy()
    ph[np.abs(ph) < 1e-12] = 1.0
    return q * (ph / np.abs(ph)).conj()
