"""Dense complex linear algebra for small operator tuples.

Everything here works on plain ``numpy`` arrays at desk scale (matrix sizes
up to roughly 64).  The routines favour certified, re-checkable output over
raw speed: eigendecompositions come from LAPACK via ``numpy.linalg``,
apart from 2 x 2 blocks, whose eigenvalues (``herm_eigvalsh``), PSD part
(``psd_part``) and certified circle support (``circle_support``, which
gives the numerical radius) come in closed form; the iterative pieces
state what their tolerance bounds.  ``_require_bytes`` refuses, before
allocating, an array that grows with the input past ``MEMORY_BUDGET``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, NotCommuting, TooLarge

#: relative tolerance for accepting a matrix as Hermitian
HERM_RTOL = 1e-12

#: SVD threshold, relative to the largest entry of the tuples, used when
#: counting null directions
NULLITY_RTOL = 1e-8

#: relative eigenvalue gap that splits a cluster in ``simdiag_hermitian``
SIMDIAG_GAP_RTOL = 1e-9

#: commutator size, relative to the product of its entries' sizes less
#: their scalar parts, above which ``_simdiag`` refuses to diagonalize
COMMUTING_TOL = 1e-10

#: angles of the ``circle_support`` scan at n >= 3 (at n <= 2, 16 start
#: the climb, and the certificate makes it global)
_SCAN_GRID = 64

#: angles per ``eigvalsh`` call in that scan: one (64, n, n) stack would
#: set a small query's peak memory
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
    """Return (m + m*) / 2 over leading axes, as ``m/2 + m*/2``: halving is
    exact, so this rounds as the sum does, and it cannot overflow."""
    h = 0.5 * m
    t = np.swapaxes(h, -1, -2).copy()  # C-ordered, so the sum needs no buffer
    h += np.conj(t, out=t)
    return h


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
        out = np.empty(v.shape[:-1])
        _, out[..., 0], out[..., 1] = _spectrum2(v)
        return out
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
        w = np.divide(hi, den, out=np.zeros(hi.shape), where=den > 0.0)
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
    """Every matrix of the stack ``m`` is Hermitian within ``rtol`` times its
    own largest entry, at any scale: a zero matrix passes."""
    axes = (-2, -1)
    dev = np.abs(m - _adjoint(m)).max(axis=axes, initial=0.0)
    return bool((dev <= rtol * np.abs(m).max(axis=axes, initial=0.0)).all())


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


def _value(stack, theta: float) -> float:
    """``f`` alone at ``theta``: ``_profile``'s, or ``eigvalsh`` of ``H``."""
    if isinstance(stack, list):
        return _profile(stack, theta)[0]
    *y0, re, im = stack
    h = sum(y0, math.cos(theta) * re) + math.sin(theta) * im
    return float(np.linalg.eigvalsh(h)[-1])


def _profile(stack, theta: float) -> tuple[float, float, float]:
    """``f = lambda_max(H)``, ``f'``, ``f''`` at ``theta``, ``H = y0 +
    cos(theta) re + sin(theta) im``: from Pauli coordinates (lists) ``f =
    alpha + |v|``; else, ``stack = ([y0,] re, im)`` with no y0 when it is
    0, from one ``eigh``, ``f'' = u* H'' u + 2 sum_k |v_k* H' u|^2 /
    (lambda_1 - lambda_k)``, gaps > 1e-12 (Johnson 1978)."""
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(stack, list):
        (y0, *yv), (r0, *rv), (i0, *iv) = stack
        alpha, d_alpha = y0 + c * r0 + s * i0, c * i0 - s * r0
        v = [y + c * r + s * i for y, r, i in zip(yv, rv, iv)]
        dv = [c * i - s * r for r, i in zip(rv, iv)]
        if (norm := math.hypot(*v)) == 0.0:
            return alpha, d_alpha, y0 - alpha
        d1 = sum(p * q for p, q in zip(v, dv)) / norm
        d2 = sum(q * q + p * (y - p) for p, q, y in zip(v, dv, yv)) - d1 * d1
        return alpha + norm, d_alpha + d1, y0 - alpha + d2 / norm
    *y0, re, im = stack
    lam, vecs = np.linalg.eigh(sum(y0, c * re) + s * im)
    u = vecs[:, -1]
    coup = vecs.conj().T @ ((c * im - s * re) @ u)
    gaps = lam[-1] - lam[:-1]
    far = gaps > 1e-12
    curv = sum(float((u.conj() @ y @ u).real) for y in y0) - lam[-1]
    d2 = curv + 2.0 * float(np.sum(np.abs(coup[:-1][far]) ** 2 / gaps[far]))
    return float(lam[-1]), float(coup[-1].real), d2


def _climb(stack, starts, step: float, scale: float, tol: float):
    """The best ``(f, theta)`` that Newton steps on ``f' = 0`` reach from
    each ``t`` in ``starts`` within ``[t - step, t + step]``, a bracket that
    shrinks to the side ``f'`` points to; its midpoint replaces a step that
    leaves it or has ``f'' >= 0``.  Done below a step of ``1e-2 sqrt(tol)``
    or at ``|f'| <= 1e-14 scale``, except at a clear minimum (between two
    peaks), whose two half-brackets are refined."""
    flat = 1e-14 * scale
    angle_target = max(math.sqrt(max(tol, 1e-15)) * 1e-2, 1e-12)
    best = (-math.inf, 0.0)
    todo = [(t, t - step, t + step) for t in starts]
    while todo:
        theta, lo, hi = todo.pop()
        while True:
            f, d1, d2 = _profile(stack, theta)
            best = max(best, (f, theta))
            if abs(d1) <= flat:
                if d2 > 1e6 * flat and hi - lo > angle_target:
                    todo += [(0.5 * (lo + theta), lo, theta),
                             (0.5 * (theta + hi), theta, hi)]
                break
            lo, hi = (theta, hi) if d1 > 0.0 else (lo, theta)
            nxt = theta - d1 / d2 if d2 < 0.0 else math.nan
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - theta) < angle_target:
                best = max(best, (_value(stack, nxt), nxt))
                break
            theta = nxt
    return best


def _circle_certificate(rows: list, gram: list, upper: float) -> float | None:
    """None if ``f = alpha_0 + a.u + |v_0 + M u| <= upper`` on the unit
    circle (Pauli rows; Gram matrix of ``v_0, M``), else an angle where ``f
    > upper``: an S-lemma bound on ``(w - a.u)^2 - |v_0 + M u|^2``, ``w =
    upper - alpha_0``, made tight by Newton steps (Moré and Sorensen 1983),
    as the README derives."""
    (y0, *_), (a1, *_), (a2, *_) = rows
    w = upper - y0
    if w < math.hypot(a1, a2):
        return math.atan2(a2, a1)
    a11, a12, a22 = a1 * a1 - gram[1][1], a1 * a2 - gram[1][2], a2 * a2 - gram[2][2]
    gap = 2.0 * math.hypot(0.5 * (a11 - a22), a12)
    phi = 0.5 * math.atan2(2.0 * a12, a11 - a22)
    c, s = math.cos(phi), math.sin(phi)
    ga, gb = -w * a1 - gram[0][1], -w * a2 - gram[0][2]
    g1, g2 = gb * c - ga * s, ga * c + gb * s
    base = w * w - gram[0][0] + 0.5 * (a11 + a22 - gap)
    margin = 1e-15 * (w * w + gram[0][0] + gram[1][1] + gram[2][2])
    t = max(abs(g1), math.hypot(g1, g2) - gap)  # 0 only if g_1 = 0 (hard case)
    for _ in range(100):
        q1, q2 = g1 / t if t else 0.0, g2 / (t + gap) if t + gap else 0.0
        if base - t - g1 * q1 - g2 * q2 > margin:
            return None
        n2 = q1 * q1 + q2 * q2
        if not t or n2 <= 1.0:
            break
        t += n2 * (math.sqrt(n2) - 1.0) / (q1 * q1 / t + q2 * q2 / (t + gap))
    q1 -= math.sqrt(max(0.0, 1.0 - q1 * q1 - q2 * q2))
    return math.atan2(-q1 * c - q2 * s, q1 * s - q2 * c)


def circle_support(y0, t, tol: float = 1e-8) -> tuple[float, ...]:
    """``(lower, upper, theta)``, ``lower = f(theta) <= max f <= upper``, for
    ``f(theta) = lambda_max(y0 + Re(e^{i theta} t))``, ``y0`` Hermitian or
    scalar; ``_climb`` refines each peak of a scan.  At n <= 2 (no LAPACK)
    ``f = alpha_0 + a.u + |v_0 + M u|``, ``u = (cos theta, sin theta)``,
    is maximized exactly if ``|v_0 + M u|`` is constant (scalar ``t``,
    circular range, flat profile), else ``_circle_certificate`` proves
    ``upper = lower + tol / 2`` or names an angle to climb from (rounding
    quadruples the slack).  At n >= 3, ``upper`` is the sublinearity
    bound of a scan of ``_SCAN_GRID`` angles, unrefined (see the README).
    Raises ``DimensionMismatch`` for a non-square or non-finite ``t`` or a
    ``y0`` of another shape."""
    a = as_matrix(t)
    n = a.shape[0]
    y = as_matrix(y0) if np.ndim(y0) else y0 * np.eye(n, dtype=complex)
    if y.shape != a.shape:
        raise DimensionMismatch(f"y0 has shape {y.shape}, t has shape {a.shape}")
    if n == 0:
        return 0.0, 0.0, 0.0
    size = _SCAN_GRID if n > 2 else 16
    thetas = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    dirs = np.column_stack([np.ones(size), np.cos(thetas), np.sin(thetas)])
    if n > 2:
        parts = [herm_part(a), -skew_part(a)]
        stack = np.stack([herm_part(y), *parts] if y.any() else parts)
        dirs = dirs[:, 3 - len(stack):]
        vals = np.concatenate([
            np.linalg.eigvalsh(pencil_stack(stack, dirs[k:k + _SCAN_CHUNK]))[:, -1]
            for k in range(0, size, _SCAN_CHUNK)
        ])
    else:
        stack = []
        for m in (y, a, 1j * a):
            (m00, m01), (m10, m11) = (m * np.eye(2) if n == 1 else m).tolist()
            b, d = 0.5 * (m10 + m01.conjugate()), 0.5 * (m00 - m11)
            stack.append([0.5 * (m00 + m11).real, d.real, b.real, b.imag])
        pauli = np.array(stack)
        gram = (pauli[:, 1:] @ pauli[:, 1:].T).tolist()
        if gram[0][1] == gram[0][2] == gram[1][2] == 0.0 and gram[1][1] == gram[2][2]:
            theta = math.atan2(stack[2][0], stack[1][0])
            lower = _profile(stack, theta)[0]
            top = math.hypot(*pauli[1:, 0]) + math.sqrt(gram[0][0] + gram[1][1])
            return lower, max(lower, stack[0][0] + top), theta
        p = dirs @ pauli
        vals = p[:, 0] + np.sqrt((p[:, 1:] ** 2).sum(1))
    delta, scale = 2.0 * np.pi / size, float(np.abs(vals).max())
    ring = np.concatenate((vals[-1:], vals, vals[:1]))
    peaks = thetas[(vals >= ring[:-2]) & (vals >= ring[2:])].tolist()
    lower, theta = _climb(stack, peaks, delta, scale, tol)
    if n > 2:
        g = float(np.linalg.eigvalsh(-stack[0])[-1]) if len(stack) == 3 else 0.0
        top = float(vals.max()) + g
        return lower, max(lower, max(top, top / math.cos(0.5 * delta)) - g), theta
    slack = max(0.5 * tol, 1e-15 * scale)
    while (start := _circle_certificate(stack, gram, lower + slack)) is not None:
        f, start = _climb(stack, [start], delta, scale, tol)
        if f <= lower + slack:
            slack *= 4.0
        lower, theta = max((lower, theta), (f, start))
    return lower, lower + slack, theta


def numerical_radius(m, tol: float = 1e-8) -> float:
    """``w(m) = max_theta lambda_max(Re(e^{i theta} m))``, the lower end of
    ``circle_support(0, m, tol)``."""
    return circle_support(0.0, m, tol)[0]


@dataclasses.dataclass(frozen=True)
class OperatorTuple:
    """A d-tuple of n-by-n complex matrices.

    ``hermitian`` asserts that every entry equals its adjoint within
    relative tolerance ``1e-12`` of its own largest entry, at any scale
    (``is_hermitian``); entries are symmetrized on construction when the
    flag is set.  ``stack`` holds the entries as one (d, n, n) array, and
    ``mats`` are its rows.
    """

    mats: tuple[np.ndarray, ...]
    hermitian: bool = False

    def __post_init__(self):
        if len(self.mats) == 0:
            raise DimensionMismatch("operator tuple needs at least one matrix")
        try:
            stack = np.array(self.mats, dtype=complex)
        except (TypeError, ValueError):
            for m in self.mats:  # the entry at fault raises as_matrix's error
                as_matrix(m)
            raise DimensionMismatch("tuple entries must share one size") from None
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            as_matrix(stack[0])  # raises the shape error every entry shares
        if not np.isfinite(stack).all():
            raise DimensionMismatch("matrix contains non-finite entries")
        if self.hermitian:
            if not is_hermitian(stack):
                raise NonHermitianInput(
                    "hermitian flag set but an entry is not Hermitian"
                )
            stack = herm_part(stack)
        object.__setattr__(self, "mats", tuple(stack))
        object.__setattr__(self, "stack", stack)

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def scaled(self, factor: float) -> "OperatorTuple":
        """``(factor a_j)_j``, unchecked when a real ``factor`` maps a
        Hermitian tuple to complex finite, so Hermitian, entries."""
        stack = factor * self.stack
        if not (self.hermitian and np.isrealobj(factor)
                and stack.dtype == complex and np.isfinite(stack).all()):
            return OperatorTuple(stack, self.hermitian)
        out = object.__new__(OperatorTuple)
        out.__dict__.update(mats=tuple(stack), hermitian=True, stack=stack)
        return out

    def conjugated(self, u: np.ndarray) -> "OperatorTuple":
        """Return ``(u* a_j u)_j`` for a unitary or isometry ``u``."""
        return OperatorTuple([u.conj().T @ m @ u for m in self.mats], self.hermitian)


def direct_sum(*tuples: OperatorTuple) -> OperatorTuple:
    """Blockwise direct sum of operator tuples (same d)."""
    d = tuples[0].d
    if any(t.d != d for t in tuples):
        raise DimensionMismatch("direct sum requires equal tuple lengths")
    n = sum(t.n for t in tuples)
    stack, at = np.zeros((d, n, n), dtype=complex), 0
    for t in tuples:
        stack[:, at:at + t.n, at:at + t.n] = t.stack
        at += t.n
    return OperatorTuple(stack, all(t.hermitian for t in tuples))


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
    singular values up to ``NULLITY_RTOL`` times the largest entry of
    either tuple, the tuples' own scale, counted as zero.
    """
    sys = _intertwiner_system(t1, t2)
    svals = np.linalg.svd(sys, compute_uv=False)
    size = max(np.abs(t.stack).max(initial=0.0) for t in (t1, t2))
    return sys.shape[1] - int(np.sum(svals > NULLITY_RTOL * size))


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


def simdiag_hermitian(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneously diagonalize a commuting family of Hermitian matrices,
    checked as an ``OperatorTuple``'s entries are: ``_simdiag`` of their
    stack, or ``NotCommuting``.  Returns ``(u, values)``, ``u`` unitary
    (``I`` for diagonal matrices) and ``values[k, j]`` the j-th matrix's
    eigenvalue along column k of ``u``."""
    return _simdiag(OperatorTuple(tuple(mats)).stack[:, None], "matrix {}".format)


def _simdiag(entries, name) -> tuple[np.ndarray, np.ndarray]:
    """``simdiag_hermitian`` of a checked (d, p, n, n) stack of d entries,
    each as p Hermitian rows, or ``NotCommuting`` naming two rows by
    ``name(row)``, rows counted entry by entry.  First the commutator
    test: the rows less their scalar parts, which no commutator sees,
    each over its own size, must commute pairwise within
    ``COMMUTING_TOL``, at any scale; a NaN fails.  A size is floored at
    1e-4 of its entry's largest entry, above the entry's rounding, so a
    part of rounding noise (as in ``Q (2I) Q*``) is not scaled up to
    size 1; a part above 5e-15 of its entry is still seen against one of
    full size.  A diagonal stack then has the basis
    ``I``.  Otherwise, partition refinement: diagonalize the first
    matrix, split the basis into eigenvalue clusters (gap
    ``SIMDIAG_GAP_RTOL`` times the stack's largest entry), then
    diagonalize each next matrix inside every cluster; a matrix with
    off-diagonal mass above ``1e-7`` times the stack's largest entry in
    the refined basis (a near degenerate spectrum) is refused too.  Both
    thresholds scale with the stack, so an answer does not depend on its
    scale, and not with each matrix, so a row of rounding noise (the
    skew part of a Hermitian entry) splits no cluster."""
    n = entries.shape[-1]
    parts = entries.copy()
    diag = parts.reshape(*parts.shape[:2], n * n)[..., :: n + 1]  # a view
    peak, total = np.maximum.reduce, np.add.reduce  # not the slower methods
    diag -= total(diag, -1, keepdims=True) / max(n, 1)
    sizes = peak(np.abs(parts), axis=(2, 3), keepdims=True, initial=0.0)
    # floored at a normal float: a complex division by a subnormal overflows
    top = peak(np.abs(entries), axis=(1, 2, 3), keepdims=True, initial=1e-300)
    # each part over its size: entries at most 1, so no product overflows
    unit = np.divide(parts, np.maximum(sizes, 1e-4 * top), out=parts).reshape(-1, n, n)
    stack = entries.reshape(-1, n, n)
    d = len(stack)
    for j in range(d):
        for k in range(j + 1, d):
            prod = unit[j] @ unit[k]  # Hermitian rows: prod* = unit[k] @ unit[j]
            comm = np.abs(prod - prod.conj().T)
            if not peak(comm, None, initial=0.0) <= COMMUTING_TOL:  # n = 0 passes
                raise NotCommuting(f"{name(j)} and {name(k)} do not commute")
    eye = np.eye(n)
    if not stack[:, eye == 0].any():
        return eye.astype(complex), np.diagonal(stack, axis1=1, axis2=2).real.T.copy()
    u = np.eye(n, dtype=complex)
    blocks = [(0, n)]
    scale = float(top.max())
    for m in stack:
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
                if vals[k] - vals[k - 1] > SIMDIAG_GAP_RTOL * scale:
                    refined.append((start, lo + k))
                    start = lo + k
            refined.append((start, hi))
        blocks = refined
    values = np.empty((n, d))
    for j, m in enumerate(stack):
        t = u.conj().T @ m @ u
        values[:, j] = np.real(np.diag(t))
        off = t - np.diag(np.diag(t))
        if float(np.abs(off).max(initial=0.0)) > 1e-7 * scale:
            raise NotCommuting(
                f"{name(j)} is not diagonal in the joint eigenbasis "
                f"(off-diagonal mass {float(np.abs(off).max()):.3e})"
            )
    return u, values


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix, handy for seeded probes and tests."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return herm_part(g)


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
