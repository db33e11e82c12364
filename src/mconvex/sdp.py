"""Certified semidefinite feasibility at desk scale.

The engine decides whether an affine slice meets the cone of positive
semidefinite block-diagonal Hermitian matrices.  It deliberately solves
nothing more general: no objectives, no second-order cones.  Verdicts are
tri-state and every non-Unknown answer carries a certificate that can be
re-verified from the problem data alone:

* ``Feasible``  -> a witness matrix with min eigenvalue >= -1e-8 whose
  constraint residual is <= 1e-7,
* ``Infeasible`` -> dual coefficients whose constraint pencil is negative
  semidefinite while pairing strictly positively with the right-hand side,
  so no PSD point can satisfy the constraints within the stated margin.

The iteration is Douglas-Rachford splitting between the affine subspace
(exact least-squares projection through a preconditioned Gram matrix) and
the PSD cone (eigenvalue clipping).  Problems feasible only on the cone
boundary stall the plain iteration, so a facial-reduction polish restricts
to the face suggested by the stalled iterate and re-solves there, which
restores Slater-style convergence and yields exact-rank witnesses.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import logging
from typing import Sequence

import numpy as np

from .errors import BadProblem, NoCertificate
from .linalg import herm_part

_LOG = logging.getLogger("mconvex")

#: witness acceptance thresholds, fixed across the library
WITNESS_MIN_EIG = -1e-8
WITNESS_RESIDUAL = 1e-7

#: a constraint whose coefficient norm is at most ZERO_ROW_NORM is a zero
#: row (rounding noise, e.g. left by a face restriction); its rhs must be
#: at most ZERO_ROW_RHS in size
ZERO_ROW_NORM = 1e-14
ZERO_ROW_RHS = 1e-12

#: bytes of the coefficient stack symmetrized or normed at once while
#: compiling
CHUNK_BYTES = 1 << 20

#: iterations between witness checks and between dual-certificate tries;
#: most solves close at their first check.  Checking before iteration 4
#: certifies cone-projected witnesses of least eigenvalue 0 (kmin margin 0)
CHECK_EVERY, CERT_EVERY = 4, 16
STALL_WINDOW = 512


class Status(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclasses.dataclass(frozen=True)
class AffineConstraint:
    """One real-linear equation ``sum_j Re tr(coeff_j* V_j) = rhs``.

    ``coeff`` holds one Hermitian coefficient per diagonal block ``V_j`` of
    the variable, in the order of ``SdpFeasibility.block_sizes`` (a list of
    matrices, or an array stacking equal-size ones).  A 2-D array is the
    one-block form.
    """

    coeff: np.ndarray | Sequence[np.ndarray]
    rhs: float


@dataclasses.dataclass(frozen=True)
class SdpFeasibility:
    """Find Hermitian ``V >= 0`` of size ``var_size`` meeting the constraints.

    ``block_sizes``, when given, makes the variable block-diagonal with
    blocks of these sizes (the PSD cone becomes a product of smaller cones,
    which both tightens the model and speeds the projections); every
    constraint then gives one coefficient per block, and nothing couples
    two blocks.  ``trace_normalization`` appends the constraint
    ``tr V = value``.
    """

    var_size: int
    constraints: tuple[AffineConstraint, ...]
    trace_normalization: float | None = None
    block_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.block_sizes is not None:
            object.__setattr__(self, "block_sizes", tuple(self.block_sizes))


@dataclasses.dataclass(frozen=True)
class Separator:
    """Infeasibility certificate.

    ``dual`` are coefficients against the original constraints; the pencil
    ``sum_i dual_i coeff_i``, given as one block per declared block in
    declared order, has ``lambda_max <= psd_slack`` on every block (a hair
    above zero at machine scale) while ``sum_i dual_i rhs_i = margin > 0``.
    Any PSD matrix therefore violates the constraint system by at least
    ``margin`` in the preconditioned 2-norm, up to ``psd_slack`` times its
    trace.
    """

    dual: np.ndarray
    margin: float
    pencil: list[np.ndarray]
    psd_slack: float


@dataclasses.dataclass(frozen=True)
class Verdict:
    status: Status
    witness: np.ndarray | None
    separator: Separator | None
    iterations: int
    residual: float


def _groups(sizes: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Block indices grouped by size, so eigendecompositions batch."""
    order: dict[int, list[int]] = {}
    for idx, s in enumerate(sizes):
        order.setdefault(s, []).append(idx)
    return sorted(order.items())


def _compile(problem: SdpFeasibility) -> _Compiled:
    """Validate a problem and stack its coefficients into size groups."""
    n = int(problem.var_size)
    if n <= 0:
        raise BadProblem("variable size must be positive")
    sizes = tuple(int(s) for s in (problem.block_sizes or (n,)))
    if sum(sizes) != n or any(s <= 0 for s in sizes):
        raise BadProblem("block sizes must be positive and sum to var_size")

    cons = list(problem.constraints)
    if problem.trace_normalization is not None:
        cons.append(
            AffineConstraint([np.eye(s) for s in sizes],
                             float(problem.trace_normalization))
        )
    blocks = []
    for i, c in enumerate(cons):
        coeff = c.coeff
        if isinstance(coeff, np.ndarray) and coeff.ndim == 2:
            coeff = (coeff,)
        if len(coeff) != len(sizes):
            raise BadProblem(
                f"constraint {i} has {len(coeff)} coefficient blocks "
                f"for {len(sizes)} declared blocks"
            )
        blocks.append(coeff)

    tensors = []
    for s, idxs in _groups(sizes):
        shape = (len(cons), len(idxs), s, s)
        rows = [[c[j] for j in idxs] for c in blocks]
        try:
            t = np.array(rows, dtype=complex) if rows else np.empty(shape, complex)
        except ValueError:  # blocks of unequal shapes
            t = None
        if t is None or t.shape != shape:
            raise BadProblem(f"coefficient blocks do not match block size {s}")
        if not np.all(np.isfinite(t.view(float))):
            raise BadProblem(f"a coefficient block of size {s} is not finite")
        dev, scale = _hermitize(t)
        if dev > 1e-10 * max(1.0, scale):
            raise BadProblem(f"a coefficient block of size {s} is not Hermitian")
        tensors.append(t)
    return _Compiled(sizes, tensors, [float(c.rhs) for c in cons])


def _hermitize(t: np.ndarray) -> tuple[float, float]:
    """Replace a stack of matrices by its Hermitian part, in place.

    Returns the largest entry of ``|t - t*|`` and of ``|t|`` before the
    change.  Works chunk by chunk (``_chunks``), so the temporaries stay
    near ``CHUNK_BYTES`` instead of copying the stack.
    """
    dev = scale = 0.0
    for rows in _chunks(t):
        chunk = t[rows]
        adj = np.conj(np.swapaxes(chunk, -1, -2))
        dev = max(dev, float(np.abs(chunk - adj).max()))
        scale = max(scale, float(np.abs(chunk).max()))
        t[rows] = 0.5 * (chunk + adj)
    return dev, scale


def _chunks(t: np.ndarray) -> list[slice]:
    """Slices of the leading axis of ``t`` of about ``CHUNK_BYTES`` each."""
    step = max(1, CHUNK_BYTES // max(1, t.nbytes // max(1, len(t))))
    return [slice(i, i + step) for i in range(0, len(t), step)]


class _Compiled:
    """Preprocessed problem: grouped blocks, normalized constraints, Gram.

    ``coeff_groups[g]`` stacks the Hermitian coefficients of size group
    ``g`` of ``_groups(block_sizes)`` as an ``(m, count, s, s)`` tensor;
    the constructor takes the stacks over, normalizes them in place and
    keeps each C-contiguous, so ``coeff_mats`` reads it as a real
    ``(m, 2 count s^2)`` matrix and ``apply``, ``pencil`` and the Gram are
    single BLAS products.
    ``with_rhs`` re-poses the problem for another right-hand side and
    shares everything else.
    """

    def __init__(self, block_sizes, coeff_groups: list[np.ndarray], rhs):
        self.block_sizes = tuple(block_sizes)
        self.var_size = sum(self.block_sizes)
        self.block_offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        self.groups = _groups(self.block_sizes)
        m = len(rhs)
        self.m = m
        coeff_groups = [np.ascontiguousarray(t) for t in coeff_groups]

        # diagonal preconditioning: unit Frobenius norm per constraint; rows
        # of rounding noise become zero rows (zero coefficient, zero rhs,
        # zero dual) instead of unit-norm equations of noise
        sq = np.zeros(m)
        for tensor in coeff_groups:
            for rows in _chunks(tensor):
                sq[rows] += np.einsum(
                    "mnij,mnij->m", tensor[rows].conj(), tensor[rows]
                ).real
        norms = np.sqrt(np.maximum(sq, 1e-300))
        self.zero_rows = norms <= ZERO_ROW_NORM
        norms[self.zero_rows] = 1.0
        for tensor in coeff_groups:
            tensor[self.zero_rows] = 0.0
            tensor /= norms[:, None, None, None]
        self.norms = norms
        self.coeff_groups = coeff_groups
        self.coeff_mats = [
            t.view(float).reshape(m, 2 * len(idxs) * s * s)
            for t, (s, idxs) in zip(coeff_groups, self.groups)
        ]
        self._set_rhs(rhs)

        self.gram = gram = sum(mat @ mat.T for mat in self.coeff_mats)
        self.gram_pinv = np.linalg.pinv(gram, rcond=1e-12) if m else gram
        self.gram_pinv[self.zero_rows] = 0.0
        self.gram_pinv[:, self.zero_rows] = 0.0

        # can the identity be written as a pencil of the constraints?
        self.ident = [
            np.broadcast_to(np.eye(s, dtype=complex), (len(idxs), s, s)).copy()
            for (s, idxs) in self.groups
        ]
        t = self.gram_pinv @ self.apply(self.ident)
        gap = sum(
            float(np.abs(pg - ig).max())
            for pg, ig in zip(self.pencil(t), self.ident)
        )
        self.identity_combo = t if gap <= 1e-9 else None

    def _set_rhs(self, rhs) -> None:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.m,):
            raise BadProblem(f"rhs of shape {rhs.shape} for {self.m} constraints")
        finite = np.isfinite(rhs)
        if not finite.all():
            raise BadProblem(f"constraint {int(np.argmin(finite))} rhs is not finite")
        bad = self.zero_rows & (np.abs(rhs) > ZERO_ROW_RHS)
        if bad.any():
            raise BadProblem(
                f"constraint {int(np.argmax(bad))} has zero coeff, nonzero rhs"
            )
        self.b = np.where(self.zero_rows, 0.0, rhs / self.norms)

    def with_rhs(self, rhs) -> _Compiled:
        """The same constraint operator with another right-hand side.

        Shares the normalized coefficients, the Gram pseudo-inverse and
        ``identity_combo``; re-checks the new rhs as ``_compile`` does.
        """
        out = copy.copy(self)
        out._set_rhs(rhs)
        return out

    def solve(self, tol: float, max_iter: int) -> Verdict:
        """Run the certified iteration; one DEBUG line per solve."""
        status, v, sep, it, resid = _iterate(self, tol, max_iter, polish_left=3)
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug(
                "sdp solve: %s after %d iterations, residual %.3e, "
                "m=%d, %d blocks",
                status.value, it, resid, self.m, len(self.block_sizes),
            )
        witness = None if v is None else self.assemble(v)
        return Verdict(status, witness, sep, it, resid)

    # --- variable helpers (variables are lists of (count, s, s) arrays) ---

    def zero(self) -> list[np.ndarray]:
        return [
            np.zeros((len(idxs), s, s), dtype=complex)
            for (s, idxs) in self.groups
        ]

    def apply(self, v: list[np.ndarray]) -> np.ndarray:
        """The constraint map A(V), a real m-vector."""
        # Re tr(C* V) = <Re C, Re V> + <Im C, Im V>: one real matrix-vector
        # product per group on the interleaved real view
        return sum(
            mat @ vg.view(float).ravel() for mat, vg in zip(self.coeff_mats, v)
        )

    def pencil(self, y: np.ndarray) -> list[np.ndarray]:
        """The adjoint map A*(y) = sum_i y_i C_i as a block variable."""
        return [
            (y @ mat).view(complex).reshape(len(idxs), s, s)
            for mat, (s, idxs) in zip(self.coeff_mats, self.groups)
        ]

    def affine_project(self, v: list[np.ndarray]) -> list[np.ndarray]:
        y = self.gram_pinv @ (self.apply(v) - self.b)
        corr = self.pencil(y)
        return [vg - cg for vg, cg in zip(v, corr)]

    def psd_project(self, v: list[np.ndarray]) -> list[np.ndarray]:
        out = []
        for vg in v:
            vals, vecs = np.linalg.eigh(herm_part(vg))
            vals = np.maximum(vals, 0.0)
            out.append(
                np.einsum("nik,nk,njk->nij", vecs, vals, vecs.conj())
            )
        return out

    def min_eig(self, v: list[np.ndarray]) -> float:
        worst = np.inf
        for vg in v:
            vals = np.linalg.eigvalsh(herm_part(vg))
            worst = min(worst, float(vals[..., 0].min()))
        return worst

    def residual(self, v: list[np.ndarray]) -> float:
        if self.m == 0:
            return 0.0
        return float(np.abs(self.apply(v) - self.b).max())

    def blocks(self, v: list[np.ndarray]) -> list[np.ndarray]:
        """The blocks of a group variable, in declared order."""
        out = [None] * len(self.block_sizes)
        for (s, idxs), vg in zip(self.groups, v):
            for pos, j in enumerate(idxs):
                out[j] = vg[pos]
        return out

    def assemble(self, v: list[np.ndarray]) -> np.ndarray:
        full = np.zeros((self.var_size, self.var_size), dtype=complex)
        offs = self.block_offsets
        for j, blk in enumerate(self.blocks(v)):
            full[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = herm_part(blk)
        return full

    def split(self, w: np.ndarray) -> list[np.ndarray]:
        """The diagonal blocks of an assembled matrix, as a group variable."""
        offs = self.block_offsets
        return [
            np.stack([w[offs[j]:offs[j + 1], offs[j]:offs[j + 1]] for j in idxs])
            for (s, idxs) in self.groups
        ]

    def max_eig_pencil(self, s_blocks: list[np.ndarray]) -> float:
        worst = -np.inf
        for sg in s_blocks:
            vals = np.linalg.eigvalsh(herm_part(sg))
            worst = max(worst, float(vals[..., -1].max()))
        return worst

    def pencil_norm(self, s_blocks: list[np.ndarray]) -> float:
        return max(
            (float(np.abs(sg).max()) for sg in s_blocks if sg.size),
            default=0.0,
        )


def _certificate_from_dual(
    comp: _Compiled, coeffs: np.ndarray, tol: float
) -> Separator | None:
    """Verify (possibly after an identity shift) a candidate dual vector."""
    for sign in (1.0, -1.0):
        y = sign * coeffs
        nrm = float(np.linalg.norm(y))
        if nrm <= 1e-14:
            continue
        y = y / nrm
        s_blocks = comp.pencil(y)
        mx = comp.max_eig_pencil(s_blocks)
        if mx > 0 and comp.identity_combo is not None:
            shift = mx + 1e-13 * max(1.0, comp.pencil_norm(s_blocks))
            y = y - shift * comp.identity_combo
            nrm = float(np.linalg.norm(y))
            if nrm <= 1e-14:
                continue
            y = y / nrm
            s_blocks = comp.pencil(y)
            mx = comp.max_eig_pencil(s_blocks)
        slack_cap = 1e-12 * max(1.0, comp.pencil_norm(s_blocks))
        if mx > slack_cap:
            continue
        margin = float(comp.b @ y)
        if margin >= 10.0 * tol:
            return Separator(
                dual=y / comp.norms,
                margin=margin,
                pencil=comp.blocks(s_blocks),
                psd_slack=max(mx, 0.0),
            )
    return None


def _witness_ok(comp: _Compiled, v: list[np.ndarray]) -> tuple[bool, float]:
    resid = comp.residual(v)
    if resid > WITNESS_RESIDUAL:
        return False, resid
    if comp.min_eig(v) < WITNESS_MIN_EIG:
        return False, resid
    return True, resid


def _facial_polish(
    comp: _Compiled,
    v: list[np.ndarray],
    tol: float,
    max_iter: int,
) -> tuple[list[np.ndarray], float] | None:
    """Restrict to the face suggested by ``v`` and re-solve there.

    Returns a lifted exact-PSD witness, checked by ``_witness_ok``, and
    its residual when the reduced problem closes, else None.  Cuts are
    tried from coarse to fine so a strictly feasible face is found even
    when small eigenvalues are still noisy.
    """
    spectra = [np.linalg.eigh(herm_part(vg)) for vg in v]
    top = max(
        (float(vals.max()) for vals, _ in spectra if vals.size), default=0.0
    )
    if top <= 0:
        return None
    for cut in (0.2, 0.05, 0.01, 1e-3, 1e-5):
        thresh = cut * top
        # face basis of every block with a nonzero face, group by group
        faces = [
            (g, pos, vecs[pos][:, vals[pos] > thresh])
            for g, (vals, vecs) in enumerate(spectra)
            for pos in range(len(vals))
        ]
        faces = [f for f in faces if f[2].shape[1] > 0]
        sizes = [q.shape[1] for _, _, q in faces]
        if not faces or sum(sizes) == comp.var_size:
            continue
        # the reduced problem in the face coordinates: Q* C Q blockwise
        tensors = [
            np.stack(
                [
                    q.conj().T @ comp.coeff_groups[g][:, pos] @ q
                    for g, pos, q in (faces[k] for k in idxs)
                ],
                axis=1,
            )
            for _, idxs in _groups(sizes)
        ]
        for t in tensors:
            _hermitize(t)
        try:
            reduced = _Compiled(sizes, tensors, comp.b)
        except BadProblem:
            continue
        status, w, _, _, _ = _iterate(reduced, tol, max_iter, polish_left=0)
        if status is not Status.FEASIBLE:
            continue
        # lift back: witness = Q W Q* blockwise
        lifted = comp.zero()
        for (_, idxs), wg in zip(reduced.groups, w):
            for k, wb in zip(idxs, wg):
                g, pos, q = faces[k]
                lifted[g][pos] = q @ herm_part(wb) @ q.conj().T
        ok, resid = _witness_ok(comp, lifted)
        if ok:
            return lifted, resid
    return None


def _iterate(
    comp: _Compiled, tol: float, max_iter: int, polish_left: int
) -> tuple[Status, list[np.ndarray] | None, Separator | None, int, float]:
    """Douglas-Rachford on a compiled problem, with certificate checks and
    up to ``polish_left`` facial polishes.  Returns the status, the witness
    as a group variable, the separator, the iteration count and the
    residual."""
    if comp.m == 0:
        return Status.FEASIBLE, comp.zero(), None, 0, 0.0

    # inconsistent affine systems short-circuit with a separator: the
    # residue of b against range(Gram) has a zero pencil and margin
    # ||res_b||, and depends on b alone, so it is tried once
    res_b = comp.b - comp.gram @ (comp.gram_pinv @ comp.b)
    res_norm = float(np.linalg.norm(res_b))
    if res_norm > 1e-13:
        sep = _certificate_from_dual(comp, res_b, tol)
        if sep is not None:
            return Status.INFEASIBLE, None, sep, 0, res_norm
    polish_iter = min(max_iter, 4000)

    z = comp.zero()
    best_resid = np.inf
    best_v: list[np.ndarray] | None = None
    last_gap: list[np.ndarray] | None = None
    stall_mark = np.inf

    it = 0
    while it < max_iter:
        x = comp.affine_project(z)
        refl = [2.0 * xg - zg for xg, zg in zip(x, z)]
        y = comp.psd_project(refl)
        z = [zg + yg - xg for zg, yg, xg in zip(z, y, x)]
        it += 1

        if it % CHECK_EVERY == 0 or it == max_iter:
            # affine-exact candidate
            if comp.min_eig(x) >= WITNESS_MIN_EIG:
                ok, resid = _witness_ok(comp, x)
                if ok:
                    return Status.FEASIBLE, x, None, it, resid
            # cone-exact candidate
            resid_y = comp.residual(y)
            if resid_y <= WITNESS_RESIDUAL:
                ok, resid = _witness_ok(comp, y)
                if ok:
                    return Status.FEASIBLE, y, None, it, resid
            if resid_y < best_resid:
                best_resid = resid_y
                best_v = [yg.copy() for yg in y]
            last_gap = [xg - yg for xg, yg in zip(x, y)]

        if it % CERT_EVERY == 0 and last_gap is not None:
            gap_size = max(float(np.abs(g).max()) for g in last_gap)
            if gap_size > tol:
                sep = _certificate_from_dual(
                    comp, comp.gram_pinv @ comp.apply(last_gap), tol
                )
                if sep is not None:
                    return Status.INFEASIBLE, None, sep, it, best_resid

        if it % STALL_WINDOW == 0 and polish_left > 0 and best_v is not None:
            if best_resid > WITNESS_RESIDUAL and best_resid > 0.9 * stall_mark:
                polish_left -= 1
                polished = _facial_polish(comp, best_v, tol, polish_iter)
                if polished is not None:
                    lifted, resid = polished
                    return Status.FEASIBLE, lifted, None, it, resid
            stall_mark = best_resid

    # budget exhausted: one last certificate attempt on both sides
    if last_gap is not None:
        sep = _certificate_from_dual(
            comp, comp.gram_pinv @ comp.apply(last_gap), tol
        )
        if sep is not None:
            return Status.INFEASIBLE, None, sep, it, best_resid
    if polish_left > 0 and best_v is not None:
        polished = _facial_polish(comp, best_v, tol, polish_iter)
        if polished is not None:
            lifted, resid = polished
            return Status.FEASIBLE, lifted, None, it, resid
    return Status.UNKNOWN, None, None, it, best_resid


def solve_feasibility(
    problem: SdpFeasibility,
    tol: float = 1e-7,
    max_iter: int = 50000,
) -> Verdict:
    """Decide PSD feasibility of an affine slice, with certificates.

    Deterministic: identical problems give bit-identical statuses and
    witnesses matching to 1e-12.  ``Unknown`` only appears when the budget
    runs out without either certificate closing.
    """
    return _compile(problem).solve(tol, max_iter)


def verify_witness(
    problem: SdpFeasibility, witness: np.ndarray
) -> tuple[float, float]:
    """Re-verify a witness: (min eigenvalue, preconditioned residual)."""
    comp = _compile(problem)
    v = comp.split(np.asarray(witness, dtype=complex))
    return comp.min_eig(v), comp.residual(v)


def dual_witness(problem: SdpFeasibility, verdict: Verdict) -> dict:
    """Re-derive and check the separating pencil of an Infeasible verdict.

    Raises ``NoCertificate`` unless the verdict is Infeasible.  Returns a
    report with the recomputed margin, the pencil (one block per declared
    block) and its top eigenvalue; the recomputation agrees with the
    stored margin to 1e-9 by construction.
    """
    if verdict.status is not Status.INFEASIBLE or verdict.separator is None:
        raise NoCertificate("verdict carries no separating certificate")
    comp = _compile(problem)
    sep = verdict.separator
    y_norm = np.asarray(sep.dual, dtype=float) * comp.norms
    s_blocks = comp.pencil(y_norm)
    margin = float(comp.b @ y_norm)
    return {
        "margin": margin,
        "margin_gap": abs(margin - sep.margin),
        "pencil_max_eig": comp.max_eig_pencil(s_blocks),
        "pencil": comp.blocks(s_blocks),
        "dual": sep.dual.copy(),
    }
