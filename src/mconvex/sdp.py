"""Certified semidefinite feasibility at desk scale.

The engine decides whether an affine slice meets the cone of positive
semidefinite block-diagonal Hermitian matrices.  It deliberately solves
nothing more general: no objectives, no second-order cones.  Verdicts are
tri-state and every non-Unknown answer carries a certificate that can be
re-verified from the problem data alone:

* ``Feasible``  -> witness blocks with min eigenvalue >= -1e-8 whose
  constraint residual is <= 1e-7,
* ``Infeasible`` -> dual coefficients whose constraint pencil is negative
  semidefinite while pairing strictly positively with the right-hand side,
  so no PSD point can satisfy the constraints within the stated margin.

The iteration is Douglas-Rachford splitting between the affine subspace
(exact least-squares projection through a preconditioned Gram matrix) and
the PSD cone (eigenvalue clipping, ``linalg.psd_part``).  Every spectrum
it needs, the clipping's and the witness and certificate checks', comes
in closed form for 2 x 2 blocks and from LAPACK for any other size
(``linalg.herm_eigvalsh``).  Both of its iterates are witness
candidates: the affine one (exact constraints, eigenvalues checked) and
the cone one (exact PSD, residual checked), and the gap between them
prices a dual certificate.  A problem feasible only on the cone boundary
takes the same road: its cone iterate is exactly PSD however thin the
face, so a small enough residual certifies it.  The iterate is one flat
complex array with a (count, s, s) view per block-size group, so each
elementwise step is one array operation however many groups there are.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
import logging
import math
from typing import Sequence

import numpy as np

from .errors import BadProblem, NoCertificate
from .linalg import (
    _require_bytes,
    herm_eigvalsh,
    herm_part,
    is_hermitian,
    psd_part,
)

_LOG = logging.getLogger("mconvex")

#: witness acceptance thresholds, fixed across the library
WITNESS_MIN_EIG = -1e-8
WITNESS_RESIDUAL = 1e-7

#: a constraint whose coefficient norm is at most ZERO_ROW_NORM is a zero
#: row (rounding noise, e.g. a coefficient that cancels to ~1e-17): the
#: equation 0 = rhs, which is Infeasible once its rhs clears the margin
#: 10 tol (``_iterate``'s first check)
ZERO_ROW_NORM = 1e-14

#: relative deviation from Hermitian allowed in coefficients and rhs
HERM_RTOL = 1e-10

#: the default iteration budget of a solve (``solve_feasibility``, and
#: each decomposition or Choi SDP solve of ``ranges``)
MAX_ITER = 50000

#: iterations between checks, each a witness check and, while the gap
#: exceeds tol, a dual-certificate try; most solves close at their first
#: check.  Checking before iteration 4 certifies cone-projected witnesses
#: of least eigenvalue 0 (kmin margin 0)
CHECK_EVERY = 4


class Status(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


@dataclasses.dataclass(frozen=True)
class AffineConstraint:
    """One linear equation on the diagonal blocks ``V_j`` of the variable.

    ``coeff`` holds one Hermitian coefficient per block, in the order of
    ``SdpFeasibility.block_sizes`` (a list of matrices, or an array
    stacking equal-size ones).  A 2-D array is the one-block form.

    ``rhs`` is a float or an n x n Hermitian matrix.  With a matrix, each
    block ``V_j`` is read as a grid of n x n sub-blocks ``(V_j)_pq``, its
    coefficient is the grid-sized pattern ``P_j``, and the constraint is
    the matrix equation ``sum_j sum_pq conj(P_j[p, q]) (V_j)_pq = rhs``.
    A float is the case n = 1: the scalar equation
    ``sum_j tr(coeff_j* V_j) = rhs``.  Every constraint of a problem
    shares one n.
    """

    coeff: np.ndarray | Sequence[np.ndarray]
    rhs: float | np.ndarray


@dataclasses.dataclass(frozen=True)
class SdpFeasibility:
    """Find Hermitian ``V >= 0`` of size ``var_size`` meeting the constraints.

    ``block_sizes``, when given, makes the variable block-diagonal with
    blocks of these sizes (the PSD cone becomes a product of smaller cones,
    which both tightens the model and speeds the projections); every
    constraint then gives one coefficient per block, and nothing couples
    two blocks.  ``tr V = value`` is the constraint with identity
    coefficients.
    """

    var_size: int
    constraints: tuple[AffineConstraint, ...]
    block_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.block_sizes is not None:
            object.__setattr__(self, "block_sizes", tuple(self.block_sizes))


@dataclasses.dataclass(frozen=True)
class Separator:
    """Infeasibility certificate.

    ``dual`` is the stack of n x n Hermitian matrices ``Y_r``, one per
    constraint (1 x 1 for scalar constraints); the pencil
    ``sum_r P_r kron Y_r`` (the adjoint of the constraint map, which
    ``dual_witness`` recomputes one block per declared block) has
    ``lambda_max <= psd_slack`` on every block (a hair above zero at
    machine scale) while ``sum_r Re tr(rhs_r Y_r) = margin > 0``.  Any PSD
    matrix therefore violates the constraint system by at least
    ``margin`` in the preconditioned 2-norm, up to ``psd_slack`` times its
    trace.
    """

    dual: np.ndarray
    margin: float
    psd_slack: float


@dataclasses.dataclass(frozen=True)
class Verdict:
    """A solve's answer.  ``blocks`` are the diagonal blocks of a Feasible
    witness in declared order (``verify_witness`` re-checks them)."""

    status: Status
    blocks: list[np.ndarray] | None
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
    size = int(problem.var_size)
    if size <= 0:
        raise BadProblem("variable size must be positive")
    sizes = tuple(int(s) for s in (problem.block_sizes or (size,)))
    if sum(sizes) != size or any(s <= 0 for s in sizes):
        raise BadProblem("block sizes must be positive and sum to var_size")

    cons = problem.constraints
    shapes = {np.shape(c.rhs) for c in cons} or {()}
    if len(shapes) > 1:
        raise BadProblem(f"constraints mix right-hand sides of shapes {shapes}")
    shape = shapes.pop()
    n = shape[0] if shape else 1
    if shape not in ((), (n, n)) or n == 0:
        raise BadProblem(f"a right-hand side of shape {shape} is not square")
    if any(s % n for s in sizes):
        raise BadProblem(f"block sizes {sizes} are not multiples of n = {n}")

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
        k = s // n
        shape = (len(cons), len(idxs), k, k)
        rows = [[c[j] for j in idxs] for c in blocks]
        try:
            t = np.array(rows, dtype=complex) if rows else np.empty(shape, complex)
        except ValueError:  # blocks of unequal shapes
            t = None
        if t is None or t.shape != shape:
            raise BadProblem(
                f"coefficient blocks do not match the {k} x {k} pattern "
                f"of block size {s}"
            )
        if not np.all(np.isfinite(t)):
            raise BadProblem(f"a coefficient block of size {s} is not finite")
        if not is_hermitian(t, HERM_RTOL):
            raise BadProblem(f"a coefficient block of size {s} is not Hermitian")
        tensors.append(t)
    rhs = np.array([c.rhs for c in cons], dtype=complex).reshape(len(cons), n, n)
    return _Compiled(sizes, tensors, rhs)


class _Compiled:
    """Preprocessed problem: grouped blocks, normalized constraints, Gram.

    Constraint r is the matrix equation ``A(V)_r = B_r`` between n x n
    Hermitian matrices, where ``A(V)_r`` sums ``conj(P_r[p, q]) (V_j)_pq``
    over the n x n sub-blocks of every block (n = 1 for scalar
    constraints).  ``coeff_groups[g]`` stacks the patterns ``P_r`` of size
    group ``g`` of ``_groups(block_sizes)`` as an ``(m, count, s/n, s/n)``
    tensor, each constraint scaled to unit Frobenius norm; a pattern of
    norm at most ``ZERO_ROW_NORM`` is a zero row, the equation ``0 = B_r``
    (its ``B_r`` is kept, unscaled).  The Gram is the m x m
    pattern Gram (the Gram over a Hermitian basis of the n x n matrices
    is that Gram kron ``I_{n^2}``); its pseudo-inverse is folded into the
    patterns, so ``apply``, ``lsq_dual`` and ``pencil`` are one matrix
    product per group.  ``b`` is the (m, n, n)
    stack of normalized ``B_r``.  ``with_rhs`` re-poses the problem for
    another right-hand side and shares everything else.  The operator
    holds no state between solves: a solve starts from the
    Douglas-Rachford iterate its caller passes, or from zero, and returns
    the one it stopped at (``_douglas_rachford``).

    Built by ``_compile`` from a validated ``SdpFeasibility``, or directly
    from complex coefficient tensors Hermitian up to rounding (``ranges``'
    pattern stack); either way the four copies of the tensors it keeps
    are priced against the memory budget first, and their Hermitian parts
    are taken.
    """

    def __init__(self, block_sizes, coeff_groups: list[np.ndarray], rhs):
        rhs = np.asarray(rhs, dtype=complex)
        m = self.m = len(rhs)
        # the coefficient tensors, held four times over: Hermitian,
        # normalized, conjugated and least-squares
        entries = sum(math.prod(t.shape[1:]) for t in coeff_groups)
        _require_bytes(4 * 16 * m * entries, "the compiled constraints")
        self.block_sizes = tuple(block_sizes)
        self.groups = _groups(self.block_sizes)
        ends = list(itertools.accumulate(len(i) * s * s for s, i in self.groups))
        self.length, self.spans = ends[-1], [
            (a, b, (len(i), s, s))
            for a, b, (s, i) in zip([0] + ends, ends, self.groups)
        ]
        n = self.n = rhs.shape[-1] if rhs.ndim == 3 else 1

        # diagonal preconditioning: unit Frobenius norm per constraint; rows
        # of rounding noise become zero rows (zero coefficient, norm 1, no
        # part in any least-squares fit) instead of unit-norm equations of
        # noise; a nonzero rhs is left in b, the residue that _iterate
        # checks first
        coeff_groups = [herm_part(t) for t in coeff_groups]
        norms, self.zero_rows = _row_norms(coeff_groups)
        self.norms = norms
        zero = self.zero_rows[:, None, None, None]
        self.coeff_groups = [
            np.where(zero, 0.0, t / norms[:, None, None, None]) for t in coeff_groups
        ]
        # each group as an (m, count (s/n)^2) matrix, and its conjugate
        self.coeff_mats = [
            t.reshape(m, math.prod(t.shape[1:])) for t in self.coeff_groups
        ]
        self.coeff_conj = [mat.conj() for mat in self.coeff_mats]

        self.gram = gram = sum(
            (c @ mat.T).real for c, mat in zip(self.coeff_conj, self.coeff_mats)
        )
        self.gram_pinv = np.linalg.pinv(gram, rcond=1e-12) if m else gram
        self.gram_pinv[self.zero_rows] = 0.0
        self.gram_pinv[:, self.zero_rows] = 0.0
        # G+ A as one matrix per group, so a least-squares dual is one product
        self.coeff_lsq = [self.gram_pinv @ c for c in self.coeff_conj]
        self._set_rhs(rhs)

        # can the identity be written as a pencil of the constraints?
        ident = [z + np.eye(s) for z, (s, _) in zip(self.zero(), self.groups)]
        t = self.lsq_dual(ident)
        gap = sum(
            float(np.abs(pg - ig).max()) for pg, ig in zip(self.pencil(t), ident)
        )
        self.identity_combo = t if gap <= 1e-9 else None

    def _set_rhs(self, rhs) -> None:
        m, n = self.m, self.n
        rhs = np.asarray(rhs, dtype=complex)
        if n == 1 and rhs.shape == (m,):
            rhs = rhs.reshape(m, 1, 1)
        if rhs.shape != (m, n, n):
            raise BadProblem(
                f"rhs of shape {rhs.shape} for {m} constraints of size {n}"
            )
        finite = np.isfinite(rhs).all(axis=(1, 2))
        if not finite.all():
            raise BadProblem(f"constraint {int(np.argmin(finite))} rhs is not finite")
        if not is_hermitian(rhs, HERM_RTOL):
            raise BadProblem("a right-hand side is not Hermitian")
        self.b = herm_part(rhs) / self.norms[:, None, None]
        self.b_lsq = (self.gram_pinv @ self.b.reshape(m, n * n)).reshape(m, n, n)

    def with_rhs(self, rhs) -> _Compiled:
        """The same constraint operator with another right-hand side.

        Shares the normalized coefficients, the Gram pseudo-inverse and
        ``identity_combo``; re-checks the new rhs (m floats when n = 1,
        else an (m, n, n) stack) as ``_compile`` does.
        """
        out = copy.copy(self)
        out._set_rhs(rhs)
        return out

    def freeze(self) -> None:
        """Make every array of the operator read-only, so that a write
        into an operator that many queries share raises instead of
        changing their answers."""
        for value in vars(self).values():
            for arr in value if isinstance(value, list) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False

    def solve(
        self, tol: float, max_iter: int, z: np.ndarray | None = None
    ) -> tuple[Verdict, np.ndarray | None]:
        """Run the certified iteration from the iterate ``z`` (zero when
        None); returns the verdict and the iterate to start the next solve
        from.  One DEBUG line per solve."""
        status, v, sep, it, resid, z = _iterate(self, tol, max_iter, z)
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug(
                "sdp solve: %s after %d iterations, residual %.3e, "
                "m=%d, n=%d, %d blocks",
                status.value, it, resid, self.m, self.n, len(self.block_sizes),
            )
        blocks = None if v is None else self.blocks([herm_part(vg) for vg in v])
        return Verdict(status, blocks, sep, it, resid), z

    # --- variable helpers (variables are lists of (count, s, s) arrays,
    # views into one flat array where the iteration builds them) ---

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """The groups of a flat variable, as (count, s, s) views into it."""
        return [flat[a:b].reshape(shape) for a, b, shape in self.spans]

    def zero(self) -> list[np.ndarray]:
        return self.views(np.zeros(self.length, dtype=complex))

    def _rows(self, mats: list[np.ndarray], v: list[np.ndarray]) -> np.ndarray:
        """``sum_g mats[g] @ V_g`` as an (m, n, n) stack, with each (s, s)
        block of ``V_g`` read as its (s/n)^2 sub-blocks (p, q), flattened
        to rows of n^2 entries: one matrix product per group."""
        n = self.n
        out = None
        for mat, vg, (s, _) in zip(mats, v, self.groups):
            rows = vg.reshape(-1, s // n, n, s // n, n).transpose(0, 1, 3, 2, 4)
            term = mat @ rows.reshape(-1, n * n)
            out = term if out is None else out + term
        return out.reshape(self.m, n, n)

    def apply(self, v: list[np.ndarray]) -> np.ndarray:
        """The constraint map A(V), an (m, n, n) stack (Hermitian up to
        rounding when V is)."""
        return self._rows(self.coeff_conj, v)

    def lsq_dual(self, v: list[np.ndarray]) -> np.ndarray:
        """``G+ A(V)``: the duals whose pencil is the least-squares fit."""
        return self._rows(self.coeff_lsq, v)

    def pencil(self, y: np.ndarray) -> list[np.ndarray]:
        """The adjoint map A*(Y) = sum_r P_r kron Y_r as a block variable."""
        return self.views(self._pencil(y, np.empty(self.length, dtype=complex)))

    def _pencil(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``pencil(y)`` written into the flat variable ``out``, returned."""
        n = self.n
        ys = y.reshape(self.m, n * n)
        for mat, (a, b, (count, s, _)) in zip(self.coeff_mats, self.spans):
            out[a:b].reshape(count, s // n, n, s // n, n)[...] = (
                (mat.T @ ys).reshape(-1, s // n, s // n, n, n).transpose(0, 1, 3, 2, 4)
            )
        return out

    def eig_bounds(self, v: list[np.ndarray]) -> tuple[float, float]:
        """The least and the largest eigenvalue over the blocks of ``v``."""
        vals = [herm_eigvalsh(vg) for vg in v]
        low = min(float(e[..., 0].min()) for e in vals)
        return low, max(float(e[..., -1].max()) for e in vals)

    def residual(self, v: list[np.ndarray]) -> float:
        """The largest entry of ``|A(V)_r - B_r|`` over all constraints."""
        return float(np.abs(self.apply(v) - self.b).max(initial=0.0))

    def blocks(self, v: list[np.ndarray]) -> list[np.ndarray]:
        """The blocks of a group variable, in declared order."""
        out = [None] * len(self.block_sizes)
        for (s, idxs), vg in zip(self.groups, v):
            for pos, j in enumerate(idxs):
                out[j] = vg[pos]
        return out


def _row_norms(coeff_groups: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The Frobenius norm of each constraint's patterns over the size
    groups, 1 for a zero row, and which rows are zero rows."""
    sq = sum(np.einsum("rcpq,rcpq->r", t.conj(), t).real for t in coeff_groups)
    norms = np.sqrt(np.maximum(sq, 1e-300))
    zero = norms <= ZERO_ROW_NORM
    norms[zero] = 1.0
    return norms, zero


def _separator(
    dual: np.ndarray, mx: float, pencil_norm: float, margin: float, tol: float
) -> Separator | None:
    """The certificate of a unit dual over the normalized rows, given as
    ``dual`` on the rows' own scale: refused when its pencil's top
    eigenvalue ``mx`` exceeds ``1e-12 max(1, pencil_norm)`` or its
    ``margin`` is short of ``10 tol``."""
    if mx > 1e-12 * max(1.0, pencil_norm) or margin < 10.0 * tol:
        return None
    return Separator(dual=dual, margin=margin, psd_slack=max(mx, 0.0))


def _certificate_from_dual(
    comp: _Compiled, coeffs: np.ndarray, tol: float
) -> Separator | None:
    """Verify (possibly after an identity shift) a candidate dual stack,
    priced in the sign it comes in: the one that separates, for each of
    the two sources.  The affine residue ``res_b`` has margin
    ``||res_b|| > 0``.  The Douglas-Rachford gap ``x - y`` at the fixed
    point, the least displacement between the affine set and the cone,
    lies in the normal cone at ``y``, so its pencil is negative
    semidefinite and its margin is ``||x - y||^2 > 0``; ``_iterate``
    also prices one, found on the projected rhs of the band, on its own
    rhs."""
    nrm = float(np.linalg.norm(coeffs))
    if nrm <= 1e-14:
        return None
    y = coeffs / nrm
    s = comp._pencil(y, np.empty(comp.length, dtype=complex))
    mx = comp.eig_bounds(comp.views(s))[1]
    if mx > 0 and comp.identity_combo is not None:
        shift = mx + 1e-13 * max(1.0, float(np.abs(s).max()))
        y = y - shift * comp.identity_combo
        nrm = float(np.linalg.norm(y))
        if nrm <= 1e-14:
            return None
        y = y / nrm
        # short of the margin it fails whatever its pencil: skip the pencil
        if float(np.vdot(comp.b, y).real) < 10.0 * tol:
            return None
        mx = comp.eig_bounds(comp.views(comp._pencil(y, s)))[1]
    margin = float(np.vdot(comp.b, y).real)
    dual = y / comp.norms[:, None, None]
    return _separator(dual, mx, float(np.abs(s).max()), margin, tol)


def _witness_ok(comp: _Compiled, v: list[np.ndarray]) -> tuple[bool, float]:
    resid = comp.residual(v)
    ok = resid <= WITNESS_RESIDUAL and comp.eig_bounds(v)[0] >= WITNESS_MIN_EIG
    return ok, resid


def _iterate(
    comp: _Compiled, tol: float, max_iter: int, z: np.ndarray | None
) -> tuple[Status, list | None, Separator | None, int, float, np.ndarray | None]:
    """Decide a compiled problem from the Douglas-Rachford iterate ``z``.
    Returns the status, the witness as a group variable, the separator,
    the iteration count, the residual and the iterate to start from next
    (``z`` itself when nothing iterated).

    First, at 0 iterations, the residue of the rhs against the range of
    the Gram: a separator of an inconsistent affine system.  A zero row
    ``0 = B_r`` is one: its part of the residue is ``B_r`` and of the
    pencil exactly 0, so it is Infeasible once the margin clears 10 tol;
    a ``B_r`` within ``WITNESS_RESIDUAL`` is met by any witness.  A
    residue in between, too large for any witness (its Frobenius norm
    bounds every residual's from below, and a zero row's residual is its
    ``B_r``, whatever the witness) and too small to certify, is
    decided on the rhs projected onto the range: Feasible there is
    Unknown here, since every separator's margin is then at most
    ``||res_b|| < 10 tol``; Infeasible there is Infeasible here, by the
    separator with its component outside the range dropped, which keeps
    its pencil and its margin.  Otherwise Douglas-Rachford decides, from
    ``z`` (``_douglas_rachford``).
    """
    if comp.m == 0:
        return Status.FEASIBLE, comp.zero(), None, 0, 0.0, z
    # the residue of b against range(Gram) has a zero pencil and margin
    # ||res_b||, and depends on b alone, so it is tried once
    res_b = comp.b - (comp.gram @ comp.b_lsq.reshape(comp.m, -1)).reshape(comp.b.shape)
    res_norm = float(np.linalg.norm(res_b))
    if res_norm > 1e-13:
        sep = _certificate_from_dual(comp, res_b, tol)
        if sep is not None:
            return Status.INFEASIBLE, None, sep, 0, res_norm, z
        zero_rhs = float(np.abs(comp.b[comp.zero_rows]).max(initial=0.0))
        floor = math.sqrt(res_b.size) * WITNESS_RESIDUAL
        if res_norm > floor or zero_rhs > WITNESS_RESIDUAL:
            # in the band: the projected rhs decides
            inner = comp.with_rhs((comp.b - res_b) * comp.norms[:, None, None])
            status, _, sep, it, _, z = _iterate(inner, tol, max_iter, z)
            if status is Status.INFEASIBLE:
                y = (sep.dual * comp.norms[:, None, None]).reshape(comp.m, -1)
                in_range = (comp.gram @ (comp.gram_pinv @ y)).reshape(res_b.shape)
                sep = _certificate_from_dual(comp, in_range, tol)
                if sep is not None:
                    return Status.INFEASIBLE, None, sep, it, res_norm, z
            return Status.UNKNOWN, None, None, it, res_norm, z
    return _douglas_rachford(comp, tol, max_iter, z)


def _douglas_rachford(
    comp: _Compiled, tol: float, max_iter: int, z: np.ndarray | None
) -> tuple[Status, list | None, Separator | None, int, float, np.ndarray]:
    """Douglas-Rachford from the iterate ``z`` (zero when None), which it
    only reads.  Every ``CHECK_EVERY`` iterations and at the last,
    ``_witness_ok`` checks the affine-exact iterate, then the cone-exact
    one; right after, while their gap exceeds ``tol`` (and at the last
    iteration whatever it is), ``_certificate_from_dual`` prices the
    gap's least-squares dual.  So a witness and a dual certificate are
    tried at every check, and an Infeasible answer closes at the first
    check whose gap certifies.  Returns ``_iterate``'s answer and the
    iterate it stopped at.  A step on the flat iterate (``views``) forms
    x = z - A* G+ (A z - b), y the groupwise PSD part of 2x - z, z + y - x."""
    z = np.zeros(comp.length, dtype=complex) if z is None else z.copy()
    x, y = np.empty_like(z), np.empty_like(z)
    zs, xs, ys = comp.views(z), comp.views(x), comp.views(y)
    best_resid = np.inf

    it = 0
    while it < max_iter:
        np.subtract(z, comp._pencil(comp.lsq_dual(zs) - comp.b_lsq, x), out=x)
        # y is 2x - z, then, group by group, its PSD part
        np.subtract(np.multiply(2.0, x, out=y), z, out=y)
        for yg in ys:
            yg[...] = psd_part(yg)
        np.subtract(np.add(z, y, out=z), x, out=z)
        it += 1
        if it % CHECK_EVERY and it != max_iter:
            continue

        # the affine-exact candidate, then the cone-exact one
        for cand in (xs, ys):
            ok, resid = _witness_ok(comp, cand)
            if ok:
                return Status.FEASIBLE, cand, None, it, resid, z
        best_resid = min(best_resid, resid)
        gap = x - y
        if it == max_iter or float(np.abs(gap).max()) > tol:
            sep = _certificate_from_dual(comp, comp.lsq_dual(comp.views(gap)), tol)
            if sep is not None:
                return Status.INFEASIBLE, None, sep, it, best_resid, z
    return Status.UNKNOWN, None, None, it, best_resid, z


def solve_feasibility(
    problem: SdpFeasibility,
    tol: float = 1e-7,
    max_iter: int = MAX_ITER,
) -> Verdict:
    """Decide PSD feasibility of an affine slice, with certificates.

    Deterministic: each call compiles afresh and iterates from zero, so
    no solve before it can change its answer; identical problems give
    bit-identical statuses and witnesses matching to 1e-12.  ``Unknown``
    appears when the budget runs out without either certificate closing,
    or at once when the rhs misses the range of the constraint map by
    more than any witness may but by too little to certify
    (``_iterate``).
    """
    return _compile(problem).solve(tol, max_iter)[0]


def verify_witness(
    problem: SdpFeasibility, verdict: Verdict
) -> tuple[float, float]:
    """Re-verify the witness blocks of a Feasible verdict: (min eigenvalue,
    preconditioned residual).  Raises ``NoCertificate`` unless the verdict
    is Feasible."""
    if verdict.status is not Status.FEASIBLE or verdict.blocks is None:
        raise NoCertificate("verdict carries no witness")
    comp = _compile(problem)
    blocks = verdict.blocks
    if [np.shape(h) for h in blocks] != [(s, s) for s in comp.block_sizes]:
        raise BadProblem("witness blocks do not match the declared block sizes")
    v = [np.array([blocks[j] for j in idxs], dtype=complex) for _, idxs in comp.groups]
    return comp.eig_bounds(v)[0], comp.residual(v)


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
    y_norm = np.asarray(sep.dual, dtype=complex) * comp.norms[:, None, None]
    s_blocks = comp.pencil(y_norm)
    margin = float(np.vdot(comp.b, y_norm).real)
    return {
        "margin": margin,
        "margin_gap": abs(margin - sep.margin),
        "pencil_max_eig": comp.eig_bounds(s_blocks)[1],
        "pencil": comp.blocks(s_blocks),
        "dual": sep.dual.copy(),
    }
