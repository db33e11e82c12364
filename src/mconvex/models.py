"""Spectral and block-diagonal models, and diagonal-tuple perturbations.

Three families of finite models live here.  For commuting normal
tuples, the restriction to joint eigenspaces at extreme points of the
joint numerical range reproduces every matrix pencil norm of the full
tuple; ``extreme_spectral_compression`` builds that restriction and
``verify_complete_isometry`` decides that it is completely isometric
from the hull of the restriction's joint spectrum.  For lists of
irreducible tuples, ``block_diagonal_model`` deduplicates up to unitary
equivalence, decided by one intertwiner dimension, and assembles the
direct sum.  For infinite
diagonal tuples given by a finite presentation (atoms with
multiplicities plus convergent sequences), ``sw_perturbation`` snaps
every non-essential entry to the nearest essential-spectrum point,
the presentation-level analogue of absorbing a compact perturbation,
and ``verify_local_sw`` decides from the two hulls whether the snapped
tuple and the essential model have the same matrix range.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyEssentialSpectrum,
    ReducibleCandidate,
    TupleMismatch,
)
from .geometry import Polytope, extreme_points, point_gap
from .linalg import (
    OperatorTuple,
    _intertwiner_dimension,
    _simdiag,
    commutant_dimension,
    direct_sum,
    herm_part,
    skew_part,
)

#: joint eigenvalues closer than this are treated as one spectrum point
POINT_DEDUP_TOL = 1e-9


def _dedup_points(points: np.ndarray, tol: float = POINT_DEDUP_TOL) -> np.ndarray:
    """Greedy representative selection: keep points pairwise > tol apart."""
    reps: list[np.ndarray] = []
    for p in points:
        if all(np.abs(p - r).max(initial=0.0) > tol for r in reps):
            reps.append(p)
    out = np.array(reps)
    order = np.lexsort(np.real(out).T[::-1])
    return out[order]


def _part_name(row: int) -> str:
    """Row 2j of ``NormalTuple``'s stack is entry j's Hermitian part."""
    return f"the {('Hermitian', 'skew')[row % 2]} part of entry {row // 2}"


@dataclasses.dataclass(frozen=True, eq=False)
class NormalTuple:
    """A tuple of pairwise commuting normal matrices, jointly diagonalized.

    Construction hands the Hermitian and skew parts of the entries to
    ``linalg._simdiag``: they commute pairwise exactly when ``[a_j, a_k]
    = 0`` and ``[a_j, a_k*] = 0`` (the j = k case of the latter is
    normality of each entry), at any scale, and it diagonalizes them in
    one joint eigenbasis or raises ``NotCommuting``.  ``column_values``
    holds the joint eigenvalue of each basis column; ``joint_points``
    the deduplicated spectrum.
    """

    base: OperatorTuple
    unitary: np.ndarray = dataclasses.field(init=False, repr=False)
    column_values: np.ndarray = dataclasses.field(init=False, repr=False)
    joint_points: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = self.base
        parts = np.stack((herm_part(t.mats), skew_part(t.mats)), axis=1)
        u, vals = _simdiag(parts, _part_name)
        column = vals[:, 0::2] if t.hermitian else vals[:, 0::2] + 1j * vals[:, 1::2]
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "column_values", column)
        object.__setattr__(self, "joint_points", _dedup_points(column))


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralModel:
    """Restriction of a normal tuple to eigenspaces at extreme spectrum points."""

    extreme_set: np.ndarray
    compressed: OperatorTuple
    projector_rank: int


def joint_spectrum(t: NormalTuple) -> np.ndarray:
    """Deduplicated joint eigenvalues, one row per spectrum point.

    Rows are real for Hermitian tuples and complex otherwise (a single
    normal matrix gives its eigenvalues as points of the plane).
    """
    return t.joint_points.copy()


def _embed_real(points: np.ndarray) -> np.ndarray:
    """Points of C^d as points of R^(2d) (interleaved re/im); real pass through."""
    if np.isrealobj(points):
        return np.asarray(points, dtype=float)
    out = np.empty((points.shape[0], 2 * points.shape[1]))
    out[:, 0::2] = points.real
    out[:, 1::2] = points.imag
    return out


def extreme_spectral_compression(t: NormalTuple) -> SpectralModel:
    """Compress onto the joint eigenspaces at extreme spectrum points.

    The extreme points are those of the convex hull of the joint
    spectrum (embedded in R^(2d) for non-Hermitian tuples).  Every
    matrix pencil built on the tuple attains its norm at one of them,
    so the compression is a complete isometry onto the model; the
    operation is idempotent because extreme points of a hull of extreme
    points are themselves.
    """
    pts = t.joint_points
    emb = _embed_real(pts)
    ext = extreme_points(emb)
    targets = pts[(emb[:, None, :] == ext[None, :, :]).all(axis=2).any(axis=1)]
    sel = []
    for i, val in enumerate(t.column_values):
        if np.abs(targets - val).max(axis=1).min() <= 10 * POINT_DEDUP_TOL:
            sel.append(i)
    return SpectralModel(
        extreme_set=targets,
        compressed=t.base.conjugated(t.unitary[:, sel]),
        projector_rank=len(sel),
    )


def verify_complete_isometry(full: NormalTuple, model: SpectralModel) -> dict:
    """Decide whether the model's compression is completely isometric.

    The matrix range of a normal tuple is the minimal matrix convex set
    over the convex hull of its joint spectrum (Davidson, Dor-On, Shalit
    and Solel 2017), so the compression is completely isometric exactly
    when every joint eigenvalue point of ``full`` lies in the hull of the
    joint points of ``model.compressed``.  Returns ``{"slack": s}`` with
    ``s`` the largest ``point_gap`` of a point of ``full`` against that
    hull: at most rounding for a complete isometry, and positive when a
    point of ``full`` lies outside the hull.

    Raises
    ------
    NotCommuting
        If ``model.compressed`` is not a commuting normal tuple.
    """
    points = NormalTuple(model.compressed).joint_points
    slack = point_gap(Polytope(_embed_real(points)), _embed_real(full.joint_points))
    return {"slack": slack}


@dataclasses.dataclass(frozen=True, eq=False)
class BlockModel:
    """Direct sum of pairwise inequivalent irreducible tuples."""

    summands: tuple[OperatorTuple, ...]
    direct_sum: OperatorTuple
    report: dict = dataclasses.field(default_factory=dict)


def block_diagonal_model(candidates: Sequence[OperatorTuple]) -> BlockModel:
    """Assemble a block-diagonal tuple from irreducible candidates.

    Rejects any candidate whose commutant has dimension above 1 (a
    reducible block can be split further and never belongs in the
    model), deduplicates the rest up to unitary equivalence, and returns
    the direct sum of the survivors.  Two irreducible tuples of one size
    are equivalent exactly when ``dim Hom = 1`` (Schur's lemma), so one
    intertwiner dimension decides each pair.
    """
    if not candidates:
        raise TupleMismatch("need at least one candidate tuple")
    d = candidates[0].d
    for i, c in enumerate(candidates):
        if c.d != d:
            raise TupleMismatch(f"candidate {i} has {c.d} entries, expected {d}")
        dim = commutant_dimension(c)
        if dim != 1:
            raise ReducibleCandidate(i, dim)
    survivors: list[OperatorTuple] = []
    dropped: list[int] = []
    for i, c in enumerate(candidates):
        if any(s.n == c.n and _intertwiner_dimension(s, c) == 1 for s in survivors):
            dropped.append(i)
        else:
            survivors.append(c)
    return BlockModel(
        summands=tuple(survivors),
        direct_sum=direct_sum(*survivors),
        report={
            "candidates": len(candidates),
            "summands": len(survivors),
            "sizes": [s.n for s in survivors],
            "dropped_duplicates": dropped,
            # every summand is one of the accepted candidates by construction
            "summands_from_candidates": True,
        },
    )


# ---------------------------------------------------------------------------
# diagonal tuples and the snapping perturbation
# ---------------------------------------------------------------------------


def _as_point(p, d: int) -> tuple[float, ...]:
    out = tuple(float(v) for v in np.atleast_1d(np.asarray(p, dtype=float)))
    if len(out) != d:
        raise DimensionMismatch(f"point {out} has {len(out)} coordinates, expected {d}")
    return out


@dataclasses.dataclass(frozen=True)
class DiagonalTuple:
    """Finite presentation of an infinite commuting diagonal tuple.

    ``atoms`` lists repeated diagonal entries as ``(point, multiplicity)``
    with ``None`` standing for infinite multiplicity; ``sequences`` lists
    convergent entry families as ``(limit, prefix)`` where the prefix
    shows the first explicitly known entries, ordered so their distance
    to the limit never increases.  All claims about the presented
    operator (essential spectrum, compact perturbations) are statements
    about this data.
    """

    d: int
    atoms: tuple = ()
    sequences: tuple = ()

    def __post_init__(self) -> None:
        atoms = []
        for point, mult in self.atoms:
            pt = _as_point(point, self.d)
            if mult is not None:
                mult = int(mult)
                if mult < 1:
                    raise ValueError(f"atom {pt} has non-positive multiplicity")
            atoms.append((pt, mult))
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if atoms[i][0] == atoms[j][0]:
                    raise ValueError(f"atom {atoms[i][0]} listed twice")
        seqs = []
        for limit, prefix in self.sequences:
            lim = _as_point(limit, self.d)
            pref = tuple(_as_point(p, self.d) for p in prefix)
            dists = [
                float(np.linalg.norm(np.subtract(p, lim))) for p in pref
            ]
            for a, b in zip(dists, dists[1:]):
                if b > a + 1e-12:
                    raise ValueError(
                        "sequence prefix moves away from its limit "
                        f"({a:.3e} then {b:.3e})"
                    )
            seqs.append((lim, pref))
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "sequences", tuple(seqs))


@dataclasses.dataclass(frozen=True)
class PerturbationReport:
    """Displacement ledger for a snapping perturbation.

    ``displacements`` follows presentation order (atoms first, then each
    sequence's prefix); ``sup_tail_norm[k]`` is the largest displacement
    at prefix position >= k, which must shrink to zero for the
    perturbation to be compact in the presented sense.
    """

    displacements: tuple[float, ...]
    sup_tail_norm: tuple[float, ...]
    verified_levels: int


def essential_spectrum_diag(t: DiagonalTuple, tol: float = POINT_DEDUP_TOL) -> np.ndarray:
    """Essential spectrum of the presented tuple, one row per point.

    Exactly the infinite-multiplicity atoms and the sequence limits;
    a finite-multiplicity atom is an isolated eigenvalue of finite
    multiplicity whenever it sits farther than ``tol`` from that set,
    and so never contributes a point of its own.
    """
    pts = [np.asarray(p) for p, mult in t.atoms if mult is None]
    pts.extend(np.asarray(lim) for lim, _ in t.sequences)
    if not pts:
        return np.empty((0, t.d))
    return _dedup_points(np.array(pts), tol)


def _essential_points(t: DiagonalTuple) -> np.ndarray:
    """``essential_spectrum_diag(t)``, refused when it is empty."""
    ess = essential_spectrum_diag(t)
    if ess.shape[0] == 0:
        raise EmptyEssentialSpectrum(
            "the presentation has no infinite atoms and no sequence limits"
        )
    return ess


def _nearest(points: np.ndarray, p) -> tuple[np.ndarray, float]:
    dists = np.linalg.norm(points - np.asarray(p), axis=1)
    k = int(np.argmin(dists))
    return points[k], float(dists[k])


def sw_perturbation(t: DiagonalTuple) -> tuple[DiagonalTuple, PerturbationReport]:
    """Snap every non-essential entry to its nearest essential point.

    The snapped tuple differs from the input entry-wise by exactly
    ``dist(entry, essential spectrum)``, which vanishes along sequence
    tails, so the difference is compact in the presented sense.  All
    surviving entries sit at essential points: each sequence collapses
    onto its limit (its tail lands there anyway), so the result is a
    pure-atom presentation with infinite multiplicity at every
    essential point touched.
    """
    ess = _essential_points(t)
    displacements: list[float] = []
    # the essential points in the order the presentation first touches
    # them; each is an infinite atom or a sequence limit of ``t``, so every
    # entry snapped onto it joins an atom of infinite multiplicity
    touched: dict[tuple[float, ...], None] = {}
    for point, mult in t.atoms:
        if mult is None:
            touched.setdefault(point)
            displacements.append(0.0)
        else:
            target, dist = _nearest(ess, point)
            touched.setdefault(tuple(float(v) for v in target))
            displacements.append(dist)
    tail: list[list[float]] = []
    for lim, prefix in t.sequences:
        touched.setdefault(lim)
        per = []
        for p in prefix:
            target, dist = _nearest(ess, p)
            touched.setdefault(tuple(float(v) for v in target))
            per.append(dist)
            displacements.append(dist)
        tail.append(per)
    depth = max((len(per) for per in tail), default=1)
    sup_tail = []
    for k in range(depth):
        vals = [max(per[k:], default=0.0) for per in tail]
        if k == 0:
            vals.extend(displacements[: len(t.atoms)])
        sup_tail.append(max(vals, default=0.0))
    perturbed = DiagonalTuple(d=t.d, atoms=tuple((p, None) for p in touched))
    report = PerturbationReport(
        displacements=tuple(displacements),
        sup_tail_norm=tuple(sup_tail),
        verified_levels=depth,
    )
    return perturbed, report


def _diagonal_points(t: DiagonalTuple, q: int) -> np.ndarray:
    """The diagonal of ``finite_truncation(t, q)``, one row per entry."""
    entries: list[tuple[float, ...]] = []
    for point, mult in t.atoms:
        entries.extend([point] * (q if mult is None else min(mult, q)))
    for lim, prefix in t.sequences:
        entries.extend(prefix)
        entries.extend([lim] * q)
    if not entries:
        raise EmptyEssentialSpectrum("the presentation has no entries at all")
    return np.array(entries, dtype=float)


def finite_truncation(t: DiagonalTuple, q: int) -> OperatorTuple:
    """Finite diagonal tuple covering the presentation up to replication q.

    Infinite atoms and sequence limits contribute q copies each, finite
    atoms their multiplicity capped at q, and sequence prefixes appear
    verbatim.  Every q >= 1 gives the same diagonal points up to
    multiplicity, hence the same matrix range: the minimal matrix convex
    set over their hull.
    """
    if q < 1:
        raise DimensionMismatch("replication must be >= 1")
    diag = _diagonal_points(t, q)
    mats = tuple(np.diag(diag[:, j]).astype(complex) for j in range(t.d))
    return OperatorTuple(mats, hermitian=True)


def verify_local_sw(
    t: DiagonalTuple,
    perturbed: DiagonalTuple,
    tol: float = 1e-7,
) -> dict:
    """Decide whether the perturbed tuple has the essential model's range.

    The matrix range of a Hermitian diagonal tuple is the minimal matrix
    convex set over the hull of its diagonal points, so two such ranges
    agree at every level exactly when the two hulls agree: the essential
    points of ``t`` must lie in the hull of the entries of ``perturbed``
    and each entry in the hull of the essential points, both by the
    signed slack ``point_gap`` against the other hull, to within ``tol``.
    """
    if t.d != perturbed.d:
        raise TupleMismatch(f"dimension mismatch: {t.d} vs {perturbed.d}")
    ess = _essential_points(t)
    trunc_pts = _diagonal_points(perturbed, 1)
    gap_ess_in_trunc = point_gap(Polytope(trunc_pts), ess)
    gap_trunc_in_ess = point_gap(Polytope(ess), trunc_pts)
    return {
        "equal": gap_ess_in_trunc <= tol and gap_trunc_in_ess <= tol,
        "point_gap_essential_in_truncation": gap_ess_in_trunc,
        "point_gap_truncation_in_essential": gap_trunc_in_ess,
        "essential_points": int(ess.shape[0]),
    }
