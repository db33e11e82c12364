"""Acceptance suite: numbered end-to-end checks with pinned tolerances.

Each criterion is an independent, seeded, self-timing check of one
headline property (sharp scaling constants, transform consistency,
model isometries, collapse theorems, perturbation bookkeeping, solver
integrity).  ``run_all`` runs them in order; the CLI ``verify-suite``
command and the acceptance test module both drive this registry.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .geometry import Box, Disc, Polytope, extreme_points, halfplanes, jnr_sandwich
from .linalg import (
    OperatorTuple,
    compressed_ampliation,
    direct_sum,
    herm_part,
    op_norm,
    pencil_stack,
    random_hermitian,
    random_isometry,
    skew_part,
)
from .models import (
    DiagonalTuple,
    NormalTuple,
    essential_spectrum_diag,
    extreme_spectral_compression,
    sw_perturbation,
    verify_complete_isometry,
    verify_local_sw,
)
from .ranges import (
    SQUARE,
    MembershipStatus,
    choi_li_equiv_check,
    is_matrix_extreme_free_symmetric,
    kmax_member,
    kmin_member,
    mrange_equal,
    theta_min_alpha,
    ucp_member,
)
from .sdp import AffineConstraint, SdpFeasibility, Status, dual_witness, solve_feasibility, verify_witness

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

TRIANGLE = Polytope(np.array([[2.0, 0.0], [-1.0, 1.5], [-1.0, -1.5]]))
UNIT_DISC = Disc(np.zeros(2), 1.0)
UNIT_BOX_2D = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _finish(name: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name, passed, detail, time.perf_counter() - t0)


def criterion_1() -> CriterionResult:
    """Square scaling constant brackets sqrt(2), with an exact witness."""
    t0 = time.perf_counter()
    root2 = np.sqrt(2.0)
    pair = OperatorTuple((PAULI_X, PAULI_Z), hermitian=True)

    # the explicit decomposition h_(s,t) = (I + (s X + t Z)/sqrt2)/4 over
    # the corners (s, t) of the square certifies (X, Z)/sqrt2 exactly
    eye = np.eye(2)
    witness_err = 0.0
    min_eig = np.inf
    sum_h = np.zeros((2, 2), dtype=complex)
    sum_x = np.zeros((2, 2), dtype=complex)
    sum_z = np.zeros((2, 2), dtype=complex)
    for s in (1.0, -1.0):
        for t in (1.0, -1.0):
            h = (eye + (s * PAULI_X + t * PAULI_Z) / root2) / 4.0
            min_eig = min(min_eig, float(np.linalg.eigvalsh(h)[0]))
            sum_h += h
            sum_x += s * h
            sum_z += t * h
    witness_err = max(
        op_norm(sum_h - eye),
        op_norm(sum_x - PAULI_X / root2),
        op_norm(sum_z - PAULI_Z / root2),
    )
    witness_ok = min_eig >= -1e-12 and witness_err <= 1e-12

    est = theta_min_alpha(SQUARE, pair, tol=0.01)
    elapsed = time.perf_counter() - t0
    bracket_ok = est.lower - 0.02 <= root2 <= est.upper + 0.02
    passed = witness_ok and bracket_ok and elapsed <= 60.0
    return _finish(
        "square scaling constant",
        t0,
        passed,
        f"bracket [{est.lower:.5f}, {est.upper:.5f}] vs sqrt2 {root2:.5f}; "
        f"witness min eig {min_eig:.2e}, reconstruction error {witness_err:.2e}; "
        f"{elapsed:.1f}s",
    )


def criterion_2() -> CriterionResult:
    """Disc scaling constant brackets 2 for the nilpotent pair."""
    t0 = time.perf_counter()
    s = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    pair = OperatorTuple((herm_part(s), skew_part(s)), hermitian=True)
    est = theta_min_alpha(UNIT_DISC, pair, tol=0.01)
    elapsed = time.perf_counter() - t0
    passed = est.lower - 0.02 <= 2.0 <= est.upper + 0.02 and elapsed <= 60.0
    return _finish(
        "disc scaling constant",
        t0,
        passed,
        f"bracket [{est.lower:.5f}, {est.upper:.5f}] vs 2; {elapsed:.1f}s",
    )


def criterion_3() -> CriterionResult:
    """Square/disc transform agrees with minimal-set membership, 500 probes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    tol = 1e-6
    checked = excluded = mismatches = 0
    calibration = None
    for _ in range(500):
        g = rng.standard_normal(8)
        u = rng.random() ** (1.0 / 8.0)
        v = 1.5 * u * g / np.linalg.norm(g)
        y = np.array(
            [
                [v[0] + 1j * v[1], v[2] + 1j * v[3]],
                [v[4] + 1j * v[5], v[6] + 1j * v[7]],
            ]
        )
        rep = choi_li_equiv_check(y, tol=tol)
        calibration = rep["calibration"]
        near_band = (
            rep["square_min"].margin < 5 * tol
            or abs(rep["radius"] - 1.0) < 5 * tol
        )
        if rep["excluded"] or near_band:
            excluded += 1
            continue
        checked += 1
        if not rep["consistent"]:
            mismatches += 1
    corner_ok = (
        abs(calibration["calibrated_corner_radius"] - 1.0) <= 1e-6
        and abs(calibration["calibrated_constant"] - 0.5) <= 1e-6
    )
    passed = mismatches == 0 and checked > 0 and corner_ok
    return _finish(
        "square/disc transform consistency",
        t0,
        passed,
        f"{checked} compared, {excluded} excluded, {mismatches} mismatches; "
        f"calibrated constant {calibration['calibrated_constant']:.6f} "
        f"(corner radius {calibration['calibrated_corner_radius']:.6f}, "
        f"reference constant gives {calibration['reference_corner_radius']:.6f})",
    )


def _random_commuting_pair(rng: np.random.Generator, n: int) -> OperatorTuple:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    d1 = np.diag(rng.uniform(-2.0, 2.0, size=n))
    d2 = np.diag(rng.uniform(-2.0, 2.0, size=n))
    return OperatorTuple(
        (u @ d1 @ u.conj().T, u @ d2 @ u.conj().T), hermitian=True
    )


def criterion_4() -> CriterionResult:
    """Spectral compression is completely isometric on random normal pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    slacks = []
    for _ in range(20):
        n = int(rng.integers(4, 9))
        t = NormalTuple(_random_commuting_pair(rng, n))
        model = extreme_spectral_compression(t)
        slacks.append(verify_complete_isometry(t, model)["slack"])
    worst = max(slacks)
    passed = worst <= 1e-8
    return _finish(
        "normal compression complete isometry",
        t0,
        passed,
        f"largest hull slack of the joint spectrum {worst:.2e} over 20 pairs",
    )


def criterion_5() -> CriterionResult:
    """Over a triangle, maximal-set members are already minimal-set members."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    normals, offsets = halfplanes(TRIANGLE)
    tol = 1e-7
    failures = boundary = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        mats = (random_hermitian(n, rng), random_hermitian(n, rng))
        tops = np.linalg.eigvalsh(pencil_stack(mats, normals))[:, -1]
        factor = max(0.0, float(np.max(tops / offsets)))
        scale = rng.uniform(0.1, 0.999) / max(factor, 1e-9)
        pair = OperatorTuple((scale * mats[0], scale * mats[1]), hermitian=True)
        if kmax_member(TRIANGLE, pair, tol).status is not MembershipStatus.IN:
            failures += 1
            continue
        res = kmin_member(TRIANGLE, pair, tol)
        if res.status is MembershipStatus.BOUNDARY:
            boundary += 1
        elif res.status is not MembershipStatus.IN:
            failures += 1
    passed = failures == 0
    return _finish(
        "triangle simplex collapse",
        t0,
        passed,
        f"200 pairs, {failures} failures, {boundary} in the boundary band",
    )


def criterion_6() -> CriterionResult:
    """Box membership matches selfadjoint contractivity entry-wise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    bad = 0
    for i in range(200):
        n = int(rng.integers(2, 5))
        mats = []
        norms = []
        for _ in range(2):
            m = random_hermitian(n, rng)
            target = rng.uniform(0.05, 1.0)
            mats.append(target * m / max(op_norm(m), 1e-12))
            norms.append(target)
        if i % 2 == 1:
            # push one entry strictly past norm one
            k = int(rng.integers(0, 2))
            bump = 1.0 + rng.uniform(0.01, 1.0)
            mats[k] = bump * mats[k] / norms[k]
            norms[k] = bump
        pair = OperatorTuple(tuple(mats), hermitian=True)
        res = kmax_member(UNIT_BOX_2D, pair)
        contractions = max(norms) <= 1.0
        if contractions and res.status is not MembershipStatus.IN:
            bad += 1
        if max(norms) > 1.0 + 1e-6 and res.status is not MembershipStatus.OUT:
            bad += 1
    passed = bad == 0
    return _finish(
        "free-symmetry box membership",
        t0,
        passed,
        f"200 pairs, {bad} misclassified",
    )


def criterion_7() -> CriterionResult:
    """Extremality test accepts (X, Z) and rejects the planted failures."""
    t0 = time.perf_counter()
    checks = []
    ok, why = is_matrix_extreme_free_symmetric(
        OperatorTuple((PAULI_X, PAULI_Z), hermitian=True)
    )
    checks.append(("accept (X,Z)", ok))
    ok, why = is_matrix_extreme_free_symmetric(
        OperatorTuple((PAULI_X, PAULI_X), hermitian=True)
    )
    checks.append(("reject (X,X) as reducible", not ok and "reducible" in why))
    ok, why = is_matrix_extreme_free_symmetric(
        OperatorTuple((PAULI_X / 2.0, PAULI_Z), hermitian=True)
    )
    checks.append(("reject (X/2,Z) as non-symmetry", not ok and "symmetry" in why))
    ok, why = is_matrix_extreme_free_symmetric(
        OperatorTuple(
            (np.kron(np.eye(2), PAULI_X), np.kron(np.eye(2), PAULI_Z)),
            hermitian=True,
        )
    )
    checks.append(("reject (X+X,Z+Z) as reducible", not ok and "reducible" in why))
    passed = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'WRONG'}" for name, flag in checks)
    return _finish("matrix-extreme detection", t0, passed, detail)


def criterion_8() -> CriterionResult:
    """A quadratic tuple's matrix range collapses to its 2x2 model."""
    t0 = time.perf_counter()
    x = OperatorTuple(
        (
            np.array(
                [
                    [0.0, 2.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 0.0, 1.0],
                ],
                dtype=complex,
            ),
        ),
        hermitian=False,
    )
    a = OperatorTuple(
        (np.array([[0.0, 2.0], [0.0, 1.0]], dtype=complex),), hermitian=False
    )
    equal, report = mrange_equal(x, a)
    elapsed = time.perf_counter() - t0
    passed = equal and elapsed <= 600.0
    return _finish(
        "quadratic collapse to 2x2 model",
        t0,
        passed,
        f"equal={equal}; {report}; {elapsed:.1f}s",
    )


def criterion_9() -> CriterionResult:
    """Geometric extreme points of W_1 match the spectral selection."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        t = _random_commuting_pair(rng, n)
        inner = jnr_sandwich(t, m=720).inner.vertices
        geo = extreme_points(inner)
        spec = extreme_spectral_compression(NormalTuple(t)).extreme_set
        d_a = max(
            min(float(np.linalg.norm(p - q)) for q in spec) for p in geo
        )
        d_b = max(
            min(float(np.linalg.norm(p - q)) for q in geo) for p in spec
        )
        worst = max(worst, d_a, d_b)
    passed = worst <= 1e-8
    return _finish(
        "boundary points of commuting pairs",
        t0,
        passed,
        f"largest Hausdorff distance {worst:.2e} over 20 pairs",
    )


def criterion_10() -> CriterionResult:
    """Snapping perturbation bookkeeping and local range equality."""
    t0 = time.perf_counter()
    seq = DiagonalTuple(
        d=1,
        sequences=(((0.0,), tuple((1.0 / k,) for k in range(1, 51))),),
    )
    two = DiagonalTuple(
        d=1,
        atoms=(((0.0,), None),),
        sequences=(((1.0,), tuple((1.0 + 1.0 / k,) for k in range(1, 41))),),
    )
    problems = []
    gaps = []
    for name, fixture in (("harmonic", seq), ("two-limit", two)):
        ess = essential_spectrum_diag(fixture)
        perturbed, report = sw_perturbation(fixture)
        entries = [np.asarray(p) for p, m in fixture.atoms]
        entries.extend(
            np.asarray(p) for _, prefix in fixture.sequences for p in prefix
        )
        for disp, entry in zip(report.displacements, entries):
            expect = min(float(np.linalg.norm(entry - e)) for e in ess)
            if disp != expect:
                problems.append(f"{name}: displacement {disp} != {expect}")
        tail = report.sup_tail_norm
        if any(b > a + 1e-15 for a, b in zip(tail, tail[1:])):
            problems.append(f"{name}: tail norms increase")
        if tail[-1] > 0.05:
            problems.append(f"{name}: tail norm stuck at {tail[-1]}")
        out = verify_local_sw(fixture, perturbed)
        if not out["equal"]:
            problems.append(f"{name}: local ranges differ {out}")
        gaps.append(
            f"{name} {out['point_gap_essential_in_truncation']:.1e}"
            f"/{out['point_gap_truncation_in_essential']:.1e}"
        )
    passed = not problems
    return _finish(
        "local perturbation equality",
        t0,
        passed,
        "; ".join(problems) if problems else
        "displacements exact, tails shrink, ranges equal; hull gaps "
        "(essential in truncation/truncation in essential) " + ", ".join(gaps),
    )


def criterion_11() -> CriterionResult:
    """Direct sums and compressions of range members stay members."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = unresolved = probes = 0
    for i in range(10):
        if i % 3 == 2:
            mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = OperatorTuple((mat,), hermitian=False)
        else:
            n = int(rng.integers(2, 4))
            x = OperatorTuple(
                (random_hermitian(n, rng), random_hermitian(n, rng)),
                hermitian=True,
            )
        for _ in range(50):
            b1 = compressed_ampliation(x, int(rng.integers(1, 3)), rng)
            b2 = compressed_ampliation(x, int(rng.integers(1, 3)), rng)
            res = ucp_member(x, direct_sum(b1, b2))
            probes += 1
            if res.status is MembershipStatus.OUT:
                violations += 1
            elif res.status is MembershipStatus.UNKNOWN:
                unresolved += 1
        for _ in range(50):
            b = compressed_ampliation(x, int(rng.integers(2, 4)), rng)
            k = int(rng.integers(1, b.n))
            res = ucp_member(x, b.conjugated(random_isometry(b.n, k, rng)))
            probes += 1
            if res.status is MembershipStatus.OUT:
                violations += 1
            elif res.status is MembershipStatus.UNKNOWN:
                unresolved += 1
    passed = violations == 0 and unresolved == 0
    return _finish(
        "matrix-convexity closure probes",
        t0,
        passed,
        f"{probes} probes, {violations} violations, {unresolved} unresolved",
    )


def _planted_feasible(rng: np.random.Generator) -> SdpFeasibility:
    size = int(rng.integers(3, 7))
    rank = int(rng.integers(1, size + 1))
    g = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    c0 = g @ g.conj().T
    c0 /= np.trace(c0).real
    k = int(rng.integers(4, 11))
    cons = []
    for _ in range(k):
        coeff = random_hermitian(size, rng)
        cons.append(
            AffineConstraint(coeff, float(np.trace(coeff @ c0).real))
        )
    if rng.random() < 0.3:
        cons.append(AffineConstraint(np.eye(size), 1.0))
    return SdpFeasibility(size, tuple(cons))


def _planted_infeasible(rng: np.random.Generator) -> SdpFeasibility:
    size = int(rng.integers(3, 7))
    family = int(rng.integers(0, 4))
    delta = float(rng.uniform(0.1, 1.0))
    eye = np.eye(size, dtype=complex)
    cons = []
    if family == 0:
        # negative total trace
        cons.append(AffineConstraint(eye, -delta))
    elif family == 1:
        # negative diagonal entry
        j = int(rng.integers(0, size))
        e = np.zeros((size, size), dtype=complex)
        e[j, j] = 1.0
        cons.append(AffineConstraint(e, -delta))
    elif family == 2:
        # the same functional pinned to two different values
        coeff = random_hermitian(size, rng)
        beta = float(rng.uniform(-1.0, 1.0))
        cons.append(AffineConstraint(coeff, beta))
        cons.append(AffineConstraint(coeff.copy(), beta + delta))
    else:
        # a diagonal entry larger than the whole trace
        j = int(rng.integers(0, size))
        e = np.zeros((size, size), dtype=complex)
        e[j, j] = 1.0
        cons.append(AffineConstraint(eye, 1.0))
        cons.append(AffineConstraint(e, 1.0 + delta))
    for _ in range(int(rng.integers(0, 3))):
        coeff = random_hermitian(size, rng)
        cons.append(AffineConstraint(coeff, float(rng.uniform(-1.0, 1.0))))
    return SdpFeasibility(size, tuple(cons))


def criterion_12() -> CriterionResult:
    """Planted feasibility instances are classified and certified."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    confusions = unknowns = cert_failures = 0
    for planted_feasible in (True, False):
        for _ in range(500):
            problem = (
                _planted_feasible(rng) if planted_feasible else _planted_infeasible(rng)
            )
            verdict = solve_feasibility(problem)
            if verdict.status is Status.UNKNOWN:
                unknowns += 1
                continue
            if planted_feasible and verdict.status is Status.INFEASIBLE:
                confusions += 1
                continue
            if not planted_feasible and verdict.status is Status.FEASIBLE:
                confusions += 1
                continue
            if verdict.status is Status.FEASIBLE:
                min_eig, residual = verify_witness(problem, verdict)
                if min_eig < -1e-8 or residual > 1e-6:
                    cert_failures += 1
            else:
                cert = dual_witness(problem, verdict)
                if (
                    cert["margin"] <= 0.0
                    or cert["margin_gap"] > 1e-6
                    or cert["pencil_max_eig"] > 1e-6
                ):
                    cert_failures += 1
    passed = confusions == 0 and cert_failures == 0 and unknowns <= 20
    return _finish(
        "solver integrity on planted instances",
        t0,
        passed,
        f"1000 instances: {confusions} confusions, {unknowns} unknown "
        f"(budget 20), {cert_failures} certificate failures",
    )


REGISTRY: tuple = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_all() -> list[CriterionResult]:
    """Run every criterion, one after another, in registry order."""
    return [fn() for fn in REGISTRY]
