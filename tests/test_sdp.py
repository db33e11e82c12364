import numpy as np
import pytest

from mconvex.errors import BadProblem
from mconvex.linalg import random_hermitian
from mconvex.sdp import (
    AffineConstraint,
    SdpFeasibility,
    Status,
    _compile,
    _facial_polish,
    dual_witness,
    solve_feasibility,
    verify_witness,
)


def _trace_one(size: int, extra=()) -> SdpFeasibility:
    cons = [AffineConstraint(np.eye(size, dtype=complex), 1.0)]
    cons.extend(extra)
    return SdpFeasibility(size, tuple(cons))


def test_feasible_trace_one():
    verdict = solve_feasibility(_trace_one(3))
    assert verdict.status is Status.FEASIBLE
    min_eig, residual = verify_witness(_trace_one(3), verdict.witness)
    assert min_eig >= -1e-9
    assert residual <= 1e-7


def test_infeasible_negative_trace():
    problem = SdpFeasibility(
        3, (AffineConstraint(np.eye(3, dtype=complex), -0.5),)
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE
    cert = dual_witness(problem, verdict)
    assert cert["margin"] > 0
    assert cert["margin_gap"] <= 1e-8
    assert cert["pencil_max_eig"] <= 1e-8


def test_infeasible_duplicate_functionals():
    rng = np.random.default_rng(0)
    coeff = random_hermitian(4, rng)
    problem = SdpFeasibility(
        4,
        (
            AffineConstraint(coeff, 0.3),
            AffineConstraint(coeff.copy(), 0.9),
        ),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE
    cert = dual_witness(problem, verdict)
    assert cert["margin"] > 0


def test_infeasible_entry_exceeds_trace():
    e = np.zeros((3, 3), dtype=complex)
    e[0, 0] = 1.0
    problem = _trace_one(3, extra=(AffineConstraint(e, 1.7),))
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE


def test_planted_feasible_random_batch():
    rng = np.random.default_rng(1)
    for _ in range(25):
        size = int(rng.integers(2, 6))
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        c0 = g @ g.conj().T
        c0 /= np.trace(c0).real
        cons = []
        for _ in range(int(rng.integers(3, 8))):
            coeff = random_hermitian(size, rng)
            cons.append(AffineConstraint(coeff, float(np.trace(coeff @ c0).real)))
        problem = SdpFeasibility(size, tuple(cons))
        verdict = solve_feasibility(problem)
        assert verdict.status is Status.FEASIBLE
        min_eig, residual = verify_witness(problem, verdict.witness)
        assert min_eig >= -1e-8
        assert residual <= 1e-6


def test_block_structure_rejects_coupling():
    # a coefficient that couples the two blocks has no per-block form: given
    # as the first block it does not match that block's declared size
    coeff = np.ones((4, 4), dtype=complex)
    problem = SdpFeasibility(
        4,
        (AffineConstraint([coeff, np.eye(2)], 1.0),),
        block_sizes=(2, 2),
    )
    with pytest.raises(BadProblem):
        solve_feasibility(problem)


def test_block_structure_solves_blockwise():
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    problem = SdpFeasibility(
        4,
        (AffineConstraint([eye, zero], 1.0), AffineConstraint([zero, eye], 0.5)),
        block_sizes=(2, 2),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.FEASIBLE
    w = verdict.witness
    assert np.abs(w[:2, 2:]).max() <= 1e-12
    assert np.trace(w[:2, :2]).real == pytest.approx(1.0, abs=1e-6)


def test_infeasible_blocks_give_a_blockwise_pencil():
    # tr V_1 = 1 and tr V_2 = 1, but (V_1)_00 = 1.7: no PSD point
    e = np.zeros((2, 2), dtype=complex)
    e[0, 0] = 1.0
    problem = SdpFeasibility(
        5,
        (
            AffineConstraint([np.eye(2), np.zeros((3, 3))], 1.0),
            AffineConstraint([np.zeros((2, 2)), np.eye(3)], 1.0),
            AffineConstraint([e, np.zeros((3, 3))], 1.7),
        ),
        block_sizes=(2, 3),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE
    sep = verdict.separator
    assert [blk.shape for blk in sep.pencil] == [(2, 2), (3, 3)]
    for blk in sep.pencil:
        assert np.linalg.eigvalsh(blk)[-1] <= sep.psd_slack
    cert = dual_witness(problem, verdict)
    assert cert["margin_gap"] <= 1e-9
    assert [blk.shape for blk in cert["pencil"]] == [(2, 2), (3, 3)]


def test_facial_polish_lifts_a_blockwise_witness():
    # blocks of sizes 3 and 2, held to the faces span(e0, e1) and span(e1)
    # by tr(P_j V_j) = 0, with P_j the projector off the face
    re01 = np.zeros((3, 3), dtype=complex)
    re01[0, 1] = re01[1, 0] = 0.5
    problem = SdpFeasibility(
        5,
        (
            AffineConstraint([np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 0.0])], 0.0),
            AffineConstraint([np.eye(3), np.zeros((2, 2))], 1.0),
            AffineConstraint([re01, np.zeros((2, 2))], 0.4),
            AffineConstraint([np.zeros((3, 3)), np.eye(2)], 2.0),
        ),
        block_sizes=(3, 2),
    )
    planted = np.zeros((5, 5), dtype=complex)
    planted[:2, :2] = [[0.5, 0.4], [0.4, 0.5]]
    planted[4, 4] = 2.0
    comp = _compile(problem)
    start = comp.split(planted + 1e-3 * np.eye(5))
    lifted = _facial_polish(comp, start, tol=1e-7, max_iter=4000)
    assert lifted is not None
    witness = comp.assemble(lifted)
    min_eig, residual = verify_witness(problem, witness)
    assert min_eig >= -1e-9
    assert residual <= 1e-7
    assert abs(witness[2, 2]) <= 1e-12 and abs(witness[3, 3]) <= 1e-12


def test_trace_normalization_field():
    problem = SdpFeasibility(
        3,
        (AffineConstraint(np.diag([1.0, 0.0, 0.0]).astype(complex), 0.4),),
        trace_normalization=1.0,
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.FEASIBLE
    assert np.trace(verdict.witness).real == pytest.approx(1.0, abs=1e-6)
