import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import range_sdp
from mconvex.errors import BadProblem, NoCertificate
from mconvex import ranges, sdp
from mconvex.linalg import (
    OperatorTuple,
    compressed_ampliation,
    herm_part,
    psd_part,
    random_hermitian,
)
from mconvex.ranges import _range_rows
from mconvex.sdp import (
    MAX_ITER,
    AffineConstraint,
    SdpFeasibility,
    Status,
    Verdict,
    _Compiled,
    _compile,
    WITNESS_MIN_EIG,
    WITNESS_RESIDUAL,
    dual_witness,
    solve_feasibility,
    verify_witness,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _trace_one(size: int, extra=()) -> SdpFeasibility:
    cons = [AffineConstraint(np.eye(size, dtype=complex), 1.0)]
    cons.extend(extra)
    return SdpFeasibility(size, tuple(cons))


def _kmin_problem(verts: np.ndarray, mats) -> SdpFeasibility:
    """kmin's decomposition SDP over the polygon ``verts``, posed at the
    Hermitian tuple ``mats``."""
    a = OperatorTuple(tuple(mats), hermitian=True)
    return range_sdp(_range_rows(verts[:, :, None, None], a, np.zeros(2)))


def _disc_kmin_problem(m: int, mats) -> SdpFeasibility:
    """kmin's decomposition SDP over the inscribed m-gon of the unit disc,
    posed at the Hermitian tuple ``mats``."""
    angles = 2.0 * np.pi * np.arange(m) / m
    return _kmin_problem(np.column_stack([np.cos(angles), np.sin(angles)]), mats)


def test_feasible_trace_one():
    verdict = solve_feasibility(_trace_one(3))
    assert verdict.status is Status.FEASIBLE
    min_eig, residual = verify_witness(_trace_one(3), verdict)
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
        min_eig, residual = verify_witness(problem, verdict)
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
    assert [h.shape for h in verdict.blocks] == [(2, 2), (2, 2)]
    assert np.trace(verdict.blocks[0]).real == pytest.approx(1.0, abs=1e-6)
    assert np.trace(verdict.blocks[1]).real == pytest.approx(0.5, abs=1e-6)


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
    cert = dual_witness(problem, verdict)
    assert cert["margin_gap"] <= 1e-9
    assert [blk.shape for blk in cert["pencil"]] == [(2, 2), (3, 3)]
    for blk in cert["pencil"]:
        assert np.linalg.eigvalsh(blk)[-1] <= verdict.separator.psd_slack


def _assert_certified(problem: SdpFeasibility):
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.FEASIBLE
    min_eig, residual = verify_witness(problem, verdict)
    assert min_eig >= WITNESS_MIN_EIG
    assert residual <= WITNESS_RESIDUAL
    return verdict.blocks


def _two_faces(n: int) -> None:
    # blocks of sizes 3n and 2n, held to the faces span(e0, e1) and span(e1)
    # (tensored with C^n) by tr(P_j V_j) = 0, with P_j the projector off the
    # face; for n > 1 each equation is the n x n matrix equation with rhs
    # times I.  No feasible point is interior to the cone
    re01 = np.zeros((3, 3), dtype=complex)
    re01[0, 1] = re01[1, 0] = 0.5
    rows = [
        ([np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 0.0])], 0.0),
        ([np.eye(3), np.zeros((2, 2))], 1.0),
        ([re01, np.zeros((2, 2))], 0.4),
        ([np.zeros((3, 3)), np.eye(2)], 2.0),
    ]
    problem = SdpFeasibility(
        5 * n,
        tuple(AffineConstraint(c, r if n == 1 else r * np.eye(n)) for c, r in rows),
        block_sizes=(3 * n, 2 * n),
    )
    diag = np.concatenate([np.diag(h) for h in _assert_certified(problem)])
    assert np.abs(diag[2 * n:4 * n]).max() <= 1e-12


def test_solve_decides_blocks_feasible_only_on_faces():
    _two_faces(1)


def test_solve_decides_matrix_equations_feasible_only_on_faces():
    _two_faces(2)


def test_trace_normalization_field():
    # tr V = 1 is the constraint with identity coefficients
    problem = SdpFeasibility(
        3,
        (AffineConstraint(np.diag([1.0, 0.0, 0.0]).astype(complex), 0.4),
         AffineConstraint(np.eye(3), 1.0)),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.FEASIBLE
    assert np.trace(verdict.blocks[0]).real == pytest.approx(1.0, abs=1e-6)


def test_solve_decides_a_slice_that_is_one_rank_one_point():
    # tr((I - u u*) V) = 0 and tr V = 1 meet the cone only at V = u u*
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    uu = np.outer(u, u).astype(complex)
    problem = SdpFeasibility(
        2, (AffineConstraint(np.eye(2) - uu, 0.0), AffineConstraint(np.eye(2), 1.0))
    )
    (witness,) = _assert_certified(problem)
    assert np.abs(witness - uu).max() <= 1e-6


def test_zero_rows_carry_a_zero_dual():
    # a zero row with a zero rhs is dropped; the separator of tr V = -1
    # gives it dual entry exactly 0
    problem = SdpFeasibility(
        2,
        (AffineConstraint(np.zeros((2, 2)), 0.0),
         AffineConstraint(np.eye(2), -1.0)),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE
    assert verdict.separator.dual[0] == 0.0
    assert dual_witness(problem, verdict)["margin_gap"] <= 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_zero_row_with_a_nonzero_rhs_is_separated(n):
    # 0 = 1e-3 beside tr V = 1: the residue of check 1 separates it at
    # 0 iterations, with its whole margin on the zero row and a zero pencil
    eye = np.eye(n)
    problem = SdpFeasibility(
        2 * n,
        (AffineConstraint(np.zeros((2, 2)), 1e-3 * eye),
         AffineConstraint(np.eye(2), eye)),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE and verdict.iterations == 0
    assert verdict.separator.margin == pytest.approx(1e-3 * np.sqrt(n), rel=1e-9)
    assert np.abs(verdict.separator.dual[1]).max() <= 1e-12
    cert = dual_witness(problem, verdict)
    assert cert["margin_gap"] <= 1e-12
    assert cert["pencil_max_eig"] <= 1e-12


@pytest.mark.parametrize(
    "sign, status", [(1.0, Status.UNKNOWN), (-1.0, Status.INFEASIBLE)]
)
def test_a_zero_row_in_the_band_is_decided_on_the_projected_rhs(sign, status):
    # 0 = 5e-7 beside tr V = +-1: no witness can meet the zero row within
    # WITNESS_RESIDUAL, and its residue alone is below the margin 10 tol
    problem = SdpFeasibility(
        2,
        (AffineConstraint(np.zeros((2, 2)), 5e-7),
         AffineConstraint(np.eye(2), sign)),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is status
    assert verdict.iterations <= 8
    if status is Status.INFEASIBLE:
        # the separator of tr V = -1, with nothing on the zero row
        assert verdict.separator.dual[0] == 0.0
        cert = dual_witness(problem, verdict)
        assert cert["margin"] >= 10 * 1e-7
        assert cert["margin_gap"] <= 1e-9
        assert cert["pencil_max_eig"] <= verdict.separator.psd_slack + 1e-12


def test_a_zero_row_entry_above_the_witness_residual_is_in_the_band():
    # 0 = 1.5e-7 Z beside tr V = I: the residue's Frobenius norm 2.1e-7 is
    # below sqrt(m n^2) 1e-7, but the zero row's residual is its rhs, so no
    # witness can meet it and the projected rhs decides at once
    eye = np.eye(2)
    problem = SdpFeasibility(
        4,
        (AffineConstraint(np.zeros((2, 2)), 1.5e-7 * np.diag([1.0, -1.0])),
         AffineConstraint(np.eye(2), eye)),
    )
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.UNKNOWN
    assert verdict.iterations <= 8


def _zero_row_beside_trace(rhs: float, trace: float) -> SdpFeasibility:
    """0 = rhs beside tr V = trace, over one 2 x 2 block."""
    return SdpFeasibility(
        2, (AffineConstraint(np.zeros((2, 2)), rhs), AffineConstraint(np.eye(2), trace))
    )


def _nilpotent_in_the_96_gon(scale: float) -> SdpFeasibility:
    s = scale * np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    return _disc_kmin_problem(96, [(s + s.conj().T) / 2, (s - s.conj().T) / 2j])


#: a problem, a budget, and the status and iteration count of each exit
#: of ``sdp._iterate``: no constraint, the rhs residue, the two ends of
#: the band, and Douglas-Rachford's witness, separator and budget
ITERATE_EXITS = {
    "no-constraint": (lambda: SdpFeasibility(2, ()), MAX_ITER, Status.FEASIBLE, 0),
    "residue": (lambda: _zero_row_beside_trace(1e-3, 1.0), MAX_ITER,
                Status.INFEASIBLE, 0),
    "band-infeasible": (lambda: _zero_row_beside_trace(5e-7, -1.0), MAX_ITER,
                        Status.INFEASIBLE, 4),
    "band-unknown": (lambda: _zero_row_beside_trace(5e-7, 1.0), MAX_ITER,
                     Status.UNKNOWN, 4),
    "feasible": (lambda: _trace_one(3), MAX_ITER, Status.FEASIBLE, 4),
    "infeasible": (lambda: _nilpotent_in_the_96_gon(0.55), MAX_ITER,
                   Status.INFEASIBLE, 4),
    "budget": (lambda: _nilpotent_in_the_96_gon(0.55), 1, Status.UNKNOWN, 1),
}


@pytest.mark.parametrize(
    "pose, max_iter, status, iterations",
    ITERATE_EXITS.values(), ids=list(ITERATE_EXITS),
)
def test_each_exit_of_iterate_answers_with_one_verdict(
    pose, max_iter, status, iterations
):
    comp = _compile(pose())
    verdict, _ = sdp._iterate(comp, 1e-7, max_iter, None)
    assert isinstance(verdict, Verdict)
    assert (verdict.status, verdict.iterations) == (status, iterations)
    assert (verdict.separator is not None) == (status is Status.INFEASIBLE)
    # a Feasible exit's witness: Hermitian blocks, in declared order
    assert (verdict.blocks is not None) == (status is Status.FEASIBLE)
    if verdict.blocks is not None:
        assert [b.shape for b in verdict.blocks] == [(s, s) for s in comp.block_sizes]
        assert all(np.array_equal(b, b.conj().T) for b in verdict.blocks)
    # the solve answers with the exit's verdict as it stands
    assert _verdicts_equal(comp.solve(1e-7, max_iter)[0], verdict)


def test_a_gap_that_certifies_at_the_first_check_answers_there():
    # the nilpotent pair at 0.55 against the inscribed 96-gon: the gap
    # of the first check, at iteration 4, already prices a separator
    s = 0.55 * np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    mats = [(s + s.conj().T) / 2, (s - s.conj().T) / 2j]
    problem = _disc_kmin_problem(96, mats)
    verdict = solve_feasibility(problem)
    assert verdict.status is Status.INFEASIBLE and verdict.iterations == 4
    cert = dual_witness(problem, verdict)
    assert cert["margin"] >= 10 * 1e-7
    assert cert["margin_gap"] <= 1e-9
    assert cert["pencil_max_eig"] <= verdict.separator.psd_slack + 1e-12


def test_verify_witness_needs_feasible_blocks():
    problem = _trace_one(2)
    verdict = solve_feasibility(problem)
    infeasible = solve_feasibility(
        SdpFeasibility(2, (AffineConstraint(np.eye(2), -1.0),))
    )
    with pytest.raises(NoCertificate):
        verify_witness(problem, infeasible)
    with pytest.raises(BadProblem):
        verify_witness(_trace_one(3), verdict)


def _planted(rng, size: int, count: int):
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    c0 = g @ g.conj().T
    c0 /= np.trace(c0).real
    coeffs = [random_hermitian(size, rng) for _ in range(count)]
    rhs = [float(np.trace(c @ c0).real) for c in coeffs]
    return coeffs, rhs


def _planted_problem(coeffs, rhs) -> SdpFeasibility:
    # the equations, then tr V = 1
    cons = (*map(AffineConstraint, coeffs, rhs), AffineConstraint(np.eye(4), 1.0))
    return SdpFeasibility(4, cons)


def _verdicts_equal(got, want) -> bool:
    """Status, counts, witness blocks and separator, to the bit."""

    def scalars(v):
        sep = v.separator
        return (v.status, v.iterations, v.residual, v.blocks is None,
                None if sep is None else sep.margin)

    if scalars(got) != scalars(want):
        return False
    pairs = list(zip(got.blocks or [], want.blocks or []))
    if got.separator is not None:
        pairs.append((got.separator.dual, want.separator.dual))
    return all(np.array_equal(a, b) for a, b in pairs)


def test_with_rhs_gives_the_verdict_of_a_fresh_compile():
    rng = np.random.default_rng(3)
    coeffs, rhs = _planted(rng, 4, 5)
    problems = [
        _planted_problem(coeffs, r)
        for r in (rhs, [2.0 * v for v in rhs], [-v for v in rhs])
    ]
    # one base serves every rhs: it keeps no iterate between solves
    base = _compile(problems[0])
    for problem in problems:
        new_rhs = [c.rhs for c in problem.constraints]
        got, _ = base.with_rhs(new_rhs).solve(1e-7, MAX_ITER)
        assert _verdicts_equal(got, solve_feasibility(problem))
    assert {solve_feasibility(p).status for p in problems} >= {
        Status.FEASIBLE, Status.INFEASIBLE
    }


def test_with_rhs_copies_iterate_from_the_iterate_passed():
    rng = np.random.default_rng(3)
    coeffs, rhs = _planted(rng, 4, 5)
    problem = _planted_problem(coeffs, rhs)
    comp = _compile(problem)
    verdict, z = comp.with_rhs(rhs + [1.0]).solve(1e-7, MAX_ITER)
    assert verdict.status is Status.FEASIBLE and verdict.iterations > 0
    # the solve returns the iterate it stopped at: the same rhs is
    # answered again by iterating from there, which leaves it as it was
    assert z is not None
    kept = [zg.copy() for zg in z]
    again, z_again = comp.with_rhs(rhs + [1.0]).solve(1e-7, MAX_ITER, z)
    assert again.status is Status.FEASIBLE and again.iterations > 0
    assert z_again is not z
    assert all(np.array_equal(zg, kg) for zg, kg in zip(z, kept))
    # an infeasible rhs (a negative trace) starts from that iterate too
    outside, _ = comp.with_rhs(rhs + [-1.0]).solve(1e-7, MAX_ITER, z_again)
    assert outside.status is Status.INFEASIBLE and outside.iterations > 0
    assert outside.separator.margin >= 10 * 1e-7


def test_a_solve_passed_no_iterate_starts_from_zero():
    # a warm solve differs from a cold one; passed no iterate, the
    # operator that made it answers as a fresh compile does
    rng = np.random.default_rng(3)
    coeffs, rhs = _planted(rng, 4, 5)
    problem = _planted_problem(coeffs, rhs)
    comp = _compile(problem)
    first, z = comp.solve(1e-7, MAX_ITER)
    assert first.iterations > 0
    warm, _ = comp.solve(1e-7, MAX_ITER, z)
    assert not _verdicts_equal(warm, first)
    assert _verdicts_equal(comp.solve(1e-7, MAX_ITER)[0], first)
    assert _verdicts_equal(_compile(problem).solve(1e-7, MAX_ITER)[0], first)


def test_a_compiled_operator_keeps_no_state_between_solves():
    # 0.72 (X, Z) is outside the square's minimal set (it leaves at
    # 1 / sqrt 2); two solves of one operator, each passed no iterate,
    # give the same separator to the bit
    comp = _compile(_kmin_problem(SQUARE, [0.72 * X, 0.72 * Z]))
    first, _ = comp.solve(1e-7, MAX_ITER)
    second, _ = comp.solve(1e-7, MAX_ITER)
    assert first.status is Status.INFEASIBLE
    assert _verdicts_equal(second, first)


def test_solve_feasibility_repeats_to_the_bit():
    rng = np.random.default_rng(3)
    coeffs, rhs = _planted(rng, 4, 5)
    statuses = set()
    for r in (rhs, [-v for v in rhs]):
        problem = _planted_problem(coeffs, r)
        first = solve_feasibility(problem)
        assert _verdicts_equal(solve_feasibility(problem), first)
        statuses.add(first.status)
    assert statuses == {Status.FEASIBLE, Status.INFEASIBLE}


def test_with_rhs_checks_the_new_rhs():
    problem = SdpFeasibility(
        2,
        (AffineConstraint(np.zeros((2, 2)), 0.0),
         AffineConstraint(np.eye(2), 1.0)),
    )
    comp = _compile(problem)
    with pytest.raises(BadProblem):
        comp.with_rhs([0.0, np.nan])
    with pytest.raises(BadProblem):
        comp.with_rhs([0.0, np.inf])
    # a zero row with a nonzero rhs is the equation 0 = 1e-3, and 0 = 1e-9
    # is met within the witness residual
    assert comp.with_rhs([1e-3, 1.0]).solve(1e-7, MAX_ITER)[0].status is Status.INFEASIBLE
    alone = _compile(SdpFeasibility(2, (AffineConstraint(np.zeros((2, 2)), 1e-3),)))
    assert alone.solve(1e-7, MAX_ITER)[0].status is Status.INFEASIBLE
    assert comp.with_rhs([1e-9, 1.0]).solve(1e-7, MAX_ITER)[0].status is Status.FEASIBLE
    assert comp.with_rhs([0.0, 2.0]).solve(1e-7, MAX_ITER)[0].status is Status.FEASIBLE


def test_compiled_data_match_the_whole_stack_formulas():
    # the compile against the whole-stack formulas: the normalized stack
    # bit for bit, the rhs (divided as a complex stack) and the matrix
    # products (which add in another order) to rounding
    rng = np.random.default_rng(5)
    shape = (70, 96, 4, 4)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = herm_part(raw)

    coeffs = [t[i] for i in range(shape[0])]
    rhs = rng.standard_normal(shape[0]).tolist()
    problem = SdpFeasibility(
        96 * 4, tuple(map(AffineConstraint, coeffs, rhs)),
        block_sizes=(4,) * 96,
    )
    comp = _compile(problem)
    sq = np.einsum("mnij,mnij->m", t.conj(), t).real
    norms = np.sqrt(np.maximum(sq, 1e-300))
    unit = t / norms[:, None, None, None]
    assert np.array_equal(comp.coeff_mats[0], unit.reshape(len(unit), -1))
    assert np.abs(comp.b[:, 0, 0] - np.array(rhs) / norms).max() <= 1e-15
    gram = np.einsum("mnij,knij->mk", unit.conj(), unit).real
    assert np.abs(comp.gram - gram).max() <= 1e-13
    v = herm_part(rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:]))
    want = np.einsum("mnij,nij->m", unit.conj(), v).real
    assert np.abs(comp.apply([v])[:, 0, 0] - want).max() <= 1e-13
    # pencil is the adjoint of apply: y . A(V) = Re tr(A*(y)* V)
    y = rng.standard_normal(shape[0])[:, None, None]
    pairing = np.vdot(comp.views(comp.pencil(y))[0], v).real
    assert abs(np.vdot(y, comp.apply([v])).real - pairing) <= 1e-13


def test_no_constraints_is_feasible():
    assert solve_feasibility(SdpFeasibility(2, ())).status is Status.FEASIBLE


def test_compiled_reads_a_non_contiguous_stack():
    # a transposed view of a Hermitian stack is Hermitian but not
    # C-contiguous; the compile copies it once and agrees with the copy
    rng = np.random.default_rng(7)

    def herm(*shape):
        return herm_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    sizes, m = (2, 3, 2, 2), 5
    stacks = [herm(m, 3, 2, 2), herm(m, 1, 3, 3)]
    views = [np.swapaxes(t, -1, -2) for t in stacks]
    assert not any(t.flags.c_contiguous for t in views)
    rhs = rng.standard_normal(m)
    strided = _Compiled(sizes, views, rhs)
    dense = _Compiled(sizes, [np.ascontiguousarray(t) for t in views], rhs)
    assert len(strided.groups) == 2
    assert np.array_equal(strided.gram, dense.gram)
    v = [herm(*t.shape[1:]) for t in stacks]
    assert np.array_equal(strided.apply(v), dense.apply(v))
    y = rng.standard_normal((m, 1, 1))
    assert np.array_equal(strided.pencil(y), dense.pencil(y))


def _matrix_problem(rhs, sizes=(2, 2), second=None):
    # sum_j V_j = rhs over two blocks, and optionally V_1 = second
    cons = [AffineConstraint(np.ones((len(sizes), 1, 1)), rhs)]
    if second is not None:
        cons.append(AffineConstraint(np.array([[[0.0]], [[1.0]]]), second))
    return SdpFeasibility(sum(sizes), tuple(cons), block_sizes=sizes)


def test_matrix_rhs_solves_blockwise():
    verdict = solve_feasibility(_matrix_problem(np.eye(2), second=0.25 * np.eye(2)))
    assert verdict.status is Status.FEASIBLE
    h = verdict.blocks
    assert np.abs(h[0] + h[1] - np.eye(2)).max() <= 1e-7
    assert np.abs(h[1] - 0.25 * np.eye(2)).max() <= 1e-7
    verdict = solve_feasibility(_matrix_problem(np.eye(2), second=2.0 * np.eye(2)))
    assert verdict.status is Status.INFEASIBLE
    assert verdict.separator.dual.shape == (2, 2, 2)
    assert dual_witness(_matrix_problem(np.eye(2), second=2.0 * np.eye(2)),
                        verdict)["margin_gap"] <= 1e-9


def test_matrix_rhs_sizes_must_agree():
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(np.eye(2), second=np.eye(3)))
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(np.eye(2), second=1.0))
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(np.ones((2, 3))))
    # a scalar trace normalization beside 2 x 2 matrix equations
    problem = _matrix_problem(np.eye(2))
    trace = AffineConstraint([np.eye(2), np.eye(2)], 1.0)
    with pytest.raises(BadProblem):
        _compile(dataclasses.replace(problem,
                                     constraints=problem.constraints + (trace,)))


def test_matrix_rhs_must_be_finite():
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(bad))
    comp = _compile(_matrix_problem(np.eye(2)))
    with pytest.raises(BadProblem):
        comp.with_rhs(np.inf * np.ones((1, 2, 2)))


def test_matrix_rhs_must_be_hermitian():
    # the relative rule of the coefficients: 1e-10 of the largest entry
    near = np.array([[2.0, 1.0], [1.0 + 1e-11, 2.0]])
    far = np.array([[2.0, 1.0], [1.0 + 1e-9, 2.0]])
    comp = _compile(_matrix_problem(near))
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(far))
    with pytest.raises(BadProblem):
        comp.with_rhs(far[None])
    with pytest.raises(BadProblem):
        comp.with_rhs(np.eye(2))  # a matrix, not a stack of one
    assert comp.with_rhs(near[None]).solve(1e-7, MAX_ITER)[0].status is Status.FEASIBLE


def test_block_sizes_must_be_multiples_of_n():
    with pytest.raises(BadProblem):
        _compile(_matrix_problem(np.eye(2), sizes=(2, 3)))
    with pytest.raises(BadProblem):
        _compile(SdpFeasibility(3, (AffineConstraint(np.eye(1), np.eye(2)),)))


def test_witness_blocks_are_symmetrized_per_group(monkeypatch):
    # a disc kmin problem: 96 blocks of size 4 in one group, whose witness
    # is symmetrized as one stack
    from mconvex import sdp

    rng = np.random.default_rng(2)
    mats = []
    for _ in range(2):
        h = random_hermitian(4, rng)
        mats.append(0.2 * h / np.linalg.norm(h, 2))
    comp = _compile(_disc_kmin_problem(96, mats))
    accepted = []

    def witness_ok(comp, v):
        ok, resid, low = real_witness_ok(comp, v)
        if ok:
            accepted.append([vg.copy() for vg in v])
        return ok, resid, low

    real_witness_ok = sdp._witness_ok
    monkeypatch.setattr(sdp, "_witness_ok", witness_ok)
    verdict, _ = comp.solve(1e-7, MAX_ITER)
    assert verdict.status is Status.FEASIBLE
    assert len(verdict.blocks) == 96
    for got, block in zip(verdict.blocks, comp.blocks(accepted[0])):
        assert np.array_equal(got, herm_part(block))


def _two_projection_step(comp, z):
    """The reference step, on group lists: x the affine projection of z,
    y = psd_part(2x - z), then z + y - x."""
    corr = comp.views(comp.pencil(comp.lsq_dual(z) - comp.b_lsq))
    x = [zg - cg for zg, cg in zip(z, corr)]
    y = [psd_part(2.0 * xg - zg) for xg, zg in zip(x, z)]
    return [zg + yg - xg for zg, yg, xg in zip(z, y, x)]


def _step_operator(kind: str) -> _Compiled:
    rng = np.random.default_rng(17)
    if kind == "blocks-2-3":
        cons = [AffineConstraint([np.eye(2), np.eye(3)], 1.0)]
        cons += [
            AffineConstraint([random_hermitian(2, rng), random_hermitian(3, rng)], r)
            for r in (0.3, -0.2)
        ]
        return _compile(SdpFeasibility(5, tuple(cons), block_sizes=(2, 3)))
    if kind == "blocks-3n-2n":
        n = 2
        cons = [AffineConstraint([np.eye(3), np.eye(2)], np.eye(n))]
        cons += [
            AffineConstraint(
                [random_hermitian(3, rng), random_hermitian(2, rng)],
                0.2 * random_hermitian(n, rng),
            )
            for _ in range(2)
        ]
        return _compile(SdpFeasibility(5 * n, tuple(cons), block_sizes=(3 * n, 2 * n)))
    if kind == "kmin-vertices":
        a = OperatorTuple((0.6 * X, 0.5 * Z), hermitian=True)
        stack, at_a, _, _ = _range_rows(SQUARE[:, :, None, None], a, np.zeros(2))
        comp = ranges._vertex_operator(stack.tobytes(), stack.shape, a.n)
    else:  # a ucp Choi operator: 3 x 3 summand, level 2
        x = OperatorTuple(tuple(random_hermitian(3, rng) for _ in range(2)), True)
        a = compressed_ampliation(x, 2, rng)
        stack, at_a, _, _ = _range_rows(np.array(x.mats)[None], a, np.zeros(2))
        comp = ranges._range_operator(stack, a.n)
    return comp.with_rhs(np.concatenate([np.eye(a.n)[None], at_a]))


@pytest.mark.parametrize(
    "kind", ["blocks-2-3", "blocks-3n-2n", "kmin-vertices", "ucp-choi"]
)
def test_the_flat_step_is_the_two_projection_step_to_the_bit(kind):
    # the Douglas-Rachford step on the flat iterate, one iteration per
    # call, against the two-projection formula on group lists, 50 steps
    # from a seeded start
    from mconvex import sdp

    comp = _step_operator(kind)
    rng = np.random.default_rng(4)
    start = [herm_part(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
             for g in comp.zero()]
    z, ref = np.concatenate([g.ravel() for g in start]), start
    for _ in range(50):
        z = sdp._douglas_rachford(comp, 1e-7, 1, z)[-1]
        ref = _two_projection_step(comp, ref)
        assert z.tobytes() == np.concatenate([g.ravel() for g in ref]).tobytes()
    assert np.abs(z).max() > 1e-3


#: the regular hexagon on the unit circle
HEXAGON = np.column_stack([np.cos(np.pi * np.arange(6) / 3), np.sin(np.pi * np.arange(6) / 3)])


def _refusal_operator(kind: str, seed: int) -> _Compiled:
    """A seeded operator for ``_certificate_from_dual``'s early refusal:
    kmin over the square or the hexagon at n = 2-4, a ucp Choi operator
    at m, n <= 4 (a in the range or not), or a compiled problem of two
    block sizes.  Posed at its own rhs, or, for odd seeds, at its
    negation, where the unit row reads -I and an identity shift gains
    margin instead of losing it."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    if kind == "blocks":
        cons = [AffineConstraint([np.eye(3), np.eye(2)], np.eye(n))]
        cons += [
            AffineConstraint([random_hermitian(3, rng), random_hermitian(2, rng)],
                             0.3 * random_hermitian(n, rng))
            for _ in range(2)
        ]
        rhs = np.array([c.rhs for c in cons])
        comp = _compile(SdpFeasibility(5 * n, tuple(cons), block_sizes=(3 * n, 2 * n)))
    else:
        if kind == "ucp":
            m, n = 2 + seed % 3, 1 + (seed // 3) % 4
            x = OperatorTuple(tuple(random_hermitian(m, rng) for _ in range(2)), True)
            a = compressed_ampliation(x, n, rng) if seed % 4 < 2 else OperatorTuple(
                tuple(random_hermitian(n, rng) for _ in range(2)), True
            )
            xs, center = x.mats[None], np.trace(x.mats, axis1=1, axis2=2) / m
        else:
            mats = [rng.uniform(0.2, 0.8) * random_hermitian(n, rng) for _ in range(2)]
            a = OperatorTuple(tuple(mats), True)
            verts = SQUARE if kind == "square" else HEXAGON
            xs, center = verts[:, :, None, None], np.zeros(2)
        stack, at_a, _, _ = _range_rows(xs, a, center)
        rhs = np.concatenate([np.eye(n)[None], at_a])
        comp = ranges._range_operator(stack, n, rhs)
    return comp.with_rhs(-rhs) if seed % 2 else comp


def _refusal_candidates(comp: _Compiled, seed: int) -> tuple[list, list]:
    """Candidate duals for ``comp``: the Douglas-Rachford gap duals (and
    affine residues) a budget of 120 iterations tries, seeded Gaussian
    stacks and the identity combination c in both signs; and, apart,
    each separator found plus 0.05, 0.5 and 2 c / ||c||, which the
    identity shift takes back off."""
    tried, certify = [], sdp._certificate_from_dual

    def spied(comp, coeffs, tol):
        tried.append(coeffs.copy())
        return certify(comp, coeffs, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_certificate_from_dual", spied)
        comp.solve(1e-7, 120)
    rng = np.random.default_rng(seed)
    c = comp.identity_combo
    found = [certify(comp, y, 1e-7) for y in tried]
    seps = [s.dual * comp.norms[:, None, None] for s in found if s is not None]
    shifted = [y + t * c / np.linalg.norm(c) for y in seps for t in (0.05, 0.5, 2.0)]
    shape = comp.b.shape
    noise = [herm_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
             for _ in range(4)]
    return tried + noise + [c, -c], shifted


def _early_refusals_agree(kind: str, seed: int) -> tuple[int, int]:
    """Assert that every candidate of ``_refusal_candidates`` gets the same
    answer from ``_certificate_from_dual`` with the early refusal as
    without it (``_shift_bound`` made +inf): None, or a ``Separator``
    equal field by field to the bit.  Each is tried at tol 1e-7 and, when
    the full test certifies it with some margin M, at the tols that put
    10 tol a relative 1e-7 either side of M, where a bound that misses
    the shift the full test takes would refuse it.  Returns how many
    tries were refused before any eigensolve, and how many the shift
    rescued (certified with ``Re<b, y> < 10 tol`` for the unit y)."""
    comp = _refusal_operator(kind, seed)
    plain, shifted = _refusal_candidates(comp, seed)
    eigensolves, refused, rescued = [0], 0, 0
    spectra = sdp.herm_eigvalsh

    def counted(v):
        eigensolves[0] += 1
        return spectra(v)

    def answers(coeffs, tol):
        # with the early refusal, whether it took an eigensolve, without
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "herm_eigvalsh", counted)
            before = eigensolves[0]
            early = sdp._certificate_from_dual(comp, coeffs, tol)
            solved = eigensolves[0] > before
            mp.setattr(sdp, "_shift_bound", lambda *args: math.inf)
            return early, solved, sdp._certificate_from_dual(comp, coeffs, tol)

    for coeffs in plain + shifted:
        tols = [1e-7]
        if (sep := answers(coeffs, 1e-300)[2]) is not None:
            tols += [0.1 * sep.margin * (1.0 + r) for r in (-1e-7, 1e-7)]
        beta = float(np.vdot(comp.b, coeffs / np.linalg.norm(coeffs)).real)
        for tol in tols:
            early, solved, full = answers(coeffs, tol)
            refused += early is None and not solved
            assert (early is None) == (full is None)
            if full is not None:
                assert early.dual.tobytes() == full.dual.tobytes()
                assert (early.margin, early.psd_slack) == (full.margin, full.psd_slack)
                rescued += beta < 10.0 * tol
    return refused, rescued


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(["square", "hexagon", "ucp", "blocks"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_an_early_refusal_is_a_refusal_of_the_full_test(kind, seed):
    # the refusal before the eigensolve rests on a bound of the margin
    # over every identity shift: it may only drop a candidate that the
    # full test drops too, and leaves every certificate to the bit
    _early_refusals_agree(kind, seed)


@pytest.mark.parametrize("kind", ["square", "hexagon", "ucp", "blocks"])
def test_the_early_refusal_fires_and_keeps_the_shifted_separators(kind):
    # over seeds 0-7 of each kind, the refusal drops candidates before
    # their eigensolve, and separators moved along the identity
    # combination are still certified after the shift
    refused, rescued = np.sum([_early_refusals_agree(kind, seed) for seed in range(8)], 0)
    assert refused > 0 and rescued > 0
