import numpy as np
import pytest

from mconvex.errors import EmptyEssentialSpectrum, NotCommuting, ReducibleCandidate
from mconvex.linalg import OperatorTuple, direct_sum
from mconvex.models import (
    DiagonalTuple,
    NormalTuple,
    SpectralModel,
    block_diagonal_model,
    essential_spectrum_diag,
    extreme_spectral_compression,
    finite_truncation,
    joint_spectrum,
    sw_perturbation,
    verify_complete_isometry,
    verify_local_sw,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def diag_pair(*cols):
    a = np.diag([c[0] for c in cols]).astype(complex)
    b = np.diag([c[1] for c in cols]).astype(complex)
    return OperatorTuple((a, b), hermitian=True)


def harmonic_seq(count=50, limit=0.0, scale=1.0):
    prefix = tuple((limit + scale / k,) for k in range(1, count + 1))
    return ((limit,), prefix)


class TestNormalTuple:
    def test_joint_spectrum_diagonal(self):
        t = NormalTuple(diag_pair((0.0, 1.0), (1.0, 0.0), (2.0, -1.0)))
        pts = joint_spectrum(t)
        got = {tuple(np.round(p, 9)) for p in pts}
        assert got == {(0.0, 1.0), (1.0, 0.0), (2.0, -1.0)}

    def test_joint_spectrum_conjugated(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        d1 = np.diag([0.0, 1.0, 1.0, 3.0]).astype(complex)
        d2 = np.diag([2.0, 2.0, -1.0, 0.0]).astype(complex)
        t = NormalTuple(
            OperatorTuple((u @ d1 @ u.conj().T, u @ d2 @ u.conj().T), hermitian=True)
        )
        got = {tuple(np.round(p, 8)) for p in joint_spectrum(t)}
        assert got == {(0.0, 2.0), (1.0, 2.0), (1.0, -1.0), (3.0, 0.0)}

    def test_non_normal_rejected(self):
        with pytest.raises(NotCommuting):
            NormalTuple(OperatorTuple((X, Z), hermitian=True))

    def test_complex_columns_for_nonhermitian(self):
        n = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0 - 1.0j]])
        model = NormalTuple(OperatorTuple((n,), hermitian=False))
        got = sorted(model.column_values[:, 0], key=lambda z: z.real)
        np.testing.assert_allclose(got, [1.0 + 1.0j, 2.0 - 1.0j])


class TestCompression:
    def test_interior_point_dropped(self):
        t = NormalTuple(
            diag_pair((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25))
        )
        model = extreme_spectral_compression(t)
        assert model.projector_rank == 3
        assert model.extreme_set.shape[0] == 3

    def test_idempotent(self):
        t = NormalTuple(
            diag_pair((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25))
        )
        once = extreme_spectral_compression(t)
        twice = extreme_spectral_compression(NormalTuple(once.compressed))
        assert twice.projector_rank == once.projector_rank

    def test_roots_of_unity_all_extreme(self):
        vals = np.exp(2j * np.pi * np.arange(5) / 5)
        t = NormalTuple(OperatorTuple((np.diag(vals),), hermitian=False))
        model = extreme_spectral_compression(t)
        assert model.projector_rank == 5

    def test_verify_good_model(self):
        t = NormalTuple(
            diag_pair((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25))
        )
        model = extreme_spectral_compression(t)
        rep = verify_complete_isometry(t, model)
        assert rep["slack"] <= 1e-9

    def test_verify_flags_missing_point(self):
        t = NormalTuple(diag_pair((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        broken = SpectralModel(
            extreme_set=np.array([[0.0, 0.0], [1.0, 0.0]]),
            compressed=diag_pair((0.0, 0.0), (1.0, 0.0)),
            projector_rank=2,
        )
        rep = verify_complete_isometry(t, broken)
        assert rep["slack"] > 0.01

    def test_verify_self_is_exact(self):
        base = diag_pair((0.0, 2.0), (1.0, -1.0))
        t = NormalTuple(base)
        model = SpectralModel(
            extreme_set=joint_spectrum(t), compressed=base, projector_rank=2
        )
        rep = verify_complete_isometry(t, model)
        assert rep["slack"] <= 1e-12


class TestBlockModel:
    def test_duplicates_merged(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        t = OperatorTuple((X, Z), hermitian=True)
        conj = OperatorTuple((h @ X @ h.conj().T, h @ Z @ h.conj().T), hermitian=True)
        model = block_diagonal_model([t, conj])
        assert len(model.summands) == 1
        assert model.direct_sum.n == 2
        assert model.report["dropped_duplicates"] == [1]

    def test_distinct_blocks_kept(self):
        t = OperatorTuple((X, Z), hermitian=True)
        s = OperatorTuple(
            (np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]])), hermitian=True
        )
        model = block_diagonal_model([t, s])
        assert len(model.summands) == 2
        assert model.direct_sum.n == 3

    def test_reducible_candidate_rejected(self):
        t = OperatorTuple(
            (np.kron(np.eye(2), X), np.kron(np.eye(2), Z)), hermitian=True
        )
        with pytest.raises(ReducibleCandidate):
            block_diagonal_model([t])


class TestDiagonalTuple:
    def test_atoms_and_sequences(self):
        t = DiagonalTuple(
            d=1,
            atoms=(((1.0,), None), ((3.0,), 2)),
            sequences=(harmonic_seq(count=19, limit=1.0),),
        )
        assert t.atoms[0][1] is None
        limit, prefix = t.sequences[0]
        assert limit == (1.0,)
        assert len(prefix) == 19

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            DiagonalTuple(d=1, atoms=(((1.0,), 2), ((1.0,), None)), sequences=())

    def test_non_monotone_sequence_rejected(self):
        with pytest.raises(ValueError):
            DiagonalTuple(
                d=1,
                atoms=(),
                sequences=(((0.0,), ((1.0,), (0.5,), (0.75,))),),
            )


class TestEssentialSpectrum:
    def test_infinite_atom_only(self):
        t = DiagonalTuple(d=1, atoms=(((1.0,), None), ((3.0,), 2)), sequences=())
        np.testing.assert_allclose(essential_spectrum_diag(t), [[1.0]])

    def test_sequence_limit(self):
        t = DiagonalTuple(d=1, atoms=(), sequences=(harmonic_seq(),))
        np.testing.assert_allclose(essential_spectrum_diag(t), [[0.0]])

    def test_limit_and_atom_merge(self):
        t = DiagonalTuple(
            d=1, atoms=(((0.0,), None),), sequences=(harmonic_seq(),)
        )
        assert essential_spectrum_diag(t).shape == (1, 1)

    def test_empty_when_all_finite(self):
        t = DiagonalTuple(d=1, atoms=(((2.0,), 3),), sequences=())
        assert essential_spectrum_diag(t).size == 0


class TestSwPerturbation:
    def test_harmonic_displacements(self):
        t = DiagonalTuple(d=1, atoms=(), sequences=(harmonic_seq(),))
        perturbed, report = sw_perturbation(t)
        assert perturbed.atoms == (((0.0,), None),)
        assert perturbed.sequences == ()
        np.testing.assert_allclose(report.displacements[:3], [1.0, 0.5, 1.0 / 3.0])
        tails = report.sup_tail_norm
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
        assert tails[-1] == pytest.approx(1.0 / 50.0)

    def test_already_essential_is_fixed(self):
        t = DiagonalTuple(d=1, atoms=(((2.0,), None),), sequences=())
        perturbed, report = sw_perturbation(t)
        assert perturbed.atoms == (((2.0,), None),)
        assert all(d == 0.0 for d in report.displacements)

    def test_snaps_to_nearest_essential_point(self):
        t = DiagonalTuple(
            d=1,
            atoms=(((10.0,), None), ((9.0,), 1)),
            sequences=(harmonic_seq(count=40),),
        )
        perturbed, report = sw_perturbation(t)
        pts = {a[0][0] for a in perturbed.atoms}
        assert pts == {0.0, 10.0}
        # the finite atom at 9 moves to 10, not to 0
        assert max(report.displacements) == pytest.approx(1.0)

    def test_empty_essential_raises(self):
        t = DiagonalTuple(d=1, atoms=(((1.0,), 2),), sequences=())
        with pytest.raises(EmptyEssentialSpectrum):
            sw_perturbation(t)


class TestTruncation:
    def test_repeats_infinite_atoms(self):
        t = DiagonalTuple(d=1, atoms=(((1.0,), None), ((0.0,), 1)), sequences=())
        trunc = finite_truncation(t, q=3)
        vals = sorted(np.diag(trunc.mats[0]).real)
        assert vals == [0.0, 1.0, 1.0, 1.0]

    def test_sequence_prefix_plus_limit(self):
        t = DiagonalTuple(d=1, atoms=(), sequences=(harmonic_seq(count=29),))
        trunc = finite_truncation(t, q=2)
        vals = np.diag(trunc.mats[0]).real
        assert trunc.n == 31
        assert 1.0 in vals and 0.5 in vals and 0.0 in vals

    def test_level_sets_grow_consistently(self):
        t = DiagonalTuple(d=1, atoms=(((1.0,), None),), sequences=())
        assert finite_truncation(t, q=2).n == 2
        assert finite_truncation(t, q=4).n == 4


class TestVerifyLocalSw:
    def test_harmonic_ranges_match(self):
        t = DiagonalTuple(d=1, atoms=(), sequences=(harmonic_seq(),))
        perturbed, _ = sw_perturbation(t)
        rep = verify_local_sw(t, perturbed)
        assert rep["equal"]
        assert rep["essential_points"] == 1

    def test_two_limits_match(self):
        t = DiagonalTuple(
            d=1,
            atoms=(),
            sequences=(harmonic_seq(count=40), harmonic_seq(count=40, limit=1.0)),
        )
        perturbed, _ = sw_perturbation(t)
        rep = verify_local_sw(t, perturbed)
        assert rep["equal"]
        assert rep["essential_points"] == 2

    def test_stray_point_breaks_equality(self):
        t = DiagonalTuple(d=1, atoms=(), sequences=(harmonic_seq(count=40),))
        claimed = DiagonalTuple(
            d=1, atoms=(((0.0,), None), ((5.0,), 1)), sequences=()
        )
        rep = verify_local_sw(t, claimed)
        assert not rep["equal"]
        assert rep["point_gap_truncation_in_essential"] == pytest.approx(5.0)


class TestDirectSumHelpers:
    def test_direct_sum_block_structure(self):
        t = OperatorTuple((X, Z), hermitian=True)
        s = OperatorTuple((Z, X), hermitian=True)
        total = direct_sum(t, s)
        assert total.n == 4
        np.testing.assert_allclose(total.mats[0][:2, :2], X)
        np.testing.assert_allclose(total.mats[0][2:, 2:], Z)
        np.testing.assert_allclose(total.mats[0][:2, 2:], 0.0)
