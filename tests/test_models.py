import numpy as np
import pytest

from mconvex.errors import EmptyEssentialSpectrum, NotCommuting, ReducibleCandidate
from mconvex.geometry import Polytope
from mconvex.linalg import (
    OperatorTuple,
    direct_sum,
    herm_part,
    random_hermitian,
    random_isometry,
    words_equivalent,
)
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
from mconvex.ranges import kmin_member

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

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-7, 1e-9, 1e-12])
    def test_a_non_commuting_pair_is_rejected_at_any_scale(self, scale):
        # an absolute commutator test accepted the pair at scale <= 1e-7,
        # with the joint spectrum {(+-scale, 0)}
        a = OperatorTuple((scale * X, scale * Z), hermitian=True)
        with pytest.raises(NotCommuting, match="entry 0 and .* entry 1 do not"):
            NormalTuple(a)

    def test_a_part_at_rounding_level_is_accepted(self):
        # the pair (Q diag(1, 2, 3) Q*, Q (2I) Q*), and the skew part of
        # Q diag(0, 1, 2) Q*: each is rounding noise, which over its own
        # size commuted with nothing
        q = random_isometry(3, 3, np.random.default_rng(1))
        a, b, c = (
            q @ np.diag(d) @ q.conj().T
            for d in ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.0, 1.0, 2.0])
        )
        pair = NormalTuple(OperatorTuple((a, b), hermitian=True))
        np.testing.assert_allclose(
            joint_spectrum(pair), [[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]], atol=1e-12
        )
        single = NormalTuple(OperatorTuple((c,), hermitian=False))
        np.testing.assert_allclose(
            joint_spectrum(single), [[0.0], [1.0], [2.0]], atol=1e-12
        )

    def test_a_conjugated_scalar_is_accepted(self):
        # both parts of Q (2I) Q* are rounding noise: each is floored at
        # the entry's size, not at the other's
        q = random_isometry(3, 3, np.random.default_rng(1))
        c = q @ (2.0 * np.eye(3)) @ q.conj().T
        single = NormalTuple(OperatorTuple((c,), hermitian=False))
        np.testing.assert_allclose(joint_spectrum(single), [[2.0]], atol=1e-12)

    def test_a_non_normal_entry_is_named(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotCommuting, match="of entry 0 and .* of entry 0 do"):
            NormalTuple(OperatorTuple((nilpotent,)))

    def test_a_large_commuting_pair_is_accepted(self):
        # conjugated diagonals at 1e6: the commutator is rounding, about
        # 2e-5 in absolute terms
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        diags = ([0.5, -0.2, 0.1], [0.1, 0.3, -0.4])
        mats = tuple(herm_part(1e6 * q @ np.diag(d) @ q.conj().T) for d in diags)
        t = NormalTuple(OperatorTuple(mats, hermitian=True))
        got = {tuple(np.round(p / 1e6, 8)) for p in joint_spectrum(t)}
        assert got == set(zip(*diags))

    @pytest.mark.parametrize("seed", range(6))
    def test_the_same_joint_spectrum_as_kmin(self, seed):
        # one commuting test and one joint eigenbasis serve both
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        q = random_isometry(n, n, rng)
        diags = np.round(rng.uniform(-0.6, 0.6, (2, n)), 1)
        a = OperatorTuple(
            tuple(q @ np.diag(d) @ q.conj().T for d in diags), hermitian=True
        )
        corners = [[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]
        cert = kmin_member(Polytope(np.array(corners)), a).certificate
        t = NormalTuple(a)
        assert t.column_values.tobytes() == cert.joint_points.tobytes()
        assert t.unitary.tobytes() == cert.unitary.tobytes()

    def test_a_diagonal_tuple_keeps_its_listed_order(self):
        # the identity basis, as kmin's certificate has it; the columns
        # were sorted by the first entry's eigenvalues
        a = diag_pair((2.0, 1.0), (0.0, -1.0), (1.0, 0.5))
        t = NormalTuple(a)
        assert t.unitary.tobytes() == np.eye(3, dtype=complex).tobytes()
        np.testing.assert_array_equal(
            t.column_values, [[2.0, 1.0], [0.0, -1.0], [1.0, 0.5]]
        )
        model = extreme_spectral_compression(t)
        assert model.projector_rank == 3
        for got, want in zip(model.compressed.mats, a.mats):
            np.testing.assert_array_equal(got, want)

    def test_derived_fields_are_not_constructor_arguments(self):
        # the basis, columns and points come from the base alone
        a = diag_pair((2.0, 1.0), (0.0, -1.0))
        for name in ("unitary", "column_values", "joint_points"):
            with pytest.raises(TypeError):
                NormalTuple(a, **{name: np.eye(2)})

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

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_candidates_with_conjugated_duplicates(self, seed):
        # each conjugate is dropped, and each candidate of one size that
        # is not a conjugate is kept; words_equivalent agrees on every pair
        rng = np.random.default_rng(seed)
        firsts = [
            OperatorTuple(tuple(random_hermitian(n, rng) for _ in range(2)), True)
            for n in (2, 2, 3)
        ]
        conjugates = [
            firsts[k].conjugated(random_isometry(firsts[k].n, firsts[k].n, rng))
            for k in (1, 2, 0, 2)
        ]
        candidates = firsts + conjugates
        classes = [0, 1, 2, 1, 2, 0, 2]
        model = block_diagonal_model(candidates)
        assert model.report["dropped_duplicates"] == [3, 4, 5, 6]
        assert all(s is c for s, c in zip(model.summands, firsts))
        for i, s in enumerate(candidates):
            for j, c in enumerate(candidates):
                if s.n == c.n:
                    assert words_equivalent(s, c) == (classes[i] == classes[j])

    @pytest.mark.parametrize("scale", [1e-9, 1e-15])
    def test_small_inequivalent_candidates_are_kept(self, scale):
        # the nullity cut was absolute below scale 1: both pairs counted
        # as reducible
        a = OperatorTuple((scale * X, scale * Z), hermitian=True)
        b = OperatorTuple((scale * X, 0.5 * scale * Z), hermitian=True)
        model = block_diagonal_model([a, b])
        assert len(model.summands) == 2
        assert model.report["dropped_duplicates"] == []

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
