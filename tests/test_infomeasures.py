import numpy as np
import pytest

from qcausal import (
    DensityMatrix,
    EmptyConditioner,
    InvalidInput,
    Ket,
    NumericalInstability,
    Partition,
    apply_instrument,
    JointDistribution,
    asymmetric_qcmi,
    basis_ket,
    ccmi_symmetric,
    ghz_state,
    mutual_information,
    mutual_information_sites,
    partial_trace,
    projective_z_instrument,
    symmetric_qcmi,
    von_neumann_entropy,
)
from qcausal.infomeasures import NEGATIVITY_TOL, _clamped, _clamped_values
from helpers import random_density, random_ket


class TestClampRule:
    def test_rounding_negatives_clamp_to_zero(self):
        values = np.array([0.25, -0.5 * NEGATIVITY_TOL, 0.0, -0.0, 1e-300])
        out = _clamped_values(values)
        assert np.array_equal(out, [0.25, 0.0, 0.0, 0.0, 1e-300])
        assert all(np.copysign(1.0, v) == 1.0 for v in out)
        for value, expected in zip(values, out):
            clamped = _clamped(float(value))
            assert type(clamped) is float and clamped == expected

    def test_one_negative_value_in_500_rejected(self):
        values = np.linspace(0.0, 1.0, 500)
        values[417] = -2 * NEGATIVITY_TOL
        with pytest.raises(NumericalInstability):
            _clamped_values(values)
        with pytest.raises(NumericalInstability):
            _clamped(-2 * NEGATIVITY_TOL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(NumericalInstability):
            _clamped(bad)
        values = np.linspace(0.0, 1.0, 500)
        values[9] = bad
        with pytest.raises(NumericalInstability):
            _clamped_values(values)


class TestPartition:
    def test_disjointness_enforced(self):
        with pytest.raises(InvalidInput):
            Partition((0,), (0,), (1,))

    def test_a_and_b_required(self):
        with pytest.raises(InvalidInput):
            Partition((), (1,), (2,))

    def test_c_is_required(self):
        with pytest.raises(TypeError):
            Partition((0,), (1,))
        assert Partition((0,), (3,), (1, 2)).sites == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "empty",
        [(), [], range(0), (s for s in ()), np.array([], dtype=int)],
        ids=["tuple", "list", "range", "generator", "array"],
    )
    def test_every_empty_c_raises_empty_conditioner(self, empty):
        with pytest.raises(EmptyConditioner, match="no intermediate sites") as caught:
            Partition((0,), (1,), empty)
        assert isinstance(caught.value, InvalidInput)

    @pytest.mark.parametrize(
        "c", [(3, 2), (2, 2), (-1,), (2.0,), (True,), ("2",)], ids=repr
    )
    def test_non_empty_c_follows_the_site_rule(self, c):
        with pytest.raises(InvalidInput):
            Partition((0,), (1,), c)

    def test_non_empty_c_is_stored_as_a_tuple_of_ints(self):
        for c in ([2, 3], range(2, 4), (s for s in (2, 3)), np.array([2, 3])):
            part = Partition((0,), (1,), c)
            assert part.c == (2, 3) and all(type(s) is int for s in part.c)


class TestMutualInformation:
    def test_pure_product_is_zero(self):
        rho = basis_ket([0, 0]).density_matrix()
        assert mutual_information(rho, 1) == 0.0

    def test_bell_pair_two_bits(self):
        bell = Ket(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert abs(mutual_information(bell.density_matrix(), 1) - 2.0) < 1e-9

    def test_product_marginals_additive(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            rho_b = random_density(1, rng)
            rho_c = random_density(2, rng)
            joint = DensityMatrix(3, np.kron(rho_b.matrix, rho_c.matrix))
            assert mutual_information(joint, 1) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_sites_variant_bit_for_bit(self, n):
        rng = np.random.default_rng(40 + n)
        for rho in (random_density(n, rng), random_ket(n, rng).density_matrix()):
            for split in range(1, n):
                want = mutual_information_sites(rho, range(split), range(split, n))
                assert mutual_information(rho, split) == want

    def test_split_point_validated(self):
        rho = ghz_state(2).density_matrix()
        with pytest.raises(InvalidInput):
            mutual_information(rho, 0)
        with pytest.raises(InvalidInput):
            mutual_information(rho, 2)

    @pytest.mark.parametrize(
        "b, c", [((0,), (0,)), ((0, 1), (1, 2)), ((), (1,)), ((0,), ())],
        ids=["same", "overlap", "empty-b", "empty-c"],
    )
    def test_sites_variant_refuses_overlapping_or_empty_sets(self, b, c):
        with pytest.raises(InvalidInput):
            mutual_information_sites(ghz_state(3).density_matrix(), b, c)

    def test_sites_variant_handles_interleaved_blocks(self):
        # B = {2}, C = {0, 1}: same value as the contiguous layout.
        rng = np.random.default_rng(42)
        rho = random_ket(3, rng).density_matrix()
        direct = mutual_information_sites(rho, (2,), (0, 1))
        s_b = von_neumann_entropy(partial_trace(rho, (2,)))
        s_c = von_neumann_entropy(partial_trace(rho, (0, 1)))
        assert abs(direct - (s_b + s_c - von_neumann_entropy(rho))) < 1e-10


class TestSymmetricQcmi:
    def test_ghz_is_one_bit(self):
        rho = ghz_state(3).density_matrix()
        value = symmetric_qcmi(rho, Partition((0,), (1,), (2,)))
        assert abs(value - 1.0) < 1e-9

    def test_full_product_is_zero(self):
        rng = np.random.default_rng(43)
        mats = [random_density(1, rng).matrix for _ in range(3)]
        rho = DensityMatrix(3, np.kron(np.kron(mats[0], mats[1]), mats[2]))
        assert symmetric_qcmi(rho, Partition((0,), (1,), (2,))) <= 1e-9

    def test_pure_state_purity_oracle(self):
        # For globally pure states S(AC) = S(B) and S(C) = S(AB), giving an
        # independent route to the same number.
        rng = np.random.default_rng(44)
        for _ in range(5):
            rho = random_ket(3, rng).density_matrix()
            value = symmetric_qcmi(rho, Partition((0,), (1,), (2,)))
            s_b = von_neumann_entropy(partial_trace(rho, (1,)))
            s_a = von_neumann_entropy(partial_trace(rho, (0,)))
            s_ab = von_neumann_entropy(partial_trace(rho, (0, 1)))
            oracle = s_b + s_a - s_ab
            assert abs(value - oracle) < 1e-9

    def test_strong_subadditivity_on_random_states(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            rho = random_density(3, rng)
            assert symmetric_qcmi(rho, Partition((0,), (1,), (2,))) >= -1e-9

    def test_swapping_a_and_b_is_exact(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            rho = random_density(3, rng)
            forward = symmetric_qcmi(rho, Partition((0,), (1,), (2,)))
            backward = symmetric_qcmi(rho, Partition((1,), (0,), (2,)))
            assert forward == backward

    def test_empty_c_rejected(self):
        # The partition itself refuses an empty C, before the measure is called.
        rho = ghz_state(2).density_matrix()
        with pytest.raises(EmptyConditioner):
            symmetric_qcmi(rho, Partition((0,), (1,), ()))

    def test_partition_outside_register_rejected(self):
        rho = ghz_state(2).density_matrix()
        with pytest.raises(InvalidInput):
            symmetric_qcmi(rho, Partition((0,), (1,), (5,)))


class TestAsymmetricQcmi:
    def test_ghz_vanishes_after_measurement(self):
        rho = ghz_state(3).density_matrix()
        value = asymmetric_qcmi(rho, Partition((0,), (1,), (2,)), projective_z_instrument(0, 3))
        assert abs(value) < 1e-9

    def test_ghz_contrast_with_symmetric(self):
        rho = ghz_state(3).density_matrix()
        part = Partition((0,), (1,), (2,))
        sym = symmetric_qcmi(rho, part)
        asym = asymmetric_qcmi(rho, part, projective_z_instrument(0, 3))
        assert abs(sym - 1.0) < 1e-9 and abs(asym) < 1e-9

    def test_product_over_a_reduces_to_plain_mi(self):
        rng = np.random.default_rng(47)
        rho_a = random_density(1, rng)
        rho_bc = random_density(2, rng)
        rho = DensityMatrix(3, np.kron(rho_a.matrix, rho_bc.matrix))
        value = asymmetric_qcmi(rho, Partition((0,), (1,), (2,)), projective_z_instrument(0, 3))
        assert abs(value - mutual_information(rho_bc, 1)) < 1e-9

    def test_product_chain_start_is_zero(self):
        rho = basis_ket([1, 0, 0, 0]).density_matrix()
        value = asymmetric_qcmi(
            rho, Partition((0,), (3,), (1, 2)), projective_z_instrument(0, 4)
        )
        assert value <= 1e-10

    def test_nonnegative_and_bounded_by_best_branch(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            rho = random_density(3, rng)
            instr = projective_z_instrument(0, 3)
            value = asymmetric_qcmi(rho, Partition((0,), (1,), (2,)), instr)
            assert value >= -1e-9
            branch_mis = [
                mutual_information_sites(b.state, (0,), (1,))
                for b in apply_instrument(rho, instr)
            ]
            assert value <= max(branch_mis) + 1e-9

    def test_is_the_weighted_branch_sum_bit_for_bit(self):
        rng = np.random.default_rng(49)
        instr = projective_z_instrument(0, 4)
        for _ in range(10):
            rho = random_density(4, rng)
            total = 0.0
            for branch in apply_instrument(rho, instr):
                total += branch.probability * mutual_information_sites(branch.state, (2,), (0,))
            assert asymmetric_qcmi(rho, Partition((0,), (3,), (1,)), instr) == total

    def test_instrument_target_must_match_a(self):
        rho = ghz_state(3).density_matrix()
        with pytest.raises(InvalidInput):
            asymmetric_qcmi(rho, Partition((0,), (1,), (2,)), projective_z_instrument(1, 3))

    def test_empty_c_raises_empty_conditioner(self):
        instr = projective_z_instrument(0, 3)
        for b, c in (((1,), ()), ((2,), [])):
            with pytest.raises(EmptyConditioner):
                asymmetric_qcmi(ghz_state(3).density_matrix(), Partition((0,), b, c), instr)


class TestClassicalLimit:
    """On a z-diagonal state, a probability table over bit strings, a
    projective-z measurement of A leaves classical branches: the asymmetric
    index is the classical I(B:C|A) of the table, the symmetric one I(A:B|C)."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_both_indices_are_the_classical_cmi(self, n):
        rng = np.random.default_rng(190 + n)
        names = [f"s{site}" for site in range(n)]
        for _ in range(15):
            p = rng.uniform(1e-6, 1.0, size=2**n)  # every entry above EIG_CLAMP
            p /= p.sum()
            rho = DensityMatrix(n, np.diag(p))
            dist = JointDistribution(names, p.reshape((2,) * n))  # axis k: site k
            a, b, *rest = (int(site) for site in rng.permutation(n))
            c = sorted(rest[: rng.integers(1, len(rest) + 1)])
            partition = Partition((a,), (b,), c)
            sa, sb, sc = [names[a]], [names[b]], [names[site] for site in c]
            asymmetric = asymmetric_qcmi(rho, partition, projective_z_instrument(a, n))
            assert abs(asymmetric - ccmi_symmetric(dist, sb, sc, sa)) <= 1e-12
            assert abs(symmetric_qcmi(rho, partition) - ccmi_symmetric(dist, sa, sb, sc)) <= 1e-12
