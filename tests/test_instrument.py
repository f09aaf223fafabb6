import numpy as np
import pytest

from qcausal import (
    Branch,
    DegenerateMeasurement,
    DensityMatrix,
    IncompleteInstrument,
    Instrument,
    InvalidInput,
    Ket,
    apply_instrument,
    basis_ket,
    embed_operator,
    ghz_state,
    projective_z_instrument,
    validate_instrument,
)
from qcausal import instrument
from helpers import (
    brute_apply_instrument,
    brute_embed,
    random_density,
    random_ket,
    random_unitary,
)


class TestProjectiveZ:
    def test_completeness_exact(self):
        instr = projective_z_instrument(0, 3)
        assert validate_instrument(instr) == 0.0

    def test_plus_state_is_unbiased(self):
        plus = Ket(1, np.array([1, 1]) / np.sqrt(2))
        ensemble = apply_instrument_on_single_site(plus)
        assert np.allclose(ensemble, [0.5, 0.5])

    def test_ghz_outcomes_are_even(self):
        rho = ghz_state(3).density_matrix()
        branches = apply_instrument(rho, projective_z_instrument(0, 3))
        assert type(branches) is tuple and all(type(b) is Branch for b in branches)
        assert np.allclose([b.probability for b in branches], [0.5, 0.5], atol=1e-12)

    def test_site_out_of_range(self):
        with pytest.raises(InvalidInput):
            projective_z_instrument(3, 3)


def apply_instrument_on_single_site(ket):
    # Single-qubit register: measure the only site, read off probabilities.
    rho = ket.density_matrix()
    instr = projective_z_instrument(0, 1)
    probs = []
    for op in instr.operators:
        probs.append(float(np.real(np.trace(op @ rho.matrix @ op.conj().T))))
    return probs


class TestValidateInstrument:
    def test_missing_outcome_defect_one(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        instr = Instrument((0,), (p0,))
        assert abs(validate_instrument(instr) - 1.0) < 1e-12

    def test_rotated_projective_basis_complete(self):
        rng = np.random.default_rng(31)
        u = random_unitary(2, rng)
        ops = tuple(np.outer(u[:, x], u[:, x].conj()) for x in range(2))
        instr = Instrument((0,), ops)
        assert validate_instrument(instr) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            Instrument((0,), (np.eye(2), np.eye(4)))


class TestApplyInstrument:
    def test_ghz_branches_are_basis_states(self):
        rho = ghz_state(3).density_matrix()
        ensemble = apply_instrument(rho, projective_z_instrument(0, 3))
        expected = {0: basis_ket([0, 0]), 1: basis_ket([1, 1])}
        for branch in ensemble:
            assert abs(branch.probability - 0.5) < 1e-12
            target = expected[branch.label].density_matrix()
            assert np.max(np.abs(branch.state.matrix - target.matrix)) < 1e-12

    def test_product_state_branches_equal_remainder(self):
        rng = np.random.default_rng(32)
        rho_a = random_density(1, rng)
        rho_bc = random_density(2, rng)
        rho = DensityMatrix(3, np.kron(rho_a.matrix, rho_bc.matrix))
        ensemble = apply_instrument(rho, projective_z_instrument(0, 3))
        for branch in ensemble:
            assert np.max(np.abs(branch.state.matrix - rho_bc.matrix)) < 1e-10

    def test_matches_kronecker_oracle_on_random_states(self):
        rng = np.random.default_rng(33)
        for site in range(3):
            rho = random_ket(3, rng).density_matrix()
            instr = projective_z_instrument(site, 3)
            ensemble = apply_instrument(rho, instr)
            oracle = brute_apply_instrument(rho.matrix, 3, (site,), instr.operators)
            assert abs(sum(b.probability for b in ensemble) - 1.0) <= 1e-10
            for branch in ensemble:
                p_ref, state_ref = oracle[branch.label]
                assert abs(branch.probability - p_ref) < 1e-10
                assert np.max(np.abs(branch.state.matrix - state_ref)) < 1e-10

    def test_unconditional_state_consistency(self):
        # sum_x p_x rho^x must equal the instrument-averaged reduced state.
        rng = np.random.default_rng(34)
        rho = random_density(3, rng)
        instr = projective_z_instrument(1, 3)
        ensemble = apply_instrument(rho, instr)
        averaged = sum(b.probability * b.state.matrix for b in ensemble)
        oracle = brute_apply_instrument(rho.matrix, 3, (1,), instr.operators)
        unconditional = sum(p * state for p, state in oracle)
        assert np.max(np.abs(averaged - unconditional)) <= 1e-10

    def test_projective_branches_are_fixed_points(self):
        rng = np.random.default_rng(35)
        rho = random_density(2, rng)
        instr = projective_z_instrument(0, 2)
        first = apply_instrument(rho, instr)
        for branch in first:
            # The post-measurement state on the full register: P_x rho P_x / p_x.
            projector = embed_operator(instr.operators[branch.label], 0, 2)
            hit = projector @ rho.matrix @ projector
            (again,) = apply_instrument(DensityMatrix(2, hit / np.trace(hit).real), instr)
            assert again.label == branch.label
            assert abs(again.probability - 1.0) <= 1e-10
            assert np.max(np.abs(again.state.matrix - branch.state.matrix)) <= 1e-10

    def test_imaginary_trace_dust_within_the_state_tolerance_is_no_error(self):
        # 5e-11 i on two diagonal entries: a hermiticity defect of 1e-10, which
        # the state passes, and an imaginary trace of 1e-10 in outcome 0.
        rho = DensityMatrix(2, np.eye(4) / 4 + 5e-11j * np.diag([1.0, 1.0, 0.0, 0.0]))
        branches = apply_instrument(rho, projective_z_instrument(0, 2))
        assert [b.probability for b in branches] == [0.5, 0.5]
        assert all(np.array_equal(b.state.matrix, np.eye(2) / 2) for b in branches)

    def test_branch_dust_is_not_grown_by_a_small_probability(self):
        # Dust of 4e-11 passes as input; over p = 0.01 it would be 100 times more.
        matrix = np.diag([0.495, 0.495, 0.005, 0.005]).astype(complex)
        matrix[2, 3] = matrix[3, 2] = 4e-11j
        branches = apply_instrument(DensityMatrix(2, matrix), projective_z_instrument(0, 2))
        assert [b.label for b in branches] == [0, 1]
        assert abs(branches[1].probability - 0.01) <= 1e-15
        for branch in branches:
            assert np.max(np.abs(branch.state.matrix - np.eye(2) / 2)) <= 1e-15

    def test_a_rare_outcome_in_a_rotated_basis_is_no_error(self):
        # Outcome 0's entries are sums of terms near 1/2 that cancel to about
        # 1e-10, so their rounding dust over p is far above HERMITICITY_TOL.
        rng = np.random.default_rng(61)
        for _ in range(20):
            basis = random_unitary(2, rng)
            rare, common = (np.outer(v, v.conj()) for v in basis.T)
            rho = DensityMatrix(3, (1 - 1e-10) * np.kron(common, random_density(2, rng).matrix)
                                + 1e-10 * np.kron(rare, random_density(2, rng).matrix))
            branches = apply_instrument(rho, Instrument((0,), (rare, common)))
            assert [b.label for b in branches] == [0, 1]
            assert abs(branches[0].probability - 1e-10) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_projective_branches_are_diagonal_blocks_bit_for_bit(self, n):
        # Site 0 is the top bit: outcome x keeps the x-th diagonal block, over its trace.
        rho = random_density(n, np.random.default_rng(60 + n))
        half = 2 ** (n - 1)
        for branch in apply_instrument(rho, projective_z_instrument(0, n)):
            block = rho.matrix[branch.label * half:, branch.label * half:][:half, :half]
            assert np.array_equal(branch.state.matrix, block / np.trace(block).real)

    def test_incomplete_instrument_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        broken = Instrument((0,), (p0,))
        rho = ghz_state(2).density_matrix()
        with pytest.raises(IncompleteInstrument):
            apply_instrument(rho, broken)

    def test_nan_operator_fails_completeness(self):
        broken = Instrument((0,), (np.diag([1.0, np.nan]), np.diag([0.0, 1.0])))
        with pytest.raises(IncompleteInstrument):
            apply_instrument(ghz_state(2).density_matrix(), broken)

    def test_impossible_outcome_dropped(self):
        rho = basis_ket([0, 0]).density_matrix()
        (branch,) = apply_instrument(rho, projective_z_instrument(0, 2))
        assert branch.label == 0
        assert abs(branch.probability - 1.0) < 1e-12

    def test_all_outcomes_below_floor_rejected(self, monkeypatch):
        rho = basis_ket([0, 1]).density_matrix()
        instr = projective_z_instrument(0, 2)
        ensemble = apply_instrument(rho, instr)
        assert len(ensemble) == 1
        monkeypatch.setattr(instrument, "PROBABILITY_FLOOR", 1.5)
        with pytest.raises(DegenerateMeasurement):
            apply_instrument(rho, instr)

    def test_non_positive_state_can_leave_every_outcome_below_floor(self):
        # The floor check is reachable at the real PROBABILITY_FLOOR. M1 is the
        # PSD square root of F1 = u u^T, u = (1e-10, 1), so the instrument's
        # completeness defect is 1e-10, within COMPLETENESS_TOL. The state is
        # Hermitian with trace 1 but not positive, and its 1e11 coherences turn
        # that defect into outcome weights of -1 and about -18.
        u = np.array([1e-10, 1.0])
        instr = Instrument((0,), (np.diag([1.0, 0.0]), np.outer(u, u) / np.linalg.norm(u)))
        assert validate_instrument(instr) <= instrument.COMPLETENESS_TOL
        block = np.array([[-1.0, -1e11], [-1e11, 2.0]])
        rho = DensityMatrix(2, np.kron(block, np.diag([1.0, 0.0])))
        with pytest.raises(DegenerateMeasurement):
            apply_instrument(rho, instr)

    def test_whole_register_target_rejected(self):
        rho = basis_ket([0]).density_matrix()
        with pytest.raises(InvalidInput):
            apply_instrument(rho, projective_z_instrument(0, 1))

    def test_target_outside_register_rejected(self):
        rho = ghz_state(2).density_matrix()
        with pytest.raises(InvalidInput):
            apply_instrument(rho, projective_z_instrument(2, 3))


class TestMultiSiteTarget:
    def test_two_site_projective_instrument(self):
        # Projectors onto the four two-site basis states, applied to GHZ(3)
        # sites {0,1}: only |00> and |11> survive.
        ops = tuple(np.diag([1.0 if i == x else 0.0 for i in range(4)]).astype(complex)
                    for x in range(4))
        instr = Instrument((0, 1), ops)
        rho = ghz_state(3).density_matrix()
        ensemble = apply_instrument(rho, instr)
        assert [b.label for b in ensemble] == [0, 3]
        assert np.allclose([b.probability for b in ensemble], [0.5, 0.5], atol=1e-12)
        for branch, bit in zip(ensemble, (0, 1)):
            assert np.max(np.abs(branch.state.matrix - basis_ket([bit]).density_matrix().matrix)) < 1e-12

    def test_bit_built_embedding_matches_kronecker_on_one_site(self):
        rng = np.random.default_rng(36)
        op = random_unitary(2, rng)
        for site in range(3):
            kron = np.kron(np.kron(np.eye(2**site), op), np.eye(2 ** (2 - site)))
            assert np.array_equal(brute_embed(op, 3, (site,)), kron)

    @pytest.mark.parametrize("n, targets", [(3, (0, 2)), (4, (1, 3)), (5, (0, 3))])
    def test_kraus_sets_on_separated_sites_match_bit_built_oracle(self, n, targets):
        # Three blocks of a random isometry: sum M^dagger M = 1, yet no
        # M^dagger M equals M, so only the effect M^dagger M gives these branches.
        rng = np.random.default_rng(37 + n)
        dim = 2 ** len(targets)
        ops = random_unitary(3 * dim, rng)[:, :dim].reshape(3, dim, dim)
        assert all(np.max(np.abs(op.conj().T @ op - op)) > 0.1 for op in ops)
        instr = Instrument(targets, tuple(ops))
        for rho in (random_density(n, rng), random_ket(n, rng).density_matrix()):
            ensemble = apply_instrument(rho, instr)
            oracle = brute_apply_instrument(rho.matrix, n, targets, ops)
            assert [b.label for b in ensemble] == [0, 1, 2]
            for branch in ensemble:
                p_ref, state_ref = oracle[branch.label]
                assert abs(branch.probability - p_ref) <= 1e-10
                assert np.max(np.abs(branch.state.matrix - state_ref)) <= 1e-10
