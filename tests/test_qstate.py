import numpy as np
import pytest

from qcausal import (
    DensityMatrix,
    Instrument,
    InvalidInput,
    Ket,
    NotPositiveSemidefinite,
    PAULI_X,
    PAULI_Z,
    Partition,
    basis_ket,
    embed_on_sites,
    embed_operator,
    ghz_state,
    mutual_information_sites,
    partial_trace,
    symmetric_qcmi,
    validate_density_matrix,
    von_neumann_entropy,
)
from qcausal.qstate import (
    EIG_CLAMP,
    EIG_NEGATIVE_LIMIT,
    check_sites,
    entropies_from_eigenvalues,
)
from helpers import (
    brute_partial_trace,
    matrix_log_entropy,
    random_density,
    random_ket,
    random_unitary,
)


class TestBasisKet:
    def test_bit_order_site0_most_significant(self):
        ket = basis_ket([1, 0, 0, 0])
        assert ket.amplitudes[8] == 1.0
        assert np.count_nonzero(ket.amplitudes) == 1

    def test_single_site(self):
        assert basis_ket([0]).amplitudes[0] == 1.0

    def test_all_ones(self):
        assert basis_ket([1, 1]).amplitudes[3] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            basis_ket([])

    def test_non_bit_rejected(self):
        with pytest.raises(InvalidInput):
            basis_ket([0, 2])


class TestGhzState:
    def test_three_qubit_amplitudes(self):
        ket = ghz_state(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(ket.amplitudes, expected)

    def test_two_qubit_normalized(self):
        assert abs(np.linalg.norm(ghz_state(2).amplitudes) - 1) < 1e-12

    def test_single_site_marginals_maximally_mixed(self):
        # Oracle: brute-force index-summation partial trace.
        rho = ghz_state(3).density_matrix()
        for site in range(3):
            reduced = brute_partial_trace(rho.matrix, 3, [site])
            assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)
            marginal = partial_trace(rho, (site,))
            assert abs(von_neumann_entropy(marginal) - 1.0) < 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInput):
            ghz_state(1)


class TestEmbedOperator:
    def test_identity_any_site(self):
        assert np.allclose(embed_operator(np.eye(2), 1, 3), np.eye(8))

    def test_sigma_z_site0(self):
        assert np.allclose(embed_operator(PAULI_Z, 0, 2), np.diag([1, 1, -1, -1]))

    def test_sigma_x_site1_flips_last_bit(self):
        psi = basis_ket([0, 0]).amplitudes
        assert np.allclose(embed_operator(PAULI_X, 1, 2) @ psi, basis_ket([0, 1]).amplitudes)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            embed_operator(PAULI_X, 3, 3)

    def test_embed_on_sites_matches_single_site(self):
        rng = np.random.default_rng(7)
        op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for site in range(4):
            assert np.allclose(embed_on_sites(op, (site,), 4), embed_operator(op, site, 4))

    def test_embed_on_sites_nonadjacent_pair(self):
        # zz on sites {0, 2} of a 3-site chain, checked against a direct kron.
        zz = np.kron(PAULI_Z, PAULI_Z)
        embedded = embed_on_sites(zz, (0, 2), 3)
        direct = np.kron(np.kron(PAULI_Z, np.eye(2)), PAULI_Z)
        assert np.allclose(embedded, direct, atol=1e-14)


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        bell = Ket(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell.density_matrix(), (0,))
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(3)
        sigma = random_density(1, rng)
        rho = DensityMatrix(2, np.kron(np.diag([1.0, 0.0]), sigma.matrix))
        assert np.allclose(partial_trace(rho, (1,)).matrix, sigma.matrix, atol=1e-12)

    def test_ghz_pair_marginal(self):
        rho = ghz_state(3).density_matrix()
        reduced = partial_trace(rho, (1, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_whole_register_returns_the_state_without_a_copy(self):
        # mutual_information reduces to the whole register on every call.
        rho = random_density(3, np.random.default_rng(4))
        assert partial_trace(rho, (0, 1, 2)) is rho

    def test_empty_keep_rejected(self):
        rho = ghz_state(2).density_matrix()
        with pytest.raises(InvalidInput):
            partial_trace(rho, ())

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_matches_index_summation_oracle(self, n_sites):
        rng = np.random.default_rng(100 + n_sites)
        for _ in range(5):
            rho = random_density(n_sites, rng)
            keep = sorted(rng.choice(n_sites, size=rng.integers(1, n_sites + 1), replace=False))
            ours = partial_trace(rho, keep).matrix
            oracle = brute_partial_trace(rho.matrix, n_sites, keep)
            assert np.max(np.abs(ours - oracle)) <= 1e-12

    @pytest.mark.parametrize("n_sites", [2, 4, 6])
    def test_preserves_trace_and_validity(self, n_sites):
        rng = np.random.default_rng(200 + n_sites)
        for _ in range(10):
            rho = random_density(n_sites, rng)
            keep = sorted(rng.choice(n_sites, size=rng.integers(1, n_sites + 1), replace=False))
            reduced = partial_trace(rho, keep)
            assert abs(np.trace(reduced.matrix) - 1) < 1e-10
            report = validate_density_matrix(reduced.matrix)
            assert report.passed


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(ghz_state(3).density_matrix()) < 1e-9

    def test_maximally_mixed_one_bit(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_hand_computed_spectrum(self):
        rho = DensityMatrix(2, np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
        assert abs(von_neumann_entropy(rho) - 1.5) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density(2, rng)
            u = random_unitary(4, rng)
            rotated = DensityMatrix(2, u @ rho.matrix @ u.conj().T)
            assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-9

    def test_additivity_on_products(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = random_density(1, rng)
            b = random_density(2, rng)
            joint = DensityMatrix(3, np.kron(a.matrix, b.matrix))
            total = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(von_neumann_entropy(joint) - total) < 1e-9

    def test_matches_matrix_log_oracle(self):
        rng = np.random.default_rng(13)
        for n_sites in (1, 2, 3):
            rho = random_density(n_sites, rng)
            assert abs(von_neumann_entropy(rho) - matrix_log_entropy(rho.matrix)) <= 1e-8

    def test_bounded_by_site_count(self):
        rng = np.random.default_rng(14)
        for n_sites in (1, 2, 3, 4):
            for _ in range(5):
                s = von_neumann_entropy(random_density(n_sites, rng))
                assert 0.0 <= s <= n_sites

    def test_genuinely_negative_eigenvalue_rejected(self):
        mat = np.diag([1.1, -0.1]).astype(complex)
        rho = DensityMatrix.__new__(DensityMatrix)
        object.__setattr__(rho, "n_sites", 1)
        object.__setattr__(rho, "matrix", mat)
        with pytest.raises(NotPositiveSemidefinite):
            von_neumann_entropy(rho)


def loop_entropy(lam):
    """Filter-then-sum form of the entropy rule, one spectrum at a time."""
    kept = np.asarray(lam)[np.asarray(lam) > EIG_CLAMP]
    value = float(-np.sum(kept * np.log2(kept))) if kept.size else 0.0
    return max(value, 0.0)


def random_spectra(rows, size, rng):
    """Probability spectra with clamped entries, pure rows and all-zero rows."""
    spectra = rng.dirichlet(np.full(size, 0.7), size=rows)
    spectra[rng.random((rows, size)) < 0.2] = 0.0
    spectra[rng.random((rows, size)) < 0.1] = EIG_CLAMP
    spectra[rng.random((rows, size)) < 0.1] = -0.5 * abs(EIG_NEGATIVE_LIMIT)
    spectra[::7] = np.eye(size)[0]
    spectra[3::11] = 0.0
    return spectra


class TestBatchedEntropy:
    def test_rows_match_scalar_and_loop_forms(self):
        rng = np.random.default_rng(21)
        for size in (1, 2, 4, 16):
            spectra = random_spectra(500, size, rng)
            batched = entropies_from_eigenvalues(spectra)
            assert batched.shape == (500,)
            for row, value in zip(spectra, batched):
                assert abs(value - float(entropies_from_eigenvalues(row))) <= 1e-15
                assert abs(value - loop_entropy(row)) <= 1e-15
            assert np.all(batched[3::11] == 0.0)

    def test_runs_equal_their_own_calls(self):
        # Runs of 1 to 33 eigenvalues side by side, one sum each, bit for bit
        # as each run alone; a 1-d spectrum too. 7 and 8 sit either side of
        # the length where np.sum stops adding in order; 33 is the longest run.
        rng = np.random.default_rng(24)
        sizes = [1, 2, 9, 1, 16, 3, 7, 8, 33]
        spectra = np.concatenate([random_spectra(200, size, rng) for size in sizes], axis=1)
        starts = np.cumsum([0] + sizes[:-1])
        grouped = entropies_from_eigenvalues(spectra, starts)
        assert grouped.shape == (200, len(sizes))
        for k, run in enumerate(np.split(spectra, starts[1:], axis=1)):
            assert np.array_equal(grouped[:, k], entropies_from_eigenvalues(run))
            assert np.array_equal(
                entropies_from_eigenvalues(spectra[5], starts)[k],
                entropies_from_eigenvalues(run[5]),
            )

    def test_one_negative_run_rejects_every_run(self):
        spectra = random_spectra(50, 4, np.random.default_rng(25))
        spectra[17, 3] = 2 * EIG_NEGATIVE_LIMIT
        with pytest.raises(NotPositiveSemidefinite):
            entropies_from_eigenvalues(spectra, np.array([0, 3]))

    def test_scalar_form_returns_a_float(self):
        assert type(von_neumann_entropy(DensityMatrix(1, np.eye(2) / 2))) is float

    def test_one_negative_row_in_500_rejected(self):
        spectra = random_spectra(500, 4, np.random.default_rng(22))
        spectra[317, 2] = 2 * EIG_NEGATIVE_LIMIT
        with pytest.raises(NotPositiveSemidefinite):
            entropies_from_eigenvalues(spectra)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalues_rejected(self, bad):
        with pytest.raises(NotPositiveSemidefinite):
            entropies_from_eigenvalues([bad, 0.5, 0.5])
        spectra = random_spectra(500, 4, np.random.default_rng(23))
        spectra[123, 1] = bad
        with pytest.raises(NotPositiveSemidefinite):
            entropies_from_eigenvalues(spectra)


class TestValidateDensityMatrix:
    def test_maximally_mixed_passes(self):
        report = validate_density_matrix(np.eye(2) / 2)
        assert report.passed
        assert report.hermiticity_defect == 0.0
        assert report.trace_defect == 0.0

    def test_wrong_trace_flagged(self):
        report = validate_density_matrix(np.diag([0.5, 0.4]).astype(complex))
        assert not report.trace_ok
        assert abs(report.trace_defect - 0.1) < 1e-12
        assert report.hermitian_ok

    def test_random_psd_construction_passes(self):
        rng = np.random.default_rng(15)
        report = validate_density_matrix(random_density(3, rng).matrix)
        assert report.passed
        assert report.min_eigenvalue >= -1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidInput):
            validate_density_matrix(np.eye(3) / 3)

    @pytest.mark.parametrize("mat", [[[np.nan, 0.0], [0.0, 1.0]], [[0.5, np.nan], [np.nan, 0.5]]])
    def test_nan_entry_fails_positivity(self, mat):
        report = validate_density_matrix(np.array(mat))
        assert np.isnan(report.min_eigenvalue)
        assert not report.positive_ok
        assert not report.passed


class TestConstructionGuards:
    def test_ket_norm_enforced(self):
        with pytest.raises(InvalidInput):
            Ket(1, np.array([1.0, 1.0]))

    def test_density_trace_enforced(self):
        with pytest.raises(InvalidInput):
            DensityMatrix(1, np.eye(2))

    def test_density_hermiticity_enforced(self):
        with pytest.raises(InvalidInput):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_ket_with_nan_rejected(self):
        with pytest.raises(InvalidInput):
            Ket(1, np.array([np.nan, 0.0]))

    def test_density_with_nan_rejected(self):
        for mat in ([[np.nan, 0.0], [0.0, 1.0]], [[0.5, np.nan], [np.nan, 0.5]]):
            with pytest.raises(InvalidInput):
                DensityMatrix(1, np.array(mat))

    def test_site_cap_enforced(self):
        with pytest.raises(InvalidInput):
            basis_ket([0] * 13)

    def test_arrays_are_readonly(self):
        ket = ghz_state(2)
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 0.0


def dusty_mixed_state(n_sites, dust):
    """I / 2^n plus `dust` * i on every entry pair that differs in site 0: the
    input's hermiticity defect is 2 * dust, and a partial trace onto site 0
    would sum 2^(n-1) such entries into each off-diagonal."""
    dim = 2**n_sites
    rows, cols = np.indices((dim, dim))
    top = n_sites - 1
    matrix = np.eye(dim, dtype=complex) / dim
    matrix[(rows >> top & 1) != (cols >> top & 1)] += dust * 1j
    return matrix


class TestStatesAreJudgedOnEntry:
    """A state holds its input's Hermitian part, so the states derived from it
    pass the checks its input passed, and are not judged against them again."""

    @pytest.mark.parametrize("n_sites", [1, 3, 6])
    def test_exactly_hermitian_input_is_stored_bit_for_bit(self, n_sites):
        matrix = random_density(n_sites, np.random.default_rng(20 + n_sites)).matrix
        matrix = 0.5 * (matrix + matrix.conj().T)  # exactly Hermitian whatever the matmul gave
        assert np.array_equal(matrix, matrix.conj().T)
        assert np.array_equal(DensityMatrix(n_sites, matrix).matrix, matrix)

    def test_the_state_holds_its_inputs_hermitian_part(self):
        matrix = dusty_mixed_state(2, 4e-11)
        rho = DensityMatrix(2, matrix)
        assert np.array_equal(rho.matrix, 0.5 * (matrix + matrix.conj().T))
        assert np.array_equal(rho.matrix, np.eye(4) / 4)
        assert rho.matrix.flags.c_contiguous and not rho.matrix.flags.writeable

    @pytest.mark.parametrize("n_sites", range(2, 10))
    def test_partial_traces_of_a_state_are_exactly_hermitian(self, n_sites):
        rng = np.random.default_rng(40 + n_sites)
        rho = random_density(n_sites, rng)
        for keep in ((0,), (n_sites - 1,), tuple(range(1, n_sites)), (0, n_sites - 1)):
            reduced = partial_trace(rho, keep).matrix
            assert np.array_equal(reduced, reduced.conj().T)

    def test_input_dust_does_not_add_up_in_a_partial_trace(self):
        rho = DensityMatrix(6, dusty_mixed_state(6, 4e-11))
        assert np.array_equal(partial_trace(rho, (0,)).matrix, np.eye(2) / 2)
        assert symmetric_qcmi(rho, Partition((0,), (2,), (1,))) == 0.0

    def test_a_ket_within_its_norm_tolerance_has_a_density_matrix(self):
        # The norm is within NORM_TOL of 1, its square not within TRACE_TOL.
        ket = Ket(1, [np.sqrt(1 + 1.8e-10), 0.0])
        assert np.array_equal(ket.density_matrix().matrix, np.diag([1.0, 0.0]))

    def test_a_kets_density_matrix_projects_onto_the_normalized_ket(self):
        ket = Ket(3, random_ket(3, np.random.default_rng(9)).amplitudes * (1 + 4e-11))
        matrix = ket.density_matrix().matrix
        assert abs(np.trace(matrix) - 1.0) <= 1e-15
        assert np.allclose(matrix @ ket.amplitudes, ket.amplitudes, atol=1e-14)


class TestCheckSites:
    def test_bounded_and_unbounded(self):
        assert check_sites([1, 3], 4) == (1, 3)
        assert check_sites([1, 30]) == (1, 30)
        with pytest.raises(InvalidInput):
            check_sites([1, 4], 4)

    def test_empty_site_set_is_refused(self):
        # Every site set is non-empty; an empty C is refused by `Partition`.
        with pytest.raises(InvalidInput):
            check_sites([], 4)

    @pytest.mark.parametrize("sites", [(-1,), (2, 1), (1, 1)])
    def test_bad_sets_rejected_by_every_caller(self, sites):
        with pytest.raises(InvalidInput):
            check_sites(sites)
        with pytest.raises(InvalidInput):
            Partition(sites, (5,), (6,))
        with pytest.raises(InvalidInput):
            Instrument(sites, (np.eye(2 ** len(sites)),))
        with pytest.raises(InvalidInput):
            mutual_information_sites(ghz_state(3).density_matrix(), sites, (0,))

    def test_instrument_needs_a_target(self):
        with pytest.raises(InvalidInput):
            Instrument((), (np.eye(1),))
