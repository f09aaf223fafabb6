import gc
import math
import weakref

import numpy as np
import pytest

from qcausal import (
    ChainModel,
    DensityMatrix,
    Hamiltonian,
    InvalidInput,
    NumericalInstability,
    PAULI_X,
    PAULI_Z,
    Propagator,
    basis_ket,
    build_model,
    embed_operator,
    evolve,
    evolve_ket,
    ground_state,
    propagator,
    total_sigma_z,
    von_neumann_entropy,
)
from qcausal.spinchain import DEGENERACY_GAP, _Block, _block_grid, _evolve_grid
from helpers import count_eigh, dense_tfim, dense_xx, random_density, random_ket
from helpers import refuse_spectrum

ORACLES = {"tfim": dense_tfim, "xx": dense_xx}
PARAMETERS = (0.0, 0.7, -0.7, 1.0, 1.3)


def assemble_tfim_by_hand(n, j, h):
    """Independent assembly straight from the Pauli definitions."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(n - 1):
        ops = [np.eye(2)] * n
        ops[k] = np.array(PAULI_Z)
        ops[k + 1] = np.array(PAULI_Z)
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        out -= j * term
    for k in range(n):
        ops = [np.eye(2)] * n
        ops[k] = np.array(PAULI_X)
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        out -= h * term
    return out


def rebuilt(hamiltonian):
    """V diag(E) V^T from `spectrum`, the one dense view of a Hamiltonian."""
    values, vectors = hamiltonian.spectrum
    return (vectors * values) @ vectors.T


class TestBuildTfim:
    def test_pure_ising_is_diagonal(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 2, 1.0, 0.0))
        assert np.allclose(rebuilt(hamiltonian), np.diag([-1, 1, 1, -1]))

    def test_pure_field_spectrum(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 2, 0.0, 1.0))
        assert np.allclose(hamiltonian.spectrum[0], [-2, 0, 0, 2], atol=1e-12)

    def test_matches_independent_assembly(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 3, 1.0, 1.0))
        oracle = assemble_tfim_by_hand(3, 1.0, 1.0)
        assert np.max(np.abs(rebuilt(hamiltonian) - oracle)) < 1e-12
        assert np.allclose(hamiltonian.spectrum[0], np.linalg.eigvalsh(oracle), atol=1e-9)

    def test_length_bounds(self):
        with pytest.raises(InvalidInput):
            Hamiltonian(ChainModel("tfim", 1, 1.0, 1.0))
        with pytest.raises(InvalidInput):
            Hamiltonian(ChainModel("tfim", 13, 1.0, 1.0))


class TestBuildXx:
    def test_single_bond_spectrum(self):
        hamiltonian = Hamiltonian(ChainModel("xx", 2, 1.0, 0.0))
        assert np.allclose(hamiltonian.spectrum[0], [-1, 0, 0, 1], atol=1e-12)
        # The bond term is J(|01><10| + h.c.).
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(rebuilt(hamiltonian), expected)

    def test_pure_field_is_diagonal(self):
        hamiltonian = Hamiltonian(ChainModel("xx", 2, 0.0, 0.5))
        assert np.allclose(rebuilt(hamiltonian), np.diag([1, 0, 0, -1]))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_commutes_with_total_magnetization(self, n):
        matrix = dense_xx(n, 1.3, 0.7)
        mz = total_sigma_z(n)
        comm = matrix @ mz - mz @ matrix
        assert np.max(np.abs(comm)) <= 1e-10


class TestHermiticityAndSpectrum:
    @pytest.mark.parametrize("kind", ["tfim", "xx"])
    def test_hermiticity_random_parameters(self, kind):
        # `matrix` refuses a defect above BUILD_HERMITICITY_TOL; the builders'
        # blocks are symmetric to the last bit.
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            model = ChainModel(kind, n, float(rng.normal()), float(rng.normal()))
            for block in Hamiltonian(model)._blocks:
                native = block.matrix()
                assert np.array_equal(native, native.T)

    def test_eigen_reconstruction(self):
        hamiltonian = Hamiltonian(ChainModel("xx", 4, 1.0, 0.3))
        assert np.max(np.abs(rebuilt(hamiltonian) - dense_xx(4, 1.0, 0.3))) <= 1e-9

    def test_eigenvectors_orthonormal(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 4, 1.0, 0.7))
        _, vectors = hamiltonian.spectrum
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(16))) <= 1e-9


class TestBuildersMatchKronOracle:
    @pytest.mark.parametrize("kind", sorted(ORACLES))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_arithmetic_matches_pauli_kron(self, kind, n):
        # H put back together from its sector blocks, the sum of Q B Q^T, is
        # the oracle for every (J, h).
        for j in PARAMETERS:
            for h in PARAMETERS:
                whole = np.zeros((2**n, 2**n))
                for block in Hamiltonian(ChainModel(kind, n, j, h))._blocks:
                    basis = block_basis(block, 2**n)
                    native = block.matrix()
                    assert native.dtype == np.float64
                    whole += basis @ native @ basis.T
                assert np.max(np.abs(whole - ORACLES[kind](n, j, h))) <= 1e-14

    @pytest.mark.parametrize("n", range(2, 7))
    def test_total_sigma_z_is_the_sum_of_site_operators(self, n):
        oracle = sum(embed_operator(PAULI_Z, k, n) for k in range(n))
        mz = total_sigma_z(n)
        assert mz.dtype == complex
        assert np.array_equal(mz, oracle)


class TestSectorSpectrum:
    @staticmethod
    def assert_exact_spectrum(hamiltonian, oracle):
        values, vectors = hamiltonian.spectrum
        assert not values.flags.writeable and not vectors.flags.writeable
        assert np.max(np.abs(values - np.linalg.eigvalsh(oracle))) <= 1e-10
        assert np.max(np.abs((vectors * values) @ vectors.conj().T - oracle)) <= 1e-10
        eye = np.eye(hamiltonian.dim)
        assert np.max(np.abs(vectors.conj().T @ vectors - eye)) <= 1e-10

    @pytest.mark.parametrize("kind, h", [("tfim", 0.7), ("xx", 0.3), ("xx", 0.0)])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_dense_oracle(self, kind, h, n):
        hamiltonian = build_model(ChainModel(kind, n, 1.0, h))
        self.assert_exact_spectrum(hamiltonian, ORACLES[kind](n, 1.0, h))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_degenerate_ground_state_is_the_first_sector_pick(self, n):
        # h = 0 is diagonal, so the popcount sectors apply and |0...0> comes
        # first among the two degenerate ferromagnetic states.
        first = ground_state(Hamiltonian(ChainModel("tfim", n, 1.0, 0.0)))
        again = ground_state(Hamiltonian(ChainModel("tfim", n, 1.0, 0.0)))
        assert first.degenerate and again.degenerate
        assert np.array_equal(first.state.amplitudes, again.state.amplitudes)
        assert np.array_equal(first.state.amplitudes, basis_ket([0] * n).amplitudes)


def sector_layout(rows, factors):
    """(size, sign of each group element) of one sector's `_Block` layout."""
    return rows.shape[1], tuple(int(sign) for sign in np.sign(factors[:, 0]))


def whole_register(hamiltonian):
    """One `_Block` holding every basis state, the identity its only element."""
    states = np.arange(hamiltonian.dim)
    return _Block(hamiltonian, states[None], np.ones(states.size), np.ones(1), states)


def block_basis(block, dim):
    """The dense dim x size basis Q of a block, summed over its group elements."""
    basis = np.zeros((dim, block.size))
    for rows, factors in zip(block.rows, block.factors):
        basis[rows, np.arange(block.size)] += factors
    return basis


class TestNativeBlocks:
    """Every model's blocks against the Pauli-Kronecker oracle. H is never
    assembled whole at run time, so this is where the bit action and the sector
    split are checked: every (J, h) in PARAMETERS^2 up to N = 8, J = 1 at N = 9
    and 10."""

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    @pytest.mark.parametrize("n", range(2, 11))
    def test_blocks_satisfy_the_kron_oracle(self, kind, n):
        dim = 2**n
        coupling, field = ORACLES[kind](n, 1.0, 0.0), ORACLES[kind](n, 0.0, 1.0)
        for j in PARAMETERS if n <= 8 else (1.0,):
            for h in PARAMETERS:
                oracle = j * coupling + h * field
                bases = []
                for block in build_model(ChainModel(kind, n, j, h))._blocks:
                    basis = block_basis(block, dim)
                    # H Q = Q B, with H Q gathered column by column from the sparse Q.
                    hq = sum(oracle[:, rows] * f for rows, f in zip(block.rows, block.factors))
                    native = block.matrix()
                    assert native.dtype == np.float64
                    assert np.max(np.abs(hq - basis @ native)) <= 1e-14
                    bases.append(basis)
                basis = np.hstack(bases)
                assert basis.shape == (dim, dim)
                assert np.max(np.abs(basis.T @ basis - np.eye(dim))) <= 1e-14

    def test_non_hermitian_action_is_refused_per_block(self):
        # H|s> = |s ^ 1> for even s only: no Hermitian matrix acts like that.
        n = 3
        states = np.arange(2**n)
        hamiltonian = Hamiltonian(ChainModel("tfim", n, 1.0, 1.0))
        hamiltonian._action = (np.array([0, 1]), np.vstack([np.zeros(8), states % 2 == 0]))
        with pytest.raises(InvalidInput, match="hermiticity"):
            whole_register(hamiltonian).matrix()

    @pytest.mark.parametrize("term, state", [(0, 0), (1, 4)], ids=["diagonal", "flip"])
    def test_nan_in_the_action_is_refused_per_block(self, term, state):
        # The check reads only the filled cells; a NaN there, on the diagonal
        # or off it, must still fail `not defect <= tol`. Both cells land on
        # the representative |000>, so the sector blocks read them too.
        hamiltonian = Hamiltonian(ChainModel("tfim", 3, 1.0, 1.0))
        hamiltonian._action[1][term, state] = np.nan
        with pytest.raises(InvalidInput, match="hermiticity"):
            whole_register(hamiltonian).matrix()
        with pytest.raises(InvalidInput, match="hermiticity"):
            for block in hamiltonian._blocks:
                block.matrix()

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_large_couplings_pass_the_block_check(self, kind):
        # The block check is absolute, as for a dense matrix: the builders'
        # blocks come out exactly symmetric, so large entries pass it too.
        hamiltonian = build_model(ChainModel(kind, 8, 1e6, 7e5))
        values, _ = hamiltonian.spectrum
        oracle = ORACLES[kind](8, 1e6, 7e5)
        assert np.max(np.abs(values - np.linalg.eigvalsh(oracle))) <= 1e-6


def dense_evolution(hamiltonian, amplitudes, times):
    """Rows V diag(exp(-iEt)) V^dagger psi from the dense `spectrum`."""
    values, vectors = hamiltonian.spectrum
    return (np.exp(-1j * np.outer(times, values)) * (vectors.conj().T @ amplitudes)) @ vectors.T


def normalized(amplitudes):
    return amplitudes / np.linalg.norm(amplitudes)


def block_case(kind, n, rng):
    """A Hamiltonian and states in one of its sectors and spread over all of them.

    xx: popcount sectors; tfim: parity sectors, a state in the even and one in
    the odd sector.
    """
    dim = 2**n
    spread = normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    if kind == "xx":
        rows = np.flatnonzero(np.array([bin(i).count("1") for i in range(dim)]) == n // 2)
        one_sector = np.zeros(dim, dtype=complex)
        one_sector[rows] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        return Hamiltonian(ChainModel("xx", n, 1.0, 0.3)), [normalized(one_sector), spread]
    half = rng.standard_normal(dim // 2) + 1j * rng.standard_normal(dim // 2)
    parities = [normalized(np.concatenate([half, mirror * half[::-1]])) for mirror in (1, -1)]
    return Hamiltonian(ChainModel("tfim", n, 1.0, 0.7)), parities + [spread]


class TestSectorBlocks:
    @pytest.mark.parametrize("kind", ["xx", "tfim"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_block_evolution_matches_dense_spectrum(self, kind, n):
        hamiltonian, states = block_case(kind, n, np.random.default_rng(41 + n))
        times = np.linspace(0.0, 3.0, 7)
        for psi in states:
            span, amplitudes = _block_grid(hamiltonian, psi, times)
            grid = np.zeros((times.size, hamiltonian.dim), dtype=complex)
            grid[:, span] = amplitudes
            assert np.max(np.abs(grid - dense_evolution(hamiltonian, psi, times))) <= 1e-12

    def test_parity_sectors_split_only_where_the_state_lies(self):
        # Group elements: identity, flip F, reversal P, PF; sectors (F, P) =
        # (+, +), (+, -), (-, +), (-, -). Flip-even splits 20 + 12: an orbit
        # with P s = s or P s = F s joins only the sectors where that element
        # has sign +1.
        tfim = Hamiltonian(ChainModel("tfim", 6, 1.0, 0.7))
        assert [sector_layout(block.rows, block.factors) for block in tfim._blocks] == [
            (20, (1, 1, 1, 1)), (12, (1, 1, -1, -1)), (16, (1, -1, 1, -1)), (16, (1, -1, -1, 1)),
        ]
        ramp = np.arange(1.0, 65.0)
        images = tfim._blocks[0].rows
        symmetric = np.zeros(64)
        for rows in images:  # sum the ramp over each orbit: (+, +) only
            symmetric[rows] = ramp[images].sum(axis=0)
        symmetric = normalized(symmetric)
        assert [bool(np.any(block.project(symmetric))) for block in tfim._blocks] == [
            True, False, False, False,
        ]
        _evolve_grid(tfim, symmetric, np.array([0.5]))
        assert ["eigen" in vars(block) for block in tfim._blocks] == [True, False, False, False]

    @pytest.mark.parametrize("n, h", [(n, h) for n in range(2, 11) for h in (0.0, 0.3, 1.0, -0.7)])
    def test_every_column_leads_with_a_positive_real_entry(self, n, h):
        # A column's lead is its first largest entry. On an orbit of several
        # states (a state and its reversal, or its flip) the placed entries tie
        # exactly, and the first of them must be the positive one.
        tied = 0
        for kind in sorted(ORACLES):
            _, vectors = build_model(ChainModel(kind, n, 1.0, h)).spectrum
            leads = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
            assert np.all(leads > 0.0)
            tied += np.count_nonzero(np.sum(np.abs(vectors) == leads, axis=0) > 1)
        assert tied > 0

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    @pytest.mark.parametrize("n", range(2, 11))
    def test_ground_state_is_column_zero_of_the_spectrum(self, kind, n):
        # Every (J, h) in PARAMETERS^2 up to N = 8, J = 1 at N = 9 and 10.
        for j in PARAMETERS if n <= 8 else (1.0,):
            for h in PARAMETERS:
                hamiltonian = build_model(ChainModel(kind, n, j, h))
                gs = ground_state(hamiltonian)
                values, vectors = hamiltonian.spectrum
                assert gs.energy == values[0]
                assert gs.gap == values[1] - values[0]
                assert gs.degenerate == (values[1] - values[0] < DEGENERACY_GAP)
                assert np.array_equal(gs.state.amplitudes, vectors[:, 0])

    @pytest.mark.parametrize(
        "kind, h", [("xx", 0.3), ("tfim", 0.7), ("tfim", 0.0)],
        ids=["xx", "tfim", "tfim-degenerate"],
    )
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ground_state_never_reads_the_spectrum(self, monkeypatch, kind, h, n):
        refuse_spectrum(monkeypatch)
        gs = ground_state(build_model(ChainModel(kind, n, 1.0, h)))
        oracle = ORACLES[kind](n, 1.0, h)
        values = np.linalg.eigvalsh(oracle)
        psi = gs.state.amplitudes
        assert abs(gs.energy - values[0]) <= 1e-10
        assert abs(gs.gap - (values[1] - values[0])) <= 1e-10
        assert np.linalg.norm(oracle @ psi - gs.energy * psi) <= 1e-10
        assert gs.degenerate == (h == 0.0)
        if h == 0.0:  # |0...0> and |1...1> tie; the first sector's wins
            assert np.array_equal(psi, basis_ket([0] * n).amplitudes)

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_gap_inside_one_block(self, kind):
        # The chains tested here have their two lowest levels in different
        # sectors; with the whole register as one block, the gap must come
        # from inside that block.
        hamiltonian = build_model(ChainModel(kind, 6, 1.0, 0.7))
        hamiltonian._blocks = [whole_register(hamiltonian)]
        gs = ground_state(hamiltonian)
        values, vectors = hamiltonian.spectrum
        assert gs.energy == values[0] and gs.gap == values[1] - values[0]
        assert np.array_equal(gs.state.amplitudes, vectors[:, 0])
        oracle = np.linalg.eigvalsh(ORACLES[kind](6, 1.0, 0.7))
        assert abs(gs.gap - (oracle[1] - oracle[0])) <= 1e-10

    def test_a_dropped_hamiltonian_is_freed_without_the_cyclic_collector(self):
        # Blocks hold the action's arrays, not their Hamiltonian. In a cycle,
        # each dropped chain kept its eigenvectors until a full collection:
        # 60 TFIM N=10 ground states in a loop peaked at 140 MiB, not 36.
        hamiltonian = Hamiltonian(ChainModel("tfim", 4, 1.0, 1.0))
        ground_state(hamiltonian)
        gone = weakref.ref(hamiltonian)
        gc.disable()
        try:
            del hamiltonian
            assert gone() is None
        finally:
            gc.enable()

    def test_ground_state_diagonalizes_every_sector(self, monkeypatch):
        # Each popcount block splits into its reversal-even and -odd halves;
        # palindromes go to the even half only.
        calls = count_eigh(monkeypatch)
        ground_state(Hamiltonian(ChainModel("xx", 6, 1.0, 0.3)))
        palindromes = [0] * 7
        for s in range(64):
            if format(s, "06b") == format(s, "06b")[::-1]:
                palindromes[bin(s).count("1")] += 1
        sizes = [
            (math.comb(6, m) + sign * palindromes[m]) // 2 for m in range(7) for sign in (1, -1)
        ]
        assert sorted(calls) == sorted((size, size) for size in sizes if size)
        assert len(calls) == 12  # popcounts 0 and 6 are one palindrome each


class TestGroundState:
    def test_tfim_pure_field_ground(self):
        gs = ground_state(Hamiltonian(ChainModel("tfim", 2, 0.0, 1.0)))
        assert abs(gs.energy - (-2.0)) < 1e-9
        assert np.allclose(gs.state.amplitudes, np.full(4, 0.5), atol=1e-9)
        assert not gs.degenerate

    def test_xx_pure_field_ground_is_all_ones(self):
        gs = ground_state(Hamiltonian(ChainModel("xx", 2, 0.0, 1.0)))
        assert abs(gs.energy - (-2.0)) < 1e-12
        assert np.allclose(gs.state.amplitudes, basis_ket([1, 1]).amplitudes)

    def test_eigen_residual(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 3, 1.0, 1.0))
        gs = ground_state(hamiltonian)
        residual = dense_tfim(3, 1.0, 1.0) @ gs.state.amplitudes - gs.energy * gs.state.amplitudes
        assert np.linalg.norm(residual) <= 1e-9

    def test_degenerate_ising_flagged(self):
        gs = ground_state(Hamiltonian(ChainModel("tfim", 3, 1.0, 0.0)))
        assert gs.degenerate


class TestPropagator:
    def test_zero_time_is_identity(self):
        u = propagator(Hamiltonian(ChainModel("xx", 3, 1.0, 0.5)), 0.0)
        assert np.allclose(u.matrix, np.eye(8), atol=1e-12)

    def test_group_law(self):
        hamiltonian = Hamiltonian(ChainModel("tfim", 3, 1.0, 0.8))
        u1 = propagator(hamiltonian, 0.7).matrix
        u2 = propagator(hamiltonian, 1.9).matrix
        u12 = propagator(hamiltonian, 2.6).matrix
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-9

    def test_unitarity_at_long_times(self):
        hamiltonian = Hamiltonian(ChainModel("xx", 4, 1.0, 0.3))
        for t in (0.1, 1.0, 10.0, 100.0):
            u = propagator(hamiltonian, t).matrix
            assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-9

    def test_full_excitation_transfer(self):
        # Two-site hopping rotates |10> into |01> in a quarter period.
        hamiltonian = Hamiltonian(ChainModel("xx", 2, 1.0, 0.0))
        out = evolve_ket(hamiltonian, basis_ket([1, 0]), np.pi / 2)
        assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-9

    def test_non_finite_time_rejected(self):
        with pytest.raises(InvalidInput):
            propagator(Hamiltonian(ChainModel("xx", 2, 1.0, 0.0)), float("nan"))

    def test_nan_matrix_fails_the_unitarity_check(self):
        with pytest.raises(NumericalInstability, match="unitarity"):
            Propagator(0.1, np.full((2, 2), np.nan))

    def test_propagator_held_to_the_trace_tolerance_of_its_output(self):
        # U U^dagger - I = diag(8e-10, 0) would move the trace of |0><0| by
        # 8e-10, past what `DensityMatrix` accepts; the propagator is refused
        # when it is made, not its output when it is used.
        with pytest.raises(NumericalInstability, match="unitarity defect 8.000e-10 exceeds 1e-10"):
            Propagator(0.1, np.diag([1 + 4e-10, 1.0]))

    def test_propagator_within_the_trace_tolerance_evolves(self):
        u = Propagator(0.1, np.diag([1 + 4e-11, 1.0]))
        out = evolve(DensityMatrix(1, np.diag([1.0, 0.0])), u)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10


class TestEvolve:
    def test_zero_time_identity_on_states(self):
        rng = np.random.default_rng(22)
        rho = random_density(3, rng)
        u = propagator(Hamiltonian(ChainModel("tfim", 3, 1.0, 1.0)), 0.0)
        assert np.allclose(evolve(rho, u).matrix, rho.matrix, atol=1e-12)

    def test_purity_preserved(self):
        rng = np.random.default_rng(23)
        rho = random_ket(3, rng).density_matrix()
        u = propagator(Hamiltonian(ChainModel("tfim", 3, 1.0, 1.0)), 2.3)
        assert von_neumann_entropy(evolve(rho, u)) <= 1e-9

    def test_energy_conserved(self):
        rng = np.random.default_rng(24)
        hamiltonian = Hamiltonian(ChainModel("xx", 3, 1.0, 0.4))
        rho = random_density(3, rng)
        u = propagator(hamiltonian, 1.7)
        matrix = dense_xx(3, 1.0, 0.4)
        before = np.trace(rho.matrix @ matrix).real
        after = np.trace(evolve(rho, u).matrix @ matrix).real
        assert abs(before - after) <= 1e-9

    def test_the_evolved_state_is_the_hermitian_part_of_the_conjugation(self):
        rho = random_density(4, np.random.default_rng(27))
        u = propagator(Hamiltonian(ChainModel("tfim", 4, 1.0, 0.7)), 0.9)
        conjugated = u.matrix @ rho.matrix @ u.matrix.conj().T
        assert np.array_equal(evolve(rho, u).matrix, 0.5 * (conjugated + conjugated.conj().T))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(25)
        rho = random_density(2, rng)
        u = propagator(Hamiltonian(ChainModel("xx", 3, 1.0, 0.0)), 1.0)
        with pytest.raises(InvalidInput):
            evolve(rho, u)

    def test_ket_and_density_evolution_agree(self):
        rng = np.random.default_rng(26)
        hamiltonian = Hamiltonian(ChainModel("xx", 3, 1.0, 0.5))
        ket = random_ket(3, rng)
        via_ket = evolve_ket(hamiltonian, ket, 1.1).density_matrix()
        via_density = evolve(ket.density_matrix(), propagator(hamiltonian, 1.1))
        assert np.max(np.abs(via_ket.matrix - via_density.matrix)) < 1e-10


class TestMagnetizationConservation:
    def test_single_excitation_sector_preserved(self):
        hamiltonian = Hamiltonian(ChainModel("xx", 4, 1.0, 0.5))
        mz = total_sigma_z(4)
        psi0 = basis_ket([1, 0, 0, 0])
        reference = np.vdot(psi0.amplitudes, mz @ psi0.amplitudes).real
        for t in (0.3, 1.1, 2.9, 4.7):
            psi_t = evolve_ket(hamiltonian, psi0, t)
            value = np.vdot(psi_t.amplitudes, mz @ psi_t.amplitudes).real
            assert abs(value - reference) <= 1e-9


class TestChainModel:
    def test_kind_validated(self):
        with pytest.raises(InvalidInput):
            ChainModel("heisenberg", 4, 1.0, 0.0)

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(InvalidInput):
            ChainModel("xx", 4, float("inf"), 0.0)
