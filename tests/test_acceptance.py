"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The whole file runs in about 2 s; criterion 4's N = 8 distance scan
takes about 0.04 s of that.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np

import qcausal as qc
from qcausal.cli import main as cli_main
from helpers import brute_partial_trace, matrix_log_entropy, random_density


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_ghz_worked_example():
    with criterion(1, "GHZ worked example: entropies, probabilities, both QCMI forms"):
        rho = qc.ghz_state(3).density_matrix()
        partition = qc.Partition((0,), (1,), (2,))
        instrument = qc.projective_z_instrument(0, 3)

        assert abs(qc.symmetric_qcmi(rho, partition) - 1.0) <= 1e-9
        assert abs(qc.asymmetric_qcmi(rho, partition, instrument)) <= 1e-9

        ensemble = qc.apply_instrument(rho, instrument)
        assert len(ensemble) == 2
        for branch in ensemble:
            assert abs(branch.probability - 0.5) <= 1e-12

        assert qc.von_neumann_entropy(rho) <= 1e-9
        for keep in ((2,), (0, 2), (1, 2)):
            marginal = qc.partial_trace(rho, keep)
            assert abs(qc.von_neumann_entropy(marginal) - 1.0) <= 1e-9


def test_criterion_2_velocity_constants():
    with criterion(2, "velocity constants: v_lr(J=1) = 4e displays as 10.8731, v0 = 2"):
        estimate = qc.lr_velocity(qc.ChainModel("xx", 8, 1.0, 0.3))
        assert abs(estimate.v_lr - 4.0 * math.e) <= 1e-12
        assert abs(estimate.v_lr - 10.87312731) <= 1e-6
        assert f"{estimate.v_lr:.4f}" == "10.8731"
        assert qc.xx_group_velocity(1.0) == 2.0


def test_criterion_3_xx_four_site_onset():
    with criterion(3, "XX N=4 series: exactly zero at t=0, grows past 0.01 bits"):
        config = qc.ScanConfig(
            model=qc.ChainModel("xx", 4, 1.0, 0.5),
            initial="basis:1000",
            grid=qc.TimeGrid(5.0, 0.02),
            site_a=0,
            site_b=3,
        )
        series = qc.qcmi_time_series(config)
        assert series.values[0] <= 1e-10
        assert series.values[1:].max() >= 0.01


def test_criterion_4_velocity_fit_reproduction():
    with criterion(4, "N=8 scan: v_eff in [1.8, 3.2], below v_lr, near v0, monotone arrivals"):
        config = qc.ScanConfig(
            model=qc.ChainModel("xx", 8, 1.0, 0.3),
            initial="basis:10000000",
            protocol="measure-at-t",
            grid=qc.TimeGrid(5.0, 0.01),
            threshold=0.03,
            crossing="interp",
            d_min=2,
            d_max=7,
        )
        table = qc.arrival_scan(config)
        arrivals = [t for _, t in table.rows]
        assert all(t is not None for t in arrivals)
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))

        fit = qc.fit_velocity(table)
        assert fit.v_eff is not None
        assert 1.8 <= fit.v_eff <= 3.2
        assert fit.v_eff < 10.8731
        v0 = qc.xx_group_velocity(1.0)
        assert v0 / 1.8 <= fit.v_eff <= v0 * 1.8


def test_criterion_5_strong_subadditivity_suites():
    with criterion(5, "SSA: 200 random quantum and 200 random classical triples"):
        rng = np.random.default_rng(505)
        partition = qc.Partition((0,), (1,), (2,))
        for _ in range(200):
            value = qc.symmetric_qcmi(random_density(3, rng), partition)
            assert value >= -1e-9
        for _ in range(200):
            table = rng.random((2, 2, 2))
            dist = qc.JointDistribution(("a", "b", "c"), table / table.sum())
            assert qc.ccmi_symmetric(dist, ("a",), ("b",), ("c",)) >= -1e-12


def test_criterion_6_oracle_equivalences():
    with criterion(6, "oracles: index-summation trace, matrix-log entropy, CMI identity"):
        rng = np.random.default_rng(606)
        for n_sites in (2, 3, 4):
            rho = random_density(n_sites, rng)
            keep = sorted(
                rng.choice(n_sites, size=rng.integers(1, n_sites + 1), replace=False)
            )
            ours = qc.partial_trace(rho, keep).matrix
            oracle = brute_partial_trace(rho.matrix, n_sites, keep)
            assert np.max(np.abs(ours - oracle)) <= 1e-12

        for n_sites in (1, 2, 3):
            rho = random_density(n_sites, rng)
            assert abs(qc.von_neumann_entropy(rho) - matrix_log_entropy(rho.matrix)) <= 1e-8

        for _ in range(50):
            table = rng.random((2, 2, 2))
            dist = qc.JointDistribution(("a", "b", "c"), table / table.sum())
            h = lambda *names: qc.shannon_entropy(dist, names)
            four_term = h("a", "c") + h("b", "c") - h("c") - h("a", "b", "c")
            conditional = (h("a", "c") - h("c")) - (h("a", "b", "c") - h("b", "c"))
            assert abs(four_term - conditional) <= 1e-12
            assert abs(qc.ccmi_symmetric(dist, ("a",), ("b",), ("c",)) - four_term) <= 1e-12


def test_criterion_7_dynamics_invariants():
    with criterion(7, "dynamics: unitarity, group law, charge conservation, commutator"):
        hamiltonian = qc.Hamiltonian(qc.ChainModel("xx", 4, 1.0, 0.5))
        identity = np.eye(hamiltonian.dim)
        for t in (0.3, 2.0, 17.0, 100.0):
            u = qc.propagator(hamiltonian, t).matrix
            assert np.max(np.abs(u @ u.conj().T - identity)) <= 1e-9
        u1 = qc.propagator(hamiltonian, 0.9).matrix
        u2 = qc.propagator(hamiltonian, 1.7).matrix
        u12 = qc.propagator(hamiltonian, 2.6).matrix
        assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-9

        mz = qc.total_sigma_z(4)
        psi0 = qc.basis_ket([1, 0, 0, 0])
        reference = np.vdot(psi0.amplitudes, mz @ psi0.amplitudes).real
        for t in (0.5, 1.5, 3.5):
            psi_t = qc.evolve_ket(hamiltonian, psi0, t)
            assert abs(np.vdot(psi_t.amplitudes, mz @ psi_t.amplitudes).real - reference) <= 1e-9

        for op_a, op_b in itertools.product((qc.PAULI_X, qc.PAULI_Z), repeat=2):
            assert qc.commutator_front_norm(hamiltonian, 0, op_a, 3, op_b, 0.0) <= 1e-12
            for t in (0.4, 2.2):
                norm = qc.commutator_front_norm(hamiltonian, 0, op_a, 3, op_b, t)
                assert norm <= 2.0 + 1e-9


def test_criterion_8_deterministic_cli_output(tmp_path):
    with criterion(8, "determinism: identical arrival-scan flags, identical bytes"):
        flags = (
            "arrival-scan", "--model", "xx", "--n", "5", "--j", "1", "--h", "0.3",
            "--distances", "2:4", "--t-max", "4", "--dt", "0.02",
        )
        captured = []
        for run in ("first", "second"):
            csv_path = tmp_path / f"{run}.csv"
            json_path = tmp_path / f"{run}.json"
            code = cli_main([*flags, "--out", str(csv_path), "--json-out", str(json_path)])
            assert code == 0
            captured.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert captured[0] == captured[1]


def test_criterion_9_classical_baseline():
    with criterion(9, "classical baseline: lagged copy >= 5 sigma over surrogates"):
        rng = np.random.default_rng(2024)
        x = rng.standard_normal(10_000)
        lagged_response = np.roll(x, 1)  # x'_{j+1} = x_j
        independent_response = rng.standard_normal(10_000)

        coupled = qc.SeriesEmbedding(x, lagged_response, horizon=1, delay=1, bins=4)
        value = qc.ccmi_asymmetric_series(coupled)
        baseline = qc.surrogate_baseline(coupled, 20, seed=0)
        assert value >= baseline.mean() + 5.0 * baseline.std()

        indep = qc.SeriesEmbedding(x, independent_response, horizon=1, delay=1, bins=4)
        value_indep = qc.ccmi_asymmetric_series(indep)
        baseline_indep = qc.surrogate_baseline(indep, 20, seed=0)
        assert abs(value_indep - baseline_indep.mean()) <= 2.0 * baseline_indep.std()
