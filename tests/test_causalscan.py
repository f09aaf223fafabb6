import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcausal import (
    ArrivalTable,
    ChainModel,
    EmptyConditioner,
    Hamiltonian,
    InsufficientData,
    InvalidInput,
    NumericalInstability,
    Partition,
    ScanConfig,
    TimeGrid,
    apply_instrument,
    arrival_scan,
    arrival_time,
    asymmetric_qcmi,
    build_model,
    evolve,
    evolve_ket,
    fit_velocity,
    initial_ket,
    mutual_information_sites,
    projective_z_instrument,
    propagator,
    qcmi_time_series,
)
from qcausal import causalscan
from qcausal.infomeasures import NEGATIVITY_TOL, _clamped
from helpers import count_eigh


def xx_config(**overrides):
    base = dict(
        model=ChainModel("xx", 4, 1.0, 0.5),
        initial="basis:1000",
        grid=TimeGrid(5.0, 0.02),
        site_a=0,
        site_b=3,
    )
    base.update(overrides)
    return ScanConfig(**base)


class TestTimeGrid:
    def test_grid_points(self):
        grid = TimeGrid(0.1, 0.02)
        assert np.allclose(grid.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])

    def test_starts_at_zero(self):
        assert TimeGrid(5.0, 0.01).times[0] == 0.0

    def test_positive_steps_required(self):
        with pytest.raises(InvalidInput):
            TimeGrid(5.0, -0.1)
        with pytest.raises(InvalidInput):
            TimeGrid(0.0, 0.1)

    def test_point_count_matches_times(self):
        for t_max, dt in ((0.1, 0.02), (5.0, 0.01), (1.0, 0.3), (2.0, 2.0)):
            grid = TimeGrid(t_max, dt)
            assert grid.n_points == grid.times.size

    def test_overflowing_step_count_rejected(self):
        with pytest.raises(InvalidInput):
            TimeGrid(1e300, 1e-300)


class TestInitialKet:
    def test_ground_spec(self):
        h = build_model(ChainModel("xx", 2, 0.0, 1.0))
        ket = initial_ket(h, "ground")
        assert abs(ket.amplitudes[3]) > 0.999

    def test_basis_spec(self):
        h = build_model(ChainModel("xx", 4, 1.0, 0.0))
        ket = initial_ket(h, "basis:1000")
        assert ket.amplitudes[8] == 1.0

    def test_bad_specs_rejected(self):
        h = build_model(ChainModel("xx", 2, 1.0, 0.0))
        for spec in ("basis:10x", "basis:101", "excited", "basis:"):
            with pytest.raises(InvalidInput):
                initial_ket(h, spec)

    def test_degenerate_ground_state_warns_once(self):
        h = build_model(ChainModel("tfim", 4, 1.0, 0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ket = initial_ket(h, "ground")
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert "differ by 0.000e+00 < 1e-10" in message and "first sector" in message
        assert "reversal even before odd" in message
        assert ket.amplitudes[0] == 1.0  # |0000>, the first sector's state

    @pytest.mark.parametrize("kind, n, field", [("tfim", 10, 1.0), ("xx", 8, 0.3)])
    def test_non_degenerate_ground_state_is_silent(self, kind, n, field):
        h = build_model(ChainModel(kind, n, 1.0, field))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            initial_ket(h, "ground")


class TestQcmiTimeSeries:
    def test_product_start_is_exactly_zero(self):
        series = qcmi_time_series(xx_config())
        assert series.values[0] <= 1e-10

    def test_tfim_series_rises_after_quench(self):
        # The ground state is stationary, so only the quench protocol (measure
        # once at t=0, then evolve the branches) produces dynamics here.
        config = ScanConfig(
            model=ChainModel("tfim", 3, 1.0, 1.0),
            initial="ground",
            protocol="quench-at-zero",
            grid=TimeGrid(5.0, 0.02),
            site_a=0,
            site_b=2,
        )
        series = qcmi_time_series(config)
        assert series.values.max() >= series.values[0] + 0.01

    def test_measure_at_t_on_stationary_state_is_constant(self):
        config = ScanConfig(
            model=ChainModel("tfim", 3, 1.0, 1.0),
            initial="ground",
            grid=TimeGrid(2.0, 0.25),
            site_a=0,
            site_b=2,
        )
        series = qcmi_time_series(config)
        assert np.max(np.abs(series.values - series.values[0])) <= 1e-9

    def test_uncoupled_chain_stays_zero(self):
        config = xx_config(model=ChainModel("xx", 4, 0.0, 0.5))
        series = qcmi_time_series(config)
        assert np.max(series.values) <= 1e-10

    def test_values_match_pointwise_evaluation(self):
        # The series is the pointwise map over the grid of the dense path; the
        # pure-state kernel rounds differently, so agreement is to 1e-12.
        config = xx_config(grid=TimeGrid(1.0, 0.25))
        series = qcmi_time_series(config)
        h = build_model(config.model)
        psi0 = initial_ket(h, config.initial)
        part = Partition((0,), (3,), (1, 2))
        instr = projective_z_instrument(0, 4)
        for i in (3, 1, 4, 0, 2):
            rho_t = evolve_ket(h, psi0, series.times[i]).density_matrix()
            assert abs(series.values[i] - asymmetric_qcmi(rho_t, part, instr)) <= 1e-12

    def test_quench_protocol_runs_and_starts_low(self):
        series = qcmi_time_series(xx_config(protocol="quench-at-zero"))
        assert series.values[0] <= 1e-10
        assert series.values.max() > 0.01

    def test_instrument_recorded_in_metadata(self):
        series = qcmi_time_series(xx_config(grid=TimeGrid(0.1, 0.05)))
        assert "projective-z" in series.instrument_label
        assert "0" in series.instrument_label

    def test_adjacent_sites_raise_empty_conditioner(self):
        for a, b in ((0, 1), (1, 0)):
            with pytest.raises(EmptyConditioner):
                qcmi_time_series(xx_config(site_a=a, site_b=b, grid=TimeGrid(0.1, 0.05)))

    def test_missing_sites_rejected(self):
        with pytest.raises(InvalidInput):
            qcmi_time_series(xx_config(site_a=None, site_b=None))

    def test_bad_sites_rejected_before_the_chain_is_built(self, monkeypatch):
        monkeypatch.setattr(causalscan, "build_model", lambda model: pytest.fail("built"))
        with pytest.raises(InvalidInput):
            qcmi_time_series(xx_config(site_b=4))

    @pytest.mark.parametrize("fields", [dict(d_min=5, d_max=2), dict(d_min=2), dict(d_max=3)])
    def test_distance_fields_rejected_before_the_chain_is_built(self, monkeypatch, fields):
        monkeypatch.setattr(causalscan, "build_model", lambda model: pytest.fail("built"))
        with pytest.raises(InvalidInput, match="d_min or d_max"):
            qcmi_time_series(xx_config(**fields))


class TestChecksBeforeTheBuild:
    """Bad initial specs and oversized grids fail before any chain is built."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        monkeypatch.setattr(causalscan, "build_model", lambda model: pytest.fail("built"))

    @staticmethod
    def config(**overrides):
        base = dict(model=ChainModel("xx", 12, 1.0, 0.3), initial="basis:1" + "0" * 11, site_b=11)
        return xx_config(**{**base, **overrides})

    def scans(self, **overrides):
        series = self.config(**overrides)
        scan = replace(series, site_a=None, site_b=None, d_min=2, d_max=11)
        return (lambda: qcmi_time_series(series), lambda: arrival_scan(scan))

    @pytest.mark.parametrize("spec", ["basis:1", "basis:" + "0" * 13, "basis:10x", "basis:", "excited", None])
    def test_bad_basis_spec(self, spec):
        for run in self.scans(initial=spec):
            with pytest.raises(InvalidInput):
                run()

    def test_oversized_grid(self):
        # 2^14 grid points x 2^12 amplitudes = 2^26 > MAX_SCAN_AMPLITUDES.
        grid = TimeGrid(2.0**14 - 1, 1.0)
        for run in self.scans(grid=grid):
            with pytest.raises(InvalidInput, match="scan limit"):
                run()
        assert "times" not in vars(grid)  # rejected before the grid was built

    def test_long_twelve_site_grid_is_allowed(self):
        # 5001 points x 2^12 amplitudes: checked from the sizes, not run.
        causalscan._check_scan_inputs(self.config(grid=TimeGrid(100.0, 0.02)))

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(causalscan, "MAX_SCAN_AMPLITUDES", 11 * 2**12)
        fits = TimeGrid(1.0, 0.1)  # 11 points
        too_many = TimeGrid(1.1, 0.1)  # 12 points
        causalscan._check_scan_inputs(self.config(grid=fits))
        with pytest.raises(InvalidInput):
            causalscan._check_scan_inputs(self.config(grid=too_many))


def dense_series(config):
    """The density-matrix path, one grid time at a time: the kernel's oracle."""
    h = build_model(config.model)
    a, b = config.site_a, config.site_b
    part = Partition((a,), (b,), tuple(range(min(a, b) + 1, max(a, b))))
    instr = projective_z_instrument(a, h.n_sites)
    psi0 = initial_ket(h, config.initial)
    times = config.grid.times
    if config.protocol == "measure-at-t":
        return np.array([
            asymmetric_qcmi(evolve_ket(h, psi0, t).density_matrix(), part, instr)
            for t in times
        ])
    ensemble = apply_instrument(psi0.density_matrix(), instr, keep_target=True)
    values = []
    for t in times:
        u = propagator(h, t)
        values.append(sum(
            branch.probability * mutual_information_sites(evolve(branch.state, u), part.b, part.c)
            for branch in ensemble
        ))
    return np.array(values)


def oracle_cases():
    # Pairs with A != 0 and with B < A; short grids keep the dense path cheap.
    for n in range(3, 9):
        pairs = [(0, n - 1), (n - 1, 0)] + ([(1, n - 1), (n - 2, 0)] if n >= 4 else [])
        for kind, bits in (("xx", "1" + "0" * (n - 1)), ("tfim", ("10" * n)[:n])):
            for initial in ("ground", f"basis:{bits}"):
                for protocol in ("measure-at-t", "quench-at-zero"):
                    yield pytest.param(
                        n, kind, initial, protocol, pairs, id=f"{kind}{n}-{initial}-{protocol}"
                    )


class TestPureStateKernel:
    @pytest.mark.parametrize("n, kind, initial, protocol, pairs", oracle_cases())
    def test_matches_dense_path(self, n, kind, initial, protocol, pairs):
        model = ChainModel(kind, n, 1.0, 0.7 if kind == "tfim" else 0.3)
        h = build_model(model)
        for a, b in pairs:
            config = ScanConfig(
                model=model, initial=initial, protocol=protocol,
                grid=TimeGrid(1.0, 0.2), site_a=a, site_b=b,
            )
            series = qcmi_time_series(config, h)
            assert series.values.size == 6
            assert np.max(np.abs(series.values - dense_series(config))) <= 1e-12

    def test_evolved_norms_are_checked(self):
        h = build_model(ChainModel("xx", 4, 1.0, 0.5))
        for block in h._blocks:
            values, vectors = block.eigen
            block.__dict__["eigen"] = (values, 1.01 * vectors)  # a non-unitary eigenbasis
        for protocol in ("measure-at-t", "quench-at-zero"):
            with pytest.raises(NumericalInstability):
                qcmi_time_series(xx_config(protocol=protocol, grid=TimeGrid(0.2, 0.1)), h)

    def test_nan_evolution_is_rejected(self):
        h = build_model(ChainModel("xx", 4, 1.0, 0.5))
        for block in h._blocks:
            values, vectors = block.eigen
            block.__dict__["eigen"] = (values, np.where(vectors == vectors[0, 0], np.nan, vectors))
        with pytest.raises(NumericalInstability):
            evolve_ket(h, initial_ket(h, "basis:1000"), 0.3)
        with pytest.raises(NumericalInstability):
            qcmi_time_series(xx_config(grid=TimeGrid(0.2, 0.1)), h)

    @staticmethod
    def run_scans(kind, initial, protocol):
        config = xx_config(
            model=ChainModel(kind, 6, 1.0, 0.3), initial=initial, protocol=protocol,
            grid=TimeGrid(0.4, 0.2), site_a=0, site_b=3,
        )
        qcmi_time_series(config)
        arrival_scan(replace(config, site_a=None, site_b=None, d_min=2, d_max=5))

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_basis_state_scans_never_form_the_dense_spectrum(self, monkeypatch, protocol):
        def refuse(hamiltonian):
            raise AssertionError("a scan formed the dense spectrum")

        monkeypatch.setattr(Hamiltonian, "spectrum", property(refuse))
        self.run_scans("xx", "basis:100000", protocol)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("kind", ["xx", "tfim"])
    @pytest.mark.parametrize("initial", ["basis:100000", "ground"])
    def test_scans_never_form_the_dense_hamiltonian(self, monkeypatch, initial, kind, protocol):
        def refuse(hamiltonian):
            raise AssertionError("a scan formed the dense Hamiltonian")

        monkeypatch.setattr(Hamiltonian, "matrix", property(refuse))
        self.run_scans(kind, initial, protocol)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("kind", ["xx", "tfim"])
    def test_ground_state_scans_read_the_spectrum_once(self, monkeypatch, protocol, kind):
        form = vars(Hamiltonian)["spectrum"].func
        reads = []

        def counted(hamiltonian):
            reads.append(hamiltonian.n_sites)
            return form(hamiltonian)

        monkeypatch.setattr(Hamiltonian, "spectrum", property(counted))
        self.run_scans(kind, "ground", protocol)
        assert reads == [6, 6]  # ground_state, once per scan; the evolution reads blocks

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_basis_state_scan_diagonalizes_one_sector(self, monkeypatch, protocol):
        calls = count_eigh(monkeypatch)
        config = xx_config(
            model=ChainModel("xx", 8, 1.0, 0.3), initial="basis:10000000", protocol=protocol,
            grid=TimeGrid(1.0, 0.1), site_a=None, site_b=None, d_min=2, d_max=7,
        )
        arrival_scan(config)
        # The popcount-1 sector as its two site-reversal blocks, shared by every distance.
        assert calls == [(4, 4), (4, 4)]

    def test_empty_c_raises_for_an_inner_pair(self):
        for protocol in ("measure-at-t", "quench-at-zero"):
            config = xx_config(site_a=2, site_b=1, protocol=protocol, grid=TimeGrid(0.4, 0.2))
            with pytest.raises(EmptyConditioner):
                qcmi_time_series(config)

    def test_arrival_scan_matches_per_distance_series(self):
        config = xx_config(
            model=ChainModel("xx", 6, 1.0, 0.3), initial="basis:100000",
            protocol="quench-at-zero", grid=TimeGrid(3.0, 0.05),
            site_a=None, site_b=None, d_min=2, d_max=5, crossing="interp",
        )
        table = arrival_scan(config)
        for d, t_arr in table.rows:
            series = qcmi_time_series(replace(config, site_a=0, site_b=d, d_min=None, d_max=None))
            assert t_arr == arrival_time(series.times, series.values, 0.03, "interp")

    def test_paper_scan_reproduces_reference_arrivals(self):
        # Arrival times and v_eff of the N=8 XX scan as computed by the dense
        # path (12 significant digits for the times).
        expected = {
            2: 0.310564355156,
            3: 0.642424949359,
            4: 1.02412901665,
            5: 1.43493765503,
            6: 1.8662377228,
            7: 2.27151776176,
        }
        config = ScanConfig(
            model=ChainModel("xx", 8, 1.0, 0.3),
            initial="basis:10000000",
            grid=TimeGrid(5.0, 0.01),
            threshold=0.03,
            crossing="interp",
            d_min=2,
            d_max=7,
        )
        table = arrival_scan(config)
        assert [d for d, _ in table.rows] == list(expected)
        for d, t_arr in table.rows:
            assert abs(t_arr - expected[d]) <= 1e-9
        assert abs(fit_velocity(table).v_eff - 2.520340227265703) <= 1e-9


def fake_branches(monkeypatch, rows, rng):
    """Two branches whose S(B), S(C), S(BC) come from a table, not from kets.

    `_branch_average` hands each branch's kets to `_entropies` only, so a
    branch index stands in for them.
    """
    weights = rng.dirichlet([1.0, 1.0], size=rows).T.copy()
    weights[0, ::9] = 0.0
    weights[1, ::9] = 1.0
    table = {
        (x, sites): rng.uniform(0.0, 2.0, rows)
        for x in (0, 1) for sites in ((0,), (1,), (0, 1))
    }
    for x in (0, 1):
        # S(BC) = S(B) + S(C) - I(B:C), where I is a rounding negative on
        # about 30% of rows, to exercise the clamp.
        mi = rng.uniform(0.0, 1.0, rows)
        mi[rng.random(rows) < 0.3] *= -0.9 * NEGATIVITY_TOL
        table[x, (0, 1)] = table[x, (0,)] + table[x, (1,)] - mi
    monkeypatch.setattr(causalscan, "_entropies", lambda kets, n, sites: table[kets, sites])
    return [(weights[0], 0), (weights[1], 1)], table


def loop_branch_average(branches, table):
    """The per-row, per-branch loop the batched branch sum replaced."""
    values = np.empty(branches[0][0].size)
    for i in range(values.size):
        total = 0.0
        for weights, x in branches:
            if weights[i] > 0.0:
                s_b, s_c, s_bc = (table[x, sites][i] for sites in ((0,), (1,), (0, 1)))
                total += weights[i] * _clamped(s_b + s_c - s_bc)
        values[i] = _clamped(total)
    return values


class TestBatchedBranchSum:
    def test_matches_row_loop(self, monkeypatch):
        branches, table = fake_branches(monkeypatch, 500, np.random.default_rng(31))
        values = causalscan._branch_average(branches, 2, (0,), (1,))
        assert np.array_equal(values, loop_branch_average(branches, table))
        assert np.all(values >= 0.0)

    def test_one_bad_term_in_500_raises(self, monkeypatch):
        branches, table = fake_branches(monkeypatch, 500, np.random.default_rng(32))
        table[1, (0, 1)][317] = table[1, (0,)][317] + table[1, (1,)][317] + 2 * NEGATIVITY_TOL
        with pytest.raises(NumericalInstability):
            causalscan._branch_average(branches, 2, (0,), (1,))

    @pytest.mark.parametrize("bad", [2 * NEGATIVITY_TOL, np.nan])
    def test_bad_term_on_a_zero_weight_row_is_skipped(self, monkeypatch, bad):
        branches, table = fake_branches(monkeypatch, 500, np.random.default_rng(33))
        row = 18  # a multiple of 9: branch 0 has weight 0 there
        assert branches[0][0][row] == 0.0
        table[0, (0, 1)][row] = table[0, (0,)][row] + table[0, (1,)][row] + bad
        values = causalscan._branch_average(branches, 2, (0,), (1,))
        assert np.array_equal(values, loop_branch_average(branches, table))


class TestArrivalTime:
    def test_never_crossing_is_missing(self):
        times = np.linspace(0, 1, 11)
        assert arrival_time(times, np.zeros(11), 0.03) is None

    def test_first_sample_mode(self):
        times = np.array([0.0, 0.1, 0.2])
        values = np.array([0.0, 0.02, 0.06])
        assert arrival_time(times, values, 0.03, "first-sample") == 0.2

    def test_interpolated_mode(self):
        times = np.array([0.0, 0.1, 0.2])
        values = np.array([0.0, 0.02, 0.06])
        assert abs(arrival_time(times, values, 0.03, "interp") - 0.125) < 1e-12

    def test_crossing_at_first_sample(self):
        times = np.array([0.0, 0.1])
        values = np.array([0.5, 0.6])
        assert arrival_time(times, values, 0.03, "interp") == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(61)
        times = np.linspace(0, 5, 101)
        values = np.cumsum(np.abs(rng.standard_normal(101))) / 100
        previous = None
        for theta in (0.5, 0.2, 0.1, 0.05):
            t_arr = arrival_time(times, values, theta)
            if previous is not None and t_arr is not None:
                assert t_arr <= previous
            previous = t_arr

    def test_positive_threshold_required(self):
        with pytest.raises(InvalidInput):
            arrival_time(np.array([0.0]), np.array([0.0]), 0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected_as_by_scan_config(self, threshold):
        with pytest.raises(InvalidInput):
            arrival_time(np.array([0.0, 0.1]), np.array([0.0, 1.0]), threshold)
        with pytest.raises(InvalidInput):
            xx_config(threshold=threshold)


class TestArrivalScan:
    def test_small_scan_has_all_rows(self):
        config = xx_config(site_a=None, site_b=None, d_min=2, d_max=3)
        table = arrival_scan(config)
        assert [d for d, _ in table.rows] == [2, 3]
        assert all(t is not None for _, t in table.rows)

    def test_huge_threshold_gives_all_missing(self):
        config = xx_config(
            site_a=None, site_b=None, d_min=2, d_max=3, threshold=10.0,
            grid=TimeGrid(1.0, 0.1),
        )
        table = arrival_scan(config)
        assert all(t is None for _, t in table.rows)

    def test_distance_one_needs_opt_in(self):
        config = xx_config(site_a=None, site_b=None, d_min=1, d_max=3)
        with pytest.raises(EmptyConditioner):
            arrival_scan(config)

    @pytest.mark.parametrize(
        "sites", [dict(site_a=3, site_b=5), dict(site_a=0, site_b=None), dict(site_a=None, site_b=3)]
    )
    def test_site_fields_rejected_before_the_chain_is_built(self, monkeypatch, sites):
        monkeypatch.setattr(causalscan, "build_model", lambda model: pytest.fail("built"))
        config = xx_config(d_min=2, d_max=3, **sites)
        with pytest.raises(InvalidInput, match="site_a or site_b"):
            arrival_scan(config)

    def test_range_validated(self):
        for d_min, d_max in ((2, 9), (0, 3), (-1, 3)):
            with pytest.raises(InvalidInput):
                arrival_scan(xx_config(site_a=None, site_b=None, d_min=d_min, d_max=d_max))

    def test_halving_dt_moves_interpolated_arrivals_by_under_one_step(self):
        coarse_cfg = xx_config(
            site_a=None, site_b=None, d_min=2, d_max=3, crossing="interp",
            grid=TimeGrid(5.0, 0.04),
        )
        fine_cfg = xx_config(
            site_a=None, site_b=None, d_min=2, d_max=3, crossing="interp",
            grid=TimeGrid(5.0, 0.02),
        )
        coarse = dict(arrival_scan(coarse_cfg).rows)
        fine = dict(arrival_scan(fine_cfg).rows)
        for d in (2, 3):
            assert abs(coarse[d] - fine[d]) <= 0.04


class TestFitVelocity:
    def test_exact_line(self):
        table = ArrivalTable(((2, 0.8), (4, 1.6), (6, 2.4)))
        fit = fit_velocity(table)
        assert abs(fit.slope - 0.4) < 1e-12
        assert abs(fit.intercept) < 1e-12
        assert abs(fit.v_eff - 2.5) < 1e-12
        assert fit.residual_sum_squares < 1e-24
        assert fit.n_points == 3

    def test_flat_arrivals_have_no_velocity(self):
        fit = fit_velocity(ArrivalTable(((2, 1.0), (3, 1.0))))
        assert fit.slope == 0.0
        assert fit.v_eff is None
        assert fit.note is not None

    def test_missing_rows_excluded(self):
        table = ArrivalTable(((2, 0.8), (3, None), (4, 1.6), (6, 2.4)))
        assert fit_velocity(table).n_points == 3

    def test_insufficient_rows_rejected(self):
        with pytest.raises(InsufficientData):
            fit_velocity(ArrivalTable(((2, 0.8), (3, None))))
