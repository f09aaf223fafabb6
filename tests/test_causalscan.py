from dataclasses import replace

import numpy as np
import pytest

from qcausal import (
    ArrivalTable,
    ChainModel,
    EmptyConditioner,
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

    def test_adjacent_sites_need_opt_in(self):
        with pytest.raises(EmptyConditioner):
            qcmi_time_series(xx_config(site_b=1, grid=TimeGrid(0.1, 0.05)))
        series = qcmi_time_series(
            xx_config(site_b=1, grid=TimeGrid(0.1, 0.05), allow_empty_c=True)
        )
        assert np.all(series.values == 0.0)

    def test_missing_sites_rejected(self):
        with pytest.raises(InvalidInput):
            qcmi_time_series(xx_config(site_a=None, site_b=None))


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
            asymmetric_qcmi(
                evolve_ket(h, psi0, t).density_matrix(), part, instr,
                allow_empty_c=config.allow_empty_c,
            )
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
        values, vectors = h.spectrum
        h.__dict__["spectrum"] = (values, 1.01 * vectors)  # a non-unitary eigenbasis
        for protocol in ("measure-at-t", "quench-at-zero"):
            with pytest.raises(NumericalInstability):
                qcmi_time_series(xx_config(protocol=protocol, grid=TimeGrid(0.2, 0.1)), h)

    def test_empty_c_is_zero_for_an_inner_pair(self):
        for protocol in ("measure-at-t", "quench-at-zero"):
            config = xx_config(
                site_a=2, site_b=1, protocol=protocol, allow_empty_c=True,
                grid=TimeGrid(0.4, 0.2),
            )
            assert np.all(qcmi_time_series(config).values == 0.0)

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

    def test_range_validated(self):
        with pytest.raises(InvalidInput):
            arrival_scan(xx_config(site_a=None, site_b=None, d_min=2, d_max=9))

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
