import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcausal import (
    ArrivalTable,
    ChainModel,
    DensityMatrix,
    EmptyConditioner,
    InsufficientData,
    InvalidInput,
    Ket,
    NumericalInstability,
    Partition,
    ScanConfig,
    TimeGrid,
    arrival_scan,
    arrival_time,
    asymmetric_qcmi,
    basis_ket,
    build_model,
    embed_operator,
    evolve,
    evolve_ket,
    fit_velocity,
    ground_state,
    initial_ket,
    mutual_information_sites,
    partial_trace,
    projective_z_instrument,
    propagator,
    qcmi_time_series,
    von_neumann_entropy,
    xx_group_velocity,
)
from qcausal import causalscan, spinchain
from qcausal.infomeasures import NEGATIVITY_TOL, _clamped
from qcausal.instrument import PROBABILITY_FLOOR
from qcausal.qstate import EIG_CLAMP, entropies_from_eigenvalues
from qcausal.spinchain import _block_grid, _evolve_grid, _excitation_grid
from helpers import (
    count_eigh,
    lanczos_ground_state,
    oracle_series,
    refuse_spectrum,
    single_excitation_qcmi,
    single_excitation_weights,
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


# The paper's N=8 XX arrival scan (acceptance criterion 4).
PAPER_SCAN = ScanConfig(
    model=ChainModel("xx", 8, 1.0, 0.3),
    initial="basis:10000000",
    grid=TimeGrid(5.0, 0.01),
    threshold=0.03,
    crossing="interp",
    d_min=2,
    d_max=7,
)


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
    """Bad initial specs and oversized grids fail when the `ScanConfig` is
    made, so no scan can reach the build with them."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        monkeypatch.setattr(causalscan, "build_model", lambda model: pytest.fail("built"))

    @staticmethod
    def config(**overrides):
        base = dict(model=ChainModel("xx", 12, 1.0, 0.3), initial="basis:1" + "0" * 11, site_b=11)
        return xx_config(**{**base, **overrides})

    @pytest.mark.parametrize("spec", ["basis:1", "basis:" + "0" * 13, "basis:10x", "basis:", "excited", None])
    def test_bad_basis_spec(self, spec):
        with pytest.raises(InvalidInput):
            self.config(initial=spec)

    def test_oversized_grid(self):
        # 2^14 grid points x 2^12 amplitudes = 2^26 > MAX_SCAN_AMPLITUDES.
        grid = TimeGrid(2.0**14 - 1, 1.0)
        with pytest.raises(InvalidInput, match="scan limit"):
            self.config(grid=grid)
        assert "times" not in vars(grid)  # rejected before the grid was built

    def test_long_twelve_site_grid_is_allowed(self):
        # 5001 points x 2^12 amplitudes: checked from the sizes, not run.
        self.config(grid=TimeGrid(100.0, 0.02))

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(causalscan, "MAX_SCAN_AMPLITUDES", 11 * 2**12)
        fits = TimeGrid(1.0, 0.1)  # 11 points
        too_many = TimeGrid(1.1, 0.1)  # 12 points
        self.config(grid=fits)
        with pytest.raises(InvalidInput):
            self.config(grid=too_many)


EVOLUTIONS = ("_block_grid", "_excitation_grid")


def spy(monkeypatch, *names):
    """Record what each named function returns, one list per name: a
    `causalscan` function, or one of the two `spinchain` EVOLUTIONS, so
    `spy(monkeypatch, *EVOLUTIONS)` records every batch a scan evolves."""
    returned = {name: [] for name in names}

    def spying(function, out):
        def spied(*args):
            out.append(function(*args))
            return out[-1]

        return spied

    for name, out in returned.items():
        module = spinchain if name in EVOLUTIONS else causalscan
        monkeypatch.setattr(module, name, spying(getattr(module, name), out))
    return returned


def call_counts(returned):
    return {name: len(out) for name, out in returned.items()}


def force_blocks(monkeypatch):
    """Make every evolution run on the sector blocks, the closed form's oracle,
    through whatever `spinchain._block_grid` is when it runs."""
    monkeypatch.setattr(spinchain, "_excitation_grid", lambda *args: spinchain._block_grid(*args))


def block_series(monkeypatch, *args):
    """`_pure_series(*args)` with every evolution on the sector blocks."""
    with monkeypatch.context() as patch:
        force_blocks(patch)
        return causalscan._pure_series(*args)


def paper_kernel(monkeypatch, config=PAPER_SCAN):
    """An arrival scan evolved on the sector blocks, whatever its initial
    state; a one-excitation XX state would evolve in closed form."""
    force_blocks(monkeypatch)
    return arrival_scan(config)


def use_chain(monkeypatch, hamiltonian):
    """Make every scan run on `hamiltonian`, which must be built for the scan's model."""

    def build(model):
        assert model == hamiltonian.model
        return hamiltonian

    monkeypatch.setattr(causalscan, "build_model", build)


def dense_series(config):
    """The density-matrix path over the config's grid: the kernel's oracle."""
    h = build_model(config.model)
    psi0 = initial_ket(h, config.initial)
    (values,) = dense_values(
        h, psi0, config.protocol, config.grid.times, config.site_a, [config.site_b]
    )
    return values


def dense_values(h, psi0, protocol, times, a, bs):
    """I(B:C) after measuring A, one density matrix per time, for each B in
    `bs` with C the sites between A and B: a (len(bs), times) array."""
    parts = [Partition((a,), (b,), tuple(range(min(a, b) + 1, max(a, b)))) for b in bs]
    instr = projective_z_instrument(a, h.n_sites)
    if protocol == "measure-at-t":
        states = [evolve_ket(h, psi0, t).density_matrix() for t in times]
        return np.array([[asymmetric_qcmi(rho, part, instr) for rho in states] for part in parts])
    # Full-register branches P_x rho P_x / p_x, kept at or above the floor.
    rho = psi0.density_matrix().matrix
    hits = []
    for op in instr.operators:
        projector = embed_operator(op, a, h.n_sites)
        hit = projector @ rho @ projector
        p = np.trace(hit).real
        if p >= PROBABILITY_FLOOR:
            hits.append((p, DensityMatrix(h.n_sites, hit / p)))
    total = sum(p for p, _ in hits)
    values = []
    for t in times:
        u = propagator(h, t)
        branches = [(p / total, evolve(state, u)) for p, state in hits]
        values.append([
            sum(w * mutual_information_sites(state, part.b, part.c) for w, state in branches)
            for part in parts
        ])
    return np.array(values).T


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


def reversal_odd_ket(n_sites):
    """(|110...0> - |0...011>) / sqrt(2): site-reversal odd, so its span
    leaves out the popcount-2 palindromes, which each charge block reads as zero."""
    amplitudes = np.zeros(2**n_sites)
    amplitudes[[3 << (n_sites - 2), 3]] = [2**-0.5, -(2**-0.5)]
    return Ket(n_sites, amplitudes)


def span_cases():
    for n in range(3, 10):
        for ones in sorted({1, 2, n // 2}):
            yield pytest.param(n, "xx", "basis:" + "1" * ones + "0" * (n - ones), id=f"xx{n}-{ones}")
        yield pytest.param(n, "xx", "ground", id=f"xx{n}-ground")
        yield pytest.param(n, "xx", "reversal-odd", id=f"xx{n}-reversal-odd")
        yield pytest.param(n, "tfim", "ground", id=f"tfim{n}-ground")


class TestPureStateKernel:
    @pytest.mark.parametrize("n, kind, initial, protocol, pairs", oracle_cases())
    def test_matches_dense_path(self, monkeypatch, n, kind, initial, protocol, pairs):
        model = ChainModel(kind, n, 1.0, 0.7 if kind == "tfim" else 0.3)
        use_chain(monkeypatch, build_model(model))  # every pair reuses the diagonalized blocks
        for a, b in pairs:
            config = ScanConfig(
                model=model, initial=initial, protocol=protocol,
                grid=TimeGrid(1.0, 0.2), site_a=a, site_b=b,
            )
            series = qcmi_time_series(config)
            assert series.values.size == 6
            assert np.max(np.abs(series.values - dense_series(config))) <= 1e-12

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("initial", ["basis", "ground"])
    @pytest.mark.parametrize("kind", ["xx", "tfim"])
    @pytest.mark.parametrize("n", [5, 6])
    def test_kernel_needs_no_grid(self, n, kind, initial, protocol):
        # Off-grid, unsorted times straight into the kernel: no config, no grid.
        h = build_model(ChainModel(kind, n, 1.0, 0.7 if kind == "tfim" else 0.3))
        spec = "ground" if initial == "ground" else "basis:" + ("10" * n)[:n]
        psi0 = initial_ket(h, spec)
        times = np.array([0.37, 0.05, 1.234])
        for a, bs in ((0, range(2, n)), (n - 2, (0, n - 4))):
            receivers = [(b, tuple(range(min(a, b) + 1, max(a, b)))) for b in bs]
            values = causalscan._pure_series(h, psi0.amplitudes, protocol, times, a, receivers)
            assert values.shape == (len(receivers), times.size)
            assert not values.flags.writeable
            oracle = dense_values(h, psi0, protocol, times, a, [b for b, _ in receivers])
            assert np.max(np.abs(values - oracle)) <= 1e-12

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("n, kind, spec", span_cases())
    def test_kernel_matches_dense_values_on_every_span(self, n, kind, spec, protocol):
        # Spans of C(N, 1), C(N, 2), C(N, N//2), at most C(N, N//2) and
        # C(N, 2) - N//2 (XX) states, and of all 2^N (TFIM); senders at both
        # ends and inside.
        h = build_model(ChainModel(kind, n, 1.0, 0.7 if kind == "tfim" else 0.3))
        psi0 = reversal_odd_ket(n) if spec == "reversal-odd" else initial_ket(h, spec)
        times = np.array([0.37, 1.234])
        senders = {0: {2, n - 1}, n - 1: {n - 3}, n // 2: {n // 2 + 2, n // 2 - 2}}
        for a, bs in senders.items():
            receivers = [(b, tuple(range(min(a, b) + 1, max(a, b)))) for b in bs if 0 <= b < n]
            if not receivers:  # the middle sender of a short chain
                continue
            values = causalscan._pure_series(h, psi0.amplitudes, protocol, times, a, receivers)
            oracle = dense_values(h, psi0, protocol, times, a, [b for b, _ in receivers])
            assert np.max(np.abs(values - oracle)) <= 1e-12

    @pytest.mark.parametrize(
        "kind, field, spec",
        [("tfim", 0.7, "1"), ("xx", 0.3, "11"), ("tfim", 1.0, "ground"), ("xx", 0.3, "ground")],
    )
    @pytest.mark.parametrize("n", [9, 10])
    def test_kernel_matches_an_independent_oracle(self, n, kind, field, spec):
        # The oracle in tests/helpers.py shares no code with the kernel: Pauli
        # terms one by one, a Lanczos ground state, Taylor steps, a zeroed half
        # for the measurement and SVD entropies. Two XX excitations make charge
        # blocks wider than one, and so does the XX ground state.
        h = build_model(ChainModel(kind, n, 1.0, field))
        if spec == "ground":
            energy, initial = lanczos_ground_state(kind, n, 1.0, field)
            ground = ground_state(h)
            assert abs(energy - ground.energy) <= 1e-10
            assert ground.gap > 1e-2  # far from DEGENERACY_GAP: one ground state to find
            psi0 = ground.state.amplitudes
        else:
            initial = [int(ch) for ch in spec.ljust(n, "0")]
            psi0 = basis_ket(initial).amplitudes
        times = np.array([0.13, 0.37, 0.62])
        senders = {
            0: [(b, tuple(range(1, b))) for b in range(2, n)],
            n // 2: [(n - 1, tuple(range(n // 2 + 1, n - 1))), (1, tuple(range(2, n // 2)))],
        }
        oracle = oracle_series(kind, n, 1.0, field, initial, times, senders)
        for (protocol, a), expected in oracle.items():
            values = causalscan._pure_series(h, psi0, protocol, times, a, senders[a])
            assert np.max(np.abs(values - expected)) <= 1e-10
            assert np.max(expected) > 0.1  # the index has left zero by the last time

    def test_evolved_norms_are_checked(self, monkeypatch):
        h = build_model(ChainModel("xx", 4, 1.0, 0.5))
        for block in h._blocks:
            values, vectors = block.eigen
            block.__dict__["eigen"] = (values, 1.01 * vectors)  # a non-unitary eigenbasis
        use_chain(monkeypatch, h)
        for protocol in ("measure-at-t", "quench-at-zero"):
            # Two excitations: the kernel's state, not the closed form's.
            config = xx_config(initial="basis:1100", protocol=protocol, grid=TimeGrid(0.2, 0.1))
            with pytest.raises(NumericalInstability):
                qcmi_time_series(config)

    def test_nan_evolution_is_rejected(self, monkeypatch):
        h = build_model(ChainModel("xx", 4, 1.0, 0.5))
        for block in h._blocks:
            values, vectors = block.eigen
            block.__dict__["eigen"] = (values, np.where(vectors == vectors[0, 0], np.nan, vectors))
        with pytest.raises(NumericalInstability):  # two excitations: on the blocks
            evolve_ket(h, initial_ket(h, "basis:1100"), 0.3)
        use_chain(monkeypatch, h)
        with pytest.raises(NumericalInstability):
            qcmi_time_series(xx_config(initial="basis:1100", grid=TimeGrid(0.2, 0.1)))

    @staticmethod
    def run_scans(kind, initial, protocol, field=0.3):
        config = xx_config(
            model=ChainModel(kind, 6, 1.0, field), initial=initial, protocol=protocol,
            grid=TimeGrid(0.4, 0.2), site_a=0, site_b=3,
        )
        qcmi_time_series(config)
        arrival_scan(replace(config, site_a=None, site_b=None, d_min=2, d_max=5))

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("initial", ["basis:100000", "ground"])
    def test_each_scan_builds_its_chain_once(self, monkeypatch, initial, protocol):
        builds = []

        def counted(model):
            builds.append(model)
            return build_model(model)

        monkeypatch.setattr(causalscan, "build_model", counted)
        series = xx_config(
            model=ChainModel("xx", 6, 1.0, 0.3), initial=initial, protocol=protocol,
            grid=TimeGrid(0.4, 0.2), site_a=0, site_b=3,
        )
        qcmi_time_series(series)
        assert builds == [series.model]
        arrival_scan(replace(series, site_a=None, site_b=None, d_min=2, d_max=5))
        assert builds == [series.model] * 2

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_basis_state_scans_never_form_the_dense_spectrum(self, monkeypatch, protocol):
        refuse_spectrum(monkeypatch)
        self.run_scans("xx", "basis:100000", protocol)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize(
        "kind, field", [("xx", 0.3), ("tfim", 0.3), ("tfim", 0.0)],
        ids=["xx", "tfim", "tfim-degenerate"],
    )
    def test_ground_state_scans_never_form_the_dense_spectrum(
        self, monkeypatch, protocol, kind, field
    ):
        refuse_spectrum(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.run_scans(kind, "ground", protocol, field)
        # ground_state and the evolution read the blocks; the degeneracy
        # warning, once per scan, reads the gap they give.
        assert [w.category for w in caught] == [RuntimeWarning] * (2 if field == 0.0 else 0)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_basis_state_scan_diagonalizes_one_sector(self, monkeypatch, protocol):
        calls = count_eigh(monkeypatch)
        config = replace(PAPER_SCAN, protocol=protocol, grid=TimeGrid(1.0, 0.1))
        arrival_scan(config)
        assert calls == []  # the closed form diagonalizes nothing
        paper_kernel(monkeypatch, config)
        # The popcount-1 sector as its two site-reversal blocks, shared by every distance.
        assert calls == [(4, 4), (4, 4)]

    def test_empty_c_raises_for_an_inner_pair(self):
        for protocol in ("measure-at-t", "quench-at-zero"):
            config = xx_config(site_a=2, site_b=1, protocol=protocol, grid=TimeGrid(0.4, 0.2))
            with pytest.raises(EmptyConditioner):
                qcmi_time_series(config)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("initial", ["basis:100000", "basis:110000", "ground"])
    def test_arrival_scan_matches_per_distance_series(self, monkeypatch, initial, protocol):
        # One excitation evolves in closed form; two, and the ground state, on the blocks.
        returned = spy(monkeypatch, "_pure_series", *EVOLUTIONS)
        config = xx_config(
            model=ChainModel("xx", 6, 1.0, 0.3), initial=initial,
            protocol=protocol, grid=TimeGrid(3.0, 0.05),
            site_a=None, site_b=None, d_min=2, d_max=5, crossing="interp",
        )
        table = arrival_scan(config)
        (scanned,) = returned["_pure_series"]
        assert scanned.shape == (4, 61)
        closed = initial == "basis:100000"
        assert [bool(returned[name]) for name in EVOLUTIONS] == [not closed, closed]
        for (d, t_arr), row in zip(table.rows, scanned):
            series = qcmi_time_series(replace(config, site_a=0, site_b=d, d_min=None, d_max=None))
            assert np.array_equal(row, series.values)
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
        table = arrival_scan(PAPER_SCAN)
        assert [d for d, _ in table.rows] == list(expected)
        for d, t_arr in table.rows:
            assert abs(t_arr - expected[d]) <= 1e-9
        assert abs(fit_velocity(table).v_eff - 2.520340227265703) <= 1e-9


def popcounts(n_sites):
    return np.array([bin(i).count("1") for i in range(2**n_sites)])


def sector_kets(n_sites, charges, rows, rng):
    """`rows` random normalized kets with amplitudes on every state whose
    popcount is in `charges`, and nowhere else."""
    inside = np.isin(popcounts(n_sites), charges)
    kets = np.zeros((rows, 2**n_sites), dtype=complex)
    kets[:, inside] = rng.standard_normal((rows, inside.sum())) + 1j * rng.standard_normal(
        (rows, inside.sum())
    )
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def cuts(n_sites):
    """A contiguous site set, a non-contiguous one and its complement."""
    every_other = tuple(range(0, n_sites, 2))
    return [
        tuple(range(1, 1 + n_sites // 2)),
        every_other,
        tuple(s for s in range(n_sites) if s not in every_other),
    ]


def one_block_formula(kets, n_sites, sites):
    """Each cut as one block, by a transpose of the register axes: the formula
    the charge blocks refine."""
    rest = [s for s in range(n_sites) if s not in sites]
    axes = [0] + [1 + s for s in sites] + [1 + s for s in rest]
    tensor = kets.reshape((kets.shape[0],) + (2,) * n_sites).transpose(axes)
    mat = tensor.reshape(kets.shape[0], 2 ** len(sites), 2 ** len(rest))
    if mat.shape[1] > mat.shape[2]:
        mat = mat.transpose(0, 2, 1)
    gram = mat @ mat.conj().transpose(0, 2, 1)
    return entropies_from_eigenvalues(np.linalg.eigvalsh(gram))


def sector_batch(n_sites, charges, kets):
    """The (states, kets) batch of `kets` on the states whose popcount is in
    `charges`: the span a scan's batch holds."""
    states = np.flatnonzero(np.isin(popcounts(n_sites), charges))
    return states, kets[:, states]


def partial_trace_entropies(kets, n_sites, sites):
    """The dense oracle: S(sites) of each row by partial trace."""
    return [von_neumann_entropy(partial_trace(Ket(n_sites, row).density_matrix(), sites))
            for row in kets]


class TestChargeBlocks:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_sector_kets_match_partial_trace_and_one_block(self, n):
        rng = np.random.default_rng(100 + n)
        for charge in range(n + 1):
            kets = sector_kets(n, [charge], 2, rng)
            states, batch = sector_batch(n, [charge], kets)
            assert np.array_equal(np.unique(popcounts(n)[states]), [charge])
            whole = tuple(range(n))
            entropies = causalscan._entropies(states, batch, n, cuts(n) + [whole])
            for sites, blocks in zip(cuts(n), entropies):
                oracle = partial_trace_entropies(kets, n, sites)
                assert np.max(np.abs(blocks - oracle)) <= 1e-12
                assert np.max(np.abs(blocks - one_block_formula(kets, n, sites))) <= 1e-12
            # The whole register leaves an empty complement; a pure state has entropy 0.
            assert np.max(np.abs(entropies[-1])) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_two_popcounts_take_the_one_block_formula(self, n):
        # Row 0 lies in one popcount; the second one shows up only in the last row.
        rng = np.random.default_rng(200 + n)
        for charge in range(n):
            kets = sector_kets(n, [charge], 3, rng)
            kets[2] = sector_kets(n, [charge, charge + 1], 1, rng)[0]
            states, batch = sector_batch(n, [charge, charge + 1], kets)
            assert np.array_equal(np.unique(popcounts(n)[states]), [charge, charge + 1])
            whole = tuple(range(n))
            entropies = causalscan._entropies(states, batch, n, cuts(n) + [whole])
            for sites, values in zip(cuts(n), entropies):
                assert np.array_equal(values, one_block_formula(kets, n, sites))
            # The whole register's one block has rank one: its weight, not eigvalsh.
            assert np.max(np.abs(entropies[-1] - one_block_formula(kets, n, whole))) <= 1e-12
            assert np.max(np.abs(entropies[-1])) <= 1e-12

    @pytest.mark.parametrize("n", [4, 7])
    def test_the_span_not_the_amplitudes_sets_the_charge(self, n, monkeypatch):
        # Every amplitude has popcount 2 both times; only the span differs.
        kets = sector_kets(n, [2], 3, np.random.default_rng(300 + n))
        sites = tuple(range(1, n, 2))
        k = len(sites)
        oracle = partial_trace_entropies(kets, n, sites)
        shapes = count_eigh(monkeypatch, "eigvalsh")
        for charges, sizes in [
            # One popcount: a block per q ones on the set, formed on its smaller
            # side; a block of rank one is read as its weight.
            ([2], [min(math.comb(k, q), math.comb(n - k, 2 - q)) for q in range(3)]),
            # Two popcounts: one block over every configuration of the set.
            ([2, 3], [2 ** min(k, n - k)]),
        ]:
            shapes.clear()
            states, batch = sector_batch(n, charges, kets)
            (entropies,) = causalscan._entropies(states, batch, n, [sites])
            assert shapes == [(3, size, size) for size in sizes if size > 1]
            assert np.max(np.abs(entropies - oracle)) <= 1e-12

    def test_paper_scan_takes_each_site_set_once_per_branch(self, monkeypatch):
        calls = []
        entropies = causalscan._entropies

        def counted(states, kets, n_sites, site_sets):
            calls.append(list(site_sets))
            return entropies(states, kets, n_sites, site_sets)

        monkeypatch.setattr(causalscan, "_entropies", counted)
        arrival_scan(PAPER_SCAN)
        # One call per branch, each with 13 site sets: B = {d-1} and
        # C = {0..d-2} for d = 2..7 in the 7-site branch register; BC at d is
        # C at d+1, but for {0..6}.
        assert [len(site_sets) for site_sets in calls] == [13, 13]
        assert all(len(set(site_sets)) == 13 for site_sets in calls)

    def test_paper_scan_calls_no_eigensolver_for_its_entropies(self, monkeypatch):
        vectors, values = count_eigh(monkeypatch), count_eigh(monkeypatch, "eigvalsh")
        arrival_scan(PAPER_SCAN)
        # The closed form diagonalizes nothing. The popcount-1 branch has two
        # blocks per cut and one for the whole register, all of rank one; the
        # popcount-0 branch is one basis state, with every entropy 0.
        assert vectors == values == []

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rank_one_blocks_read_as_weights(self, n, monkeypatch):
        # Evolved XX basis states of every popcount M, cut after every k = 1..N
        # sites. Only the blocks wider than one configuration on both sides
        # (2 <= M <= N - 2, at an inner q) reach the eigensolver.
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        shapes = count_eigh(monkeypatch, "eigvalsh")
        for charge in range(n + 1):
            spec = "basis:" + "1" * charge + "0" * (n - charge)
            states, kets = _evolve_grid(h, initial_ket(h, spec).amplitudes, np.array([0.7, 1.9]))
            site_sets = [tuple(range(k)) for k in range(1, n + 1)]
            shapes.clear()
            entropies = causalscan._entropies(states, kets, n, site_sets)
            wide = [
                (2, size, size)
                for k in range(1, n + 1)
                for q in range(max(0, charge - n + k), min(k, charge) + 1)
                if (size := min(math.comb(k, q), math.comb(n - k, charge - q))) > 1
            ]
            assert shapes == wide and bool(wide) == (2 <= charge <= n - 2 and n >= 4)
            full = np.zeros((2, 2**n), dtype=complex)
            full[:, states] = kets
            for row, ket in enumerate(full):
                # A pure state's set and complement share their entropy; the
                # whole register's is 0.
                rho = Ket(n, ket).density_matrix()
                oracle = [
                    von_neumann_entropy(partial_trace(rho, sites if 2 * k <= n else range(k, n)))
                    for k, sites in enumerate(site_sets[:-1], start=1)
                ]
                assert np.max(np.abs(entropies[:-1, row] - oracle)) <= 1e-12
            assert np.max(np.abs(entropies[-1])) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    def test_one_basis_state_has_zero_entropies(self, n):
        # A batch on one state skips the pass. The general path reads the same
        # state beside a zero amplitude on another of its popcount (rank-one
        # blocks) or of another popcount (one block, through eigvalsh).
        site_sets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        phases = np.exp(2j * np.pi * np.random.default_rng(n).uniform(size=(3, 1)))
        ones = popcounts(n)
        for state in range(2**n):
            alone = causalscan._entropies(np.array([state]), phases, n, site_sets)
            assert np.array_equal(alone, np.zeros((len(site_sets), 3)))
            alike = np.flatnonzero(ones == ones[state])
            for other in {int(alike[alike != state][0]) if alike.size > 1 else state ^ 1, state ^ 1}:
                states = np.sort([state, other])
                kets = np.where(states == state, phases, 0.0)
                padded = causalscan._entropies(states, kets, n, site_sets)
                assert np.max(np.abs(padded - alone)) <= 1e-15

    def test_tfim_quench_series_takes_one_block_per_cut(self, monkeypatch):
        shapes = count_eigh(monkeypatch, "eigvalsh")
        config = ScanConfig(
            model=ChainModel("tfim", 6, 1.0, 1.0), initial="ground", protocol="quench-at-zero",
            grid=TimeGrid(1.0, 0.1), site_a=0, site_b=3,
        )
        qcmi_time_series(config)
        # Both branches; B = (3,), C = (1, 2), BC = (1, 2, 3), each on its smaller side.
        assert sorted(shapes) == sorted([(11, 2, 2), (11, 4, 4), (11, 8, 8)] * 2)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_batches_span_exactly_the_occupied_popcount(self, n):
        # An XX basis state with M ones spans the C(N, M) states of popcount M;
        # measure-at-t branch x (the measured site dropped), the C(N-1, M-x) of
        # popcount M - x.
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        ones, branch_ones = popcounts(n), popcounts(n - 1)
        times = TimeGrid(1.0, 0.1).times
        for spec in ("basis:1" + "0" * (n - 1), "basis:" + ("10" * n)[:n], "basis:" + "1" * n):
            psi0 = initial_ket(h, spec).amplitudes
            charge = spec.count("1")
            states, kets = _evolve_grid(h, psi0, times)
            assert np.array_equal(states, np.flatnonzero(ones == charge))
            assert states.size == math.comb(n, charge) and kets.shape == (times.size, states.size)
            assert np.array_equal(np.unique(ones[states]), [charge])
            for a in sorted({0, n // 2, n - 1}):
                branches = causalscan._measure_z(states, kets, a, n)
                kept = causalscan._measure_z(states, kets, a, n, keep_site=True)
                assert len(branches) == len(kept) == (2 if 0 < charge < n else 1)
                for (_, (inside, branch)), (_, (full, _)) in zip(branches, kept):
                    bits = [format(s, f"0{n}b") for s in full]
                    (x,) = {int(b[a]) for b in bits}
                    assert np.array_equal(full, np.flatnonzero((ones == charge) & (
                        np.arange(2**n) >> (n - 1 - a) & 1 == x
                    )))
                    assert list(inside) == [int(b[:a] + b[a + 1:], 2) for b in bits]
                    assert np.array_equal(inside, np.flatnonzero(branch_ones == charge - x))
                    assert inside.size == math.comb(n - 1, charge - x)
                    assert np.array_equal(np.unique(branch_ones[inside]), [charge - x])
            # quench-at-zero: an outcome of site 0 at t = 0 keeps popcount M.
            for _, (full, ket) in causalscan._measure_z(
                np.arange(2**n), psi0[None], 0, n, keep_site=True
            ):
                branch = np.zeros(2**n, dtype=complex)
                branch[full] = ket[0]
                assert np.array_equal(_evolve_grid(h, branch, times)[0], states)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ground_states_span_their_sectors(self, n):
        times = TimeGrid(1.0, 0.1).times
        tfim = build_model(ChainModel("tfim", n, 1.0, 0.7))
        states, _ = _evolve_grid(tfim, initial_ket(tfim, "ground").amplitudes, times)
        assert np.array_equal(states, np.arange(2**n))
        assert np.array_equal(np.unique(popcounts(n)[states]), np.arange(n + 1))
        # The XX ground state lies in one popcount sector, perhaps in one site-
        # reversal block of it, so its span is that popcount's states or fewer.
        xx = build_model(ChainModel("xx", n, 1.0, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a degenerate ground state
            psi0 = initial_ket(xx, "ground").amplitudes
        (charge,) = np.unique(popcounts(n)[psi0 != 0.0])
        states, _ = _evolve_grid(xx, psi0, times)
        assert np.array_equal(np.unique(popcounts(n)[states]), [charge])
        assert np.all(np.isin(np.flatnonzero(psi0), states))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_reversal_odd_state_spans_no_palindrome(self, n):
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        states, _ = _evolve_grid(h, reversal_odd_ket(n).amplitudes, TimeGrid(1.0, 0.1).times)
        bits = [format(s, f"0{n}b") for s in range(2**n)]
        odd = [i for i, b in enumerate(bits) if b.count("1") == 2 and b != b[::-1]]
        assert list(states) == odd and states.size == math.comb(n, 2) - n // 2
        assert np.array_equal(np.unique(popcounts(n)[states]), [2])

    def test_paper_scan_evolves_one_excitation_batch(self, monkeypatch):
        h = build_model(PAPER_SCAN.model)
        use_chain(monkeypatch, h)
        returned = spy(monkeypatch, *EVOLUTIONS)
        arrival_scan(PAPER_SCAN)
        # The closed form evolves the one batch; the chain builds no bit action and no block.
        assert returned["_block_grid"] == [] and not {"_action", "_blocks"} & vars(h).keys()
        paper_kernel(monkeypatch)
        ((states, closed),) = returned["_excitation_grid"]
        ((block_states, kets),) = returned["_block_grid"]
        assert closed.shape == kets.shape == (501, 8)
        assert np.array_equal(states, 1 << np.arange(8))
        assert np.array_equal(block_states, states)
        assert np.max(np.abs(closed - kets)) <= 1e-12


def fake_branches(rows, rng):
    """Two branches whose S(B), S(C), S(BC) come from a table, not from kets.

    Each branch's (site sets, rows) entropy array holds B = (0,), C = (1,)
    and BC = (0, 1) in its rows 0, 1 and 2 (`CUTS`), and the table holds
    views of those rows: a write to the table reaches the branch.
    """
    weights = rng.dirichlet([1.0, 1.0], size=rows).T.copy()
    weights[0, ::9] = 0.0
    weights[1, ::9] = 1.0
    entropies = rng.uniform(0.0, 2.0, (2, 3, rows))
    table = {
        (x, sites): entropies[x, k] for x in (0, 1) for k, sites in enumerate(((0,), (1,), (0, 1)))
    }
    for x in (0, 1):
        # S(BC) = S(B) + S(C) - I(B:C), where I is a rounding negative on
        # about 30% of rows, to exercise the clamp.
        mi = rng.uniform(0.0, 1.0, rows)
        mi[rng.random(rows) < 0.3] *= -0.9 * NEGATIVITY_TOL
        table[x, (0, 1)][:] = table[x, (0,)] + table[x, (1,)] - mi
    branches = [(weights[x], entropies[x]) for x in (0, 1)]
    return branches, table


CUTS = np.array([[0, 1, 2]])


def loop_branch_average(branches, table):
    """The per-row, per-branch loop the batched branch sum replaced."""
    values = np.empty(branches[0][0].size)
    for i in range(values.size):
        total = 0.0
        for x, (weights, _) in enumerate(branches):
            if weights[i] > 0.0:
                s_b, s_c, s_bc = (table[x, sites][i] for sites in ((0,), (1,), (0, 1)))
                total += weights[i] * _clamped(s_b + s_c - s_bc)
        values[i] = _clamped(total)
    return values


class TestBatchedBranchSum:
    def test_matches_row_loop(self):
        branches, table = fake_branches(500, np.random.default_rng(31))
        (values,) = causalscan._branch_average(branches, CUTS)
        assert np.array_equal(values, loop_branch_average(branches, table))
        assert np.all(values >= 0.0)
        # One row per receiver; I(B:C) = I(C:B).
        swapped = causalscan._branch_average(branches, np.array([[0, 1, 2], [1, 0, 2]]))
        assert swapped.shape == (2, 500) and np.array_equal(swapped[0], swapped[1])

    def test_one_bad_term_in_500_raises(self):
        branches, table = fake_branches(500, np.random.default_rng(32))
        table[1, (0, 1)][317] = table[1, (0,)][317] + table[1, (1,)][317] + 2 * NEGATIVITY_TOL
        with pytest.raises(NumericalInstability):
            causalscan._branch_average(branches, CUTS)

    @pytest.mark.parametrize("bad", [2 * NEGATIVITY_TOL, np.nan])
    def test_bad_term_on_a_zero_weight_row_is_skipped(self, bad):
        branches, table = fake_branches(500, np.random.default_rng(33))
        row = 18  # a multiple of 9: branch 0 has weight 0 there
        assert branches[0][0][row] == 0.0
        table[0, (0, 1)][row] = table[0, (0,)][row] + table[0, (1,)][row] + bad
        (values,) = causalscan._branch_average(branches, CUTS)
        assert np.array_equal(values, loop_branch_average(branches, table))


class TestSingleExcitationClosedForm:
    """Scans from basis:10...0 on XX against the one-excitation closed form."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_series_match_closed_form(self, monkeypatch, n):
        for coupling, field in ((1.0, 0.0), (1.0, 0.3), (-0.7, 0.5)):
            model = ChainModel("xx", n, coupling, field)
            use_chain(monkeypatch, build_model(model))
            for protocol in causalscan.PROTOCOLS:
                for d in range(2, n):
                    config = ScanConfig(
                        model, initial="basis:1" + "0" * (n - 1), protocol=protocol,
                        grid=TimeGrid(5.0, 0.02), site_a=0, site_b=d,
                    )
                    series = qcmi_time_series(config)
                    exact = single_excitation_qcmi(n, coupling, series.times, d, protocol)
                    assert np.max(np.abs(series.values - exact)) <= 1e-12

    @pytest.mark.parametrize("n, coupling", [(9, -0.7), (12, 1.0)])
    def test_far_weight_crossing_eig_clamp(self, n, coupling):
        # Early on, the measure-at-t branch's weight past receiver 5 rises
        # through EIG_CLAMP. Taken as 1 - p_BC, it carries the rounding of the
        # whole norm and meets the clamp at other grid points than the
        # library's direct sum: such a helper was 2.1e-12 off at t = 0.3355
        # (N = 9) and t = 0.235 (N = 12).
        config = ScanConfig(
            ChainModel("xx", n, coupling, 0.0), initial="basis:1" + "0" * (n - 1),
            protocol="measure-at-t", grid=TimeGrid(0.4, 0.0005), site_a=0, site_b=5,
        )
        series = qcmi_time_series(config)
        weights = single_excitation_weights(n, coupling, series.times)
        far = weights[6:].sum(axis=0)[1:] / weights[1:].sum(axis=0)[1:]  # t > 0
        assert far.min() < EIG_CLAMP < far.max()
        exact = single_excitation_qcmi(n, coupling, series.times, 5, "measure-at-t")
        assert np.max(np.abs(series.values - exact)) <= 1e-12

    @staticmethod
    def closed_form_v_eff(n, t_max, dt):
        """v_eff of the measure-at-t XX scan (J = 1) over d = 2..N-1, from the closed form."""
        times = TimeGrid(t_max, dt).times
        rows = tuple(
            (d, arrival_time(times, single_excitation_qcmi(n, 1.0, times, d, "measure-at-t"),
                             0.03, "interp"))
            for d in range(2, n)
        )
        return fit_velocity(ArrivalTable(rows)).v_eff

    def test_v_eff_falls_toward_the_group_velocity(self):
        # The paper's finite propagation speed: v_eff at the paper's N = 8 is a
        # finite-size value that falls with N toward the group velocity 2J.
        sizes = (8, 12, 16, 24, 32, 50)
        v_eff = [self.closed_form_v_eff(n, max(5.0, 0.6 * n), 0.02) for n in sizes]
        assert all(a > b for a, b in zip(v_eff, v_eff[1:])), v_eff
        assert v_eff[-1] > xx_group_velocity(1.0) == 2.0
        assert abs(v_eff[-1] - 2.0925) <= 1e-4

    def test_v_eff_matches_the_benchmark_and_ci_values(self):
        # perfbench's arrival-xx8 reference (dt 0.01) and the CI's N = 12 scan.
        assert abs(self.closed_form_v_eff(8, 5.0, 0.01) - 2.520340227265703) <= 1e-9
        assert abs(self.closed_form_v_eff(12, 5.0, 0.02) - 2.3455639989173562) <= 1e-9

    def test_paper_scan_arrivals_are_closed_form_crossings(self):
        times = PAPER_SCAN.grid.times
        for d, t_arr in arrival_scan(PAPER_SCAN).rows:
            exact = single_excitation_qcmi(8, 1.0, times, d, "measure-at-t")
            assert abs(t_arr - arrival_time(times, exact, 0.03, "interp")) <= 1e-9


def one_excitation(n, site):
    return basis_ket([int(j == site) for j in range(n)]).amplitudes


class TestExcitationGrid:
    """The library's one-excitation closed form, held to the sector blocks."""

    TIMES = np.linspace(0.0, 5.0, 101)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_batch_matches_the_blocks(self, n):
        # Every one-excitation basis ket and one random complex superposition.
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        superposition = np.zeros(2**n, dtype=complex)
        spread = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
        superposition[1 << np.arange(n)] = spread / np.linalg.norm(spread)
        for psi0 in [one_excitation(n, site) for site in range(n)] + [superposition]:
            states, closed = _excitation_grid(h, psi0, self.TIMES)
            block_states, kets = _block_grid(h, psi0, self.TIMES)
            assert np.array_equal(states, 1 << np.arange(n))
            assert np.array_equal(block_states, states)
            assert closed.shape == kets.shape == (self.TIMES.size, n)
            assert np.max(np.abs(closed - kets)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_series_match_the_blocks_from_every_site(self, monkeypatch, n):
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        for site in range(n):
            psi0 = one_excitation(n, site)
            for a in sorted({0, n // 2}):
                receivers = [(b, tuple(range(min(a, b) + 1, max(a, b)))) for b in range(n) if b != a]
                for protocol in causalscan.PROTOCOLS:
                    args = (h, psi0, protocol, self.TIMES, a, receivers)
                    closed = causalscan._pure_series(*args)
                    assert not closed.flags.writeable
                    assert np.max(np.abs(closed - block_series(monkeypatch, *args))) <= 1e-12

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_time_series_from_end_and_inner_senders(self, monkeypatch, n, protocol):
        returned = spy(monkeypatch, *EVOLUTIONS)
        h = build_model(ChainModel("xx", n, -0.7, 0.5))
        scans = []
        for a, b in ((0, n - 1), (1, n - 1), (n // 2, 0), (n - 1, 1)):
            c = tuple(range(min(a, b) + 1, max(a, b)))
            for site in sorted({0, a, b, n // 2}):
                config = ScanConfig(
                    h.model, initial="basis:" + "".join(str(int(j == site)) for j in range(n)),
                    protocol=protocol, grid=TimeGrid(3.0, 0.05), site_a=a, site_b=b,
                )
                scans.append((qcmi_time_series(config), site, a, [(b, c)]))
        # A basis state keeps one outcome of A under either protocol: one evolution a scan.
        assert call_counts(returned) == {"_block_grid": 0, "_excitation_grid": len(scans)}
        for series, site, a, receivers in scans:
            args = (h, one_excitation(n, site), protocol, series.times, a, receivers)
            (expected,) = block_series(monkeypatch, *args)
            assert np.max(np.abs(series.values - expected)) <= 1e-12

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_a_one_excitation_ground_state(self, monkeypatch, protocol):
        # With J = 1 the XX ground state holds one excitation for
        # -cos(pi / (N+1)) < h < -cos(2 pi / (N+1)): (-0.901, -0.623) at N = 6.
        model = ChainModel("xx", 6, 1.0, -0.75)
        h = build_model(model)
        ground = ground_state(h)
        assert ground.gap > 1e-2
        excited = np.flatnonzero(ground.state.amplitudes)
        assert excited.size == 6 and np.all(popcounts(6)[excited] == 1)
        returned = spy(monkeypatch, *EVOLUTIONS)
        config = ScanConfig(
            model, initial="ground", protocol=protocol, grid=TimeGrid(3.0, 0.05), d_min=2, d_max=5,
            crossing="interp",
        )
        series = qcmi_time_series(replace(config, d_min=None, d_max=None, site_a=1, site_b=4))
        table = arrival_scan(config)
        # Two scans; quench-at-zero evolves both outcomes of A at t = 0, each in closed form.
        closed = 2 if protocol == "measure-at-t" else 4
        assert call_counts(returned) == {"_block_grid": 0, "_excitation_grid": closed}
        psi0 = ground.state.amplitudes
        (expected,) = block_series(monkeypatch, h, psi0, protocol, series.times, 1, [(4, (2, 3))])
        assert np.max(np.abs(series.values - expected)) <= 1e-12
        receivers = [(d, tuple(range(1, d))) for d in range(2, 6)]
        rows = block_series(monkeypatch, h, psi0, protocol, series.times, 0, receivers)
        for (d, t_arr), row in zip(table.rows, rows):
            expected = arrival_time(series.times, row, 0.03, "interp")
            assert t_arr == expected if expected is None else abs(t_arr - expected) <= 1e-9
        if protocol == "quench-at-zero":
            assert np.max(series.values) > 0.1  # a stationary state moves only after the quench

    @pytest.mark.parametrize(
        "kind, field, initial",
        [
            ("tfim", 0.7, "basis:1000"),
            ("tfim", 0.0, "basis:1000"),
            ("xx", 0.3, "basis:0000"),
            ("xx", 0.3, "basis:1100"),
            ("xx", 0.3, "basis:0101"),
            ("xx", 0.3, "ground"),
        ],
    )
    def test_every_other_state_evolves_on_the_blocks(self, monkeypatch, kind, field, initial):
        returned = spy(monkeypatch, *EVOLUTIONS)
        config = ScanConfig(
            ChainModel(kind, 4, 1.0, field), initial=initial, grid=TimeGrid(0.4, 0.2),
            site_a=0, site_b=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # TFIM at h = 0 is degenerate
            qcmi_time_series(config)
            arrival_scan(replace(config, site_a=None, site_b=None, d_min=2, d_max=3))
        # measure-at-t: one evolution a scan.
        assert call_counts(returned) == {"_block_grid": 2, "_excitation_grid": 0}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_evolve_ket_takes_the_closed_form(self, monkeypatch, n):
        h = build_model(ChainModel("xx", n, 1.0, 0.3))
        returned = spy(monkeypatch, *EVOLUTIONS)
        for site in range(n):
            ket = basis_ket([int(j == site) for j in range(n)])
            for t in (0.0, 1.3, 4.1):
                dense = propagator(h, t).matrix @ ket.amplitudes
                assert np.max(np.abs(evolve_ket(h, ket, t).amplitudes - dense)) <= 1e-12
        assert call_counts(returned) == {"_block_grid": 0, "_excitation_grid": 3 * n}

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    def test_only_the_block_path_builds_the_action_and_the_blocks(self, protocol):
        receivers = [(d, tuple(range(1, d))) for d in range(2, 6)]
        for kind, spec, built in [
            ("xx", "basis:100000", False),
            ("xx", "basis:110000", True),
            ("tfim", "basis:100000", True),
        ]:
            h = build_model(ChainModel(kind, 6, 1.0, 0.3))
            assert "_action" not in vars(h) and "_blocks" not in vars(h)
            psi0 = initial_ket(h, spec).amplitudes
            causalscan._pure_series(h, psi0, protocol, self.TIMES, 0, receivers)
            assert ("_action" in vars(h), "_blocks" in vars(h)) == (built, built)

    @pytest.mark.parametrize("protocol", ["measure-at-t", "quench-at-zero"])
    @pytest.mark.parametrize("defect", ["scaled", "nan"])
    def test_evolved_norms_are_checked(self, monkeypatch, protocol, defect):
        modes = spinchain._hopping_modes

        def broken(n_sites, coupling):
            energies, phi = modes(n_sites, coupling)
            if defect == "scaled":
                return energies, 1.01 * phi  # a non-orthogonal mode matrix
            return energies, np.where(phi == phi[0, 0], np.nan, phi)

        monkeypatch.setattr(spinchain, "_hopping_modes", broken)
        with pytest.raises(NumericalInstability, match="evolved norm defect"):
            qcmi_time_series(xx_config(protocol=protocol, grid=TimeGrid(0.2, 0.1)))


class TestSymmetriesAtEleven:
    """Oracle-free checks at N = 11: two kernel runs that reach one answer
    through different sectors, bit patterns or site maps."""

    TIMES = np.linspace(0.0, 5.0, 51)

    @staticmethod
    def series(h, bits, protocol, senders):
        psi0 = basis_ket(bits).amplitudes
        return np.concatenate([
            causalscan._pure_series(h, psi0, protocol, TestSymmetriesAtEleven.TIMES, a, receivers)
            for a, receivers in senders.items()
        ])

    @pytest.mark.parametrize("protocol", causalscan.PROTOCOLS)
    def test_xx_basis_series_do_not_depend_on_the_field(self, protocol):
        # h * sum(sigma_z) is constant on a popcount sector: a global phase.
        senders = {
            0: [(b, tuple(range(1, b))) for b in (2, 5, 10)],
            5: [(9, (6, 7, 8)), (1, (2, 3, 4))],
            10: [(7, (8, 9))],
        }
        bits = [1, 1] + [0] * 9
        series = [
            self.series(build_model(ChainModel("xx", 11, 1.0, h)), bits, protocol, senders)
            for h in (0.0, 0.3, 5.0)
        ]
        assert np.max(series[0]) > 0.1  # the index has left zero
        for other in series[1:]:
            assert np.max(np.abs(other - series[0])) <= 1e-12

    @pytest.mark.parametrize("protocol", causalscan.PROTOCOLS)
    def test_tfim_mirror(self, protocol):
        # Sender 0 and receivers b on a state against sender 10 and receivers
        # 10 - b on its bit reversal.
        h = build_model(ChainModel("tfim", 11, 1.0, 0.7))
        bits = [1, 0, 1, 1] + [0] * 7
        receivers = [(b, tuple(range(1, b))) for b in (2, 6, 10)]
        mirrored = [(10 - b, tuple(10 - c for c in cs)) for b, cs in receivers]
        forward = self.series(h, bits, protocol, {0: receivers})
        backward = self.series(h, bits[::-1], protocol, {10: mirrored})
        assert np.max(forward) > 0.1
        assert np.max(np.abs(forward - backward)) <= 1e-12

    SENDERS = {0: [(b, tuple(range(1, b))) for b in (2, 6, 10)], 10: [(7, (8, 9))]}

    @pytest.mark.parametrize("protocol", causalscan.PROTOCOLS)
    def test_tfim_global_spin_flip(self, protocol):
        # The flip of every spin commutes with H and maps z outcomes onto each
        # other; the state and its flip each reach all four parity blocks.
        h = build_model(ChainModel("tfim", 11, 1.0, 0.7))
        bits = [1, 0, 1, 1] + [0] * 7
        psi0 = basis_ket(bits).amplitudes
        assert all(np.any(block.project(psi0)) for block in h._blocks) and len(h._blocks) == 4
        forward = self.series(h, bits, protocol, self.SENDERS)
        backward = self.series(h, [1 - bit for bit in bits], protocol, self.SENDERS)
        assert np.max(forward) > 0.1
        assert np.max(np.abs(forward - backward)) <= 1e-12

    @pytest.mark.parametrize("protocol", causalscan.PROTOCOLS)
    def test_xx_mirror(self, monkeypatch, protocol):
        # As the TFIM mirror; one excitation evolves in closed form, two and
        # three on the blocks.
        h = build_model(ChainModel("xx", 11, 1.0, 0.3))
        receivers = [(d, tuple(range(1, d))) for d in (2, 5, 10)]
        mirrored = [(10 - b, tuple(10 - c for c in cs)) for b, cs in receivers]
        returned = spy(monkeypatch, *EVOLUTIONS)
        for pattern in ("10000000000", "11000000000", "10010000100"):
            bits = [int(bit) for bit in pattern]
            forward = self.series(h, bits, protocol, {0: receivers})
            backward = self.series(h, bits[::-1], protocol, {10: mirrored})
            assert np.max(forward) > 0.1
            assert np.max(np.abs(forward - backward)) <= 1e-12
        assert call_counts(returned) == {"_block_grid": 4, "_excitation_grid": 2}

    @pytest.mark.parametrize("protocol", causalscan.PROTOCOLS)
    def test_xx_particle_hole(self, protocol):
        # Flipping every bit maps H(h) onto H(-h): popcount 2 runs against
        # popcount 9, the other half of the popcount blocks.
        bits = [1, 1] + [0] * 9
        particles, holes = (
            self.series(build_model(ChainModel("xx", 11, 1.0, h)), pattern, protocol, self.SENDERS)
            for h, pattern in ((0.3, bits), (-0.3, [1 - bit for bit in bits]))
        )
        assert np.max(particles) > 0.1
        assert np.max(np.abs(particles - holes)) <= 1e-12


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


def scalar_crossing(times, values, threshold, crossing):
    """The one-row crossing rule as a scalar loop: the oracle of `_crossings`."""
    for i, value in enumerate(values):
        if value >= threshold:
            if crossing == "first-sample" or i == 0:
                return float(times[i])
            t0, t1, v0, v1 = times[i - 1], times[i], values[i - 1], values[i]
            return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))
    return None


class TestCrossingRows:
    """`_crossings` reads every row of a (rows, times) series in one pass."""

    @pytest.mark.parametrize("crossing", causalscan.CROSSINGS)
    def test_rows_match_the_scalar_rule_and_arrival_time(self, crossing):
        rng = np.random.default_rng(62)
        times = np.linspace(0.0, 2.0, 41)
        series = np.cumsum(rng.uniform(0.0, 0.004, (8, times.size)), axis=1)
        series[1] = 0.0  # never crosses
        series[2, 0] = 0.5  # crosses at index 0
        series[3, :-1], series[3, -1] = 0.01, 0.04  # crosses at the last index
        series[4] = 0.03  # on the threshold at every sample
        found = causalscan._crossings(times, series, 0.03, crossing)
        assert found == [scalar_crossing(times, row, 0.03, crossing) for row in series]
        assert found == [arrival_time(times, row, 0.03, crossing) for row in series]
        assert found[1] is None and found[2] == found[4] == 0.0 and found[3] > times[-2]
        assert all(0.0 < found[row] < times[-1] for row in (0, 5, 6, 7))

    @pytest.mark.parametrize("crossing", causalscan.CROSSINGS)
    def test_one_point_grid(self, crossing):
        times = np.array([0.0])
        series = np.array([[0.0], [0.03], [0.7]])
        found = causalscan._crossings(times, series, 0.03, crossing)
        assert found == [None, 0.0, 0.0]
        assert found == [arrival_time(times, row, 0.03, crossing) for row in series]


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

    def test_distance_one_raises_empty_conditioner(self):
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
