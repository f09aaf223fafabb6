"""Directional-QCMI time series, arrival detection and velocity fits.

Two intervention protocols are supported. ``measure-at-t`` evolves the
initial state to each grid time and measures A there; this is the protocol
behind arrival times. ``quench-at-zero`` measures A once at t=0 and evolves
every outcome branch separately. Distances start at d=2: at d=1 the
conditioning set C is empty and every scan raises `EmptyConditioner`.

Every initial state is pure and a projective-z measurement keeps it pure, so
scans run on amplitudes: psi(t) is evolved once for the whole grid, A is
measured by slicing its axis, and entropies come from the Gram matrix on the
smaller side of each cut. Entropies and branch sums are batched over the
whole grid: one `eigvalsh` call per site set and branch, and the clamp rules
of `asymmetric_qcmi` applied to every time at once. The dense density-matrix
functions (`asymmetric_qcmi`, `apply_instrument`, `evolve`) compute the same
values and are the oracle the tests hold this kernel to.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DegenerateMeasurement, EmptyConditioner, InsufficientData, InvalidInput
from .infomeasures import Partition, _clamped_values
from .instrument import PROBABILITY_FLOOR, projective_z_instrument
from .qstate import Ket, basis_ket, entropies_from_eigenvalues
from .qstate import check_integer, check_real, check_site_pair
from .spinchain import DEGENERACY_GAP, ChainModel, Hamiltonian, _evolve_grid, build_model
from .spinchain import ground_state

# Unused here since scans run on amplitudes; perfbench/test_perfbench.py
# checks that the tracer patches this imported name, so it stays importable.
from .spinchain import evolve  # noqa: F401

PROTOCOLS = ("measure-at-t", "quench-at-zero")
CROSSINGS = ("first-sample", "interp")

DEFAULT_DT = 0.02
DEFAULT_T_MAX = 5.0
DEFAULT_THRESHOLD = 0.03

# Largest (grid points) x 2^N complex amplitude batch a scan may hold: 2^25
# amplitudes, 512 MiB. Measured scan peaks (tracemalloc, build included; N =
# 4, 8, 12, both protocols, basis and ground states, series and arrival
# scans) grow by 2 to 5.25 times the batch, the most for a quench-at-zero
# scan from the ground state at N = 4. A ground-state scan at N = 12 adds
# about 160 MiB for the dense eigenvector matrix. So a scan at the limit stays
# under about 3 GiB. At N = 12 that is 8192 grid points; at 4096 points a
# TFIM ground-state quench-at-zero series peaked at 1514 MiB resident.
MAX_SCAN_AMPLITUDES = 2**25


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, 2dt, ... up to (and including) t_max."""

    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if not check_real(self.t_max, "t_max") > 0:
            raise InvalidInput(f"t_max must be positive and finite, got {self.t_max!r}")
        if not check_real(self.dt, "dt") > 0:
            raise InvalidInput(f"dt must be positive and finite, got {self.dt!r}")
        if self.dt > self.t_max:
            raise InvalidInput(f"dt={self.dt} exceeds t_max={self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise InvalidInput(f"t_max / dt overflows: t_max={self.t_max}, dt={self.dt}")

    @property
    def n_points(self) -> int:
        """Number of grid times, counted without building them."""
        return int(math.floor(self.t_max / self.dt + 1e-9)) + 1

    def check_batch(self, n_sites: int) -> None:
        """Refuse a grid whose (points x 2^n_sites) batch exceeds MAX_SCAN_AMPLITUDES."""
        amplitudes = self.n_points * 2**n_sites
        if amplitudes > MAX_SCAN_AMPLITUDES:
            raise InvalidInput(
                f"{self.n_points} grid points x 2^{n_sites} amplitudes = {amplitudes} exceeds "
                f"the scan limit of {MAX_SCAN_AMPLITUDES}; raise dt or lower t_max"
            )

    @cached_property
    def times(self) -> np.ndarray:
        times = self.dt * np.arange(self.n_points)
        times.setflags(write=False)
        return times


@dataclass(frozen=True)
class ScanConfig:
    """Everything needed to reproduce a series or a distance scan.

    A time series reads `site_a` and `site_b`; an arrival scan reads `d_min`
    and `d_max`, and each refuses the other's fields rather than ignore them.
    Only arrival scans read `threshold` and `crossing`.
    """

    model: ChainModel
    initial: str = "ground"
    protocol: str = "measure-at-t"
    grid: TimeGrid = field(default_factory=TimeGrid)
    threshold: float = DEFAULT_THRESHOLD
    crossing: str = "first-sample"
    site_a: int | None = None
    site_b: int | None = None
    d_min: int | None = None
    d_max: int | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise InvalidInput(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        _check_detection(self.threshold, self.crossing)


def _check_detection(threshold: float, crossing: str) -> None:
    """The threshold and crossing rule of both `ScanConfig` and `arrival_time`."""
    if not check_real(threshold, "threshold") > 0:
        raise InvalidInput(f"threshold must be positive, got {threshold!r}")
    if crossing not in CROSSINGS:
        raise InvalidInput(f"crossing must be one of {CROSSINGS}, got {crossing!r}")


@dataclass(frozen=True)
class QcmiSeries:
    config: ScanConfig
    instrument_label: str
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ArrivalTable:
    """Per-distance arrival times; None marks a threshold never crossed."""

    rows: tuple[tuple[int, float | None], ...]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    v_eff: float | None
    residual_sum_squares: float
    n_points: int
    note: str | None = None


def _basis_bits(spec: str, n_sites: int) -> list[int] | None:
    """The bits of a 'basis:<bits>' spec for `n_sites` sites; None for 'ground'."""
    if spec == "ground":
        return None
    if isinstance(spec, str) and spec.startswith("basis:"):
        text = spec[len("basis:"):]
        if not text or any(ch not in "01" for ch in text):
            raise InvalidInput(f"basis spec must be a 0/1 string, got {spec!r}")
        if len(text) != n_sites:
            raise InvalidInput(f"basis spec has {len(text)} bits for a {n_sites}-site chain")
        return [int(ch) for ch in text]
    raise InvalidInput(f"initial state must be 'ground' or 'basis:<bits>', got {spec!r}")


def initial_ket(hamiltonian: Hamiltonian, spec: str) -> Ket:
    """Resolve an initial-state spec: 'ground' or 'basis:<bits>'.

    A degenerate ground state raises one RuntimeWarning that names the gap and
    the tie rule; the scan then runs on the state that rule picks.
    """
    bits = _basis_bits(spec, hamiltonian.n_sites)
    if bits is not None:
        return basis_ket(bits)
    ground = ground_state(hamiltonian)
    if ground.degenerate:
        values = hamiltonian.spectrum[0]
        warnings.warn(
            f"degenerate ground state: the two lowest energies differ by "
            f"{values[1] - values[0]:.3e} < {DEGENERACY_GAP:g}; using the lowest state of the "
            f"first sector in the fixed order (ascending popcount, else even spin-flip parity "
            f"first; site-reversal even before odd)",
            RuntimeWarning,
            stacklevel=2,
        )
    return ground.state


def _check_scan_inputs(config: ScanConfig) -> None:
    """The initial-state spec and the amplitude batch size, checked before any build."""
    _basis_bits(config.initial, config.model.n_sites)
    config.grid.check_batch(config.model.n_sites)


def _series_partition(config: ScanConfig, n_sites: int) -> Partition:
    """(A, B, C) of a time series; the sites follow `check_site_pair`."""
    if config.site_a is None or config.site_b is None:
        raise InvalidInput("time series needs both site_a and site_b")
    if config.d_min is not None or config.d_max is not None:
        raise InvalidInput("a time series takes site_a and site_b, not d_min or d_max")
    a, b = check_site_pair(config.site_a, config.site_b, n_sites)
    between = tuple(range(min(a, b) + 1, max(a, b)))
    if not between:
        raise EmptyConditioner(
            f"no intermediate sites between {a} and {b}; distances start at 2"
        )
    return Partition((a,), (b,), between)


def _hamiltonian(config: ScanConfig, hamiltonian: Hamiltonian | None) -> Hamiltonian:
    if hamiltonian is None:
        return build_model(config.model)
    if hamiltonian.model != config.model:
        raise InvalidInput("supplied Hamiltonian does not match the configured model")
    return hamiltonian


def _measure_z(kets: np.ndarray, site: int, n_sites: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Projective-z measurement of `site` on every row of a (T, 2^n) ket batch.

    Slicing the site's axis gives the branch kets without that site; their
    squared norms are the outcome probabilities. Floor, renormalization and
    degeneracy follow `apply_instrument`. Returns (weights, normalized kets)
    per outcome; a branch dropped at some row has weight 0 and a zero ket there.
    """
    rows = kets.shape[0]
    tensor = kets.reshape(rows, 2**site, 2, 2 ** (n_sites - site - 1))
    slices = [tensor[:, :, x, :].reshape(rows, -1) for x in (0, 1)]
    probs = np.stack([np.sum(np.abs(branch) ** 2, axis=1) for branch in slices], axis=1)
    kept = probs >= PROBABILITY_FLOOR
    if not np.all(np.any(kept, axis=1)):
        raise DegenerateMeasurement("every outcome fell below the probability floor")
    total = np.sum(np.where(kept, probs, 0.0), axis=1)
    scale = np.where(kept, 1.0 / np.sqrt(np.where(kept, probs, 1.0)), 0.0)
    weights = np.where(kept, probs / total[:, None], 0.0)
    return [(weights[:, x], slices[x] * scale[:, x, None]) for x in (0, 1)]


def _entropies(kets: np.ndarray, n_sites: int, sites: tuple[int, ...]) -> np.ndarray:
    """Entropy of `sites` for every pure state in a (T, 2^n) ket batch.

    The reduced state of `sites` and of its complement share their nonzero
    spectrum, so the Gram matrix is formed on whichever side is smaller.
    """
    rest = [s for s in range(n_sites) if s not in sites]
    axes = [0] + [1 + s for s in sites] + [1 + s for s in rest]
    tensor = kets.reshape((kets.shape[0],) + (2,) * n_sites).transpose(axes)
    mat = tensor.reshape(kets.shape[0], 2 ** len(sites), 2 ** len(rest))
    if mat.shape[1] > mat.shape[2]:
        mat = mat.transpose(0, 2, 1)
    gram = mat @ mat.conj().transpose(0, 2, 1)
    return entropies_from_eigenvalues(np.linalg.eigvalsh(gram))


def _branch_average(branches, n_sites: int, b: tuple[int, ...], c: tuple[int, ...]) -> np.ndarray:
    """Per-row sum over branches of weight * I(B:C), clamped as in `asymmetric_qcmi`.

    A branch's term is checked and clamped only on rows where its weight is
    positive; elsewhere the branch was dropped and contributes nothing.
    """
    values = np.zeros(branches[0][0].size)
    bc = tuple(sorted(b + c))
    terms = [
        (weights, *(_entropies(kets, n_sites, sites) for sites in (b, c, bc)))
        for weights, kets in branches
    ]
    for weights, s_b, s_c, s_bc in terms:
        values += weights * _clamped_values(np.where(weights > 0.0, s_b + s_c - s_bc, 0.0))
    return _clamped_values(values)


def _pure_series(
    h: Hamiltonian, config: ScanConfig, site_a: int, receivers: list[tuple[int, tuple[int, ...]]]
) -> list[np.ndarray]:
    """QCMI series of sender `site_a` against each (B site, C sites) receiver.

    psi(t) (or, for quench-at-zero, each branch ket) is evolved once for the
    whole grid and shared by every receiver. measure-at-t slices A out of
    psi(t), so sites after A move down by one in the branch register;
    quench-at-zero keeps A, in its measured state, on the full register.
    """
    psi0 = initial_ket(h, config.initial)
    times = config.grid.times
    n = h.n_sites
    if config.protocol == "measure-at-t":
        branches = _measure_z(_evolve_grid(h, psi0.amplitudes, times), site_a, n)
        register = n - 1
        shift = [s - (s > site_a) for s in range(n)]
    else:  # quench-at-zero
        branches = []
        for x, (weight, ket) in enumerate(_measure_z(psi0.amplitudes[None, :], site_a, n)):
            if weight[0] > 0.0:
                full = np.zeros((2**site_a, 2, 2 ** (n - site_a - 1)), dtype=complex)
                full[:, x, :] = ket.reshape(2**site_a, -1)
                branches.append(
                    (np.full(times.size, weight[0]), _evolve_grid(h, full.reshape(-1), times))
                )
        register = n
        shift = list(range(n))
    return [
        _branch_average(branches, register, (shift[b],), tuple(shift[s] for s in c))
        for b, c in receivers
    ]


def qcmi_time_series(config: ScanConfig, hamiltonian: Hamiltonian | None = None) -> QcmiSeries:
    """Directional QCMI over the configured time grid for one partition."""
    partition = _series_partition(config, config.model.n_sites)
    _check_scan_inputs(config)
    h = _hamiltonian(config, hamiltonian)
    instrument = projective_z_instrument(partition.a[0], h.n_sites)
    values = _pure_series(h, config, partition.a[0], [(partition.b[0], partition.c)])[0]
    values.setflags(write=False)
    return QcmiSeries(
        config=config,
        instrument_label=instrument.describe,
        times=config.grid.times,
        values=values,
    )


def _real_series(values, name: str) -> np.ndarray:
    """`values` as a float array if it is a 1-d array of finite reals; else `InvalidInput`."""
    message = f"{name} must be a 1-d array of finite reals"
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nested sequence
        raise InvalidInput(message) from None
    if array.ndim != 1 or array.dtype.kind not in "iuf" or not np.all(np.isfinite(array)):
        raise InvalidInput(message)
    return array.astype(float, copy=False)


def arrival_time(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    crossing: str = "first-sample",
) -> float | None:
    """First time the series reaches the threshold; None if it never does.

    `times` and `values` must be 1-d arrays of finite reals of one shape.
    """
    _check_detection(threshold, crossing)
    times, values = _real_series(times, "times"), _real_series(values, "values")
    if times.shape != values.shape:
        raise InvalidInput("times and values must have matching shapes")
    hits = np.nonzero(values >= threshold)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    if crossing == "first-sample" or i == 0:
        return float(times[i])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))


def arrival_scan(config: ScanConfig, hamiltonian: Hamiltonian | None = None) -> ArrivalTable:
    """Arrival times for sender site 0 against receivers at d = d_min..d_max."""
    if config.d_min is None or config.d_max is None:
        raise InvalidInput("arrival scan needs d_min and d_max")
    if config.site_a is not None or config.site_b is not None:
        raise InvalidInput("an arrival scan sends from site 0; it takes no site_a or site_b")
    n = config.model.n_sites
    lo, hi = check_integer(config.d_min, "d_min"), check_integer(config.d_max, "d_max")
    if lo == 1:
        raise EmptyConditioner("d=1 leaves C empty; distances start at 2")
    if lo < 1:
        raise InvalidInput(f"distances must start at 2, got {lo}")
    if lo > hi or hi > n - 1:
        raise InvalidInput(f"distance range {lo}:{hi} invalid for {n} sites")
    _check_scan_inputs(config)

    h = _hamiltonian(config, hamiltonian)
    distances = range(lo, hi + 1)
    receivers = [(d, tuple(range(1, d))) for d in distances]
    series = _pure_series(h, config, 0, receivers)
    return ArrivalTable(tuple(
        (d, arrival_time(config.grid.times, values, config.threshold, config.crossing))
        for d, values in zip(distances, series)
    ))


def fit_velocity(table: ArrivalTable) -> FitResult:
    """Ordinary least squares of arrival time on distance; v_eff = 1/slope.

    Distances must be integers and arrival times finite reals; the rows with
    an arrival must span at least two distinct distances.
    """
    usable = [
        (check_integer(d, "distance"), check_real(t, "arrival time"))
        for d, t in table.rows
        if t is not None
    ]
    if len(usable) < 2:
        raise InsufficientData(
            f"velocity fit needs at least 2 arrival times, got {len(usable)}"
        )
    d = np.array([row[0] for row in usable], dtype=float)
    t = np.array([row[1] for row in usable], dtype=float)
    if np.unique(d).size < 2:
        raise InsufficientData(
            f"velocity fit needs at least 2 distinct distances, all arrivals are at d={d[0]:g}"
        )
    d_mean = d.mean()
    t_mean = t.mean()
    slope = float(np.sum((d - d_mean) * (t - t_mean)) / np.sum((d - d_mean) ** 2))
    intercept = float(t_mean - slope * d_mean)
    residuals = t - (slope * d + intercept)
    rss = float(np.sum(residuals**2))
    if slope > 0:
        return FitResult(slope, intercept, 1.0 / slope, rss, len(usable))
    return FitResult(
        slope, intercept, None, rss, len(usable),
        note=f"non-positive slope {slope:.6g}; effective velocity undefined",
    )
