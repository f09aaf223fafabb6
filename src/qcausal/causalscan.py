"""Directional-QCMI time series, arrival detection and velocity fits.

Two intervention protocols are supported. ``measure-at-t`` evolves the
initial state to each grid time and measures A there; this is the protocol
behind arrival times. ``quench-at-zero`` measures A once at t=0 and evolves
every outcome branch separately. Distances start at d=2 because at d=1 the
conditioning set C between sender and receiver is empty.

Every initial state is pure and a projective-z measurement keeps it pure, so
scans run on amplitudes: psi(t) is evolved once for the whole grid, A is
measured by slicing its axis, and entropies come from the Gram matrix on the
smaller side of each cut. The dense density-matrix functions
(`asymmetric_qcmi`, `apply_instrument`, `evolve`) compute the same values and
are the oracle the tests hold this kernel to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DegenerateMeasurement, EmptyConditioner, InsufficientData, InvalidInput
from .infomeasures import Partition, _clamped
from .instrument import PROBABILITY_FLOOR, projective_z_instrument
from .qstate import Ket, basis_ket, entropy_from_eigenvalues
from .spinchain import ChainModel, Hamiltonian, _evolve_grid, build_model, ground_state

# Unused here since scans run on amplitudes; perfbench/test_perfbench.py
# checks that the tracer patches this imported name, so it stays importable.
from .spinchain import evolve  # noqa: F401

PROTOCOLS = ("measure-at-t", "quench-at-zero")
CROSSINGS = ("first-sample", "interp")

DEFAULT_DT = 0.02
DEFAULT_T_MAX = 5.0
DEFAULT_THRESHOLD = 0.03


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, dt, 2dt, ... up to (and including) t_max."""

    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise InvalidInput(f"t_max must be positive and finite, got {self.t_max!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidInput(f"dt must be positive and finite, got {self.dt!r}")
        if self.dt > self.t_max:
            raise InvalidInput(f"dt={self.dt} exceeds t_max={self.t_max}")

    @cached_property
    def times(self) -> np.ndarray:
        steps = int(math.floor(self.t_max / self.dt + 1e-9))
        times = self.dt * np.arange(steps + 1)
        times.setflags(write=False)
        return times


@dataclass(frozen=True)
class ScanConfig:
    """Everything needed to reproduce a series or a distance scan."""

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
    allow_empty_c: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise InvalidInput(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.crossing not in CROSSINGS:
            raise InvalidInput(f"crossing must be one of {CROSSINGS}, got {self.crossing!r}")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise InvalidInput(f"threshold must be positive, got {self.threshold!r}")


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


def initial_ket(hamiltonian: Hamiltonian, spec: str) -> Ket:
    """Resolve an initial-state spec: 'ground' or 'basis:<bits>'."""
    if spec == "ground":
        return ground_state(hamiltonian).state
    if spec.startswith("basis:"):
        text = spec[len("basis:"):]
        if not text or any(ch not in "01" for ch in text):
            raise InvalidInput(f"basis spec must be a 0/1 string, got {spec!r}")
        if len(text) != hamiltonian.n_sites:
            raise InvalidInput(
                f"basis spec has {len(text)} bits for a {hamiltonian.n_sites}-site chain"
            )
        return basis_ket([int(ch) for ch in text])
    raise InvalidInput(f"initial state must be 'ground' or 'basis:<bits>', got {spec!r}")


def _series_partition(config: ScanConfig, n_sites: int) -> Partition:
    a, b = config.site_a, config.site_b
    if a is None or b is None:
        raise InvalidInput("time series needs both site_a and site_b")
    if a == b:
        raise InvalidInput("site_a and site_b must differ")
    if not (0 <= a < n_sites and 0 <= b < n_sites):
        raise InvalidInput(f"sites ({a}, {b}) out of range for {n_sites} sites")
    between = tuple(range(min(a, b) + 1, max(a, b)))
    if not between and not config.allow_empty_c:
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


def _entropies(kets: np.ndarray, n_sites: int, sites: tuple[int, ...]) -> list[float]:
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
    return [entropy_from_eigenvalues(lam) for lam in np.linalg.eigvalsh(gram)]


def _branch_average(branches, n_sites: int, b: tuple[int, ...], c: tuple[int, ...]) -> np.ndarray:
    """Per-row sum over branches of weight * I(B:C), clamped as in `asymmetric_qcmi`."""
    if not c:
        return np.zeros(branches[0][0].size)
    bc = tuple(sorted(b + c))
    terms = [
        (weights, *(_entropies(kets, n_sites, sites) for sites in (b, c, bc)))
        for weights, kets in branches
    ]
    values = np.empty(branches[0][0].size)
    for i in range(values.size):
        total = 0.0
        for weights, s_b, s_c, s_bc in terms:
            if weights[i] > 0.0:
                total += weights[i] * _clamped(s_b[i] + s_c[i] - s_bc[i])
        values[i] = _clamped(total)
    return values


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
    h = _hamiltonian(config, hamiltonian)
    partition = _series_partition(config, h.n_sites)
    instrument = projective_z_instrument(partition.a[0], h.n_sites)
    values = _pure_series(h, config, partition.a[0], [(partition.b[0], partition.c)])[0]
    values.setflags(write=False)
    return QcmiSeries(
        config=config,
        instrument_label=instrument.describe,
        times=config.grid.times,
        values=values,
    )


def arrival_time(
    times: np.ndarray,
    values: np.ndarray,
    threshold: float,
    crossing: str = "first-sample",
) -> float | None:
    """First time the series reaches the threshold; None if it never does."""
    if threshold <= 0:
        raise InvalidInput(f"threshold must be positive, got {threshold!r}")
    if crossing not in CROSSINGS:
        raise InvalidInput(f"crossing must be one of {CROSSINGS}, got {crossing!r}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
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
    n = config.model.n_sites
    lo, hi = config.d_min, config.d_max
    min_distance = 1 if config.allow_empty_c else 2
    if lo < min_distance:
        if lo == 1:
            raise EmptyConditioner("d=1 leaves C empty; pass allow_empty_c to include it")
        raise InvalidInput(f"distances must start at {min_distance}, got {lo}")
    if lo > hi or hi > n - 1:
        raise InvalidInput(f"distance range {lo}:{hi} invalid for {n} sites")

    h = _hamiltonian(config, hamiltonian)
    distances = range(lo, hi + 1)
    receivers = [(d, tuple(range(1, d))) for d in distances]
    series = _pure_series(h, config, 0, receivers)
    return ArrivalTable(tuple(
        (d, arrival_time(config.grid.times, values, config.threshold, config.crossing))
        for d, values in zip(distances, series)
    ))


def fit_velocity(table: ArrivalTable) -> FitResult:
    """Ordinary least squares of arrival time on distance; v_eff = 1/slope."""
    usable = [(d, t) for d, t in table.rows if t is not None]
    if len(usable) < 2:
        raise InsufficientData(
            f"velocity fit needs at least 2 arrival times, got {len(usable)}"
        )
    d = np.array([row[0] for row in usable], dtype=float)
    t = np.array([row[1] for row in usable], dtype=float)
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
