"""Directional-QCMI time series, arrival detection and velocity fits.

Two intervention protocols are supported. ``measure-at-t`` evolves the
initial state to each grid time and measures A there; this is the protocol
behind arrival times. ``quench-at-zero`` measures A once at t=0 and evolves
every outcome branch separately. Distances start at d=2: at d=1 the
conditioning set C is empty and every scan raises `EmptyConditioner`.

A `ScanConfig` checks the initial spec and the batch size when it is made.
Both scans check their fields and call `_scan`: one chain build, the initial
ket, then the kernel `_pure_series`, which reads no config and returns one
read-only (receivers, times) array.

Every initial state is pure and a projective-z measurement keeps it pure, so
the kernel evolves psi(t) once for all times into a `spinchain._evolve_grid`
batch (states, amplitudes) and measures A by splitting `states` on its bit
(`_measure_z`). Each branch takes one entropy pass over every distinct B, C
or BC site set. When all of a branch's `states` have one popcount M (the XX
chain conserves it), each cut splits into one block per subsystem popcount
q, against complement popcount M - q; otherwise it is one block. A block of
rank one (one row or column) has its weight as its eigenvalue, all of a
branch's from one product of |psi_j|^2 with a 0/1 table; only wider blocks
call `eigvalsh`, on their smaller side's Gram matrix. One entropy call per
branch covers every site set and time, and the clamp rules of
`asymmetric_qcmi` apply to all rows at once.
The tests hold this kernel to the dense density-matrix functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import EmptyConditioner, InsufficientData, InvalidInput
from .infomeasures import Partition, _clamped_values
from .instrument import PROBABILITY_FLOOR, projective_z_instrument
from .qstate import Ket, basis_ket, check_site_pair, entropies_from_eigenvalues
from .qstate import check_array, check_instance, check_integer, check_real, check_sequence
from .spinchain import DEGENERACY_GAP, ChainModel, Hamiltonian, _evolve_grid, _popcounts
from .spinchain import build_model, ground_state

# Unused here; perfbench/test_perfbench.py checks the tracer patches this name.
from .spinchain import evolve  # noqa: F401

PROTOCOLS = ("measure-at-t", "quench-at-zero")
CROSSINGS = ("first-sample", "interp")

DEFAULT_DT = 0.02
DEFAULT_T_MAX = 5.0
DEFAULT_THRESHOLD = 0.03

# Largest (grid points) x 2^N complex amplitude count a scan may reach: 2^25,
# 512 MiB, checked before the build. It is the worst case, which a TFIM state
# fills; an XX basis state with M ones holds points x C(N, M). Measured series
# peaks (tracemalloc, build included; N = 4, 8, 12 at 2^22 amplitudes, TFIM and
# XX, both protocols, basis and ground states) were at most 5.5 times the batch,
# for a TFIM ground-state quench-at-zero series: under about 3 GiB at the
# limit, 8192 points at N = 12. At 4096 points that series at N = 12 took 22 s
# (2-core x86, one BLAS thread) and peaked at 1388 MiB resident.
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
        check_instance(self.model, ChainModel, "model")
        check_instance(self.grid, TimeGrid, "grid")
        if self.protocol not in PROTOCOLS:
            raise InvalidInput(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        _check_detection(self.threshold, self.crossing)
        _basis_bits(self.initial, self.model.n_sites)
        self.grid.check_batch(self.model.n_sites)


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
    """Per-distance arrival times, each row an integer distance and a finite
    real time, or None for a threshold never crossed; checked once, here."""

    rows: tuple[tuple[int, float | None], ...]

    def __post_init__(self):
        rows = []
        for row in check_sequence(self.rows, "arrival table"):
            pair = check_sequence(row, "arrival table row")
            if len(pair) != 2:
                raise InvalidInput(f"an arrival table row is a (distance, time) pair, got {row!r}")
            d, t = pair
            t = None if t is None else check_real(t, "arrival time")
            rows.append((check_integer(d, "distance"), t))
        object.__setattr__(self, "rows", tuple(rows))


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
    bits = _basis_bits(spec, check_instance(hamiltonian, Hamiltonian, "hamiltonian").n_sites)
    if bits is not None:
        return basis_ket(bits)
    ground = ground_state(hamiltonian)
    if ground.degenerate:
        warnings.warn(
            f"degenerate ground state: the two lowest energies differ by "
            f"{ground.gap:.3e} < {DEGENERACY_GAP:g}; using the lowest state of the "
            f"first sector in the fixed order (ascending popcount, else even spin-flip parity "
            f"first; site-reversal even before odd)",
            RuntimeWarning,
            stacklevel=2,
        )
    return ground.state


def _measure_z(states: np.ndarray, kets: np.ndarray, site: int, n_sites: int, keep_site=False):
    """Projective-z measurement of `site` on every row of a (states, kets) batch:
    (weights, (states, normalized kets)) per outcome kept at some row, the
    site's bit dropped unless `keep_site`. As in `apply_instrument`, outcomes
    below PROBABILITY_FLOOR are dropped and the rest renormalized; a row that
    drops a branch gives it weight 0 and zeros. Every row is a unit ket
    (`_evolve_grid` checks each, the quench path passes a `Ket`'s), so one
    outcome always holds half its weight or more."""
    bit = n_sites - 1 - site
    split = [np.flatnonzero((states >> bit) & 1 == x) for x in (0, 1)]
    parts = [np.take(kets, columns, axis=1) for columns in split]
    probs = np.stack([np.sum(np.square(p.real) + np.square(p.imag), axis=1) for p in parts], axis=1)
    kept = probs >= PROBABILITY_FLOOR
    total = np.sum(np.where(kept, probs, 0.0), axis=1)
    weights = np.where(kept, probs / total[:, None], 0.0)
    scale = np.where(kept, 1.0 / np.sqrt(np.where(kept, probs, 1.0)), 0.0)
    if not keep_site:
        states = states >> (bit + 1) << bit | states & ((1 << bit) - 1)
    return [
        (weights[:, x], (states[split[x]], np.multiply(parts[x], scale[:, x, None], out=parts[x])))
        for x in (0, 1) if np.any(kept[:, x])
    ]


def _entropies(
    states: np.ndarray, kets: np.ndarray, n_sites: int, site_sets: list[tuple[int, ...]]
) -> np.ndarray:
    """Entropy of every site set in `site_sets` for each pure state in a
    (states, kets) batch: a (site sets, rows) array.

    A state's amplitudes form a matrix, subsystem by complement
    configurations; an index outside `states` reads zero. If all of `states`
    have one popcount M, it is block diagonal: q ones on the site set go with
    M - q on the complement, and the blocks' joined spectra give the entropy.
    If `states` hold several popcounts, the matrix is one block. A block one
    configuration high or wide has rank one, and its one eigenvalue is its
    weight, the sum of |psi_j|^2 over the states it holds. A wider block
    takes `eigvalsh` of its Gram matrix on its smaller side: the reduced
    states of a site set and of its complement share their nonzero spectrum.
    A batch on one basis state is a product state: every entropy is 0.
    """
    if states.size == 1:
        return np.zeros((len(site_sets), kets.shape[0]))
    ones = _popcounts(n_sites)
    # bincount, not np.unique: a sort pages in about 1 MiB more of numpy's code.
    charges = np.flatnonzero(np.bincount(ones[states]))
    charge = int(charges[0]) if charges.size == 1 else None
    # Every block as (mask, q ones under it, size of its smaller side), set by
    # set and in q order. A several-popcount span makes one block per set, with
    # no q; the whole register's holds every state: 0 ones under an empty mask.
    blocks, starts = [], []
    for sites in site_sets:
        mask, size = sum(1 << (n_sites - 1 - s) for s in sites), len(sites)
        starts.append(len(blocks))
        if charge is None:
            rank = 2 ** min(size, n_sites - size)
            blocks.append((mask, None, rank) if rank > 1 else (0, 0, 1))
        else:
            blocks += [
                (mask, q, min(math.comb(size, q), math.comb(n_sites - size, charge - q)))
                for q in range(max(0, charge - n_sites + size), min(size, charge) + 1)
            ]
    offsets = np.cumsum([0] + [rank for _, _, rank in blocks])
    eigenvalues = np.empty((kets.shape[0], offsets[-1]))
    single = [i for i, (_, _, rank) in enumerate(blocks) if rank == 1]
    if single:
        # All rank-one weights from one product of |psi_j|^2 with 0/1 picks.
        masks, qs = np.array([blocks[i][:2] for i in single]).T
        squares = np.square(kets.real) + np.square(kets.imag)
        eigenvalues[:, offsets[single]] = squares @ (ones[states[:, None] & masks] == qs)
    wide = [i for i, (_, _, rank) in enumerate(blocks) if rank > 1]
    if wide:
        registers = np.arange(2**n_sites)
        column = np.full(2**n_sites, -1)
        column[states] = np.arange(states.size)
    for i in wide:
        mask, q, _ = blocks[i]
        # Register indices of the set's configurations and of its complement's;
        # site s is bit n - 1 - s.
        rows, cols = registers[registers & mask == registers], registers[registers & mask == 0]
        if q is not None:
            rows, cols = rows[ones[rows] == q], cols[ones[cols] == charge - q]
        small, large = sorted((rows, cols), key=len)
        index = column[small[:, None] + large]
        mat = np.take(kets, index, axis=1)
        mat[:, index < 0] = 0.0
        eigenvalues[:, offsets[i]:offsets[i + 1]] = np.linalg.eigvalsh(
            mat @ mat.conj().transpose(0, 2, 1)
        )
    return entropies_from_eigenvalues(eigenvalues, offsets[starts]).T


def _branch_average(branches: list[tuple[np.ndarray, np.ndarray]], cuts: np.ndarray) -> np.ndarray:
    """(receivers, rows) sum over branches of weight * I(B:C), each term clamped.

    Each branch is (weights, its (site sets, rows) entropies); row r of `cuts`
    holds receiver r's B, C and BC site-set indices. A branch's term is checked
    and clamped only on rows where its weight is positive; elsewhere the branch
    was dropped and contributes nothing.
    """
    values = np.zeros((len(cuts), branches[0][0].size))
    for weights, entropies in branches:
        s_b, s_c, s_bc = entropies[cuts.T]
        values += weights * _clamped_values(np.where(weights > 0.0, s_b + s_c - s_bc, 0.0))
    return values


def _site_sets(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> tuple[list, np.ndarray]:
    """The distinct B, C and BC site sets of (B, C) pairs, sorted, and the
    `_branch_average` cuts: each pair's (B, C, BC) index in that list."""
    joined = [tuple(sorted(b + c)) for b, c in pairs]
    site_sets = sorted({sites for pair, bc in zip(pairs, joined) for sites in (*pair, bc)})
    row = {sites: k for k, sites in enumerate(site_sets)}
    return site_sets, np.array([[row[b], row[c], row[bc]] for (b, c), bc in zip(pairs, joined)])


def _pure_series(
    h: Hamiltonian, psi0: np.ndarray, protocol: str, times: np.ndarray, site_a: int,
    receivers: list[tuple[int, tuple[int, ...]]],
) -> np.ndarray:
    """QCMI of sender `site_a` against each (B site, C sites) receiver at any
    1-d `times`, from initial amplitudes `psi0`: a read-only (receivers, times) array.

    measure-at-t drops A's bit from psi(t)'s states, so later sites move down by
    one; quench-at-zero keeps A, in its measured state, in the register.
    """
    n = h.n_sites
    measure_at_t = protocol == "measure-at-t"
    register = n - 1 if measure_at_t else n
    shift = [s - (s > site_a) if measure_at_t else s for s in range(n)]
    site_sets, cuts = _site_sets([((shift[b],), tuple(shift[s] for s in c)) for b, c in receivers])
    if measure_at_t:
        branches = [
            (weights, _entropies(*batch, register, site_sets))
            for weights, batch in _measure_z(*_evolve_grid(h, psi0, times), site_a, n)
        ]
    else:  # quench-at-zero
        # Each branch is evolved and reduced before the next: one batch at a time.
        branches = []
        measured = _measure_z(np.arange(2**n), psi0[None], site_a, n, keep_site=True)
        for weight, (states, ket) in measured:
            full = np.zeros(2**n, dtype=complex)
            full[states] = ket[0]
            entropies = _entropies(*_evolve_grid(h, full, times), register, site_sets)
            branches.append((np.full(times.size, weight[0]), entropies))
    values = _branch_average(branches, cuts)
    values.setflags(write=False)
    return values


def _scan(
    config: ScanConfig, site_a: int, receivers: list[tuple[int, tuple[int, ...]]]
) -> np.ndarray:
    """Build once, resolve the ket, and run `_pure_series`."""
    h = build_model(config.model)
    psi0 = initial_ket(h, config.initial).amplitudes
    return _pure_series(h, psi0, config.protocol, config.grid.times, site_a, receivers)


def qcmi_time_series(config: ScanConfig) -> QcmiSeries:
    """Directional QCMI over the configured time grid for one site pair; the
    sites follow `check_site_pair`, and adjacent sites leave C empty
    (`EmptyConditioner`)."""
    check_instance(config, ScanConfig, "config")
    if config.site_a is None or config.site_b is None:
        raise InvalidInput("time series needs both site_a and site_b")
    if config.d_min is not None or config.d_max is not None:
        raise InvalidInput("a time series takes site_a and site_b, not d_min or d_max")
    a, b = check_site_pair(config.site_a, config.site_b, config.model.n_sites)
    c = Partition((a,), (b,), range(min(a, b) + 1, max(a, b))).c
    (values,) = _scan(config, a, [(b, c)])
    return QcmiSeries(
        config=config,
        instrument_label=projective_z_instrument(a, config.model.n_sites).describe,
        times=config.grid.times,
        values=values,
    )


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
    times = check_array(times, "times", float, (None,))
    values = check_array(values, "values", float, times.shape)
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise InvalidInput("times and values must be finite")
    if times.size == 0:
        return None
    (found,) = _crossings(times, values[None], threshold, crossing)
    return found


def _crossings(
    times: np.ndarray, series: np.ndarray, threshold: float, crossing: str
) -> list[float | None]:
    """First time each row of a (rows, times) series reaches the threshold,
    or None for a row that never does."""
    hits = series >= threshold
    first = np.argmax(hits, axis=1)
    crossed = np.any(hits, axis=1)
    found = times[first]
    if crossing == "interp":
        rows = np.flatnonzero(crossed & (first > 0))
        i = first[rows]
        t0, t1, v0, v1 = times[i - 1], times[i], series[rows, i - 1], series[rows, i]
        found[rows] = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0)
    return [float(t) if hit else None for t, hit in zip(found, crossed)]


def arrival_scan(config: ScanConfig) -> ArrivalTable:
    """Arrival times for sender site 0 against receivers at d = d_min..d_max."""
    check_instance(config, ScanConfig, "config")
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
    distances = range(lo, hi + 1)
    series = _scan(config, 0, [(d, tuple(range(1, d))) for d in distances])
    found = _crossings(config.grid.times, series, config.threshold, config.crossing)
    return ArrivalTable(tuple(zip(distances, found)))


def fit_velocity(table: ArrivalTable) -> FitResult:
    """Ordinary least squares of arrival time on distance; v_eff = 1/slope.

    The rows with an arrival must span at least two distinct distances.
    """
    rows = check_instance(table, ArrivalTable, "table").rows
    usable = [(d, t) for d, t in rows if t is not None]
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
