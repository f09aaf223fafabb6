"""Classical conditional mutual information on tables and binned time series.

Two layers: exact Shannon-entropy CMI on explicit discrete joint
distributions, and a plug-in estimator for the asymmetric time-series form
I(x_j ; x'_{j+tau} | x'_j, x'_{j-eta0}, x'_{j-2eta0}), where the driver x is
scored against the future of the response x' conditioned on the response's
own present and past. Series are discretized with equiquantal (equal-count)
bins; ties are broken by stable sample order, and an all-equal series
collapses to a single bin carrying zero entropy.

Ranks come from one unstable sort: a sample's rank is the number of strictly
smaller samples, read off the start of its run of equal values in sorted
order, plus, for tied samples only, the number of earlier samples of the same
value. That run start is the sample's key, and equal values share a key.
`_DriverRanker` is the only labeller: it labels any window of a series given
the series' keys in some sample order, and `equiquantal_bins` is the ranker
on the whole series in sample order.

The series path never builds a bins^5 table. Everything that does not depend
on the driver is computed once per embedding and kept on it, so an estimate
and its surrogates share it: the response is ranked with one sort, its four
lagged columns are labelled from contiguous slices of those keys, the rows of
C and of BC are packed into dense ids, and H(C), H(BC) are taken from their
counts through the one p log2 p table every series entropy reads. For each
driver labelling, H(ABC) comes from one bincount over (#distinct BC rows) *
bins cells. When those cells are no more than the samples, H(AC) comes
from the same counts, each C row's BC rows summed; otherwise from a second
bincount. The driver is ranked once. A surrogate shuffles a copy of the
driver's keys, and the estimate reads them unshuffled. A window's labels
follow from its keys by a table of how many of the 2 * delay + horizon
excluded samples lie below each key (one sort of those samples and one fill
of n entries, whatever the delay), and a sort of the tied samples only,
skipped when the series has no ties.

`surrogate_baseline` draws the next surrogate's permutation on one helper
thread while the caller counts the current one: numpy's shuffle releases the
interpreter lock, and two key buffers take turns. The one generator is used
by that thread alone, in order, so every value is bit-identical to drawing
and counting in turn. The helper ends before the call returns or raises, and
an error on either side reaches the caller.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    DegenerateSeries,
    InsufficientData,
    InvalidInput,
    NumericalInstability,
)
from .qstate import check_array, check_instance, check_integer, check_sequence

TABLE_SUM_TOL = 1e-12
EQUIVALENCE_TOL = 1e-12

# Largest (distinct BC rows) x bins span of the per-labelling bincounts: 2^26
# cells, 512 MiB of int64 counters. `qcausal ccmi` on 100k samples peaks at
# about 48 MiB plus 9 bytes per cell (the counter and its `counts > 0` mask):
# 490 MiB at 512 bins, 928 MiB at 1024, so a run at the limit stays near
# 0.6 GiB. On 100k samples 512 bins pass and 1024 bins are refused. The
# (C row, bin) counts are folded out of the (BC row, bin) counter only when it
# has no more cells than there are samples; a larger one is dropped before the
# second bincount, so one counter is held at a time and the peak is as above.
MAX_COUNTER_CELLS = 2**26


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over named discrete variables, one axis per name."""

    names: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        names = check_sequence(self.names, "names")
        if not names:
            raise InvalidInput("distribution needs at least one variable")
        if len(set(names)) != len(names):
            raise InvalidInput(f"variable names must be unique, got {names}")
        table = check_array(self.table, "table", float, (None,) * len(names)).copy()
        total = table.sum()  # first: an empty table sums to 0 and has no min
        if not abs(total - 1.0) <= TABLE_SUM_TOL:
            raise InvalidInput(f"probabilities sum to {total!r}, expected 1")
        if not table.min() >= 0.0:
            raise InvalidInput(f"probabilities must be non-negative, min {table.min():.3e}")
        table.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)

    def _axes(self, variables: Sequence[str]) -> tuple[int, ...]:
        unknown = [v for v in variables if v not in self.names]
        if unknown:
            raise InvalidInput(f"unknown variables {unknown}; known: {self.names}")
        if len(set(variables)) != len(tuple(variables)):
            raise InvalidInput(f"duplicate variables in {tuple(variables)}")
        return tuple(self.names.index(v) for v in variables)


def _plugin_entropy(probabilities: np.ndarray) -> float:
    p = probabilities[probabilities > 0.0]
    if p.size == 0:
        return 0.0
    value = float(-np.sum(p * np.log2(p)))
    return value if value > 0.0 else 0.0


def shannon_entropy(dist: JointDistribution, variables: Sequence[str]) -> float:
    """Shannon entropy in bits of the marginal on `variables`."""
    check_instance(dist, JointDistribution, "dist")
    variables = check_sequence(variables, "variables")
    if not variables:
        raise InvalidInput("entropy needs a non-empty variable subset")
    keep = dist._axes(variables)
    drop = tuple(i for i in range(dist.table.ndim) if i not in keep)
    marginal = dist.table.sum(axis=drop) if drop else dist.table
    return _plugin_entropy(np.asarray(marginal).reshape(-1))


def ccmi_symmetric(
    dist: JointDistribution,
    a: Sequence[str],
    b: Sequence[str],
    c: Sequence[str] = (),
) -> float:
    """H(AC) + H(BC) - H(C) - H(ABC), in bits."""
    check_instance(dist, JointDistribution, "dist")
    a, b, c = check_sequence(a, "A"), check_sequence(b, "B"), check_sequence(c, "C")
    if not a or not b:
        raise InvalidInput("A and B must be non-empty")
    combined = a + b + c
    if len(set(combined)) != len(combined):
        raise InvalidInput(f"A, B, C must be disjoint, got {a}, {b}, {c}")
    dist._axes(combined)
    return _checked_cmi(
        shannon_entropy(dist, a + c),
        shannon_entropy(dist, b + c),
        shannon_entropy(dist, c) if c else 0.0,
        shannon_entropy(dist, combined),
    )


def _checked_cmi(h_ac: float, h_bc: float, h_c: float, h_abc: float) -> float:
    """The CMI from four joint entropies: sign check (NaN fails it), clamp at 0."""
    value = h_ac + h_bc - h_c - h_abc
    if not value >= -EQUIVALENCE_TOL:
        raise NumericalInstability(f"classical CMI {value:.3e} below -{EQUIVALENCE_TOL}")
    return value if value > 0.0 else 0.0


def _check_bins(bins: int) -> int:
    """The bin-count rule of `equiquantal_bins` and `SeriesEmbedding`: an integer >= 2."""
    bins = check_integer(bins, "bins")
    if bins < 2:
        raise InvalidInput(f"need at least 2 bins, got {bins}")
    return bins


def equiquantal_bins(values: Sequence[float], bins: int) -> np.ndarray:
    """Equal-count bin labels; stable-order tie break; all-equal -> one bin."""
    v = check_array(values, "values", float, (None,))
    if not v.size:
        raise InvalidInput("binning expects a non-empty series")
    bins = _check_bins(bins)
    if not np.all(np.isfinite(v)):
        raise DegenerateSeries("series contains non-finite values; quantile bins undefined")
    ranker = _DriverRanker(v, bins)
    return ranker.labels(ranker.below, 0, v.size)


def _value_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Per sample, how many samples are strictly smaller; per such count, whether it is tied.

    One unstable sort puts equal values in one run; every sample of a run
    gets the run's start position as its key, and the key of a run longer
    than one is tied. The tie flags are indexed by key, and are None when
    no two samples are equal.
    """
    n = values.size
    order = np.argsort(values)
    ordered = values[order]
    # new_run[i]: sorted position i starts a run; position n closes the last.
    new_run = np.ones(n + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:n])
    del ordered  # 0.8 MB for 100k samples, not held through the rest
    run_start = np.where(new_run[:n], np.arange(n), 0)
    np.maximum.accumulate(run_start, out=run_start)
    below = np.empty(n, dtype=np.intp)
    below[order] = run_start
    if new_run.all():
        return below, None
    return below, new_run[:n] & ~new_run[1:]


def _add_tie_offsets(ranks: np.ndarray, keys: np.ndarray, tied: np.ndarray) -> None:
    """Add to each tied sample's rank the number of earlier samples with its key.

    `keys` groups equal values (the `below` of `_value_ranks`); `tied` marks
    the samples whose group has more than one member.
    """
    tied = np.flatnonzero(tied)
    if not tied.size:
        return
    tied = tied[np.argsort(keys[tied], kind="stable")]  # by value, then position
    groups = keys[tied]
    run_starts = np.flatnonzero(np.diff(groups, prepend=-1))
    run_lengths = np.diff(run_starts, append=groups.size)
    ranks[tied] += np.arange(groups.size) - np.repeat(run_starts, run_lengths)


@dataclass(frozen=True)
class SeriesEmbedding:
    """Driver/response pair with horizon tau, delay eta0 and bin count.

    The first estimate or surrogate baseline on an embedding builds its
    driver-independent set-up and keeps it for every later call.
    """

    driver: np.ndarray
    response: np.ndarray
    horizon: int
    delay: int
    bins: int = 4

    def __post_init__(self):
        driver = check_array(self.driver, "driver", float, (None,)).copy()
        response = check_array(self.response, "response", float, driver.shape).copy()
        horizon = check_integer(self.horizon, "horizon")
        delay = check_integer(self.delay, "delay")
        bins = _check_bins(self.bins)
        if horizon < 1 or delay < 1:
            raise InvalidInput("horizon and delay must be positive integers")
        if not (np.all(np.isfinite(driver)) and np.all(np.isfinite(response))):
            raise DegenerateSeries("series contain non-finite values")
        if driver.size <= horizon + 2 * delay:
            raise InsufficientData(
                f"series of length {driver.size} too short for horizon {horizon} "
                f"and delay {delay}"
            )
        driver.setflags(write=False)
        response.setflags(write=False)
        object.__setattr__(self, "driver", driver)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "delay", delay)
        object.__setattr__(self, "bins", bins)

    @property
    def n_samples(self) -> int:
        return self.driver.size - self.horizon - 2 * self.delay

    @cached_property
    def _series_cmi(self) -> _SeriesCmi:
        """The driver-independent set-up, built on first use and kept; a
        refused build keeps nothing, so every call raises again."""
        return _SeriesCmi(self)


class _DriverRanker:
    """Equiquantal labels of any window of a series, from one ranking of the series.

    `below` holds each sample's key (`_value_ranks`). `labels` takes those
    keys in some sample order, `below` itself or a shuffled copy, and labels
    the samples at positions start:stop. The stable rank of a window sample
    is its key, minus the excluded samples of smaller key, plus the earlier
    window samples of equal key. Only tied keys need the last term, and a
    series without ties skips it. A label is rank * bins // window size, so
    a bin count whose products with the ranks overflow `np.intp` is refused
    before the series is ranked.
    """

    def __init__(self, values: np.ndarray, bins: int):
        if max(values.size - 1, 1) * bins > np.iinfo(np.intp).max:
            raise InvalidInput(
                f"{bins} bins on {values.size} samples overflow the {np.intp.__name__} bin "
                "labels; lower the bin count"
            )
        self.below, self.tied = _value_ranks(values)
        self.bins = bins

    def labels(self, keys: np.ndarray, start: int, stop: int) -> np.ndarray:
        window = keys[start:stop]
        # Without ties a window of two or more samples holds distinct keys.
        if self.tied is not None and window.min() == window.max():
            return np.zeros(window.size, dtype=np.intp)
        excluded = np.sort(np.concatenate((keys[:start], keys[stop:])))
        # The table counts, for every key j, the excluded keys below j: i
        # fills the keys after the i-th excluded key up to the next. O(n +
        # k log k) for k excluded. Its counts go up to k, so it takes the
        # smallest signed type that holds k; byte-sized for a small delay.
        edges = np.concatenate(([-1], excluded, [keys.size - 1]))
        counts = np.arange(edges.size - 1, dtype=np.min_scalar_type(-edges.size))
        rank = np.subtract(window, np.repeat(counts, np.diff(edges))[window])
        if self.tied is not None:
            _add_tie_offsets(rank, window, self.tied[window])
        rank *= self.bins
        rank //= rank.size
        return rank


class _SeriesCmi:
    """Driver-independent parts of the series CMI, computed once per embedding.

    The response is ranked once. C = (response now, past1, past2) and
    BC = (response future, C) are labelled from contiguous slices of its
    keys and packed into dense row ids, and H(C), H(BC) taken here. The ids
    are kept multiplied by bins, so adding a driver label gives the sample's
    (row, label) cell. Each driver labelling then costs one bincount of
    (BC row, label) cells. When those cells are no more than the samples,
    the (C row, label) counts are that table with each C row's BC rows
    summed by one np.add.reduceat; otherwise a second bincount takes them. A
    span of more than MAX_COUNTER_CELLS cells is refused before any bincount.
    """

    def __init__(self, emb: SeriesEmbedding):
        tau, eta, bins = emb.horizon, emb.delay, emb.bins
        start, stop = 2 * eta, emb.driver.size - tau
        response = _DriverRanker(emb.response, bins)

        def column(lag: int) -> np.ndarray:
            return response.labels(response.below, start - lag, stop - lag)

        # Compressing to dense ids after every column keeps codes below
        # n_samples * bins, the range the labels already need.
        codes = column(0)
        for lag in (eta, 2 * eta):
            codes *= bins
            codes += column(lag)
            _, codes = np.unique(codes, return_inverse=True)
        c_id = codes
        codes = c_id * bins
        codes += column(-tau)
        del response  # before the driver is ranked: one ranking held at a time
        bc_rows, bc_id = np.unique(codes, return_inverse=True)
        del codes
        cells = bc_rows.size * bins
        if cells > MAX_COUNTER_CELLS:
            raise InvalidInput(
                f"{bc_rows.size} distinct response rows x {bins} bins = {cells} counter cells "
                f"exceeds the ccmi limit of {MAX_COUNTER_CELLS}; lower the bin count"
            )
        # p log2 p at p = c / n for each count c = 1..top, top the largest C
        # row, by _plugin_entropy's own operations: an entropy read from this
        # table equals its bit for bit. No BC row or cell holds more samples
        # than its C row, so none exceeds top.
        n = c_id.size
        counts = np.bincount(c_id)
        p = np.arange(1, int(counts.max()) + 1) / n
        self.plogp = np.concatenate(([0.0], p * np.log2(p)))
        self.h_c = self._entropy(counts)
        del counts
        self.h_bc = self._entropy(np.bincount(bc_id))
        c_id *= bins
        bc_id *= bins
        self.c_code, self.bc_code = c_id, bc_id
        # A BC row id orders by C row first (bc_rows // bins is its C row), so
        # each C row's BC rows are contiguous and start where that quotient steps.
        self.c_starts = np.flatnonzero(np.diff(bc_rows // bins, prepend=-1)) if cells <= n else None
        self.ranker = _DriverRanker(emb.driver, bins)
        self.start, self.stop, self.bins, self.cells = start, stop, bins, cells

    def _entropy(self, counts: np.ndarray) -> float:
        """`_plugin_entropy` of the sample counts `counts`, its terms read from the table."""
        value = float(-np.sum(self.plogp[counts[counts > 0]]))
        return value if value > 0.0 else 0.0

    def __call__(self, keys: np.ndarray) -> float:
        """CMI against the fixed response of the driver whose keys, in sample order, are `keys`.

        `keys` is the ranker's `below`, or a shuffled copy of it for a surrogate.
        """
        a = self.ranker.labels(keys, self.start, self.stop)
        # Every label is below bins, so the cells keep (row, label) order
        # whatever labels occur, and so do the counts the entropy sums.
        abc = np.bincount(self.bc_code + a, minlength=self.cells)
        h_abc = self._entropy(abc)
        if self.c_starts is None:
            del abc  # one counter table at a time
            ac = np.bincount(self.c_code + a)
        else:
            ac = np.add.reduceat(abc.reshape(-1, self.bins), self.c_starts)
        return _checked_cmi(self._entropy(ac), self.h_bc, self.h_c, h_abc)


def ccmi_asymmetric_series(emb: SeriesEmbedding) -> float:
    """Plug-in estimate of the directional time-series CMI, in bits."""
    cmi = check_instance(emb, SeriesEmbedding, "emb")._series_cmi
    return cmi(cmi.ranker.below)


def surrogate_baseline(emb: SeriesEmbedding, n_surrogates: int, seed: int = 0) -> np.ndarray:
    """CMI values for driver-shuffled surrogates; estimates the bias floor.

    Surrogate i shuffles the driver with the i-th `permutation` drawn from
    `np.random.default_rng(seed)`. Each next permutation is drawn on one
    helper thread while the current surrogate is counted; the values are
    bit-identical to drawing and counting one after the other.
    """
    check_instance(emb, SeriesEmbedding, "emb")
    n_surrogates = check_integer(n_surrogates, "n_surrogates")
    seed = check_integer(seed, "seed")
    if n_surrogates < 1:
        raise InvalidInput(f"need at least one surrogate, got {n_surrogates}")
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    cmi = emb._series_cmi  # a refused set-up raises here, before the helper starts
    below = cmi.ranker.below
    buffers = (np.empty_like(below), np.empty_like(below))
    drawn = threading.Semaphore(0)  # buffer i % 2 holds surrogate i's keys
    free = threading.Semaphore(2)  # a buffer the caller has finished counting
    stop = threading.Event()
    failure = []

    def draw() -> None:
        try:
            for i in range(n_surrogates):
                free.acquire()
                if stop.is_set():
                    return
                # Shuffling draws exactly what permutation(n) does, so the keys
                # become below[rng.permutation(n)]: the keys of the permuted driver.
                keys = buffers[i % 2]
                np.copyto(keys, below)
                rng.shuffle(keys)
                drawn.release()
        except BaseException as exc:  # handed to the caller, which raises it
            failure.append(exc)
        finally:
            drawn.release()  # the caller never waits on a helper that has ended

    helper = threading.Thread(target=draw, name="ccmi-surrogate-draws", daemon=True)
    helper.start()
    values = np.empty(n_surrogates)
    try:
        for i in range(n_surrogates):
            drawn.acquire()
            if failure:
                raise failure.pop()
            values[i] = cmi(buffers[i % 2])
            free.release()
    finally:
        stop.set()
        free.release()
        helper.join()
    return values
