import itertools
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import dense_series_ccmi, stable_rank_bins
from qcausal import (
    DegenerateSeries,
    InsufficientData,
    InvalidInput,
    JointDistribution,
    NumericalInstability,
    SeriesEmbedding,
    ccmi_asymmetric_series,
    ccmi_symmetric,
    equiquantal_bins,
    shannon_entropy,
    surrogate_baseline,
)
from qcausal import ccmi
from qcausal.ccmi import _DriverRanker, _SeriesCmi


def random_table(rng, shape):
    table = rng.random(shape)
    return table / table.sum()


def brute_ccmi_3bits(table):
    """Direct enumeration of H(AC)+H(BC)-H(C)-H(ABC) over all 8 outcomes."""

    def h(margin):
        total = 0.0
        for p in margin.values():
            if p > 0:
                total -= p * np.log2(p)
        return total

    m_ac, m_bc, m_c, m_abc = {}, {}, {}, {}
    for a, b, c in itertools.product(range(2), repeat=3):
        p = table[a, b, c]
        m_ac[a, c] = m_ac.get((a, c), 0.0) + p
        m_bc[b, c] = m_bc.get((b, c), 0.0) + p
        m_c[c] = m_c.get(c, 0.0) + p
        m_abc[a, b, c] = p
    return h(m_ac) + h(m_bc) - h(m_c) - h(m_abc)


class TestShannonEntropy:
    def test_uniform_bit(self):
        dist = JointDistribution(("a",), np.array([0.5, 0.5]))
        assert abs(shannon_entropy(dist, ("a",)) - 1.0) < 1e-12

    def test_deterministic_variable(self):
        dist = JointDistribution(("a",), np.array([1.0, 0.0]))
        assert shannon_entropy(dist, ("a",)) == 0.0

    def test_independent_bits_additive(self):
        dist = JointDistribution(("a", "b"), np.full((2, 2), 0.25))
        assert abs(shannon_entropy(dist, ("a", "b")) - 2.0) < 1e-12

    def test_empty_subset_rejected(self):
        dist = JointDistribution(("a",), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInput):
            shannon_entropy(dist, ())

    def test_unknown_variable_rejected(self):
        dist = JointDistribution(("a",), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInput):
            shannon_entropy(dist, ("z",))


class TestJointDistribution:
    def test_sum_enforced(self):
        with pytest.raises(InvalidInput):
            JointDistribution(("a",), np.array([0.5, 0.4]))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInput):
            JointDistribution(("a",), np.array([1.1, -0.1]))

    @pytest.mark.parametrize("table", [[np.nan, 1.0], [np.nan, np.nan], []], ids=repr)
    def test_nan_or_empty_table_rejected(self, table):
        with pytest.raises(InvalidInput):
            JointDistribution(("a",), table)


class TestCcmiSymmetric:
    def test_copied_bit_with_independent_conditioner(self):
        # A and B perfectly correlated uniform bits, C an independent bit.
        table = np.zeros((2, 2, 2))
        for a in range(2):
            for c in range(2):
                table[a, a, c] = 0.25
        dist = JointDistribution(("a", "b", "c"), table)
        assert abs(ccmi_symmetric(dist, ("a",), ("b",), ("c",)) - 1.0) < 1e-12

    def test_b_determined_by_c(self):
        # B a deterministic copy of C, A independent: conditioning removes all.
        table = np.zeros((2, 2, 2))
        for a in range(2):
            for c in range(2):
                table[a, c, c] = 0.25
        dist = JointDistribution(("a", "b", "c"), table)
        assert ccmi_symmetric(dist, ("a",), ("b",), ("c",)) <= 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            table = random_table(rng, (2, 2, 2))
            dist = JointDistribution(("a", "b", "c"), table)
            ours = ccmi_symmetric(dist, ("a",), ("b",), ("c",))
            assert abs(ours - brute_ccmi_3bits(table)) <= 1e-12

    def test_symmetric_in_a_and_b(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            dist = JointDistribution(("a", "b", "c"), random_table(rng, (2, 2, 2)))
            forward = ccmi_symmetric(dist, ("a",), ("b",), ("c",))
            backward = ccmi_symmetric(dist, ("b",), ("a",), ("c",))
            assert abs(forward - backward) <= 1e-12

    def test_nonnegative_on_random_tables(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            dist = JointDistribution(("a", "b", "c"), random_table(rng, (2, 2, 2)))
            assert ccmi_symmetric(dist, ("a",), ("b",), ("c",)) >= -1e-12

    def test_empty_c_reduces_to_mutual_information(self):
        dist = JointDistribution(("a", "b"), np.full((2, 2), 0.25))
        assert ccmi_symmetric(dist, ("a",), ("b",)) <= 1e-12

    def test_overlap_rejected(self):
        dist = JointDistribution(("a", "b"), np.full((2, 2), 0.25))
        with pytest.raises(InvalidInput):
            ccmi_symmetric(dist, ("a",), ("a",))


class TestCheckedCmi:
    def test_rounding_negatives_clamp_and_real_negatives_raise(self):
        assert ccmi._checked_cmi(1.0, 1.0, 1.0, 1.0 + 5e-13) == 0.0
        assert ccmi._checked_cmi(1.5, 1.0, 1.0, 1.25) == 0.25
        with pytest.raises(NumericalInstability):
            ccmi._checked_cmi(1.0, 1.0, 1.0, 1.0 + 1e-11)

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_never_becomes_a_number(self, slot):
        entropies = [1.0, 1.0, 1.0, 1.0]
        entropies[slot] = np.nan
        with pytest.raises(NumericalInstability):
            ccmi._checked_cmi(*entropies)


class TestEquiquantalBins:
    def test_balanced_counts_for_distinct_values(self):
        rng = np.random.default_rng(54)
        for n, q in ((100, 4), (103, 4), (37, 5)):
            bins = equiquantal_bins(rng.standard_normal(n), q)
            counts = np.bincount(bins, minlength=q)
            assert counts.min() >= n // q
            assert counts.max() <= -(-n // q)

    def test_all_equal_series_single_bin(self):
        bins = equiquantal_bins(np.zeros(10), 4)
        assert np.all(bins == 0)

    def test_ties_broken_by_sample_order(self):
        bins = equiquantal_bins(np.array([1.0, 1.0, 1.0, 2.0]), 2)
        assert list(bins) == [0, 0, 1, 1]

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateSeries):
            equiquantal_bins(np.array([0.0, np.nan, 1.0]), 2)

    @pytest.mark.parametrize("bins", [2.5, 3.0, True, "4", None])
    def test_non_integer_bin_count_rejected(self, bins):
        with pytest.raises(InvalidInput):
            equiquantal_bins(np.arange(10.0), bins)

    def test_numpy_integer_bin_count_accepted(self):
        labels = equiquantal_bins(np.arange(10.0), np.int64(2))
        assert labels.dtype.kind == "i"
        assert list(labels) == [0] * 5 + [1] * 5

    def test_bin_counts_up_to_the_label_range_keep_their_labels(self):
        # A label is rank * bins // n: these products fit np.intp, so the
        # labels are the exact ones, ascending with the ramp.
        n = 100_000
        top = np.iinfo(np.intp).max // (n - 1)
        for bins in (2**40, top):
            labels = equiquantal_bins(np.arange(float(n)), bins)
            assert np.all(np.diff(labels) >= 0)
            assert labels[-1] == (n - 1) * bins // n
        assert list(equiquantal_bins([1.0], np.iinfo(np.intp).max)) == [0]

    @pytest.mark.parametrize("n, bins", [
        (100_000, np.iinfo(np.intp).max // 99_999 + 1), (100_000, 2**47), (1, 2**63), (3, 2**64),
    ])
    def test_bin_counts_past_the_label_range_are_refused(self, monkeypatch, n, bins):
        monkeypatch.setattr(ccmi, "_value_ranks", lambda values: pytest.fail("ranked"))
        with pytest.raises(InvalidInput, match="overflow"):
            equiquantal_bins(np.arange(float(n)), bins)

    def test_series_bin_counts_past_the_label_range_are_refused(self):
        emb = SeriesEmbedding(np.arange(20.0), np.arange(20.0), horizon=1, delay=1, bins=2**64)
        with pytest.raises(InvalidInput, match="overflow"):
            ccmi_asymmetric_series(emb)


class TestAsymmetricSeries:
    def test_independent_noise_stays_near_bias_floor(self):
        rng = np.random.default_rng(55)
        emb = SeriesEmbedding(
            rng.standard_normal(10_000), rng.standard_normal(10_000), horizon=1, delay=1, bins=4
        )
        assert ccmi_asymmetric_series(emb) <= 0.05

    def test_lagged_copy_dominates_independent_value(self):
        rng = np.random.default_rng(56)
        x = rng.standard_normal(10_000)
        lagged = np.roll(x, 1)  # response leads: x'_{j+1} = x_j
        coupled = SeriesEmbedding(x, lagged, horizon=1, delay=1, bins=4)
        independent = SeriesEmbedding(
            x, rng.standard_normal(10_000), horizon=1, delay=1, bins=4
        )
        assert ccmi_asymmetric_series(coupled) >= ccmi_asymmetric_series(independent) + 0.5

    def test_constant_driver_carries_no_information(self):
        rng = np.random.default_rng(57)
        emb = SeriesEmbedding(
            np.zeros(500), rng.standard_normal(500), horizon=1, delay=1, bins=2
        )
        assert ccmi_asymmetric_series(emb) == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientData):
            SeriesEmbedding(np.arange(3.0), np.arange(3.0), horizon=1, delay=1)

    def test_non_finite_series_rejected(self):
        bad = np.array([0.0, 1.0, np.inf, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateSeries):
            SeriesEmbedding(bad, np.arange(6.0), horizon=1, delay=1)

    def test_surrogates_sit_below_coupled_value(self):
        rng = np.random.default_rng(58)
        x = rng.standard_normal(4_000)
        emb = SeriesEmbedding(x, np.roll(x, 1), horizon=1, delay=1, bins=4)
        value = ccmi_asymmetric_series(emb)
        baseline = surrogate_baseline(emb, 10, seed=0)
        assert value > baseline.mean() + 5 * baseline.std()

    def test_surrogates_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(59)
        emb = SeriesEmbedding(
            rng.standard_normal(1_000), rng.standard_normal(1_000), horizon=1, delay=1
        )
        a = surrogate_baseline(emb, 5, seed=7)
        b = surrogate_baseline(emb, 5, seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("field", ["bins", "horizon", "delay"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_embedding_parameters_rejected(self, field, value):
        params = {"horizon": 1, "delay": 1, "bins": 4, field: value}
        with pytest.raises(InvalidInput):
            SeriesEmbedding(np.arange(20.0), np.arange(20.0), **params)

    def test_numpy_integer_embedding_parameters_stored_as_int(self):
        emb = SeriesEmbedding(
            np.arange(20.0), np.arange(20.0), horizon=np.int64(1), delay=np.int32(2), bins=np.int16(3)
        )
        assert (emb.horizon, emb.delay, emb.bins) == (1, 2, 3)
        assert all(type(v) is int for v in (emb.horizon, emb.delay, emb.bins))


class TestCounterLimit:
    @staticmethod
    def lagged_pair(n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        return x, np.roll(x, 1) + 0.1 * rng.standard_normal(n)

    @staticmethod
    def no_counters(*args, **kwargs):
        raise AssertionError("a bincount ran")

    def test_100k_samples_refused_from_1024_bins_before_any_bincount(self, monkeypatch):
        # About 1e5 distinct BC rows x 1024 bins = 1e8 cells, 781 MiB of counters.
        x, y = self.lagged_pair(100_000, 66)
        # The C-row count, the first counter, is an np.bincount as ccmi sees it.
        monkeypatch.setattr(ccmi.np, "bincount", self.no_counters)
        for bins in (1024, 4096):
            emb = SeriesEmbedding(x, y, horizon=1, delay=1, bins=bins)
            with pytest.raises(InvalidInput, match="counter cells exceeds the ccmi limit"):
                ccmi_asymmetric_series(emb)
            with pytest.raises(InvalidInput, match="counter cells exceeds the ccmi limit"):
                surrogate_baseline(emb, 1)

    def test_100k_samples_admitted_at_512_bins(self):
        x, y = self.lagged_pair(100_000, 66)
        cmi = _SeriesCmi(SeriesEmbedding(x, y, horizon=1, delay=1, bins=512))
        assert (int(cmi.bc_code.max()) // 512 + 1) * 512 <= ccmi.MAX_COUNTER_CELLS

    def test_limit_counts_cells_not_bins(self):
        # At most 1997 rows x 1024 bins = 2.0e6 cells: allowed, though 1024 bins are
        # refused on 100k samples.
        x, y = self.lagged_pair(2_000, 67)
        emb = SeriesEmbedding(x, y, horizon=1, delay=1, bins=1024)
        assert ccmi_asymmetric_series(emb) >= 0.0

    def test_limit_is_inclusive(self, monkeypatch):
        # 1000 samples at 2 bins fill all 16 BC rows: 32 cells.
        x, y = self.lagged_pair(1_000, 68)
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 32)
        ccmi_asymmetric_series(SeriesEmbedding(x, y, horizon=1, delay=1, bins=2))
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 31)
        with pytest.raises(InvalidInput, match="16 distinct response rows x 2 bins = 32"):
            ccmi_asymmetric_series(SeriesEmbedding(x, y, horizon=1, delay=1, bins=2))


def spy_set_ups(monkeypatch):
    """Record the embedding of every `_SeriesCmi` build begun, refused ones included."""
    begun = []

    class Spy(_SeriesCmi):
        def __init__(self, emb):
            begun.append(emb)
            super().__init__(emb)

    monkeypatch.setattr(ccmi, "_SeriesCmi", Spy)
    return begun


class TestSetUpPerEmbedding:
    def test_estimate_and_baseline_share_one_set_up(self, monkeypatch):
        begun = spy_set_ups(monkeypatch)
        x, y = TestCounterLimit.lagged_pair(2_000, 69)
        emb = SeriesEmbedding(x, y, horizon=1, delay=2, bins=4)
        value = ccmi_asymmetric_series(emb)
        baseline = surrogate_baseline(emb, 3, seed=1)
        assert ccmi_asymmetric_series(emb) == value
        assert np.array_equal(surrogate_baseline(emb, 3, seed=1), baseline)
        assert len(begun) == 1 and begun[0] is emb
        fresh = SeriesEmbedding(x, y, horizon=1, delay=2, bins=4)
        assert np.array_equal(surrogate_baseline(fresh, 3, seed=1), baseline)
        assert ccmi_asymmetric_series(fresh) == value
        assert len(begun) == 2 and begun[1] is fresh

    def test_a_refused_embedding_raises_on_every_call(self, monkeypatch):
        begun = spy_set_ups(monkeypatch)
        # 1000 samples at 2 bins fill all 16 BC rows: 32 cells.
        x, y = TestCounterLimit.lagged_pair(1_000, 68)
        emb = SeriesEmbedding(x, y, horizon=1, delay=1, bins=2)
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 31)
        for call in (ccmi_asymmetric_series, ccmi_asymmetric_series, lambda e: surrogate_baseline(e, 2)):
            with pytest.raises(InvalidInput, match="16 distinct response rows x 2 bins = 32"):
                call(emb)
        assert len(begun) == 3
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 32)
        assert ccmi_asymmetric_series(emb) == ccmi_asymmetric_series(SeriesEmbedding(x, y, 1, 1, 2))


class TestCountingPaths:
    """H(AC) from the (BC row, bin) counts when they have no more cells than
    samples, else from a second bincount: both against the dense table."""

    # A random-walk response fills few BC rows: at 387 values, horizon and
    # delay 1 and 6 bins, these seeds put the cells 6 below, at and 6 above
    # the 384 samples.
    @pytest.mark.parametrize("seed, excess", [(39, -6), (7, 0), (18, 6)])
    def test_both_paths_match_the_dense_table(self, monkeypatch, seed, excess):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(387)
        y = np.cumsum(rng.standard_normal(x.size))
        emb = SeriesEmbedding(x, y, horizon=1, delay=1, bins=6)
        cmi = emb._series_cmi
        assert cmi.cells - emb.n_samples == excess
        assert (cmi.c_starts is None) == (excess > 0)
        assert abs(ccmi_asymmetric_series(emb) - dense_series_ccmi(x, y, 1, 1, 6)) <= 1e-12
        got = surrogate_baseline(emb, 4, seed=3)
        draws = np.random.default_rng(3)
        for value in got:
            assert abs(value - dense_series_ccmi(draws.permutation(x), y, 1, 1, 6)) <= 1e-12
        if cmi.c_starts is not None:  # the same counts by the second bincount
            monkeypatch.setattr(cmi, "c_starts", None)
            assert np.array_equal(surrogate_baseline(emb, 4, seed=3), got)


def tied_series(rng, n, levels):
    return rng.integers(0, levels, n).astype(float)


def signed_zero_series(rng, n, levels):
    """A tied series, scaled, whose zeros are -0.0 or 0.0 at random."""
    x = tied_series(rng, n, levels) * rng.choice([0.5, 1.0, 3.0])
    zero = x == 0.0
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return x


class TestSurrogateInputs:
    @pytest.fixture
    def emb(self):
        rng = np.random.default_rng(60)
        return SeriesEmbedding(rng.standard_normal(200), rng.standard_normal(200), horizon=1, delay=1)

    @pytest.mark.parametrize("count", [0, -3, 2.5, True, np.bool_(True), "3", None])
    def test_bad_surrogate_count_rejected(self, emb, count):
        with pytest.raises(InvalidInput):
            surrogate_baseline(emb, count)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_bad_seed_rejected(self, emb, seed):
        with pytest.raises(InvalidInput):
            surrogate_baseline(emb, 2, seed=seed)

    def test_numpy_integers_accepted(self, emb):
        assert np.array_equal(
            surrogate_baseline(emb, np.int64(3), seed=np.uint8(4)), surrogate_baseline(emb, 3, seed=4)
        )


class TestOccupiedCellPath:
    """The series path against the dense bins^5 table of tests/helpers.py."""

    @pytest.mark.parametrize("bins", [2, 3, 5])
    @pytest.mark.parametrize("delay", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_matches_dense_table_on_tied_series(self, horizon, delay, bins):
        rng = np.random.default_rng(100 * horizon + 10 * delay + bins)
        for levels in (1, 2, 3, 7):  # one level: an all-equal driver
            x = tied_series(rng, 240, levels)
            y = np.roll(x, horizon) + tied_series(rng, 240, 2)
            emb = SeriesEmbedding(x, y, horizon, delay, bins)
            want = dense_series_ccmi(x, y, horizon, delay, bins)
            assert abs(ccmi_asymmetric_series(emb) - want) <= 1e-12

    @pytest.mark.parametrize("levels", [2, 5, None])
    def test_surrogates_match_dense_table_on_permuted_drivers(self, levels):
        rng = np.random.default_rng(63)
        x = rng.standard_normal(500) if levels is None else tied_series(rng, 500, levels)
        y = np.roll(x, 1) + tied_series(rng, 500, 3)
        emb = SeriesEmbedding(x, y, horizon=1, delay=2, bins=3)
        assert abs(ccmi_asymmetric_series(emb) - dense_series_ccmi(x, y, 1, 2, 3)) <= 1e-12
        got = surrogate_baseline(emb, 6, seed=11)
        draws = np.random.default_rng(11)
        for value in got:
            want = dense_series_ccmi(draws.permutation(x), y, 1, 2, 3)
            assert abs(value - want) <= 1e-12

    def test_ranker_labels_equal_equiquantal_bins(self):
        rng = np.random.default_rng(64)
        for _ in range(300):
            n = int(rng.integers(4, 120))
            levels = int(rng.integers(1, 12))
            x = tied_series(rng, n, levels)
            start = int(rng.integers(0, n // 2))
            stop = int(rng.integers(start + 1, n + 1))
            bins = int(rng.integers(2, 9))
            ranker = _DriverRanker(x, bins)
            for perm in (np.arange(n), rng.permutation(n)):
                got = ranker.labels(ranker.below[perm], start, stop)
                want = stable_rank_bins(x[perm][start:stop], bins)
                assert got.dtype.kind == "i"
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_match_the_stable_sort_oracle(self, seed):
        # 20 seeds x 100 series: tie-heavy, with signed zeros mixed in.
        rng = np.random.default_rng(700 + seed)
        for _ in range(100):
            n = int(rng.integers(1, 201))
            x = signed_zero_series(rng, n, int(rng.integers(1, 9)))
            bins = int(rng.integers(2, 10))
            got = equiquantal_bins(x, bins)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, stable_rank_bins(x, bins))

    def test_many_bins_stay_small_in_memory(self):
        # The dense table for these inputs would be 32**5 * 8 B = 268 MB.
        rng = np.random.default_rng(65)
        x = rng.standard_normal(3_000)
        emb = SeriesEmbedding(x, np.roll(x, 1) + rng.standard_normal(x.size), 1, 1, bins=32)
        tracemalloc.start()
        try:
            ccmi_asymmetric_series(emb)
            surrogate_baseline(emb, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def surrogate_pair(kind, n=2600):
    rng = np.random.default_rng(71)
    if kind == "untied":
        x = rng.standard_normal(n)
        return x, np.roll(x, 1) + 0.5 * rng.standard_normal(n)
    if kind == "tied":
        x = tied_series(rng, n, 5)
        return x, np.roll(x, 1) + tied_series(rng, n, 3)
    return np.zeros(n), rng.standard_normal(n)


# surrogate_baseline(emb, 3, seed=5) for the pairs of `surrogate_pair`, horizon 1,
# as computed when each surrogate indexed the driver by a drawn permutation.
PINNED_SURROGATES = {
    ("untied", 2, 1): (0.003796111982912187, 0.004494743189409789, 0.0038496262441078954),
    ("untied", 2, 1000): (0.01165675230513763, 0.012099766976239046, 0.016720281995829644),
    ("untied", 8, 1): (1.4379646989228192, 1.4296353550992027, 1.4732366448247411),
    ("untied", 8, 1000): (0.6820701637114155, 0.669091136147447, 0.6720534692205931),
    ("untied", 64, 1): (0.0123219098960341, 0.0123219098960341, 0.0123219098960341),
    ("untied", 64, 1000): (0.0, 0.0, 0.0),
    ("tied", 2, 1): (0.0021354448866537368, 0.0029024386444671535, 0.0018876725182428444),
    ("tied", 2, 1000): (0.010631727593215068, 0.005277166989112736, 0.011131921625794128),
    ("tied", 8, 1): (1.2987809401404231, 1.2746238488699877, 1.2751879697719986),
    ("tied", 8, 1000): (0.7131542561406832, 0.7252496025477537, 0.6868196359222871),
    ("tied", 64, 1): (0.3550688388856251, 0.34072724762731355, 0.3391870088903097),
    ("tied", 64, 1000): (0.03590947413076151, 0.05260396494879416, 0.04592616862158039),
    ("constant", 2, 1): (0.0, 0.0, 0.0),
    ("constant", 2, 1000): (0.0, 0.0, 0.0),
    ("constant", 8, 1): (1.7763568394002505e-15,) * 3,
    ("constant", 8, 1000): (0.0, 0.0, 0.0),
    ("constant", 64, 1): (1.7763568394002505e-15,) * 3,
    ("constant", 64, 1000): (0.0, 0.0, 0.0),
}


class TestSurrogateContract:
    @pytest.mark.parametrize("kind, bins, delay", PINNED_SURROGATES)
    def test_surrogate_i_is_the_driver_indexed_by_the_ith_permutation(self, kind, bins, delay):
        x, y = surrogate_pair(kind)
        got = surrogate_baseline(SeriesEmbedding(x, y, 1, delay, bins), 3, seed=5)
        draws = np.random.default_rng(5)
        index_form = [
            ccmi_asymmetric_series(SeriesEmbedding(x[draws.permutation(x.size)], y, 1, delay, bins))
            for _ in range(3)
        ]
        assert np.array_equal(got, index_form)
        assert np.array_equal(got, PINNED_SURROGATES[kind, bins, delay])


class TestResponseRows:
    """The response is ranked once; its lagged columns must bin as if each were sorted alone."""

    @pytest.mark.parametrize("delay", [1, 2, 3, 150])
    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_row_ids_match_per_window_bins(self, horizon, delay):
        rng = np.random.default_rng(80 + 10 * horizon + delay)
        for levels, bins in ((1, 2), (2, 3), (3, 2), (5, 4), (9, 3)):  # one level: constant
            y = signed_zero_series(rng, 400, levels)
            cmi = _SeriesCmi(SeriesEmbedding(rng.standard_normal(400), y, horizon, delay, bins))
            start, stop = 2 * delay, y.size - horizon
            columns = np.stack(
                [
                    equiquantal_bins(y[start - lag : stop - lag], bins)
                    for lag in (0, delay, 2 * delay, -horizon)
                ],
                axis=1,
            )
            _, c_id = np.unique(columns[:, :3], axis=0, return_inverse=True)
            _, bc_id = np.unique(columns, axis=0, return_inverse=True)
            assert np.array_equal(cmi.c_code // bins, c_id.reshape(-1))
            assert np.array_equal(cmi.bc_code // bins, bc_id.reshape(-1))


def tie_edge_driver(case, n=60):
    """A driver of distinct values, then tied as `case` says; horizon 1 and delay 2
    exclude positions 0-3 and n - 1."""
    x = np.random.default_rng(72).permutation(n).astype(float)
    if case == "only among excluded samples":
        x[[0, 1, n - 1]] = -1.0
    elif case == "only inside the window":
        x[[10, 20, 30]] = x[10]
    elif case == "one pair":
        x[11] = x[10]
    elif case == "one pair across the window edge":
        x[0] = x[30]
    elif case == "all samples":
        x[:] = 3.0
    return x


class TestTieEdgeCases:
    CASES = (
        "none",
        "only among excluded samples",
        "only inside the window",
        "one pair",
        "one pair across the window edge",
        "all samples",
    )

    @pytest.mark.parametrize("case", CASES)
    def test_labels_and_cmi_match_the_oracles(self, case):
        x = tie_edge_driver(case)
        rng = np.random.default_rng(73)
        y = np.roll(x, 1) + tied_series(rng, x.size, 3)
        start, stop = 4, x.size - 1
        ranker = _DriverRanker(x, 3)
        assert (ranker.tied is None) == (case == "none")  # no ties: the tie pass is skipped
        for perm in [np.arange(x.size)] + [rng.permutation(x.size) for _ in range(20)]:
            got = ranker.labels(ranker.below[perm], start, stop)
            assert np.array_equal(got, stable_rank_bins(x[perm][start:stop], 3))
        emb = SeriesEmbedding(x, y, horizon=1, delay=2, bins=3)
        assert abs(ccmi_asymmetric_series(emb) - dense_series_ccmi(x, y, 1, 2, 3)) <= 1e-12
        draws = np.random.default_rng(9)
        for value in surrogate_baseline(emb, 4, seed=9):
            want = dense_series_ccmi(x[draws.permutation(x.size)], y, 1, 2, 3)
            assert abs(value - want) <= 1e-12


class TestSurrogatesAgainstSerialDraws:
    """Each surrogate against the serial oracle: the i-th permutation of one
    generator, drawn in order, applied to the driver and estimated alone."""

    @pytest.mark.parametrize("bins", [3, 5, 8, 64])
    @pytest.mark.parametrize("kind", ["untied", "tied"])
    @pytest.mark.parametrize("delay", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_bit_equal_to_drawing_and_counting_in_turn(self, horizon, delay, kind, bins):
        seed = 1000 * horizon + 100 * delay + bins
        x, y = surrogate_pair(kind, n=600)
        emb = SeriesEmbedding(x, y, horizon, delay, bins)
        # One surrogate fills one key buffer, two fill both, and three and
        # five reuse them.
        for count in (1, 2, 3, 5):
            draws = np.random.default_rng(seed)
            want = [
                ccmi_asymmetric_series(SeriesEmbedding(draws.permutation(x), y, horizon, delay, bins))
                for _ in range(count)
            ]
            assert np.array_equal(surrogate_baseline(emb, count, seed), want)


class TestSurrogateHelperThread:
    """The helper thread that draws the next permutation ends with every call
    and hides no failure of either side."""

    @staticmethod
    def bounded(call):
        """Run `call` on a thread of its own and return what it raised, or
        None; a call still running after 60 s fails the test as a deadlock."""
        raised = []

        def target():
            try:
                call()
            except Exception as exc:
                raised.append(exc)
            else:
                raised.append(None)

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "surrogate_baseline did not return within 60 s"
        return raised[0]

    @staticmethod
    def embedding():
        x, y = TestCounterLimit.lagged_pair(2_000, 90)
        return SeriesEmbedding(x, y, horizon=1, delay=2, bins=4)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_a_completed_call_leaves_no_thread(self, count):
        emb = self.embedding()
        before = threading.enumerate()
        assert self.bounded(lambda: surrogate_baseline(emb, count)) is None
        assert threading.enumerate() == before

    @staticmethod
    def scripted_draws(monkeypatch, failing=0, slow_from=0):
        """Give ccmi the seeded generator with its `failing`-th shuffle raising,
        and every shuffle from the `slow_from`-th on 0.2 s slower (0: none)."""
        make_rng = np.random.default_rng

        class ScriptedDraws:
            def __init__(self, seed):
                self.rng, self.shuffles = make_rng(seed), 0

            def shuffle(self, keys):
                self.shuffles += 1
                if self.shuffles == failing:
                    raise RuntimeError(f"shuffle {failing} failed")
                if slow_from and self.shuffles >= slow_from:
                    time.sleep(0.2)
                self.rng.shuffle(keys)

        monkeypatch.setattr(ccmi.np.random, "default_rng", ScriptedDraws)

    @pytest.mark.parametrize("count", [3, 4, 10])
    def test_a_counting_error_reaches_the_caller(self, monkeypatch, count):
        emb = self.embedding()
        calls = []
        counted = _SeriesCmi.__call__

        def third_count_fails(self, keys):
            calls.append(keys)
            if len(calls) == 3:
                raise NumericalInstability("third count failed")
            return counted(self, keys)

        monkeypatch.setattr(_SeriesCmi, "__call__", third_count_fails)
        # The 4th and later draws are slow, so a helper not waited for would
        # still be drawing when the call raises.
        self.scripted_draws(monkeypatch, slow_from=4)
        before = threading.enumerate()
        raised = self.bounded(lambda: surrogate_baseline(emb, count))
        assert isinstance(raised, NumericalInstability) and str(raised) == "third count failed"
        assert len(calls) == 3
        assert threading.enumerate() == before

    @pytest.mark.parametrize("failing, count", [(1, 1), (1, 5), (2, 2), (3, 5), (5, 5)])
    def test_a_draw_error_reaches_the_caller(self, monkeypatch, failing, count):
        emb = self.embedding()
        self.scripted_draws(monkeypatch, failing=failing)
        before = threading.enumerate()
        raised = self.bounded(lambda: surrogate_baseline(emb, count))
        assert isinstance(raised, RuntimeError) and str(raised) == f"shuffle {failing} failed"
        assert threading.enumerate() == before

    @staticmethod
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    def test_a_refused_set_up_raises_before_the_helper_starts(self, monkeypatch):
        # 1000 samples at 2 bins fill all 16 BC rows: 32 cells.
        x, y = TestCounterLimit.lagged_pair(1_000, 68)
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 31)
        monkeypatch.setattr(ccmi.threading, "Thread", self.no_thread)
        with pytest.raises(InvalidInput, match="16 distinct response rows x 2 bins = 32"):
            surrogate_baseline(SeriesEmbedding(x, y, horizon=1, delay=1, bins=2), 4)
        with pytest.raises(InvalidInput, match="need at least one surrogate"):
            surrogate_baseline(self.embedding(), 0)
