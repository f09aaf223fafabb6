"""One input rule at every public entry: integers, sites and register sizes
are never rounded, real parameters must be finite numbers, and a violation is
always `InvalidInput` (CLI exit code 2), never a raw `TypeError` or
`ValueError`. A site set or a list of variable names must be iterable. Every
numeric array (amplitudes, matrices, operators, tables, series) passes
`qstate.check_array`: a float or integer array of the slot's shape, or a
complex one where the slot is complex; strings, scalars, ragged lists, bool
arrays and complex arrays in a real slot are refused. Series of reals for
`arrival_time` must also be finite, and a slot that takes a qcausal object (a
model, a grid, a scan config, a Hamiltonian, a state, a propagator, a
partition, an instrument, an arrival table, a series embedding, a joint
distribution) takes nothing else. A slot that needs a square matrix refuses any
other, and an arrival table's rows are (distance, time) pairs. Each refusal
of a well-typed value that breaks a documented rule (a grid step above t_max,
an unknown protocol, an empty variable list, a single bin) says which rule."""

import numpy as np
import pytest

from qcausal import (
    PAULI_Z,
    ArrivalTable,
    ChainModel,
    DensityMatrix,
    Hamiltonian,
    Instrument,
    InsufficientData,
    InvalidInput,
    JointDistribution,
    Ket,
    Partition,
    Propagator,
    ScanConfig,
    SeriesEmbedding,
    TimeGrid,
    arrival_scan,
    apply_instrument,
    arrival_time,
    asymmetric_qcmi,
    basis_ket,
    build_model,
    ccmi_asymmetric_series,
    ccmi_symmetric,
    commutator_front_norm,
    dispersion,
    embed_on_sites,
    embed_operator,
    equiquantal_bins,
    evolve,
    evolve_ket,
    fit_velocity,
    ghz_state,
    ground_state,
    initial_ket,
    lr_velocity,
    max_group_velocity,
    mutual_information,
    mutual_information_sites,
    partial_trace,
    projective_z_instrument,
    propagator,
    qcmi_time_series,
    shannon_entropy,
    surrogate_baseline,
    symmetric_qcmi,
    total_sigma_z,
    validate_density_matrix,
    validate_instrument,
    von_neumann_entropy,
    xx_group_velocity,
)
from qcausal.qstate import check_array, check_sites

CHAIN3 = ChainModel("xx", 3, 1.0, 0.3)
H3 = build_model(CHAIN3)
RHO3 = ghz_state(3).density_matrix()
PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
GRID = TimeGrid(0.1, 0.05)


def _series(site_a, site_b):
    config = ScanConfig(CHAIN3, initial="basis:100", grid=GRID, site_a=site_a, site_b=site_b)
    return qcmi_time_series(config)


def _scan(d_min, d_max):
    model = ChainModel("xx", 4, 1.0, 0.3)
    return arrival_scan(
        ScanConfig(model, initial="basis:1000", grid=GRID, d_min=d_min, d_max=d_max)
    )


def _embedding(**params):
    x = np.arange(20.0)
    return SeriesEmbedding(x, x[::-1] % 7, **{"horizon": 1, "delay": 1, "bins": 2, **params})


# entry -> (call with the value under test, a valid value for that slot)
INTEGER_ENTRIES = {
    "Ket-n_sites": (lambda v: Ket(v, [1.0, 0.0]), 1),
    "DensityMatrix-n_sites": (lambda v: DensityMatrix(v, np.eye(2) / 2), 1),
    "basis_ket-bit": (lambda v: basis_ket([v, 0]), 1),
    "ghz_state-n_sites": (lambda v: ghz_state(v), 3),
    "embed_operator-site": (lambda v: embed_operator(PAULI_Z, v, 3), 1),
    "embed_operator-n_sites": (lambda v: embed_operator(PAULI_Z, 0, v), 3),
    "embed_on_sites-sites": (lambda v: embed_on_sites(PAULI_Z, (v,), 3), 1),
    "embed_on_sites-n_sites": (lambda v: embed_on_sites(PAULI_Z, (0,), v), 3),
    "partial_trace-keep": (lambda v: partial_trace(RHO3, (v,)), 1),
    "Partition-a": (lambda v: Partition((v,), (2,), (0,)), 1),
    "Instrument-targets": (lambda v: Instrument((v,), PROJECTORS), 1),
    "projective_z_instrument-site": (lambda v: projective_z_instrument(v, 3), 1),
    "projective_z_instrument-n_sites": (lambda v: projective_z_instrument(0, v), 3),
    "ChainModel-n_sites": (lambda v: ChainModel("xx", v, 1.0, 0.3), 3),
    "total_sigma_z-n_sites": (lambda v: total_sigma_z(v), 3),
    "qcmi_time_series-site_a": (lambda v: _series(v, 2), 0),
    "qcmi_time_series-site_b": (lambda v: _series(0, v), 2),
    "arrival_scan-d_min": (lambda v: _scan(v, 3), 2),
    "arrival_scan-d_max": (lambda v: _scan(2, v), 3),
    "mutual_information-split": (lambda v: mutual_information(RHO3, v), 1),
    "commutator_front_norm-site_a": (
        lambda v: commutator_front_norm(H3, v, PAULI_Z, 2, PAULI_Z, 0.1), 0
    ),
    "commutator_front_norm-site_b": (
        lambda v: commutator_front_norm(H3, 0, PAULI_Z, v, PAULI_Z, 0.1), 2
    ),
    "SeriesEmbedding-horizon": (lambda v: _embedding(horizon=v), 1),
    "SeriesEmbedding-delay": (lambda v: _embedding(delay=v), 1),
    "SeriesEmbedding-bins": (lambda v: _embedding(bins=v), 2),
    "equiquantal_bins-bins": (lambda v: equiquantal_bins(np.arange(5.0), v), 2),
    "surrogate_baseline-n_surrogates": (lambda v: surrogate_baseline(_embedding(), v), 1),
    "surrogate_baseline-seed": (lambda v: surrogate_baseline(_embedding(), 1, seed=v), 1),
}

REAL_ENTRIES = {
    "ChainModel-coupling": lambda v: ChainModel("xx", 3, v, 0.3),
    "ChainModel-field": lambda v: ChainModel("xx", 3, 1.0, v),
    "TimeGrid-t_max": lambda v: TimeGrid(v, 0.05),
    "TimeGrid-dt": lambda v: TimeGrid(1.0, v),
    "ScanConfig-threshold": lambda v: ScanConfig(CHAIN3, threshold=v),
    "arrival_time-threshold": lambda v: arrival_time([0.0, 0.1], [0.0, 1.0], v),
    "propagator-time": lambda v: propagator(H3, v),
    "Propagator-time": lambda v: Propagator(v, np.eye(2)),
    "evolve_ket-time": lambda v: evolve_ket(H3, basis_ket([1, 0, 0]), v),
    "xx_group_velocity-coupling": lambda v: xx_group_velocity(v),
    "dispersion-k": lambda v: dispersion(v, 1.0),
    "dispersion-coupling": lambda v: dispersion(0.5, v),
}


SERIES3 = ScanConfig(CHAIN3, initial="basis:100", grid=GRID, site_a=0, site_b=2)
SCAN3 = ScanConfig(CHAIN3, initial="basis:100", grid=GRID, d_min=2, d_max=2)
KET3 = basis_ket([1, 0, 0])
PROP3 = propagator(H3, 0.1)
PART3 = Partition((0,), (2,), (1,))
INSTR3 = projective_z_instrument(0, 3)
TABLE = ArrivalTable(((2, 0.5), (3, 1.0)))
EMB = _embedding()
DIST = JointDistribution(("x", "y"), np.full((2, 2), 0.25))

# entry -> (call with the value under test, the object the slot takes, another
# qcausal object that could be handed in by mistake)
OBJECT_ENTRIES = {
    "Hamiltonian-model": (lambda v: Hamiltonian(v), CHAIN3, H3),
    "ScanConfig-model": (lambda v: ScanConfig(v), CHAIN3, H3),
    "ScanConfig-grid": (lambda v: ScanConfig(CHAIN3, grid=v), GRID, CHAIN3),
    "qcmi_time_series-config": (lambda v: qcmi_time_series(v), SERIES3, CHAIN3),
    "arrival_scan-config": (lambda v: arrival_scan(v), SCAN3, CHAIN3),
    "fit_velocity-table": (lambda v: fit_velocity(v), TABLE, SCAN3),
    "propagator-hamiltonian": (lambda v: propagator(v, 0.1), H3, CHAIN3),
    "ground_state-hamiltonian": (lambda v: ground_state(v), H3, CHAIN3),
    "evolve_ket-hamiltonian": (lambda v: evolve_ket(v, KET3, 0.1), H3, CHAIN3),
    "evolve_ket-ket": (lambda v: evolve_ket(H3, v, 0.1), KET3, RHO3),
    "initial_ket-hamiltonian": (lambda v: initial_ket(v, "ground"), H3, CHAIN3),
    "commutator_front_norm-hamiltonian": (
        lambda v: commutator_front_norm(v, 0, PAULI_Z, 2, PAULI_Z, 0.1), H3, CHAIN3
    ),
    "evolve-rho": (lambda v: evolve(v, PROP3), RHO3, KET3),
    "evolve-prop": (lambda v: evolve(RHO3, v), PROP3, H3),
    "asymmetric_qcmi-rho": (lambda v: asymmetric_qcmi(v, PART3, INSTR3), RHO3, KET3),
    "asymmetric_qcmi-partition": (lambda v: asymmetric_qcmi(RHO3, v, INSTR3), PART3, INSTR3),
    "asymmetric_qcmi-instrument": (lambda v: asymmetric_qcmi(RHO3, PART3, v), INSTR3, PART3),
    "apply_instrument-rho": (lambda v: apply_instrument(v, INSTR3), RHO3, KET3),
    "apply_instrument-instrument": (lambda v: apply_instrument(RHO3, v), INSTR3, PART3),
    "validate_instrument-instrument": (lambda v: validate_instrument(v), INSTR3, PART3),
    "partial_trace-rho": (lambda v: partial_trace(v, (0,)), RHO3, KET3),
    "von_neumann_entropy-rho": (lambda v: von_neumann_entropy(v), RHO3, KET3),
    "symmetric_qcmi-rho": (lambda v: symmetric_qcmi(v, PART3), RHO3, KET3),
    "symmetric_qcmi-partition": (lambda v: symmetric_qcmi(RHO3, v), PART3, INSTR3),
    "mutual_information_sites-rho": (
        lambda v: mutual_information_sites(v, (0,), (2,)), RHO3, KET3
    ),
    "mutual_information-rho": (lambda v: mutual_information(v, 1), RHO3, KET3),
    "lr_velocity-model": (lambda v: lr_velocity(v), CHAIN3, H3),
    "max_group_velocity-model": (lambda v: max_group_velocity(v), CHAIN3, H3),
    "ccmi_asymmetric_series-emb": (lambda v: ccmi_asymmetric_series(v), EMB, DIST),
    "surrogate_baseline-emb": (lambda v: surrogate_baseline(v, 1), EMB, DIST),
    "shannon_entropy-dist": (lambda v: shannon_entropy(v, ("x",)), DIST, EMB),
    "ccmi_symmetric-dist": (lambda v: ccmi_symmetric(v, ("x",), ("y",)), DIST, EMB),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
@pytest.mark.parametrize("bad", [0.7, 2.0, True, "1"], ids=repr)
def test_non_integer_rejected(entry, bad):
    call, _ = entry
    with pytest.raises(InvalidInput):
        call(bad)


@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_numpy_integer_accepted(entry):
    call, good = entry
    call(np.int64(good))


@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
@pytest.mark.parametrize("bad", ["0.5", True, None, np.nan, np.inf, -np.inf], ids=repr)
def test_non_finite_or_non_real_rejected(entry, bad):
    with pytest.raises(InvalidInput):
        entry(bad)


@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
@pytest.mark.parametrize("good", [np.float64(0.5), 1], ids=repr)
def test_real_numbers_accepted(entry, good):
    entry(good)


@pytest.mark.parametrize("entry", OBJECT_ENTRIES.values(), ids=OBJECT_ENTRIES.keys())
def test_object_of_another_type_rejected(entry):
    call, _, mistaken = entry
    for bad in ("xx", 5, (1.0, 0.1), mistaken):
        with pytest.raises(InvalidInput):
            call(bad)


@pytest.mark.parametrize("entry", OBJECT_ENTRIES.values(), ids=OBJECT_ENTRIES.keys())
def test_object_of_the_slot_type_accepted(entry):
    call, good, _ = entry
    call(good)


def test_validated_integers_are_stored_as_python_ints():
    values = (
        ChainModel("xx", np.int64(4), 1.0, 0.0).n_sites,
        Ket(np.int64(1), [1.0, 0.0]).n_sites,
        *Partition((np.int64(0),), (np.int64(2),), (np.int64(1),)).sites,
        *Instrument((np.int64(1),), PROJECTORS).target_sites,
        _embedding(horizon=np.int64(2)).horizon,
    )
    assert all(type(v) is int for v in values)


SERIES = np.arange(20) % 7
ONE_QUBIT = [[1, 0], [0, 0]]

# entry -> (call with the array under test, a valid integer array for that
# slot, the slot's dtype)
ARRAY_ENTRIES = {
    "Ket-amplitudes": (lambda v: Ket(1, v), [0, 1], complex),
    "DensityMatrix-matrix": (lambda v: DensityMatrix(1, v), ONE_QUBIT, complex),
    "validate_density_matrix-matrix": (validate_density_matrix, ONE_QUBIT, complex),
    "Propagator-matrix": (lambda v: Propagator(0.1, v), [[0, 1], [1, 0]], complex),
    "Instrument-operators": (
        lambda v: Instrument((1,), v), [ONE_QUBIT, [[0, 0], [0, 1]]], complex
    ),
    "embed_on_sites-op": (lambda v: embed_on_sites(v, (0, 2), 3), np.eye(4, dtype=int), complex),
    "embed_operator-op": (lambda v: embed_operator(v, 1, 3), ONE_QUBIT, complex),
    "commutator_front_norm-op_a": (
        lambda v: commutator_front_norm(H3, 0, v, 2, PAULI_Z, 0.1), ONE_QUBIT, complex
    ),
    "commutator_front_norm-op_b": (
        lambda v: commutator_front_norm(H3, 0, PAULI_Z, 2, v, 0.1), ONE_QUBIT, complex
    ),
    "JointDistribution-table": (lambda v: JointDistribution(("x", "y"), v), ONE_QUBIT, float),
    "SeriesEmbedding-driver": (lambda v: SeriesEmbedding(v, SERIES, 1, 1, 2), SERIES, float),
    "SeriesEmbedding-response": (lambda v: SeriesEmbedding(SERIES, v, 1, 1, 2), SERIES, float),
    "equiquantal_bins-values": (lambda v: equiquantal_bins(v, 2), [3, 1, 2], float),
    "arrival_time-times": (lambda v: arrival_time(v, [0.0, 1.0], 0.5), [0, 1], float),
    "arrival_time-values": (lambda v: arrival_time([0.0, 0.1], v, 0.5), [0, 1], float),
}

# bad value -> how to make it from the slot's valid array
NOT_ARRAYS = {
    "string": lambda good: "xx",
    "scalar": lambda good: 5,
    "ragged": lambda good: [[0.0], [1.0, 2.0]],
    "bools": lambda good: np.asarray(good).astype(bool),
    "extra axis": lambda good: np.asarray(good)[..., None],
}


@pytest.mark.parametrize("entry", ARRAY_ENTRIES.values(), ids=ARRAY_ENTRIES.keys())
@pytest.mark.parametrize("bad", NOT_ARRAYS.values(), ids=NOT_ARRAYS.keys())
def test_not_an_array_of_the_slot_rejected(entry, bad):
    call, good, _ = entry
    with pytest.raises(InvalidInput):
        call(bad(good))


# entry -> call with a matrix under test, for the slots that take a square one
SQUARE_ENTRIES = {
    "DensityMatrix-matrix": lambda v: DensityMatrix(1, v),
    "validate_density_matrix-matrix": validate_density_matrix,
    "Propagator-matrix": lambda v: Propagator(0.1, v),
    "Instrument-operators": lambda v: Instrument((1,), (v,)),
    "embed_on_sites-op": lambda v: embed_on_sites(v, (1,), 3),
}


@pytest.mark.parametrize("entry", SQUARE_ENTRIES.values(), ids=SQUARE_ENTRIES.keys())
@pytest.mark.parametrize("shape", [(2, 4), (4, 2)])
def test_non_square_matrix_rejected(entry, shape):
    # (2, 4): orthonormal rows, so U U^dagger = 1 would pass a propagator.
    with pytest.raises(InvalidInput):
        entry(np.eye(*shape))


@pytest.mark.parametrize(
    "entry",
    [entry for entry in ARRAY_ENTRIES.values() if entry[2] is float],
    ids=[name for name, entry in ARRAY_ENTRIES.items() if entry[2] is float],
)
def test_complex_array_in_a_real_slot_rejected(entry):
    call, good, _ = entry
    with pytest.raises(InvalidInput):
        call(np.asarray(good, dtype=complex))


@pytest.mark.parametrize("entry", ARRAY_ENTRIES.values(), ids=ARRAY_ENTRIES.keys())
def test_integer_float_and_slot_dtype_arrays_accepted(entry):
    call, good, dtype = entry
    for value in (good, np.asarray(good, dtype=float), np.asarray(good, dtype=dtype)):
        call(value)


@pytest.mark.parametrize("dtype", [float, complex])
def test_check_array_matches_none_to_any_length(dtype):
    array = check_array([[1, 2, 3]], "a", dtype, (1, None))
    assert array.dtype == dtype and array.shape == (1, 3)
    with pytest.raises(InvalidInput, match="shape"):
        check_array([[1, 2, 3]], "a", dtype, (None, 2))


def test_check_array_copies_nothing_of_the_slot_dtype():
    array = np.ones(3)
    assert check_array(array, "a", float, (3,)) is array


# entry -> call with the sequence under test; 5 and a 0-d array cannot be iterated
SEQUENCE_ENTRIES = {
    "check_sites": lambda v: check_sites(v),
    "basis_ket-bits": lambda v: basis_ket(v),
    "Partition-a": lambda v: Partition(v, (1,), (2,)),
    "Partition-c": lambda v: Partition((0,), (1,), v),
    "Instrument-targets": lambda v: Instrument(v, PROJECTORS),
    "partial_trace-keep": lambda v: partial_trace(RHO3, v),
    "embed_on_sites-sites": lambda v: embed_on_sites(PAULI_Z, v, 3),
    "mutual_information_sites-b": lambda v: mutual_information_sites(RHO3, v, (1,)),
    "JointDistribution-names": lambda v: JointDistribution(v, [1.0]),
    "shannon_entropy-variables": lambda v: shannon_entropy(DIST, v),
    "ccmi_symmetric-a": lambda v: ccmi_symmetric(DIST, v, ("y",)),
    "ccmi_symmetric-b": lambda v: ccmi_symmetric(DIST, ("x",), v),
    "ccmi_symmetric-c": lambda v: ccmi_symmetric(DIST, ("x",), ("y",), v),
    "ArrivalTable-rows": lambda v: fit_velocity(ArrivalTable(v)),
    "ArrivalTable-row": lambda v: fit_velocity(ArrivalTable(((2, 0.5), v))),
}


@pytest.mark.parametrize("entry", SEQUENCE_ENTRIES.values(), ids=SEQUENCE_ENTRIES.keys())
@pytest.mark.parametrize("bad", [5, np.array(1), None], ids=repr)
def test_non_iterable_sequence_rejected(entry, bad):
    with pytest.raises(InvalidInput):
        entry(bad)


# None of these is a 1-d array of finite reals.
NOT_REAL_SERIES = {
    "2-d": np.zeros((2, 2)),
    "0-d": np.array(0.5),
    "strings": ["a", "b"],
    "numeric strings": ["0", "1"],
    "bools": [False, True],
    "ragged": [[0.0], [1.0, 2.0]],
    "nan": [0.0, np.nan],
    "inf": [0.0, np.inf],
}


@pytest.mark.parametrize("crossing", ["first-sample", "interp"])
@pytest.mark.parametrize("bad", NOT_REAL_SERIES.values(), ids=NOT_REAL_SERIES.keys())
def test_arrival_time_needs_1d_finite_real_series(bad, crossing):
    for times, values in ((bad, bad), (bad, [0.0, 1.0]), ([0.0, 1.0], bad)):
        with pytest.raises(InvalidInput):
            arrival_time(times, values, 0.5, crossing)


def test_arrival_time_rejects_a_nan_value_it_would_interpolate():
    with pytest.raises(InvalidInput):
        arrival_time([0.0, 0.1, 0.2], [0.0, np.nan, 1.0], 0.5, "interp")


def test_arrival_time_accepts_integer_series():
    assert arrival_time(np.arange(3), [0, 0, 1], 0.5) == 2.0


@pytest.mark.parametrize("bad", ["0.5", True, np.nan, np.inf, -np.inf], ids=repr)
def test_fit_velocity_rejects_a_non_finite_arrival_time(bad):
    with pytest.raises(InvalidInput):
        fit_velocity(ArrivalTable(((2, 0.5), (3, bad), (4, 1.5))))


@pytest.mark.parametrize("bad", [2.5, 3.0, np.nan, True, "3"], ids=repr)
def test_fit_velocity_rejects_a_non_integer_distance(bad):
    with pytest.raises(InvalidInput):
        fit_velocity(ArrivalTable(((2, 0.5), (bad, 1.0), (4, 1.5))))


@pytest.mark.parametrize("row", [(), (3,), (3, 1.0, 0.5), "31"], ids=repr)
def test_arrival_table_row_must_be_a_distance_time_pair(row):
    with pytest.raises(InvalidInput):
        fit_velocity(ArrivalTable(((2, 0.5), row, (4, 1.5))))


def test_arrival_table_checks_rows_without_an_arrival():
    with pytest.raises(InvalidInput):
        ArrivalTable(((2, 0.5), (2.5, None)))
    rows = ArrivalTable(((np.int64(2), np.float64(0.5)), [3, None])).rows
    assert rows == ((2, 0.5), (3, None))
    assert [type(v) for row in rows for v in row] == [int, float, int, type(None)]


@pytest.mark.parametrize(
    "rows", [((2, 0.5), (2, 0.7)), ((2, 0.5), (3, None), (2, 0.6))], ids=["two", "missing"]
)
def test_fit_velocity_needs_two_distinct_distances(rows):
    with pytest.raises(InsufficientData, match="2 distinct distances"):
        fit_velocity(ArrivalTable(rows))


# refusal -> (a call that breaks one documented rule with values of the right
# type, words of its message)
DOCUMENTED_REFUSALS = {
    "TimeGrid-dt-above-t_max": (lambda: TimeGrid(0.1, 0.2), "exceeds t_max"),
    "ScanConfig-protocol": (
        lambda: ScanConfig(CHAIN3, protocol="measure-later"), "protocol must be one of"
    ),
    "ScanConfig-crossing": (
        lambda: ScanConfig(CHAIN3, crossing="last-sample"), "crossing must be one of"
    ),
    "arrival_scan-no-distances": (
        lambda: arrival_scan(ScanConfig(CHAIN3, initial="basis:100", grid=GRID)),
        "needs d_min and d_max",
    ),
    "evolve_ket-ket-size": (lambda: evolve_ket(H3, basis_ket([1, 0]), 0.1), "dimension mismatch"),
    "Instrument-no-operators": (
        lambda: Instrument((0,), np.zeros((0, 2, 2))), "at least one measurement operator"
    ),
    "JointDistribution-no-names": (
        lambda: JointDistribution((), np.array(1.0)), "at least one variable"
    ),
    "JointDistribution-repeated-name": (
        lambda: JointDistribution(("x", "x"), np.full((2, 2), 0.25)), "must be unique"
    ),
    "shannon_entropy-repeated-variable": (
        lambda: shannon_entropy(DIST, ("x", "x")), "duplicate variables"
    ),
    "ccmi_symmetric-empty-a": (lambda: ccmi_symmetric(DIST, (), ("y",)), "must be non-empty"),
    "ccmi_symmetric-empty-b": (lambda: ccmi_symmetric(DIST, ("x",), ()), "must be non-empty"),
    "equiquantal_bins-one-bin": (lambda: equiquantal_bins(np.arange(5.0), 1), "at least 2 bins"),
    "equiquantal_bins-empty": (lambda: equiquantal_bins([], 2), "non-empty series"),
    "SeriesEmbedding-horizon-0": (lambda: _embedding(horizon=0), "must be positive"),
    "SeriesEmbedding-delay-0": (lambda: _embedding(delay=0), "must be positive"),
}


@pytest.mark.parametrize(
    "refusal", DOCUMENTED_REFUSALS.values(), ids=DOCUMENTED_REFUSALS.keys()
)
def test_documented_refusal(refusal):
    call, words = refusal
    with pytest.raises(InvalidInput, match=words):
        call()


def test_arrival_time_of_an_empty_series_is_none():
    assert arrival_time([], [], 0.5) is None
    assert arrival_time(np.zeros(0), np.zeros(0), 0.5, "interp") is None


def test_validate_density_matrix_reads_a_density_matrix():
    report = validate_density_matrix(RHO3)
    assert report.passed and report == validate_density_matrix(RHO3.matrix)
