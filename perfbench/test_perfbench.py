"""Tests of the benchmark itself, on small inputs: python -m pytest perfbench"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run

if not run.use_checkout_source():
    raise RuntimeError(f"no qcausal source at {run.SOURCE}")

import qcausal  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_ARRIVAL_CONFIG = qcausal.ScanConfig(
    model=qcausal.ChainModel("xx", 5, 1.0, 0.3),
    initial="basis:10000",
    grid=qcausal.TimeGrid(3.0, 0.05),
    threshold=0.03,
    crossing="interp",
    d_min=2,
    d_max=4,
)
SMALL_ARRIVAL_ARGV = (
    "arrival-scan", "--model", "xx", "--n", "5", "--j", "1", "--h", "0.3",
    "--dt", "0.05", "--t-max", "3", "--threshold", "0.03", "--crossing", "interp",
    "--distances", "2:4",
)
SMALL_QUENCH_CONFIG = qcausal.ScanConfig(
    model=qcausal.ChainModel("tfim", 5, 1.0, 1.0),
    initial="ground",
    protocol="quench-at-zero",
    grid=qcausal.TimeGrid(0.3, 0.1),
    site_a=0,
    site_b=3,
)


def small_arrival(shift: float = 0.0) -> workloads.ArrivalInputs:
    table = qcausal.arrival_scan(SMALL_ARRIVAL_CONFIG)
    rows = tuple((d, t + shift) for d, t in table.rows)
    return workloads.ArrivalInputs(SMALL_ARRIVAL_ARGV, rows, qcausal.fit_velocity(table).v_eff)


def small_quench(shift: float = 0.0) -> workloads.QuenchInputs:
    values = qcausal.qcmi_time_series(SMALL_QUENCH_CONFIG).values
    return workloads.QuenchInputs(SMALL_QUENCH_CONFIG, tuple(values + shift))


def small_ccmi(seed: int = 5) -> workloads.CcmiInputs:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3000)
    y = np.roll(x, 1) + 0.5 * rng.standard_normal(x.size)
    return workloads.CcmiInputs(x, y, bins=4, surrogates=5, seed=seed)


SMALL = {
    "arrival-xx8": small_arrival,
    "quench-tfim10": small_quench,
    "ccmi-surrogates": small_ccmi,
}


def use_inputs(monkeypatch, name, inputs):
    """Make the named workload run on `inputs`, whatever the seed."""
    workload = workloads.WORKLOADS[name]
    replaced = workloads.Workload(lambda seed: inputs, workload.run, workload.check)
    monkeypatch.setitem(workloads.WORKLOADS, name, replaced)
    run.OUT.mkdir(exist_ok=True)


def namespace_snapshot():
    snapshot = {}
    for module in tracing._qcausal_modules():
        for key, value in vars(module).items():
            snapshot[module.__name__, key] = value
    for module_name, class_name, attribute, _ in tracing.CLASS_ATTRIBUTES:
        cls = getattr(sys.modules[f"qcausal.{module_name}"], class_name)
        snapshot[class_name, attribute] = vars(cls)[attribute]
    return snapshot


def test_tracer_restores_every_patched_name():
    import qcausal.cli  # noqa: F401

    before = namespace_snapshot()
    with tracing.Tracer() as tracer:
        during = namespace_snapshot()
        workloads.quench_run(small_quench(), run.OUT)
    patched = {key for key in before if during[key] is not before[key]}
    assert ("qcausal", "qcmi_time_series") in patched
    assert ("qcausal.causalscan", "evolve") in patched
    assert ("qcausal.cli", "arrival_scan") in patched
    assert ("DensityMatrix", "__init__") in patched
    assert ("Hamiltonian", "spectrum") in patched
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {span[0] for span in tracer.spans} >= {"causalscan.qcmi_time_series", "spinchain.spectrum"}


def test_tracer_restores_names_when_the_job_raises():
    before = namespace_snapshot()
    with pytest.raises(qcausal.InvalidInput):
        with tracing.Tracer():
            qcausal.TimeGrid(-1.0, 0.1)
    after = namespace_snapshot()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", ["arrival-xx8", "quench-tfim10"])
def test_wrong_reference_counts_in_fail_frac(monkeypatch, name):
    use_inputs(monkeypatch, name, SMALL[name]())
    result, payload = run.measure(name, seed=0, seconds=0)
    assert (result["correct"], result["attempted"], result["failed"], payload["fail_frac"]) == (True, 1, 0, 0.0)

    use_inputs(monkeypatch, name, SMALL[name](shift=1e-6))
    result, payload = run.measure(name, seed=0, seconds=0)
    assert (result["correct"], result["attempted"], result["failed"], payload["fail_frac"]) == (False, 1, 1, 1.0)


def test_ccmi_check_uses_the_oracle():
    inputs = small_ccmi()
    estimate, surrogates = workloads.ccmi_run(inputs, run.OUT)
    assert workloads.ccmi_check(inputs, (estimate, surrogates))
    assert not workloads.ccmi_check(inputs, (estimate + 1e-6, surrogates))
    assert not workloads.ccmi_check(inputs, (estimate, surrogates[:-1] + (surrogates[-1] + 1e-6,)))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(monkeypatch, name):
    use_inputs(monkeypatch, name, SMALL[name]())
    first, _ = run.measure_traced(name, seed=0, seconds=0)
    second, payload = run.measure_traced(name, seed=0, seconds=0)
    assert first["correct"] and second["correct"] and payload["outputs_identical"]
    counted = [m for m in first["metrics"] if m.endswith(".calls")] + [
        "qstate.DensityMatrix.bytes", "trace.spans", "instrument.branches_kept_ratio"
    ]
    for metric in counted:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["trace.spans"]["value"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)


def test_layer_counters_of_one_job():
    with tracing.Tracer() as tracer:
        tracer.job = 0
        rho = qcausal.DensityMatrix(2, np.eye(4) / 4)
        qcausal.apply_instrument(rho, qcausal.projective_z_instrument(0, 2))
    metrics = tracer.layer_metrics(0)
    # The call itself plus the two one-site branch states it builds.
    assert metrics["qstate.DensityMatrix.calls"] == 3
    assert metrics["qstate.DensityMatrix.bytes"] == tracing.COMPLEX_BYTES * (16 + 4 + 4)
    assert metrics["instrument.apply_instrument.calls"] == 1
    assert metrics["instrument.branches_kept_ratio"] == 1.0
    assert metrics["trace.spans"] == 4
