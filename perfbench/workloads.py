"""The benchmark's workloads: inputs from a seed, one job, and its check.

Importing this module imports qcausal, so the benchmark counts it as set-up.
Jobs call qcausal through module attributes at call time, so that a running
`tracing.Tracer` sees them.

- arrival-xx8: the paper's N=8 XX arrival scan, run as a CLI user runs it.
  Dense density-matrix pipeline: instrument, partial traces, entropies.
- quench-tfim10: a TFIM N=10 quench-at-zero series. Dense 1024^2
  eigendecomposition, one propagator per time step, mixed-state evolution.
- ccmi-surrogates: the classical CMI baseline with 100 surrogates on
  generated series. No quantum module runs.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qcausal
import qcausal.cli

HERE = Path(__file__).resolve().parent
# Outputs captured from the seed commit; a job fails if any value differs by more.
TOLERANCE = 1e-9

ARRIVAL_ARGV = (
    "arrival-scan", "--model", "xx", "--n", "8", "--j", "1", "--h", "0.3",
    "--dt", "0.01", "--t-max", "5", "--threshold", "0.03", "--crossing", "interp",
    "--distances", "2:7",
)


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _close(got, want) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= TOLERANCE for g, w in zip(got, want))


# ---------------------------------------------------------------- arrival-xx8

@dataclass(frozen=True)
class ArrivalInputs:
    argv: tuple[str, ...]
    rows: tuple[tuple[int, float], ...]  # expected (d, t_arr)
    v_eff: float  # expected


def arrival_inputs(seed: int) -> ArrivalInputs:
    # The paper's configuration is fixed; the seed does not change it.
    ref = _reference()["arrival-xx8"]
    return ArrivalInputs(ARRIVAL_ARGV, tuple(map(tuple, ref["rows"])), ref["v_eff"])


def arrival_run(inputs: ArrivalInputs, workdir: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        csv_path, json_path = Path(tmp, "arrival.csv"), Path(tmp, "arrival.json")
        code = qcausal.cli.main([*inputs.argv, "--out", str(csv_path), "--json-out", str(json_path)])
        return {
            "exit_code": code,
            "csv": csv_path.read_text() if csv_path.exists() else "",
            "json": json_path.read_text() if json_path.exists() else "",
        }


def arrival_check(inputs: ArrivalInputs, output: dict) -> bool:
    if output["exit_code"] != 0:
        return False
    lines = [line for line in output["csv"].splitlines() if line and not line.startswith("#")]
    if lines[:1] != ["d,t_arr"]:
        return False
    rows = [line.split(",") for line in lines[1:]]
    if [int(d) for d, _ in rows] != [d for d, _ in inputs.rows] or any(t == "" for _, t in rows):
        return False
    times = [float(t) for _, t in rows]
    v_eff = json.loads(output["json"])["v_eff"]
    return _close(times, [t for _, t in inputs.rows]) and v_eff is not None and _close([v_eff], [inputs.v_eff])


# -------------------------------------------------------------- quench-tfim10

@dataclass(frozen=True)
class QuenchInputs:
    config: qcausal.ScanConfig
    values: tuple[float, ...]  # expected series


def quench_inputs(seed: int) -> QuenchInputs:
    # The configuration is fixed; the seed does not change it.
    config = qcausal.ScanConfig(
        model=qcausal.ChainModel("tfim", 10, 1.0, 1.0),
        initial="ground",
        protocol="quench-at-zero",
        grid=qcausal.TimeGrid(1.0, 0.1),
        site_a=0,
        site_b=3,
    )
    return QuenchInputs(config, tuple(_reference()["quench-tfim10"]["values"]))


def quench_run(inputs: QuenchInputs, workdir: Path) -> tuple[float, ...]:
    return tuple(qcausal.qcmi_time_series(inputs.config).values.tolist())


def quench_check(inputs: QuenchInputs, output: tuple[float, ...]) -> bool:
    return _close(output, inputs.values)


# ------------------------------------------------------------ ccmi-surrogates

@dataclass(frozen=True)
class CcmiInputs:
    driver: np.ndarray
    response: np.ndarray
    bins: int
    surrogates: int
    seed: int


def ccmi_inputs(seed: int) -> CcmiInputs:
    # y follows x with lag 1 plus noise, so the driver->response CMI is large.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(100_000)
    y = np.roll(x, 1) + 0.5 * rng.standard_normal(x.size)
    return CcmiInputs(x, y, bins=8, surrogates=100, seed=seed)


def ccmi_run(inputs: CcmiInputs, workdir: Path) -> tuple[float, tuple[float, ...]]:
    emb = qcausal.SeriesEmbedding(inputs.driver, inputs.response, horizon=1, delay=1, bins=inputs.bins)
    estimate = qcausal.ccmi_asymmetric_series(emb)
    baseline = qcausal.surrogate_baseline(emb, inputs.surrogates, seed=inputs.seed)
    return estimate, tuple(baseline.tolist())


def _rank_bins(values: np.ndarray, bins: int) -> np.ndarray:
    ranks = np.argsort(np.argsort(values, kind="stable"), kind="stable")
    return ranks * bins // values.size


def oracle_ccmi(driver: np.ndarray, response: np.ndarray, bins: int) -> float:
    """I(x_j ; y_{j+1} | y_j, y_{j-1}, y_{j-2}) in bits, for horizon = delay = 1.

    Independent of qcausal's dense bins^5 table: each row of bin labels is
    packed into one integer and only occupied cells are counted, with
    np.unique.
    """
    columns = (driver[2:-1], response[3:], response[2:-1], response[1:-2], response[:-3])
    labels = [_rank_bins(column, bins) for column in columns]

    def entropy(indices):
        code = np.zeros(labels[0].size, dtype=np.int64)
        for i in indices:
            code = code * bins + labels[i]
        _, counts = np.unique(code, return_counts=True)
        p = counts / code.size
        return float(-np.sum(p * np.log2(p)))

    value = entropy((0, 2, 3, 4)) + entropy((1, 2, 3, 4)) - entropy((2, 3, 4)) - entropy((0, 1, 2, 3, 4))
    return max(value, 0.0)


def ccmi_check(inputs: CcmiInputs, output: tuple[float, tuple[float, ...]]) -> bool:
    """Estimate, first and last surrogate against the oracle; the rest in range."""
    estimate, surrogates = output
    if len(surrogates) != inputs.surrogates or not all(0.0 <= s < estimate for s in surrogates):
        return False
    # surrogate_baseline draws one permutation of the driver per surrogate.
    rng = np.random.default_rng(inputs.seed)
    first = rng.permutation(inputs.driver)
    for _ in range(inputs.surrogates - 1):
        last = rng.permutation(inputs.driver)
    checks = [(estimate, inputs.driver), (surrogates[0], first), (surrogates[-1], last)]
    return all(
        abs(got - oracle_ccmi(driver, inputs.response, inputs.bins)) <= TOLERANCE
        for got, driver in checks
    )


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run: Callable[[Any, Path], Any]  # (inputs, scratch directory) -> output
    check: Callable[[Any, Any], bool]  # (inputs, output) -> correct


WORKLOADS = {
    "arrival-xx8": Workload(arrival_inputs, arrival_run, arrival_check),
    "quench-tfim10": Workload(quench_inputs, quench_run, quench_check),
    "ccmi-surrogates": Workload(ccmi_inputs, ccmi_run, ccmi_check),
}
