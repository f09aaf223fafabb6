#!/usr/bin/env python3
"""Run one benchmark workload of qcausal and print its metrics.

    python3 perfbench/run.py --workload arrival-xx8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in this one fresh interpreter, with the BLAS thread count
pinned to 1 before numpy loads, in a closed loop: one client, one job at a
time, each job checked against its reference. Jobs repeat while another fits
in --seconds (at least one runs).

--trace 0 prints the end-to-end metrics: job_s (median wall seconds of one
job), setup_s (median over this process and SETUP_PROBES fresh interpreters
of the qcausal import plus input generation) and peak_rss_mb; jobs that fail
are counted in `failed` and in fail_frac. --trace 1 alternates untraced and
traced jobs and prints the per-layer metrics of `tracing.LAYER_METRICS`,
medians over the traced jobs, plus the tracing overhead; it fails unless the
traced outputs equal the untraced ones. --workload all runs every workload in
its own interpreter, prints each report, and ends with one JSON line whose
metrics are named "<workload>.<metric>".

Each run writes its samples, the environment and (traced) every span to
.perfbench-out/ at the checkout root. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("arrival-xx8", "quench-tfim10", "ccmi-surrogates")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SECONDS = 20
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 900
END_TO_END_METRICS = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def use_checkout_source() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SOURCE / "qcausal" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SOURCE))
    return True


def set_up(name: str, seed: int):
    """Import qcausal (through `workloads`) and make the inputs, timed."""
    start = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    return perf_counter() - start, workload, inputs


def probe_set_up(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout.split()[-1])


def run_job(workload, inputs, workdir: Path):
    """One job: (wall seconds, output, passed). A job that raises has failed."""
    gc.collect()
    start = perf_counter()
    try:
        output = workload.run(inputs, workdir)
    except Exception:
        traceback.print_exc()
        return perf_counter() - start, None, False
    seconds = perf_counter() - start
    try:
        passed = bool(workload.check(inputs, output))
    except Exception:
        traceback.print_exc()
        passed = False
    return seconds, output, passed


def repeat(step, seconds: float) -> None:
    """Call step() once, then again while one more call of the last one's length fits."""
    start = perf_counter()
    while True:
        began = perf_counter()
        step()
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced run: (contract result, results file payload)."""
    own_setup, workload, inputs = set_up(name, seed)
    setups = [own_setup] + [probe_set_up(name, seed) for _ in range(SETUP_PROBES)]
    jobs = []
    repeat(lambda: jobs.append(run_job(workload, inputs, OUT)), seconds)
    times = [t for t, _, _ in jobs]
    failed = sum(not passed for _, _, passed in jobs)
    values = {
        "job_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {metric: (values[metric], unit) for metric, unit in END_TO_END_METRICS}
    payload = {
        "job_s_samples": times,
        "setup_s_samples": setups,
        "fail_frac": failed / len(jobs),
    }
    return _result(failed == 0, len(jobs), failed, metrics), payload


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Traced run: (contract result with per-layer metrics, payload with spans)."""
    from tracing import LAYER_METRICS, Tracer

    _, workload, inputs = set_up(name, seed)
    tracer = Tracer()
    plain, traced = [], []

    def pair():
        plain.append(run_job(workload, inputs, OUT))
        tracer.job = len(traced)
        with tracer:
            traced.append(run_job(workload, inputs, OUT))

    repeat(pair, seconds)
    jobs = plain + traced
    failed = sum(not passed for _, _, passed in jobs)
    identical = all(output == plain[0][1] for _, output, _ in jobs)
    per_job = [tracer.layer_metrics(job) for job in range(len(traced))]
    overhead = statistics.median(t for t, _, _ in traced) - statistics.median(t for t, _, _ in plain)
    metrics = {}
    for metric, unit in LAYER_METRICS:
        value = overhead if metric == "trace.overhead_s" else statistics.median(m[metric] for m in per_job)
        metrics[metric] = (value, unit)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "untraced_job_s_samples": [t for t, _, _ in plain],
        "traced_job_s_samples": [t for t, _, _ in traced],
        "outputs_identical": identical,
        "fail_frac": failed / len(jobs),
        "per_job_layer_metrics": per_job,
        "span_fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": [[n, s - origin, e - origin, p, j] for n, s, e, p, j in tracer.spans],
    }
    return _result(failed == 0 and identical, len(jobs), failed, metrics), payload


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report(name: str, seed: int, trace: int, result: dict, payload: dict, env: dict) -> None:
    blas = env["blas"]
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, {blas['name']} {blas['version']}, "
        f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}"
    )
    samples = {"job_s": "job_s_samples", "setup_s": "setup_s_samples"}
    for metric, entry in result["metrics"].items():
        note = f"  (median of {len(payload[samples[metric]])})" if metric in samples else ""
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'fail_frac':<48} {payload['fail_frac']:.6g}  ({result['failed']} of {result['attempted']} jobs failed)")
    if trace:
        print(f"  traced outputs identical to untraced: {payload['outputs_identical']}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    result, payload = (measure_traced if trace else measure)(name, seed, seconds)
    env = environment(seed)
    path = OUT / f"{name}-seed{seed}-{'traced' if trace else 'untraced'}.json"
    path.write_text(json.dumps({"workload": name, "seconds": seconds, "environment": env, **result, **payload}))
    _report(name, seed, trace, result, payload, env)
    print(f"results: {path.relative_to(ROOT)}")
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own interpreter; metrics keyed '<workload>.<metric>'."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_checkout_source():
        print(f"error: no qcausal source at {SOURCE}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # children inherit it; numpy is not loaded yet

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.setup_probe:
        print(set_up(args.workload, args.seed)[0])
        return 0
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
