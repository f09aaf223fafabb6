"""Span tracing of qcausal's public functions, applied from outside the package.

`Tracer` swaps each traced name for a timing wrapper in every qcausal module
that holds it (the defining module, the package namespace and every module
that imported the name), and puts the originals back on exit. Methods and the
cached `Hamiltonian.spectrum` property are swapped on their class. Each call
becomes one span: name, start, end, parent span and job id. Spans stay in
memory; `layer_metrics` turns one job's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span is named "<module>.<function>".
FUNCTIONS = (
    ("cli", "main"),
    ("causalscan", "arrival_scan"),
    ("causalscan", "qcmi_time_series"),
    ("causalscan", "initial_ket"),
    ("causalscan", "fit_velocity"),
    ("spinchain", "build_model"),
    ("spinchain", "ground_state"),
    ("spinchain", "propagator"),
    ("spinchain", "evolve"),
    ("spinchain", "evolve_ket"),
    ("instrument", "apply_instrument"),
    ("infomeasures", "asymmetric_qcmi"),
    ("infomeasures", "mutual_information_sites"),
    ("qstate", "partial_trace"),
    ("qstate", "von_neumann_entropy"),
    ("ccmi", "surrogate_baseline"),
    ("ccmi", "ccmi_asymmetric_series"),
    ("ccmi", "equiquantal_bins"),
    ("ccmi", "ccmi_symmetric"),
)

# (module, class, attribute, span name). A constructor span covers the
# dataclass __init__ and its __post_init__ validation; `spectrum` is a
# cached_property, so its span is the first access on each Hamiltonian.
CLASS_ATTRIBUTES = (
    ("qstate", "Ket", "density_matrix", "qstate.density_matrix"),
    ("qstate", "DensityMatrix", "__init__", "qstate.DensityMatrix"),
    ("ccmi", "SeriesEmbedding", "__init__", "ccmi.SeriesEmbedding"),
    ("spinchain", "Hamiltonian", "spectrum", "spinchain.spectrum"),
)

# Every per-layer metric, in report order, with its unit. The traced run
# reports all of them on every workload; a layer the workload never enters
# reads 0.
_CALLS_AND_SELF = (
    "causalscan.arrival_scan",
    "causalscan.qcmi_time_series",
    "causalscan.initial_ket",
    "causalscan.fit_velocity",
    "spinchain.propagator",
    "spinchain.evolve",
    "spinchain.evolve_ket",
    "instrument.apply_instrument",
    "infomeasures.asymmetric_qcmi",
    "infomeasures.mutual_information_sites",
    "qstate.density_matrix",
    "qstate.partial_trace",
    "qstate.von_neumann_entropy",
    "qstate.DensityMatrix",
    "ccmi.surrogate_baseline",
    "ccmi.ccmi_asymmetric_series",
    "ccmi.equiquantal_bins",
    "ccmi.ccmi_symmetric",
    "ccmi.SeriesEmbedding",
)
_SELF_ONLY = ("cli.main", "spinchain.build_model", "spinchain.spectrum", "spinchain.ground_state")

LAYER_METRICS = (
    tuple((f"{name}.self_s", "s") for name in _SELF_ONLY)
    + tuple(
        metric
        for name in _CALLS_AND_SELF
        for metric in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))
    )
    + (
        ("instrument.branches_kept_ratio", "ratio"),
        ("qstate.DensityMatrix.bytes", "bytes-computed"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    )
)

COMPLEX_BYTES = 16


def _count_density_matrix(counters, args, kwargs, result):
    # Computed from the shape, not measured: one dense complex 2^n x 2^n array.
    counters["qstate.DensityMatrix.bytes"] += COMPLEX_BYTES * 4 ** args[0].n_sites


def _count_branches(counters, args, kwargs, result):
    instrument = args[1] if len(args) > 1 else kwargs["instrument"]
    counters["instrument.branches"] += len(result)
    counters["instrument.operators"] += len(instrument.operators)


_COUNTERS = {
    "qstate.DensityMatrix": _count_density_matrix,
    "instrument.apply_instrument": _count_branches,
}


def _qcausal_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "qcausal" or name.startswith("qcausal.")
    ]


class Tracer:
    """Context manager that records spans while qcausal names are wrapped."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, job)
        self.counters: dict[object, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.job: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if count is not None:
                count(self.counters[self.job], args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attribute, original, wrapper):
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self):
        import qcausal.cli  # noqa: F401  (the package does not import its CLI)

        modules = _qcausal_modules()
        for module_name, function in FUNCTIONS:
            original = getattr(sys.modules[f"qcausal.{module_name}"], function)
            wrapper = self.wrap(f"{module_name}.{function}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        for module_name, class_name, attribute, name in CLASS_ATTRIBUTES:
            cls = getattr(sys.modules[f"qcausal.{module_name}"], class_name)
            original = vars(cls)[attribute]
            if isinstance(original, functools.cached_property):
                wrapper = functools.cached_property(self.wrap(name, original.func))
                wrapper.__set_name__(cls, attribute)
            else:
                wrapper = self.wrap(name, original)
            self._patch(cls, attribute, original, wrapper)

    def __exit__(self, *exc_info):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        return False

    def layer_metrics(self, job) -> dict[str, float]:
        """Per-layer calls, self seconds and counters of one job's spans.

        Every name of LAYER_METRICS is returned except `trace.overhead_s`,
        which needs an untraced job to compare with.

        Self time is a span's duration minus the durations of its direct
        children; calls run one at a time, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, span_job in self.spans:
            if span_job == job and parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name, start, end, parent, span_job) in enumerate(self.spans):
            if span_job != job:
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
        counters = self.counters[job]
        operators = counters["instrument.operators"]
        derived = {
            "instrument.branches_kept_ratio": counters["instrument.branches"] / operators if operators else 0.0,
            "qstate.DensityMatrix.bytes": counters["qstate.DensityMatrix.bytes"],
            "trace.spans": sum(calls.values()),
        }
        metrics = {}
        for metric, _unit in LAYER_METRICS:
            if metric in derived:
                metrics[metric] = derived[metric]
            elif metric.endswith(".calls"):
                metrics[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                metrics[metric] = self_s[metric[: -len(".self_s")]]
        return metrics
