"""Span tracing of macdet's public functions from outside the package.

`Tracer.install` replaces each traced function in every macdet module
namespace that binds it (modules import each other with
`from .x import y`, so patching only the defining module would miss
most calls) and `Tracer.uninstall` puts the originals back.  Spans
(name, start, end, parent) stay in memory; run.py writes them out at
the end.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter


def _count_normals(counts, result):
    # complex_normal draws two real N(0, 1) values per complex sample
    counts["model.complex_normal.normals"] += 2 * result.size


def _count_trials(counts, result):
    counts["detection.estimate_pe_montecarlo.trials"] += result.trials


def _count_sdp(counts, result):
    counts["sdr.solve_sdp.iterations"] += result.iterations
    counts["sdr.solve_sdp.converged"] += int(result.converged)


# (module, attribute, span name, counter); an attribute "Class.method"
# patches the method on the class.  numerics.canonical_phase is left out
# on purpose: it is called ~300k times per figure9 run and its own
# spans would dominate the run they measure.
SPAN_TARGETS = (
    ("model", "complex_normal", "model.complex_normal", _count_normals),
    ("model", "RandomSource.substream", "model.substream", None),
    ("model", "sample_channel", "model.sample_channel", None),
    ("detection", "estimate_pe_montecarlo", "detection.estimate_pe_montecarlo", _count_trials),
    ("detection", "pe_conditional", "detection.pe_conditional", None),
    ("allocation", "finite_exponent", "allocation.finite_exponent", None),
    ("allocation", "received_covariance", "allocation.received_covariance", None),
    ("allocation", "method1", "allocation.method1", None),
    ("allocation", "method2", "allocation.method2", None),
    ("allocation", "calibrate_crossover", "allocation.calibrate_crossover", None),
    ("numerics", "hermitian_eig", "numerics.hermitian_eig", None),
    ("numerics", "solve_hermitian_pd", "numerics.solve_hermitian_pd", None),
    ("numerics", "psd_project", "numerics.psd_project", None),
    ("sdr", "solve_sdp", "sdr.solve_sdp", _count_sdp),
    ("sdr", "extract_phases", "sdr.extract_phases", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "rows_to_csv", "cli.rows_to_csv", None),
)

# calibrate_crossover evaluates the mean method1/method2 gap once per
# gamma_s point (grid and bisection); counted, not spanned
COUNT_TARGETS = (("allocation", "_mean_exponent_gap", "allocation.calibrate_crossover.gap_evals"),)

# the spans that make up one timed run (parse_config runs before it)
ROOT_SPANS = ("cli.run", "cli.rows_to_csv")


def _exponent_targets():
    # every public function of the closed-form layer, summed as "exponents"
    module = importlib.import_module("macdet.exponents")
    return tuple(
        ("exponents", name, "exponents", None)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    )


class Tracer:
    """Collects spans and counts for the functions it has patched."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _span_wrapper(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(tracer.counts, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(f"macdet.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        bound = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "macdet" or mod_name.startswith("macdet.")
            for key, value in list(vars(mod).items())
            if value is original
        ]
        for mod, key in bound:
            self._patches.append((mod, key, original))
            setattr(mod, key, wrapper)

    def install(self) -> None:
        for module_name, attr, name, counter in SPAN_TARGETS + _exponent_targets():
            self._patch(
                module_name, attr, lambda fn, n=name, c=counter: self._span_wrapper(n, fn, c)
            )
        for module_name, attr, name in COUNT_TARGETS:
            self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def summary(self) -> dict:
        """Per-name calls, self and total seconds of the recorded spans,
        plus the counts taken at the same boundaries."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[index] = root[parent]
        out: dict = {}
        timed_self = 0.0
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s = end - start - child[index]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
            if self.spans[root[index]][0] in ROOT_SPANS:
                timed_self += self_s
        return {"spans": out, "counts": dict(self.counts), "timed_self_s": timed_self}


def _stat(summary, span, stat):
    entry = summary["spans"].get(span)
    if entry is None:
        return 0 if stat == "calls" else 0.0
    return entry[stat]


# the span statistics reported for each span, as <span>.<stat>
SPAN_STATS = {
    "model.complex_normal": ("calls", "self_s"),
    "model.substream": ("calls", "self_s"),
    "model.sample_channel": ("calls", "self_s"),
    "detection.estimate_pe_montecarlo": ("calls", "self_s"),
    "detection.pe_conditional": ("calls", "self_s"),
    "allocation.finite_exponent": ("calls", "self_s"),
    "allocation.received_covariance": ("calls", "self_s"),
    "allocation.method1": ("calls", "self_s"),
    "allocation.method2": ("calls", "self_s"),
    "allocation.calibrate_crossover": ("calls", "total_s"),
    "numerics.hermitian_eig": ("calls", "self_s"),
    "numerics.solve_hermitian_pd": ("calls", "self_s"),
    "numerics.psd_project": ("calls", "self_s"),
    "sdr.solve_sdp": ("calls", "self_s", "total_s"),
    "sdr.extract_phases": ("calls", "self_s"),
    "exponents": ("calls", "self_s"),
    "cli.parse_config": ("self_s",),
    "cli.run": ("self_s",),
    "cli.rows_to_csv": ("self_s",),
}

# counts taken at the span boundaries, reported as they are
REPORTED_COUNTS = (
    "model.complex_normal.normals",
    "detection.estimate_pe_montecarlo.trials",
    "sdr.solve_sdp.iterations",
    "allocation.calibrate_crossover.gap_evals",
)


def layer_metrics(summaries: list[dict], output_bytes: int) -> dict:
    """Per-layer metrics over repeated traced runs of one workload:
    exact counts from the first run (the caller checks they repeat) and
    medians of the times."""
    first = summaries[0]
    metrics: dict = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            if stat == "calls":
                metrics[f"{span}.calls"] = {"value": _stat(first, span, "calls"), "unit": "count"}
            else:
                value = statistics.median(_stat(s, span, stat) for s in summaries)
                metrics[f"{span}.{stat}"] = {"value": value, "unit": "s"}
    for name in REPORTED_COUNTS:
        metrics[name] = {"value": first["counts"].get(name, 0), "unit": "count"}
    solves = _stat(first, "sdr.solve_sdp", "calls")
    converged = first["counts"].get("sdr.solve_sdp.converged", 0)
    metrics["sdr.solve_sdp.converged_ratio"] = {
        "value": converged / solves if solves else 0.0,
        "unit": "ratio",
    }
    metrics["cli.output_bytes"] = {"value": output_bytes, "unit": "B"}
    return metrics


def exact_counts(summary: dict) -> dict:
    """Span calls and the boundary counts, which must repeat exactly
    between runs of one seed."""
    out = {f"{name}.calls": entry["calls"] for name, entry in summary["spans"].items()}
    out.update(summary["counts"])
    return out


# spans whose inclusive time is the layer split the workloads are built on
SPLIT_SPANS = ("detection.estimate_pe_montecarlo", "allocation.calibrate_crossover", "sdr.solve_sdp")


def shares(summaries: list[dict]) -> dict:
    """Medians over the traced runs, as shares of the timed run's summed
    self time: each macdet module's self time (the first part of a span
    name), and the total time of SPLIT_SPANS."""
    modules = sorted({name.split(".")[0] for s in summaries for name in s["spans"]})

    def share(fn):
        return statistics.median(fn(s) / s["timed_self_s"] for s in summaries)

    out = {
        f"self {module}": share(
            lambda s, m=module: sum(
                entry["self_s"]
                for name, entry in s["spans"].items()
                if name.split(".")[0] == m and name != "cli.parse_config"
            )
        )
        for module in modules
    }
    for span in SPLIT_SPANS:
        out[f"total {span}"] = share(lambda s, sp=span: _stat(s, sp, "total_s"))
    return out
