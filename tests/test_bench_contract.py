"""What `bench/` relies on in the package, checked without running the
benchmark: the fig9-sdr correctness check, which compares the printed
hybrid rows bit for bit with finite_exponent of method1 and method2
called one channel at a time, alone and with the tracer installed, and
the functions `--trace 1` wraps by name.  The bench modules are loaded
read-only from their files."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from macdet import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


workloads = load("workloads")
tracing = load("tracing")


# the benchmark picks its seeds; 3110 is the seed of BENCH_30.json
@pytest.mark.parametrize("seed", [0, 7, 3110])
def test_fig9_check_passes_at_bench_sizing(seed):
    workload = workloads.WORKLOADS["fig9-sdr"]
    rows, code = cli.run(cli.parse_config(workload.config(seed), "figure"))
    assert code == 0
    text = cli.rows_to_csv(rows)
    reference = workloads.fig9_reference(seed, workload.sizing)
    assert workloads.check_fig9(text, workload.sizing, reference) == []


def test_fig9_check_passes_under_the_tracer():
    # `bench/run.py --trace 1` runs the workloads with every traced
    # function wrapped, and a wrapper's counter reads the call's return
    # value (SdpSolution.iterations for solve_sdp): a call site whose
    # return value the counter cannot read raises out of the run here
    workload = workloads.WORKLOADS["fig9-sdr"]
    seed = 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rows, code = cli.run(cli.parse_config(workload.config(seed), "figure"))
        text = cli.rows_to_csv(rows)
    finally:
        tracer.uninstall()
    assert code == 0
    summary = tracer.summary()
    assert summary["spans"]["cli.run"]["calls"] == 1
    assert summary["counts"]["allocation.calibrate_crossover.gap_evals"] > 0
    reference = workloads.fig9_reference(seed, workload.sizing)
    assert workloads.check_fig9(text, workload.sizing, reference) == []


@pytest.mark.parametrize(
    "module,attr",
    [target[:2] for target in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS],
    ids=lambda value: value,
)
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"macdet.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_installs_and_restores():
    from macdet import allocation

    original = allocation.finite_exponent
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert allocation.finite_exponent is not original
    finally:
        tracer.uninstall()
    assert allocation.finite_exponent is original
