"""macdet benchmark: runs one workload (or all) against the package in
../src and prints its metrics, the last stdout line being one JSON object
with the keys correct, attempted, failed and metrics.

    python3 bench/run.py --workload fig2-mc --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

--trace 0 reports the end-to-end metrics: wall_s (median in-process run
after a warm-up), setup_s (median fresh-interpreter import and config
parse), both scaled to a nominal host speed by the reference work in
hostspeed.py timed before and after each run and probe, and peak_rss_mb
(a fresh process doing one run).  --trace 1 alternates untraced runs
with runs that have every traced function wrapped (see tracing.py) and
reports the per-layer metrics.  Every run is checked: exit code 0, the
workload's correctness check and CSV bytes identical to the first run of
the seed; failed/attempted is the fail ratio.  All load comes from this
process and from one probe child at a time.  Details, the environment
and the spans of the last traced run go to .bench_out/ at the
repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads (probe children inherit it).  On
# a 2-vCPU host the second OpenBLAS thread spin-waits through the small
# matrix calls macdet makes: it doubled CPU time, made runs slower, and
# made wall times noisier (see README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# after the pin: hostspeed imports numpy
from hostspeed import Reference, scaled  # noqa: E402
from tracing import Tracer, exact_counts, layer_metrics, shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"

SETUP_PROBES = 5
MIN_SAMPLES = 3
PROBE_TIMEOUT_S = 120


class Ledger:
    """Attempted and failed runs of one workload, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: str | None = None
        self.problems: list[str] = []

    def judge(self, what: str, code: int, sha: str, reasons=()) -> None:
        self.attempted += 1
        reasons = list(reasons)
        if code != 0:
            reasons.append(f"exit code {code}")
        if sha != self.reference:
            reasons.append("CSV differs from the first run of this seed")
        if self.problems:
            reasons.append("correctness check failed")
        if reasons:
            self.failed += 1
            self.notes.append(f"{what}: {', '.join(reasons)}")

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{what}: raised")
        traceback.print_exc()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_once(cli, cfg):
    """One run from parsed config to CSV text: (seconds, exit code, text)."""
    start = time.perf_counter()
    rows, code = cli.run(cfg)
    text = cli.rows_to_csv(rows)
    return time.perf_counter() - start, code, text


def _repeat(seconds: float, ledger: Ledger, steps) -> None:
    """Calls each (what, step, samples) in turn until `seconds` have
    passed and each has MIN_SAMPLES samples.  A step returns (seconds,
    exit code, CSV text, extra failure reasons)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or any(len(s) < MIN_SAMPLES for _, _, s in steps):
        for what, step, samples in steps:
            try:
                elapsed, code, text, reasons = step()
            except Exception:
                ledger.crashed(what)
                continue
            samples.append(elapsed)
            ledger.judge(what, code, _sha(text), reasons)
        if ledger.failed > 2 * MIN_SAMPLES:
            break


def _probe(mode: str, raw: dict):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), mode, json.dumps(raw)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def _timing(samples):
    """Median seconds with sample count and quartiles."""
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {
        "value": statistics.median(samples),
        "unit": "s",
        "samples": len(samples),
        "q1": q1,
        "q3": q3,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from macdet import cli

    workload = WORKLOADS[name]
    raw = workload.config(seed)
    ledger = Ledger()
    metrics: dict = {}
    detail: dict = {}

    if not trace:
        host = Reference()
        setup: list = []
        setup_refs = [host.seconds()]
        for _ in range(SETUP_PROBES):
            setup.append(_probe("setup", raw)[0])
            setup_refs.append(host.seconds())
        metrics["setup_s"] = _timing(scaled(setup, setup_refs))
        detail["setup_raw_s"] = _timing(setup)

    cfg = cli.parse_config(raw, "figure")
    reference = workload.reference(seed, workload.sizing) if workload.reference else None
    try:
        _, code, text = _run_once(cli, cfg)  # warm-up, and the seed's reference output
    except Exception:
        ledger.crashed("warm-up run")
    else:
        ledger.reference = _sha(text)
        ledger.problems = workload.check(text, workload.sizing, reference)
        ledger.notes += ledger.problems
        ledger.judge("warm-up run", code, ledger.reference)
        detail["output_bytes"] = len(text.encode())
    detail["csv_sha256"] = ledger.reference

    def plain():
        return (*_run_once(cli, cfg), ())

    if trace:
        metrics.update(_traced(cli, raw, seconds, ledger, plain, detail, name, seed))
    else:
        wall: list = []
        refs = [host.seconds()]

        def plain_then_reference():
            outcome = plain()
            refs.append(host.seconds())
            return outcome

        _repeat(seconds, ledger, [("run", plain_then_reference, wall)])
        metrics["wall_s"] = _timing(scaled(wall, refs))
        detail["wall_raw_s"] = _timing(wall)
        detail["host_reference_s"] = _timing(refs)
        detail["wall_runs_s"] = wall
        detail["reference_runs_s"] = refs
        try:
            _, out = _probe("run", raw)
        except (RuntimeError, subprocess.TimeoutExpired):
            ledger.crashed("fresh-process run")
        else:
            child = json.loads(out.splitlines()[-1])
            ledger.judge("fresh-process run", child["code"], child["sha256"])
            metrics["peak_rss_mb"] = {
                "value": child["peak_rss_kib"] / 1024.0,
                "unit": "MB",
                "samples": 1,
            }

    return {
        "workload": name,
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "notes": ledger.notes,
        "metrics": metrics,
        "detail": detail,
    }


def _traced(cli, raw, seconds, ledger, plain, detail, name, seed) -> dict:
    """Alternates untraced and traced runs for `seconds`, so that both
    see the same host conditions, and returns the per-layer metrics."""
    tracer = Tracer()
    summaries: list = []
    spans: list = []

    def traced():
        tracer.reset()
        tracer.install()
        try:
            cfg = cli.parse_config(raw, "figure")
            elapsed, code, text = _run_once(cli, cfg)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        spans[:] = tracer.spans
        if exact_counts(summaries[-1]) != exact_counts(summaries[0]):
            return elapsed, code, text, ["span calls or exact counts did not repeat"]
        return elapsed, code, text, []

    untraced: list = []
    traced_wall: list = []
    _repeat(seconds, ledger, [("run", plain, untraced), ("traced run", traced, traced_wall)])
    detail["untraced_wall_s"] = _timing(untraced)
    detail["time_share"] = shares(summaries)

    metrics = layer_metrics(summaries, detail.get("output_bytes", 0))
    metrics["trace.wall_s"] = _timing(traced_wall)
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_wall) - statistics.median(untraced),
        "unit": "s",
    }
    metrics["trace.self_sum_s"] = {
        "value": statistics.median(s["timed_self_s"] for s in summaries),
        "unit": "s",
    }
    metrics["trace.spans"] = {"value": len(spans), "unit": "count"}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-spans.json").write_text(
        json.dumps([{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in spans])
    )
    return metrics


def _openblas_threads() -> dict:
    # thread count each loaded OpenBLAS reports (numpy and scipy bundle their own)
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(names, seed: int) -> dict:
    import numpy
    import scipy

    import macdet

    digest = hashlib.sha256()
    for path in sorted((SRC / "macdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    with open("/proc/self/status", encoding="utf-8") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "macdet": macdet.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "process_threads": threads,
        "seed": seed,
        "inputs": {name: {**WORKLOADS[name].sizing, **WORKLOADS[name].shape} for name in names},
    }


def _print_summary(result: dict) -> None:
    name = result["workload"]
    shown = dict(result["metrics"])
    for key, label in (
        ("wall_raw_s", "wall_s (unscaled)"),
        ("setup_raw_s", "setup_s (unscaled)"),
        ("host_reference_s", "host reference work"),
        ("untraced_wall_s", "wall_s (untraced)"),
    ):
        if key in result["detail"]:
            shown[label] = result["detail"][key]
    for metric, entry in shown.items():
        line = f"{name:13s} {metric:48s} {entry['value']:.6g} {entry['unit']}"
        if "samples" in entry:
            line += f"  n={entry['samples']}"
        if "q1" in entry:
            line += f"  q1={entry['q1']:.6g} q3={entry['q3']:.6g}"
        print(line)
    for what, share in result["detail"].get("time_share", {}).items():
        print(f"{name:13s} {'share: ' + what:48s} {100 * share:.1f} %")
    print(
        f"{name:13s} {'fail_ratio':48s} {result['fail_ratio']:.6g} ratio  "
        f"({result['failed']} of {result['attempted']} runs)"
    )
    for note in result["notes"]:
        print(f"{name:13s} FAIL {note}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "macdet" / "__init__.py").is_file():
        print(f"benchmark: no macdet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    env = environment(names, args.seed)
    for result in results:
        _print_summary(result)

    OUT.mkdir(exist_ok=True)
    for result in results:
        path = OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"environment": env, **result}, indent=1))
    print(json.dumps({"environment": env}))

    def key(result, metric):
        return metric if len(results) == 1 else f"{result['workload']}.{metric}"

    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    key(r, metric): {"value": entry["value"], "unit": entry["unit"]}
                    for r in results
                    for metric, entry in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
