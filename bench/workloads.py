"""The benchmark's workloads: three `macdet` figure presets, each sized
only through the run-control keys `trials` and `channel_draws`, and the
check that decides whether a run's CSV output is correct.

Why these three is written down in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable


# a Monte Carlo estimate further than this many binomial standard
# deviations from its analytic row fails the fig2-mc check
MC_Z_LIMIT = 4.0


def _series(text: str) -> dict:
    """series -> {x_value: value} from the CSV text (comment line skipped)."""
    lines = text.splitlines()[1:]
    out: dict = {}
    for row in csv.DictReader(io.StringIO("\n".join(lines))):
        out.setdefault(row["series"], {})[float(row["x_value"])] = float(row["value"])
    return out


def check_fig2(text: str, sizing: dict, reference) -> list[str]:
    """Every Pe_MC row lies within MC_Z_LIMIT binomial standard
    deviations of the analytic Pe row at the same L."""
    series = _series(text)
    n = sizing["trials"] * sizing["channel_draws"]
    problems = []
    pairs = 0
    for name, points in series.items():
        if not name.startswith("Pe_MC("):
            continue
        analytic = series.get("Pe" + name[len("Pe_MC"):], {})
        for x, p_mc in points.items():
            p = analytic.get(x)
            if p is None or not (math.isfinite(p) and math.isfinite(p_mc)):
                problems.append(f"{name} at L={x:g}: no finite analytic pair")
                continue
            pairs += 1
            sd = math.sqrt(p * (1.0 - p) / n)
            z = abs(p_mc - p) / sd if sd > 0.0 else (0.0 if p_mc == p else math.inf)
            if z > MC_Z_LIMIT:
                problems.append(f"{name} at L={x:g}: z = {z:.2f} (Pe_MC {p_mc}, Pe {p})")
    if pairs != 90:
        problems.append(f"expected 90 Pe_MC/Pe pairs, found {pairs}")
    return problems


def _check_schemes(series: dict, n: int, grid, methods: dict) -> list[str]:
    # every scheme value finite and <= C(N,K); hybrid equals one method
    problems = []
    bound = next((pts for name, pts in series.items() if name.startswith(f"C({n},")), None)
    if bound is None:
        return [f"no C({n},K) row"]
    schemes = [
        name
        for name in (f"{m}(N={n})" for m in ("method1", "method2", "hybrid", "sdr_phase"))
        if name in series
    ]
    for x in grid:
        for name in schemes:
            value = series[name].get(x)
            cap = bound.get(x, -math.inf)
            if value is None or not math.isfinite(value) or value > cap:
                problems.append(f"{name} at {x:g} dB: {value} is missing, not finite or above C {cap}")
        hybrid = series.get(f"hybrid(N={n})", {}).get(x)
        if hybrid not in (methods["method1"][x], methods["method2"][x]):
            problems.append(f"hybrid(N={n}) at {x:g} dB equals neither method")
    return problems


def check_fig8(text: str, sizing: dict, reference) -> list[str]:
    series = _series(text)
    grid = [float(db) for db in range(-5, 16)]
    problems = []
    for n in (5, 50):
        methods = {m: series.get(f"{m}(N={n})", {}) for m in ("method1", "method2")}
        if any(len(pts) != len(grid) for pts in methods.values()):
            problems.append(f"N={n}: method rows missing")
            continue
        problems += _check_schemes(series, n, grid, methods)
    return problems


def check_fig9(text: str, sizing: dict, reference) -> list[str]:
    series = _series(text)
    grid = [-5.0 + 2.5 * step for step in range(7)]
    if "sdr_phase(N=3)" not in series:
        return ["no converged sdr_phase(N=3) row"]
    return _check_schemes(series, 3, grid, reference)


def fig9_reference(seed: int, sizing: dict) -> dict:
    """Mean method1/method2 exponents on figure9's own channel draws, so
    the hybrid rows, which figure9 prints without the two method rows,
    can be checked against them.  Mirrors the preset: Ricean K=1, N=3,
    L=32, gamma_c=10, channels from substream ("sdr", d)."""
    # imported here: run.py puts macdet on the path, and pins the BLAS
    # threads, only after this module is loaded
    import dataclasses

    import numpy as np

    from macdet.allocation import finite_exponent, method1, method2
    from macdet.exponents import snr_from_db
    from macdet.model import ChannelModel, NetworkParams, RandomSource, sample_channel

    base = NetworkParams(
        num_sensors=32, num_antennas=3, theta=1.0, sigma_eta_sq=1.0, sigma_nu_sq=1.0,
        p1=0.5, total_power=10.0,
    )
    source = RandomSource(seed)
    channels = [
        sample_channel(ChannelModel.ricean(1.0), 3, 32, source.substream("sdr", d)).entries
        for d in range(sizing["channel_draws"])
    ]
    out: dict = {"method1": {}, "method2": {}}
    for step in range(7):
        db = -5.0 + 2.5 * step
        params = dataclasses.replace(base, sigma_eta_sq=1.0 / snr_from_db(db))
        fe1 = [finite_exponent(h, method1(h, params)[0], params) for h in channels]
        fe2 = [finite_exponent(h, method2(h, params), params) for h in channels]
        # the same reduction as the runner's mean, so equality is exact
        out["method1"][db] = float(np.asarray(fe1, dtype=np.float64).mean())
        out["method2"][db] = float(np.asarray(fe2, dtype=np.float64).mean())
    return out


@dataclass(frozen=True)
class Workload:
    figure_id: int
    sizing: dict
    # input sizes, besides `sizing`, recorded with every result
    shape: dict
    # check(csv_text, sizing, reference) -> list of problems, empty if correct
    check: Callable
    # reference(seed, sizing) -> data the check compares against
    reference: Callable | None = None

    def config(self, seed: int) -> dict:
        return {"figure_id": self.figure_id, "seed": seed, **self.sizing}


WORKLOADS = {
    "fig2-mc": Workload(
        figure_id=2,
        sizing={"trials": 10_000, "channel_draws": 2},
        shape={"L": "1..15", "N": [2, 10], "channels": ["awgn", "ricean(K=1)", "rayleigh"],
               "mc_estimates": 180},
        check=check_fig2,
    ),
    "fig8-schemes": Workload(
        figure_id=8,
        sizing={"channel_draws": 10},
        shape={"L": 200, "N": [5, 50], "channels": ["ricean(K=1)"],
               "gamma_s_db": "-5..15 step 1"},
        check=check_fig8,
    ),
    "fig9-sdr": Workload(
        figure_id=9,
        sizing={"channel_draws": 3},
        shape={"L": 32, "N": [3], "channels": ["ricean(K=1)"],
               "gamma_s_db": "-5..10 step 2.5"},
        check=check_fig9,
        reference=fig9_reference,
    ),
}
