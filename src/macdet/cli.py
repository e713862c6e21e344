"""Batch experiment runner behind the `macdet` console script.

Ingests a flat JSON config (key/value pairs plus one optional sweep
block), executes one named experiment or figure preset, and emits rows
in a stable CSV or JSON schema.  Identical config and seed produce
byte-identical output.

dB conventions: SNR quantities use 10 log10 and are accepted through
keys with an explicit `_db` suffix; 20 log10 applies only to
exponent-ratio gains reported elsewhere.  Exit codes: 0 success, 2
config error, 3 exactly when some row's series is marked
`[nonconverged]` (an sdr-compare or figure9 run with an uncertified
SDP solve).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .allocation import SchemeSweep, alpha_uniform, scheme_sweep
from .detection import PeEstimate, empirical_exponent, estimate_pe_montecarlo_batch
from .exponents import (
    SnrPoint,
    ZetaFactor,
    bound_b,
    bound_c,
    bounds_asymptotic,
    e_awgn,
    e_csis1_rayleigh_closed,
    e_nocsis,
    e_po1,
    gain_awgn,
    gain_csis_bound_nk,
    gain_inf_bound,
    gain_nocsis,
    mp_lambda_max,
    snr_from_db,
    snr_to_db,
)
from .forms import exponent_statistic
from .model import (
    ChannelModel,
    NetworkParams,
    RandomSource,
    SensingNoiseModel,
    sample_channel,
)
from .numerics import hermitian_eig
from .sdr import extract_phases, solve_sdps

__all__ = [
    "ConfigError",
    "ResultRow",
    "ExperimentConfig",
    "parse_config",
    "run",
    "rows_to_csv",
    "rows_to_json",
    "main",
    "console_main",
]

# each sweep variable and the config keys its grid overwrites
_SWEEPS = {
    "gamma_s": ("gamma_s", "gamma_s_db", "sigma_eta_sq"),
    "gamma_c": ("gamma_c", "gamma_c_db", "total_power"),
    "N": ("num_antennas", "n_list"),
    "L": ("num_sensors",),
    "K": ("ricean_k",),
    "beta": ("num_antennas",),
}

# the config keys every experiment reads, and those of every experiment
# with a network of its own (the figure presets pin theirs)
_COMMON_KEYS = frozenset({"experiment", "seed", "output", "format"})
_MODEL_KEYS = _COMMON_KEYS | {
    "num_sensors", "num_antennas", "theta", "sigma_eta_sq", "sigma_nu_sq", "p1",
    "total_power", "gamma_s", "gamma_s_db", "gamma_c", "gamma_c_db", "channel",
    "ricean_k", "sweep",
}

# asymptotic draws an n x L channel with n = max(1, round(L / beta)) and
# decomposes its n x n Gram matrix; at n = 8192 that complex matrix alone
# takes 1 GiB, so larger antenna counts are config errors
_MAX_ASYMPTOTIC_ANTENNAS = 8192

# the series suffix of rows whose SDP solves were not all certified;
# run's exit code is 3 exactly when some row carries it
_NONCONVERGED = "[nonconverged]"

_DB_COMMENT = (
    "# dB conventions: SNRs use 10*log10 (keys and columns with an _db suffix); "
    "20*log10 applies only to exponent-ratio gain values."
)


class ConfigError(ValueError):
    """Config failed strict validation (maps to exit code 2)."""


@dataclass(frozen=True)
class ResultRow:
    """One output record; `series` labels the curve a point belongs to."""

    experiment: str
    series: str
    x_name: str
    x_value: float
    value: float
    ci95: float | None
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (construct via parse_config)."""

    experiment: str
    figure_id: int | None
    params: NetworkParams
    model: ChannelModel
    noise_corr: float | None  # AR(1) sensing-noise correlation; None is iid
    n_list: tuple[int, ...] | None
    sweep_variable: str | None
    sweep_grid: tuple[float, ...] | None
    trials: int
    channel_draws: int | None
    seed: int
    output: str | None
    format: str


def _as_bool_free_number(key: str, value, allow_inf: bool = False) -> float:
    # NaN and -inf are never valid; +inf only where allow_inf says it
    # means something (gamma_s = inf is noise-free sensing)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    value = float(value)
    if not (math.isfinite(value) or (allow_inf and value == math.inf)):
        raise ConfigError(f"{key} must be finite" + (" or +Infinity" if allow_inf else ""))
    return value


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")
    return value


def _as_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _reject(given: set, keys: tuple, why: str) -> None:
    clash = sorted(k for k in keys if k in given)
    if clash:
        raise ConfigError(f"{', '.join(clash)} cannot be set {why}")


def _snr(raw: dict, name: str, power_key: str, allow_inf: bool) -> float | None:
    # the SNR `name` from its linear key or its `_db` key, neither of which
    # may come with the other or with the power key it replaces; None when
    # neither is given
    db_key = f"{name}_db"
    key = name if name in raw else db_key
    if key not in raw:
        return None
    _reject(raw.keys() - {key}, (db_key, power_key), f"together with {key}")
    value = _as_bool_free_number(key, raw[key], allow_inf=allow_inf)
    if key == db_key:
        try:
            value = snr_from_db(value)
        except OverflowError:
            raise ConfigError(f"{name} from {db_key} overflows") from None
        if value == 0.0:
            raise ConfigError(f"{db_key} is so low that {name} underflows to 0")
    if not value > 0.0:
        raise ConfigError(f"{name} must be > 0")
    return value


def _parse_sweep(raw_sweep, experiment: str) -> tuple[str, tuple[float, ...]]:
    if not isinstance(raw_sweep, dict):
        raise ConfigError("sweep must be an object with keys variable and grid")
    unknown = sorted(set(raw_sweep) - {"variable", "grid"})
    if unknown:
        raise ConfigError(f"unknown sweep key {unknown[0]!r}")
    if "variable" not in raw_sweep or "grid" not in raw_sweep:
        raise ConfigError("sweep requires both variable and grid")
    variable = _as_str("sweep.variable", raw_sweep["variable"])
    if variable not in _SWEEPS:
        raise ConfigError(f"unknown sweep variable {variable!r}")
    allowed = _EXPERIMENTS[experiment][1]
    if variable not in allowed:
        raise ConfigError(
            f"sweep variable {variable!r} is not valid for {experiment} "
            f"(allowed: {', '.join(allowed)})"
        )
    raw_grid = raw_sweep["grid"]
    if not isinstance(raw_grid, list) or not raw_grid:
        raise ConfigError("sweep.grid must be a non-empty list")
    grid = tuple(
        _as_bool_free_number("sweep.grid entry", g, allow_inf=variable == "gamma_s")
        for g in raw_grid
    )
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep.grid must be strictly increasing")
    if variable in ("N", "L"):
        if any(not float(g).is_integer() or g < 1 for g in grid):
            raise ConfigError(f"sweep.grid for {variable} must hold integers >= 1")
    elif variable == "K":
        if any(g < 0.0 for g in grid):
            raise ConfigError("sweep.grid for K must hold values >= 0")
    else:
        if any(g <= 0.0 for g in grid):
            raise ConfigError(f"sweep.grid for {variable} must hold values > 0")
        if variable == "gamma_s" and experiment in ("schemes", "sdr-compare"):
            if any(math.isinf(g) for g in grid):
                raise ConfigError(f"sweep.grid for gamma_s must be finite for {experiment}")
    return variable, grid


def parse_config(raw, experiment: str) -> ExperimentConfig:
    """Validates a decoded config object against one CLI experiment.

    Strict: an experiment takes only the keys its runner reads, as its
    `_EXPERIMENTS` entry names them (`noise`/`noise_corr` only in
    montecarlo, `trials` in montecarlo and figure, `channel_draws` in all
    but exponent-sweep, `n_list` in exponent-sweep, no model key in
    figure).  Any other key, conflicting keys (a quantity given both
    directly and through an SNR) and keys a sweep would overwrite are
    all rejected.
    """
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    given = set(raw)
    stray = given - _EXPERIMENTS[experiment][2]
    if stray:
        known = frozenset().union(*(entry[2] for entry in _EXPERIMENTS.values()))
        unknown = sorted(stray - known)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        raise ConfigError(f"config key {min(stray)!r} is not read by the {experiment} experiment")

    if "experiment" in raw:
        named = _as_str("experiment", raw["experiment"])
        if named != experiment:
            raise ConfigError(
                f"config names experiment {named!r} but {experiment!r} was requested"
            )

    figure_id = None
    if experiment == "figure":
        if "figure_id" not in raw:
            raise ConfigError("figure requires figure_id")
        figure_id = _as_int("figure_id", raw["figure_id"])
        if not 2 <= figure_id <= 9:
            raise ConfigError("figure_id must lie in 2..9")

    sweep_variable = None
    sweep_grid = None
    if "sweep" in given:
        sweep_variable, sweep_grid = _parse_sweep(raw["sweep"], experiment)
        _reject(given, _SWEEPS[sweep_variable], f"when {experiment} sweeps {sweep_variable}")
    elif experiment not in ("sdr-compare", "figure"):
        raise ConfigError(f"{experiment} requires a sweep block")
    if experiment == "schemes" and len(sweep_grid) < 2:
        raise ConfigError("schemes requires a gamma_s grid with at least two points")

    theta = _as_bool_free_number("theta", raw.get("theta", 1.0))
    sigma_nu_sq = _as_bool_free_number("sigma_nu_sq", raw.get("sigma_nu_sq", 1.0))
    p1 = _as_bool_free_number("p1", raw.get("p1", 0.5))

    gamma_s = _snr(raw, "gamma_s", "sigma_eta_sq", allow_inf=True)
    gamma_c = _snr(raw, "gamma_c", "total_power", allow_inf=False)
    sigma_eta_sq = _as_bool_free_number("sigma_eta_sq", raw.get("sigma_eta_sq", 1.0))
    total_power = _as_bool_free_number("total_power", raw.get("total_power", 1.0))
    if gamma_c is not None:
        total_power = gamma_c * sigma_nu_sq

    channel = _as_str("channel", raw.get("channel", "awgn"))
    if channel not in ("awgn", "rayleigh", "ricean"):
        raise ConfigError(f"unknown channel {channel!r}")
    if channel != "ricean":
        _reject(given, ("ricean_k",), f"for a {channel} channel")
    elif "ricean_k" not in given and sweep_variable != "K":
        raise ConfigError("ricean channel requires ricean_k")
    if sweep_variable == "K" and channel != "ricean":
        raise ConfigError("sweeping K requires a ricean channel")
    # a K sweep's grid supplies K; the model's own K is then never read
    ricean_k = _as_bool_free_number("ricean_k", raw.get("ricean_k", 0.0))

    noise = _as_str("noise", raw.get("noise", "iid"))
    noise_corr = None
    if noise == "iid":
        _reject(given, ("noise_corr",), "for iid sensing noise")
    elif noise == "ar1":
        if "noise_corr" not in given:
            raise ConfigError("ar1 sensing noise requires noise_corr")
        noise_corr = _as_bool_free_number("noise_corr", raw["noise_corr"])
        if not -1.0 < noise_corr < 1.0:
            raise ConfigError("noise_corr must lie strictly between -1 and 1")
    else:
        raise ConfigError(f"unknown noise kind {noise!r}")

    num_sensors = _as_int("num_sensors", raw.get("num_sensors", 200))
    num_antennas = _as_int("num_antennas", raw.get("num_antennas", 1))
    if sweep_variable == "beta":
        for beta in sweep_grid:
            # compares the float L / beta, since round() raises on inf:
            # round(r) > cap exactly when r > cap + 0.5 (round(8192.5) = 8192)
            if num_sensors / beta > _MAX_ASYMPTOTIC_ANTENNAS + 0.5:
                raise ConfigError(
                    f"beta = {beta!r} needs N = round(L / beta) > {_MAX_ASYMPTOTIC_ANTENNAS}"
                )

    n_list = None
    if "n_list" in given:
        raw_list = raw["n_list"]
        if not isinstance(raw_list, list) or not raw_list:
            raise ConfigError("n_list must be a non-empty list of integers")
        ns = tuple(_as_int("n_list entry", n) for n in raw_list)
        if any(n < 1 for n in ns) or len(set(ns)) != len(ns):
            raise ConfigError("n_list entries must be distinct integers >= 1")
        n_list = ns

    trials = _as_int("trials", raw.get("trials", 10_000))
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    needs_montecarlo = experiment == "montecarlo" or figure_id == 2
    if needs_montecarlo and trials < 1000:
        raise ConfigError("montecarlo experiments require trials >= 1000")

    channel_draws = None
    if "channel_draws" in given:
        channel_draws = _as_int("channel_draws", raw["channel_draws"])
        if channel_draws < 1:
            raise ConfigError("channel_draws must be >= 1")

    seed = _as_int("seed", raw.get("seed", 0))

    output = _as_str("output", raw["output"]) if "output" in given else None
    fmt = _as_str("format", raw.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be csv or json")

    # the model types validate the seed and the network; every sweep point
    # must be a valid network too
    try:
        RandomSource(seed)
        model = ChannelModel.awgn() if channel == "awgn" else ChannelModel.ricean(ricean_k)
        params = NetworkParams(
            num_sensors=num_sensors,
            num_antennas=num_antennas,
            theta=theta,
            sigma_eta_sq=sigma_eta_sq,
            sigma_nu_sq=sigma_nu_sq,
            p1=p1,
            total_power=total_power,
        )
        if gamma_s is not None:
            params = params.at_gamma_s(gamma_s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for x in sweep_grid or ():
        try:
            _params_at(params, sweep_variable, x)
        except ValueError as exc:
            raise ConfigError(f"{exc} at {sweep_variable} = {x!r}") from exc

    return ExperimentConfig(
        experiment=experiment,
        figure_id=figure_id,
        params=params,
        model=model,
        noise_corr=noise_corr,
        n_list=n_list,
        sweep_variable=sweep_variable,
        sweep_grid=sweep_grid,
        trials=trials,
        channel_draws=channel_draws,
        seed=seed,
        output=output,
        format=fmt,
    )


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past the int-digits limit; RecursionError, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _params_at(params: NetworkParams, variable: str, x: float) -> NetworkParams:
    """The network at point x of a sweep over `variable`; K and beta
    leave it unchanged."""
    if variable == "gamma_s":
        return params.at_gamma_s(x)
    if variable == "gamma_c":
        return dataclasses.replace(params, total_power=x * params.sigma_nu_sq)
    if variable == "N":
        return dataclasses.replace(params, num_antennas=int(x))
    if variable == "L":
        return dataclasses.replace(params, num_sensors=int(x))
    return params


def _noise_for(cfg: ExperimentConfig, params: NetworkParams) -> SensingNoiseModel | None:
    # AR(1) noise of zero power (noise-free sensing) is no noise at all
    if cfg.noise_corr is None or params.sigma_eta_sq == 0.0:
        return None
    idx = np.arange(params.num_sensors)
    r = params.sigma_eta_sq * cfg.noise_corr ** np.abs(idx[:, None] - idx[None, :])
    return SensingNoiseModel(r.astype(np.complex128))


def _mean_ci(values):
    """Mean and 95 % confidence half-width (None for a single value) of
    `values` along its last axis: floats for a 1-D sequence, lists for a
    (points, draws) array, each row with the bits of its 1-D call."""
    arr = np.asarray(values, dtype=np.float64)
    draws = arr.shape[-1]
    mean = arr.mean(axis=-1)
    if draws < 2:
        return mean.tolist(), np.full(mean.shape, None).tolist()
    return mean.tolist(), (1.96 * arr.std(axis=-1, ddof=1) / math.sqrt(draws)).tolist()


def _row(
    cfg: ExperimentConfig, series: str, x_name: str, x_value, value, ci95: float | None = None
) -> ResultRow:
    return ResultRow(cfg.experiment, series, x_name, float(x_value), value, ci95, cfg.seed)


def _run_exponent_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    params = cfg.params
    var = cfg.sweep_variable
    rows: list[ResultRow] = []
    for x in cfg.sweep_grid:
        gamma_s, gamma_c, k_here = params.gamma_s, params.gamma_c, cfg.model.k_factor
        if var == "gamma_s":
            gamma_s = x
        elif var == "gamma_c":
            gamma_c = x
        elif var == "K":
            k_here = x
        ns = (int(x),) if var == "N" else (cfg.n_list or (params.num_antennas,))
        for n in ns:
            pt = SnrPoint(
                gamma_s=gamma_s, gamma_c=gamma_c, p1=params.p1, k_factor=k_here, num_antennas=n
            )
            tag = "" if var == "N" else f"(N={n})"
            rows.append(_row(cfg, f"E_AWGN{tag}", var, x, e_awgn(pt)))
            if not cfg.model.is_awgn:
                rows.append(_row(cfg, f"E_NoCSIS{tag}", var, x, e_nocsis(pt)))
    return rows


def _montecarlo_series(cfg: ExperimentConfig, series) -> list[ResultRow]:
    """The Pe_MC and Pe rows of each (model, params) series of `series`
    over cfg's sweep, series by series.

    At each sweep point i and draw d every series samples its own
    channel on a fresh Philox generator keyed like
    substream("mc-channel", i, d); the series of a point share that key,
    built once, and AWGN series, which draw nothing, build no generator.
    The network, gains and noise model of a point are built once per
    distinct params of `series`.  One batch call per draw d scores every
    (point, series) detector on the trial blocks of stream 1 + d, drawn
    once at the largest L and N of the run: every point and series
    shares those blocks (common random numbers), a point with L sensors
    and N antennas reading their leading L sensing and 2N receiver rows,
    and each series gets the rows a run of its own would give.
    """
    var = cfg.sweep_variable
    draws = cfg.channel_draws or 10
    base = RandomSource(cfg.seed)
    points, networks = [], {}
    for i, x in enumerate(cfg.sweep_grid):
        for k, (model, params) in enumerate(series):
            if (params, x) not in networks:
                p = _params_at(params, var, x)
                networks[params, x] = (p, alpha_uniform(p), _noise_for(cfg, p))
            points.append((i, k, model, *networks[params, x]))
    errors = [0] * len(points)
    pes = np.empty((len(points), draws))
    for d in range(draws):
        keys = [base.seed_sequence("mc-channel", i, d) for i in range(len(cfg.sweep_grid))]
        detectors = [
            (
                sample_channel(
                    model,
                    p.num_antennas,
                    p.num_sensors,
                    None if model.is_awgn else np.random.Generator(np.random.Philox(keys[i])),
                ),
                alpha,
                p,
                noise,
            )
            for i, _, model, p, alpha, noise in points
        ]
        scored = estimate_pe_montecarlo_batch(
            detectors, cfg.trials, RandomSource(cfg.seed, stream_id=1 + d)
        )
        for j, (est, pe) in enumerate(scored):
            errors[j] += est.errors
            pes[j, d] = pe
    rows: list[list[ResultRow]] = [[] for _ in series]
    # a mean along each contiguous row sums pairwise, as np.mean of one
    # point's draws does, so it keeps those bits
    for (i, k, model, p, _, _), e, pe in zip(points, errors, pes.mean(axis=1).tolist()):
        x = cfg.sweep_grid[i]
        total = PeEstimate(e, cfg.trials * draws)
        tag = "" if var == "N" else f",N={p.num_antennas}"
        label = f"({model.label}{tag})"
        rows[k].append(_row(cfg, f"Pe_MC{label}", var, x, total.p_hat, total.ci95_halfwidth))
        rows[k].append(_row(cfg, f"Pe{label}", var, x, pe))
    return [row for series_rows in rows for row in series_rows]


def _scheme_channels(cfg: ExperimentConfig, label: str, draws: int) -> np.ndarray:
    """The (D, N, L) channels a scheme sweep is scored on: `draws`
    channels of cfg's model, draw d from substream(label, d)."""
    params = cfg.params
    base = RandomSource(cfg.seed)
    channels = np.empty((draws, params.num_antennas, params.num_sensors), dtype=np.complex128)
    for d in range(draws):
        channels[d] = sample_channel(
            cfg.model, params.num_antennas, params.num_sensors, base.substream(label, d)
        ).entries
    return channels


def _sweep_rows(cfg: ExperimentConfig, result: SchemeSweep, columns: dict) -> list[ResultRow]:
    """Each point's mean and ci95 of every (points, draws) column, then C(N, K)."""
    k = cfg.model.k_factor
    stats = [(series, *_mean_ci(values)) for series, values in columns.items()]
    rows: list[ResultRow] = []
    for i, (x, params_x) in enumerate(zip(result.grid, result.params)):
        rows += [_row(cfg, series, "gamma_s", x, means[i], cis[i]) for series, means, cis in stats]
        bound = bound_c(SnrPoint.from_params(params_x, k_factor=k))
        rows.append(_row(cfg, f"C({params_x.num_antennas},{k:g})", "gamma_s", x, bound))
    return rows


def _run_schemes(cfg: ExperimentConfig) -> list[ResultRow]:
    n = cfg.params.num_antennas
    channels = _scheme_channels(cfg, "schemes", cfg.channel_draws or 25)
    result = scheme_sweep(channels, cfg.sweep_grid, cfg.params)
    names = (f"method1(N={n})", f"method2(N={n})", f"hybrid(N={n})")
    rows = _sweep_rows(cfg, result, dict(zip(names, np.moveaxis(result.exponents, -1, 0))))
    crossover = math.nan if result.crossover is None else result.crossover
    return rows + [_row(cfg, f"crossover(N={n})", "gamma_s", math.nan, crossover)]


def _run_sdr_compare(cfg: ExperimentConfig) -> list[ResultRow]:
    params = cfg.params
    n, num_sensors = params.num_antennas, params.num_sensors
    channels = _scheme_channels(cfg, "sdr", cfg.channel_draws or 10)
    result = scheme_sweep(channels, cfg.sweep_grid or (params.gamma_s,), params)

    # the phases do not depend on the power budget: one stacked solve of
    # all draws serves every gamma_s
    solved = []
    for d, (h, solution) in enumerate(zip(channels, solve_sdps(channels))):
        if not solution.converged:
            print(
                f"sdr: channel draw {d} not certified after {solution.iterations} "
                f"iterations (gap {solution.gap:.3e})",
                file=sys.stderr,
            )
            continue
        solved.append((h, extract_phases(solution)))

    # every point's sdr_phase gains, scored in one batch (points, draws); NaN if none certified
    if solved:
        hs, phases = (np.stack(parts) for parts in zip(*solved))
        budget, sigma_eta_sq = np.array([(p.gain_budget, p.sigma_eta_sq) for p in result.params]).T
        gains = np.sqrt(budget / num_sensors)[:, np.newaxis, np.newaxis] * phases
        sdr = exponent_statistic(hs, gains, params, sigma_eta_sq[:, np.newaxis])
    else:
        sdr = np.full((len(result.grid), 1), math.nan)
    sdr_series = f"sdr_phase(N={n})" + ("" if len(solved) == len(channels) else _NONCONVERGED)
    return _sweep_rows(cfg, result, {sdr_series: sdr, f"hybrid(N={n})": result.exponents[..., 2]})


def _run_asymptotic(cfg: ExperimentConfig) -> list[ResultRow]:
    params = cfg.params
    draws = cfg.channel_draws or 20
    num_sensors = params.num_sensors
    zeta = ZetaFactor.from_model(cfg.model)
    pt = SnrPoint.from_params(params, k_factor=cfg.model.k_factor).with_antennas(1)
    base = RandomSource(cfg.seed)
    rows: list[ResultRow] = []
    for i, beta in enumerate(cfg.sweep_grid):
        bounds = bounds_asymptotic(beta, pt)
        for series, value in (
            ("lambda_max_limit", mp_lambda_max(beta)),
            ("E_inf", bounds.e_awgn_inf),
            ("B_inf", bounds.b_inf),
            ("C_inf", bounds.c_inf),
            ("G_inf_bound", gain_inf_bound(beta, zeta)),
        ):
            rows.append(_row(cfg, series, "beta", beta, value))
        n = max(1, round(num_sensors / beta))
        lams = []
        for d in range(draws):
            h = sample_channel(cfg.model, n, num_sensors, base.substream("asymptotic", i, d)).entries
            gram = h @ h.conj().T / num_sensors
            lams.append(float(hermitian_eig(gram).eigenvalues[-1]))
        mean, ci = _mean_ci(lams)
        rows.append(_row(cfg, f"lambda_max_empirical(L={num_sensors})", "beta", beta, mean, ci))
    return rows


def _base_preset_params(num_sensors: int, num_antennas: int, gamma_c: float) -> NetworkParams:
    # theta = 1 and sigma_eta_sq = 1 fix gamma_s = 1; gamma_c scales P_T
    return NetworkParams(
        num_sensors=num_sensors,
        num_antennas=num_antennas,
        theta=1.0,
        sigma_eta_sq=1.0,
        sigma_nu_sq=1.0,
        p1=0.5,
        total_power=gamma_c,
    )


def _figure_2(cfg: ExperimentConfig) -> list[ResultRow]:
    # six series on one sweep, scored on shared trial blocks
    grid = tuple(float(l) for l in range(1, 16))
    sub = dataclasses.replace(cfg, sweep_variable="L", sweep_grid=grid)
    series = [
        (model, _base_preset_params(15, n, 1.0))
        for model in (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh())
        for n in (2, 10)
    ]
    return _montecarlo_series(sub, series)


def _figure_3(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    grid = (25, 50, 100, 150, 200, 300, 400)
    draws = cfg.channel_draws or 25
    params = _base_preset_params(grid[-1], 5, 10.0)
    for stream, model in enumerate((ChannelModel.awgn(), ChannelModel.ricean(1.0))):
        curve = empirical_exponent(
            params, model, grid, RandomSource(cfg.seed, stream_id=stream), draws=draws
        )
        label = model.label
        for l, value in zip(curve.l_grid, curve.values):
            rows.append(_row(cfg, f"exponent({label},N=5)", "L", l, value))
        rows.append(_row(cfg, f"plateau({label},N=5)", "L", math.nan, curve.plateau))
        pt = SnrPoint.from_params(params, k_factor=model.k_factor)
        closed = ("E_AWGN(N=5)", e_awgn(pt)) if model.is_awgn else ("E_NoCSIS(N=5)", e_nocsis(pt))
        for l in grid:
            rows.append(_row(cfg, closed[0], "L", l, closed[1]))
    return rows


def _figure_4(cfg: ExperimentConfig) -> list[ResultRow]:
    sub = dataclasses.replace(
        cfg,
        params=_base_preset_params(200, 1, 1.0),
        model=ChannelModel.ricean(1.0),
        n_list=(1, 2, 10),
        sweep_variable="gamma_c",
        sweep_grid=tuple(float(g) for g in range(1, 21)),
    )
    return _run_exponent_sweep(sub)


def _figure_5(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for gamma_c in (float(g) for g in range(1, 21)):
        pt = SnrPoint(gamma_s=1.0, gamma_c=gamma_c, p1=0.5, k_factor=0.0, num_antennas=1)
        for series, value in (
            ("E_AWGN(N=1)", e_awgn(pt)),
            ("E_CSIS(1)", e_csis1_rayleigh_closed(pt)),
            ("E_PO(1)", e_po1(pt, ZetaFactor.rayleigh())),
            ("E_NoCSIS(N=1,K=10)", e_nocsis(dataclasses.replace(pt, k_factor=10.0))),
            ("E_NoCSIS(N=1,K=20)", e_nocsis(dataclasses.replace(pt, k_factor=20.0))),
        ):
            rows.append(_row(cfg, series, "gamma_c", gamma_c, value))
    return rows


def _figure_6(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for step in range(17):
        db = 5.0 + 0.25 * step
        pt = SnrPoint(
            gamma_s=1.0, gamma_c=snr_from_db(db), p1=0.5, k_factor=0.0, num_antennas=1
        )
        for series, value in (
            ("A(N=1)", e_awgn(pt)),
            ("B(N=1)", bound_b(pt)),
            ("C(N=1)", bound_c(pt)),
            ("E_CSIS(1)", e_csis1_rayleigh_closed(pt)),
        ):
            rows.append(_row(cfg, series, "gamma_c_db", db, value))
    return rows


def _figure_7(cfg: ExperimentConfig) -> list[ResultRow]:
    rows: list[ResultRow] = []
    zeta_rayleigh = ZetaFactor.rayleigh()
    zeta_ricean = ZetaFactor.from_model(ChannelModel.ricean(1.0))
    for n in range(1, 11):
        pt = SnrPoint(gamma_s=1.0, gamma_c=0.1, p1=0.5, k_factor=1.0, num_antennas=n)
        for series, value in (
            ("gain_awgn", gain_awgn(pt)),
            ("gain_nocsis", gain_nocsis(pt)),
            ("gain_csis_bound_nk", gain_csis_bound_nk(n, 1.0, zeta_ricean)),
            ("2zeta", 2.0 * zeta_rayleigh.zeta),
            ("N_line", float(n)),
        ):
            rows.append(_row(cfg, series, "N", n, value))
    return rows


def _db_sweep(cfg: ExperimentConfig, runner, num_sensors: int, num_antennas: int, db_grid):
    """`runner`'s rows for the network of figures 8 and 9 (gamma_c = 10,
    Ricean K = 1) over the gamma_s grid snr_from_db(db_grid), relabeled
    onto the dB grid; a crossover row carries its gamma_s as the value,
    moved to dB."""
    grid = tuple(snr_from_db(db) for db in db_grid)
    sub = dataclasses.replace(
        cfg,
        params=_base_preset_params(num_sensors, num_antennas, 10.0),
        model=ChannelModel.ricean(1.0),
        sweep_variable="gamma_s",
        sweep_grid=grid,
    )
    to_db = dict(zip(grid, db_grid))
    rows = []
    for row in runner(sub):
        # built directly: dataclasses.replace costs several times as much
        series, x_value, value = row.series, row.x_value, row.value
        if series.startswith("crossover("):
            series = series.replace("crossover(", "crossover_db(")
            value = math.nan if math.isnan(value) else snr_to_db(value)
        else:
            x_value = to_db[x_value]
        rows.append(ResultRow(row.experiment, series, "gamma_s_db", x_value, value, row.ci95, row.seed))
    return rows


def _figure_8(cfg: ExperimentConfig) -> list[ResultRow]:
    db_grid = tuple(float(db) for db in range(-5, 16))
    rows = [row for n in (5, 50) for row in _db_sweep(cfg, _run_schemes, 200, n, db_grid)]
    for db in db_grid:
        pt = SnrPoint(gamma_s=snr_from_db(db), gamma_c=10.0, p1=0.5, k_factor=0.0, num_antennas=1)
        rows.append(_row(cfg, "E_CSIS(1)", "gamma_s_db", db, e_csis1_rayleigh_closed(pt)))
    return rows


def _figure_9(cfg: ExperimentConfig) -> list[ResultRow]:
    return _db_sweep(cfg, _run_sdr_compare, 32, 3, tuple(-5.0 + 2.5 * step for step in range(7)))


_FIGURES = {
    2: _figure_2,
    3: _figure_3,
    4: _figure_4,
    5: _figure_5,
    6: _figure_6,
    7: _figure_7,
    8: _figure_8,
    9: _figure_9,
}


# each experiment's runner, the sweep variables it accepts and the config
# keys it reads; parse_config rejects every other key
_EXPERIMENTS = {
    "exponent-sweep": (
        _run_exponent_sweep,
        ("gamma_s", "gamma_c", "N", "K"),
        _MODEL_KEYS | {"n_list"},
    ),
    "montecarlo": (
        lambda cfg: _montecarlo_series(cfg, [(cfg.model, cfg.params)]),
        ("gamma_s", "gamma_c", "N", "L"),
        _MODEL_KEYS | {"noise", "noise_corr", "trials", "channel_draws"},
    ),
    "schemes": (_run_schemes, ("gamma_s",), _MODEL_KEYS | {"channel_draws"}),
    "sdr-compare": (_run_sdr_compare, ("gamma_s",), _MODEL_KEYS | {"channel_draws"}),
    "asymptotic": (_run_asymptotic, ("beta",), _MODEL_KEYS | {"channel_draws"}),
    # the presets take the run-control keys that size them, whichever
    # preset reads them
    "figure": (
        lambda cfg: _FIGURES[cfg.figure_id](cfg),
        (),
        _COMMON_KEYS | {"figure_id", "trials", "channel_draws"},
    ),
}


def run(cfg: ExperimentConfig) -> tuple[list[ResultRow], int]:
    """Executes the configured experiment; returns (rows, exit code), the
    code 3 exactly when some row's series ends with _NONCONVERGED."""
    rows = _EXPERIMENTS[cfg.experiment][0](cfg)
    return rows, 3 if any(row.series.endswith(_NONCONVERGED) for row in rows) else 0


# ResultRow's fields are the output columns, in order
_NAMES = tuple(f.name for f in dataclasses.fields(ResultRow))
_FLOATS = tuple(_NAMES.index(name) for name in ("x_value", "value", "ci95"))


def _cells(rows) -> zip:
    """The rows' values in column order, one tuple per row: each float
    column as floats, or as the repr "nan", "inf" or "-inf" of a value
    that is not finite (None stays None): the cells of both output
    formats.  Built a column at a time, which costs less per row than a
    row at a time."""
    rows = list(rows)
    columns = [list(map(operator.attrgetter(name), rows)) for name in _NAMES]
    for i in _FLOATS:
        columns[i] = [
            v if v is None else float(v) if math.isfinite(v) else repr(float(v)) for v in columns[i]
        ]
    return zip(*columns)


def rows_to_csv(rows) -> str:
    """Stable CSV serialization: one comment line on conventions, a
    header of ResultRow's field names, then one row per record."""
    buf = io.StringIO()
    buf.write(_DB_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_NAMES)
    # the csv module writes a float as its repr and None as an empty cell
    writer.writerows(_cells(rows))
    return buf.getvalue()


def rows_to_json(rows) -> str:
    """JSON serialization: an array of row objects keyed by ResultRow's
    field names; non-finite floats become explicit string sentinels."""
    payload = [dict(zip(_NAMES, cells)) for cells in _cells(rows)]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _check_output(path: str | None) -> None:
    # before the run, without opening the file (a failed run must not
    # truncate an earlier output): the path must name a file in an
    # existing directory; a later write can still fail
    if path is None:
        return
    parent = os.path.dirname(path) or os.curdir
    if not path:
        reason = errno.ENOENT
    elif os.path.isdir(path) or path.endswith(os.sep):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write output {path}: {os.strerror(reason)}")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="macdet",
        description="Run a detection-over-MAC experiment from a JSON config.",
    )
    parser.add_argument(
        "experiment",
        help="one of exponent-sweep, montecarlo, schemes, sdr-compare, "
        "asymptotic, figure (or figure2..figure9)",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="override the format")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    experiment = args.experiment
    figure_id = None
    if experiment.startswith("figure") and experiment != "figure":
        tail = experiment[len("figure") :]
        # isdigit alone admits "²" and non-ASCII decimal digits
        if not (tail.isascii() and tail.isdigit()):
            print(f"config error: unknown experiment {experiment!r}", file=sys.stderr)
            return 2
        experiment, figure_id = "figure", int(tail)

    overrides = {"seed": args.seed, "output": args.out, "format": args.format}
    try:
        raw = _read_json(args.config)
        if isinstance(raw, dict):
            if figure_id is not None:
                named = raw.setdefault("figure_id", figure_id)
                if named != figure_id:
                    raise ConfigError(
                        f"config figure_id {named} does not match {args.experiment!r}"
                    )
            # the flags replace their config keys, and are validated as those
            raw.update({k: v for k, v in overrides.items() if v is not None})
        cfg = parse_config(raw, experiment)
        _check_output(cfg.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    rows, code = run(cfg)
    text = rows_to_csv(rows) if cfg.format == "csv" else rows_to_json(rows)
    try:
        _write_output(text, cfg.output)
    except OSError as exc:
        print(f"config error: cannot write output {cfg.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


def console_main() -> None:
    sys.exit(main())
