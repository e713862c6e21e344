"""Property test of the config language through `cli.main`.

Every drawn config must end in exit 0 (with a CSV that parses under the
fixed header), 2 (config error) or 3 (solver non-convergence); no
exception may escape.  Values mix valid ones with wrong types, 0,
negatives, NaN and +-Infinity; magnitudes lie in [1e-3, 1e3], L <= 6,
N <= 3, trials = 1000, channel_draws <= 2 and grids hold <= 3 points.

Every choice of a config comes from one seeded Random that Hypothesis
supplies (`st.randoms`, derandomized like every property here), not from
nested Hypothesis draws, which took about two thirds of the test's time.
Each experiment draws only the keys it reads, as `cli._EXPERIMENTS`
names them, and with small odds one key that it does not read, which
must end in exit 2.  The runtime keys (num_sensors, trials,
channel_draws) are present wherever they are read, because their
defaults (L = 200, 10,000 trials, 10-25 channel draws) cost seconds per
run.  The keys the drawn sweep overwrites (num_sensors under an L sweep,
gamma_s, gamma_s_db and sigma_eta_sq under a gamma_s sweep, ...) are
left out of all but 1 config in 20, which must end in exit 2.  A
beta grid draws beta >= 2, so that the asymptotic antenna count
round(L / beta) stays <= 3.  Figure presets run only the
closed-form figures 4-7 (the others are pinned by tests/test_golden.py).

Inputs beyond those ranges that once ended in a traceback are pinned at
the end of the file, one config per class.
"""

import csv
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from macdet import cli

EXPERIMENTS = tuple(cli._EXPERIMENTS)
HEADER = ["experiment", "series", "x_name", "x_value", "value", "ci95", "seed"]

BAD = [None, True, "1", [1.0], {}, 0, 0.0, -1, -2.5, math.nan, math.inf, -math.inf]


# value generators: each draws one valid value from a seeded Random


def magnitude(rnd):
    return 10.0 ** rnd.uniform(-3.0, 3.0)


def integers(low, high):
    return lambda rnd: rnd.randint(low, high)


def floats(low, high):
    return lambda rnd: rnd.uniform(low, high)


def open_floats(low, high):
    # a float strictly inside (low, high)
    def draw(rnd):
        x = rnd.uniform(low, high)
        return x if low < x < high else draw(rnd)

    return draw


def one_of(values):
    return lambda rnd: rnd.choice(values)


def just(value):
    return lambda rnd: value


SWEEP_GRIDS = {
    "gamma_s": magnitude,
    "gamma_c": magnitude,
    "K": magnitude,
    "N": integers(1, 3),
    "L": integers(1, 6),
    "beta": floats(2.0, 1e3),
    "snr": magnitude,
}

KEYS = {
    "num_sensors": integers(1, 6),
    "num_antennas": integers(1, 3),
    "n_list": lambda rnd: [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))],
    "theta": magnitude,
    "sigma_eta_sq": magnitude,
    "sigma_nu_sq": magnitude,
    "p1": open_floats(0.0, 1.0),
    "total_power": magnitude,
    "gamma_s": magnitude,
    "gamma_s_db": floats(-30.0, 30.0),
    "gamma_c": magnitude,
    "gamma_c_db": floats(-30.0, 30.0),
    "channel": one_of(["awgn", "rayleigh", "ricean", "nakagami"]),
    "ricean_k": magnitude,
    "noise": one_of(["iid", "ar1", "pink"]),
    "noise_corr": open_floats(-1.0, 1.0),
    "trials": just(1000),
    "channel_draws": integers(1, 2),
    "seed": integers(0, 2**32),
    "output": just("unused.csv"),
    "format": one_of(["csv", "json", "xml"]),
}

# the sweep variables each experiment accepts and the config keys it
# reads, from the CLI's own table; configs mostly draw within these, so
# that most of them get past parsing and run
SWEEPS_BY_EXPERIMENT = {name: entry[1] for name, entry in cli._EXPERIMENTS.items()}
READS = {name: entry[2] for name, entry in cli._EXPERIMENTS.items()}
RUNTIME = ("num_sensors", "trials", "channel_draws")


def draw_config(rnd):
    # every choice comes from the seeded Random that Hypothesis supplies,
    # so that its odds are the ones written here

    def value(valid, bad_odds=0.1):
        return rnd.choice(BAD) if rnd.random() < bad_odds else valid(rnd)

    experiment = rnd.choice(EXPERIMENTS)
    reads = READS[experiment]
    keys = KEYS | {"experiment": just(experiment)}
    # few keys per config, since every extra key is another chance of a
    # clash.  ricean_k and noise_corr mostly come with the channel and
    # noise that need them.
    raw = {}
    for key, values in keys.items():
        if key not in reads or key in RUNTIME:
            continue
        odds = 0.12
        if key in ("channel", "noise"):
            odds *= 4
        elif key == "ricean_k" and raw.get("channel") == "ricean":
            odds = 0.9
        elif key == "noise_corr" and raw.get("noise") == "ar1":
            odds = 0.9
        if rnd.random() < odds:
            raw[key] = value(values)
    overwritten = ()
    if experiment == "figure":
        raw["figure_id"] = value(one_of([1, 4, 5, 6, 7, 10]))
    elif rnd.random() < 0.9:
        allowed = SWEEPS_BY_EXPERIMENT[experiment]
        variable = rnd.choice(allowed if rnd.random() < 0.9 else sorted(SWEEP_GRIDS))
        # one to three distinct points
        size, points = rnd.randint(1, 3), set()
        while len(points) < size:
            points.add(SWEEP_GRIDS[variable](rnd))
        grid = sorted(points)
        if rnd.random() < 0.1:
            grid[rnd.randrange(len(grid))] = rnd.choice(BAD)
        sweep = {"variable": variable, "grid": value(just(grid), bad_odds=0.05)}
        raw["sweep"] = value(just(sweep), bad_odds=0.05)
        overwritten = cli._SWEEPS.get(variable, ())
    if "num_sensors" in reads:
        raw["num_sensors"] = value(KEYS["num_sensors"])
    for key in ("trials", "channel_draws"):
        if key in reads:
            raw[key] = value(KEYS[key], bad_odds=0.05)
    # a key the sweep overwrites is a config error; most configs leave
    # them out, so that they get past parsing and run
    if rnd.random() >= 0.05:
        for key in overwritten:
            raw.pop(key, None)
    if rnd.random() < 0.05:
        key = rnd.choice(sorted(set(KEYS) - reads))
        raw[key] = value(KEYS[key])
    return experiment, raw


def overwritten_by_sweep(raw):
    sweep = raw.get("sweep")
    variable = sweep.get("variable") if isinstance(sweep, dict) else None
    return set(cli._SWEEPS.get(variable, ())) if isinstance(variable, str) else set()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # one directory for every run, not one made and removed per drawn config
    return tmp_path_factory.mktemp("fuzz")


def run_main(workdir, experiment, raw):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(raw))  # writes NaN / Infinity / -Infinity
    out = workdir / "rows.csv"
    out.unlink(missing_ok=True)
    code = cli.main([experiment, "--config", str(path), "--out", str(out), "--format", "csv"])
    return code, out.read_text() if out.exists() else None


def check_csv(experiment, text):
    lines = text.splitlines()
    assert lines[0].startswith("# dB conventions")
    records = list(csv.reader(lines[1:]))
    assert records[0] == HEADER
    assert len(records) > 1
    for record in records[1:]:
        assert len(record) == len(HEADER)
        assert record[0] == experiment
        float(record[3]), float(record[4])
        assert record[5] == "" or float(record[5]) >= 0.0
        int(record[6])


AR1_NOISE_FREE = (
    "montecarlo",
    {"num_sensors": 4, "channel": "rayleigh", "noise": "ar1", "noise_corr": 0.5,
     "gamma_s": math.inf, "trials": 1000, "channel_draws": 1,
     "sweep": {"variable": "gamma_c", "grid": [1.0, 2.0]}},
)
THETA_SQUARED_UNDERFLOWS = (
    "montecarlo",
    {"theta": 1e-300, "num_sensors": 4, "trials": 1000, "channel_draws": 1,
     "sweep": {"variable": "gamma_c", "grid": [1.0, 2.0]}},
)


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.randoms(use_true_random=True).map(draw_config))
@example(AR1_NOISE_FREE)
@example(THETA_SQUARED_UNDERFLOWS)
def test_config_ends_in_a_documented_exit_code(workdir, case):
    experiment, raw = case
    code, text = run_main(workdir, experiment, raw)
    assert code in (0, 2, 3)
    if not set(raw) <= READS[experiment] or set(raw) & overwritten_by_sweep(raw):
        assert code == 2
    if code == 0:
        check_csv(experiment, text)


# mean_abs_h used to return 0 at K >= 1e50, and ZetaFactor.from_model
# divided by it; the closed-form Rice mean stays finite for every K
HUGE_RICEAN_K = (
    "asymptotic",
    {"channel": "ricean", "ricean_k": 1e50, "num_sensors": 4, "channel_draws": 1,
     "sweep": {"variable": "beta", "grid": [1.0]}},
)


def test_huge_ricean_k_runs(workdir):
    code, text = run_main(workdir, *HUGE_RICEAN_K)
    assert code == 0
    check_csv("asymptotic", text)


# Beyond the drawn ranges: AWGN at gamma_c = 1e300, where the received
# covariance loses its receiver-noise identity in floating point.  Both
# used to end in a traceback; see CHANGES.md.
EXTREME_POWERS = {
    # sum w^2 underflowed to 0 in alpha_opt_n1: ZeroDivisionError
    "schemes-gain-weights-underflow": (
        "schemes",
        {"channel": "awgn", "num_antennas": 2, "num_sensors": 4, "gamma_c": 1e300,
         "channel_draws": 1, "sweep": {"variable": "gamma_s", "grid": [2.0, 1000.0]}},
    ),
    # the received covariance failed its Cholesky factorization ("not
    # positive definite"); forms.quadratic_forms now answers in its
    # spectral form
    "montecarlo-covariance-not-pd": (
        "montecarlo",
        {"channel": "awgn", "num_antennas": 2, "num_sensors": 4, "gamma_c": 1e300,
         "trials": 1000, "channel_draws": 1, "sweep": {"variable": "gamma_s", "grid": [2.0]}},
    ),
}


@pytest.mark.parametrize("name", sorted(EXTREME_POWERS))
def test_extreme_powers_end_in_a_result(workdir, name):
    experiment, raw = EXTREME_POWERS[name]
    code, text = run_main(workdir, experiment, raw)
    assert code in (0, 2)
    if code == 0:
        check_csv(experiment, text)
