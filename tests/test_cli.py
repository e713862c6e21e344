import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from macdet import allocation, cli, model
from macdet.exponents import (
    SnrPoint,
    ZetaFactor,
    bound_b,
    bound_c,
    e_awgn,
    e_csis1_rayleigh_closed,
    e_nocsis,
    gain_awgn,
    gain_csis_bound_nk,
    gain_nocsis,
)
from macdet.model import ChannelModel
from macdet.sdr import solve_sdp


def _stalled_solve(problem):
    # a real solve reported as uncertified
    return dataclasses.replace(solve_sdp(problem), converged=False)


def parse(raw, experiment="exponent-sweep"):
    return cli.parse_config(raw, experiment)


def sweep(variable, grid):
    return {"variable": variable, "grid": grid}


def count_calls(monkeypatch, counts, module, name):
    # patched in every macdet module that binds the function, since the
    # modules import each other's names
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "macdet" or mod_name.startswith("macdet."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


BASE_SWEEP = {"sweep": sweep("gamma_c", [1.0, 2.0])}


class TestStrictParsing:
    def test_minimal_config_accepted(self):
        cfg = parse(dict(BASE_SWEEP))
        assert cfg.experiment == "exponent-sweep"
        assert cfg.params.num_sensors == 200
        assert cfg.params.num_antennas == 1
        assert cfg.seed == 0
        assert cfg.format == "csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config key 'snr'"):
            parse({"snr": 3.0, **BASE_SWEEP})

    def test_non_object_config_rejected(self):
        with pytest.raises(cli.ConfigError, match="JSON object"):
            parse([1, 2, 3])

    def test_experiment_name_must_match(self):
        with pytest.raises(cli.ConfigError, match="montecarlo"):
            parse({"experiment": "montecarlo", **BASE_SWEEP})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown experiment"):
            parse(dict(BASE_SWEEP), experiment="bogus")

    @pytest.mark.parametrize(
        "extra",
        [
            {"gamma_s": 1.0, "gamma_s_db": 0.0},
            {"gamma_c": 1.0, "gamma_c_db": 0.0},
            {"gamma_s": 1.0, "sigma_eta_sq": 1.0},
            {"gamma_c_db": 3.0, "total_power": 1.0},
        ],
    )
    def test_duplicate_quantity_rejected(self, extra):
        with pytest.raises(cli.ConfigError):
            parse({**extra, **BASE_SWEEP})

    def test_ricean_requires_k(self):
        with pytest.raises(cli.ConfigError, match="ricean_k"):
            parse({"channel": "ricean", **BASE_SWEEP})

    def test_k_forbidden_without_ricean(self):
        with pytest.raises(cli.ConfigError, match="ricean_k"):
            parse({"channel": "rayleigh", "ricean_k": 2.0, **BASE_SWEEP})

    def test_ar1_requires_corr(self):
        with pytest.raises(cli.ConfigError, match="noise_corr"):
            parse({"noise": "ar1", **BASE_SWEEP})

    def test_corr_forbidden_for_iid(self):
        with pytest.raises(cli.ConfigError, match="noise_corr"):
            parse({"noise_corr": 0.4, **BASE_SWEEP})

    def test_sweep_required(self):
        with pytest.raises(cli.ConfigError, match="requires a sweep"):
            parse({})

    def test_wrong_sweep_variable_for_experiment(self):
        with pytest.raises(cli.ConfigError, match="not valid for schemes"):
            parse({"sweep": sweep("beta", [1.0])}, experiment="schemes")

    def test_unknown_sweep_variable(self):
        with pytest.raises(cli.ConfigError, match="unknown sweep variable"):
            parse({"sweep": sweep("snr", [1.0])})

    def test_unsorted_grid_rejected(self):
        with pytest.raises(cli.ConfigError, match="strictly increasing"):
            parse({"sweep": sweep("gamma_c", [2.0, 1.0])})

    def test_empty_grid_rejected(self):
        with pytest.raises(cli.ConfigError, match="non-empty"):
            parse({"sweep": sweep("gamma_c", [])})

    def test_sweep_shadowed_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="num_antennas"):
            parse({"num_antennas": 2, "sweep": sweep("N", [1, 2])})

    def test_k_sweep_requires_ricean(self):
        with pytest.raises(cli.ConfigError, match="ricean"):
            parse({"sweep": sweep("K", [0.0, 1.0])})

    def test_k_sweep_forbids_fixed_k(self):
        with pytest.raises(cli.ConfigError, match="ricean_k"):
            parse({"channel": "ricean", "ricean_k": 1.0, "sweep": sweep("K", [0.0, 1.0])})

    def test_montecarlo_needs_enough_trials(self):
        raw = {"trials": 100, "sweep": sweep("L", [2, 4])}
        with pytest.raises(cli.ConfigError, match="1000"):
            parse(raw, experiment="montecarlo")

    def test_n_list_only_for_exponent_sweep(self):
        raw = {"n_list": [1, 2], "sweep": sweep("L", [2, 4]), "trials": 1000}
        with pytest.raises(cli.ConfigError, match="n_list"):
            parse(raw, experiment="montecarlo")

    def test_figure_rejects_model_keys(self):
        with pytest.raises(cli.ConfigError, match="theta"):
            parse({"figure_id": 7, "theta": 2.0}, experiment="figure")

    def test_figure_id_range(self):
        with pytest.raises(cli.ConfigError, match="2..9"):
            parse({"figure_id": 11}, experiment="figure")

    def test_figure_id_only_for_figures(self):
        with pytest.raises(cli.ConfigError, match="figure_id"):
            parse({"figure_id": 3, **BASE_SWEEP})

    def test_db_keys_convert_with_10log10(self):
        cfg = parse({"gamma_s_db": 10.0, "sweep": sweep("N", [1, 2])})
        assert cfg.params.sigma_eta_sq == pytest.approx(0.1, rel=1e-12)
        cfg = parse({"gamma_c_db": 3.0, "sweep": sweep("N", [1, 2])})
        assert cfg.params.total_power == pytest.approx(10 ** 0.3, rel=1e-12)

    def test_schemes_needs_two_grid_points(self):
        with pytest.raises(cli.ConfigError, match="two"):
            parse({"sweep": sweep("gamma_s", [1.0])}, experiment="schemes")

    def test_bad_params_surface_as_config_error(self):
        with pytest.raises(cli.ConfigError, match="p1"):
            parse({"p1": 1.5, **BASE_SWEEP})


class TestExponentSweep:
    def test_values_match_closed_forms(self):
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "gamma_s": 1.0,
                "n_list": [1, 2, 10],
                "sweep": sweep("gamma_c", [1.0, 5.0, 20.0]),
            }
        )
        rows, code = cli.run(cfg)
        assert code == 0
        for row in rows:
            n = int(row.series.split("N=")[1].rstrip(")"))
            pt = SnrPoint(gamma_s=1.0, gamma_c=row.x_value, p1=0.5, k_factor=1.0, num_antennas=n)
            expected = e_awgn(pt) if row.series.startswith("E_AWGN") else e_nocsis(pt)
            assert row.value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_antennas_at_each_gamma_c(self):
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "gamma_s": 1.0,
                "n_list": [1, 2, 10],
                "sweep": sweep("gamma_c", [1.0, 2.0, 5.0, 10.0, 20.0]),
            }
        )
        rows, _ = cli.run(cfg)
        for prefix in ("E_AWGN", "E_NoCSIS"):
            for x in (1.0, 2.0, 5.0, 10.0, 20.0):
                vals = [
                    r.value
                    for r in rows
                    if r.series.startswith(prefix) and r.x_value == x
                ]
                assert vals == sorted(vals) and len(vals) == 3

    def test_awgn_channel_emits_single_series(self):
        cfg = parse({"sweep": sweep("gamma_s", [1.0, 2.0])})
        rows, _ = cli.run(cfg)
        assert {r.series for r in rows} == {"E_AWGN(N=1)"}

    def test_n_sweep_drops_series_suffix(self):
        cfg = parse({"sweep": sweep("N", [1, 2, 4])})
        rows, _ = cli.run(cfg)
        assert {r.series for r in rows} == {"E_AWGN"}
        assert [r.x_value for r in rows] == [1.0, 2.0, 4.0]


class TestSerialization:
    def rows(self):
        return [
            cli.ResultRow("demo", "C(5,1)", "gamma_s", 1.0, 0.25, 0.01, 7),
            cli.ResultRow("demo", "B_inf", "beta", 2.0, math.inf, None, 7),
            cli.ResultRow("demo", "crossover(N=5)", "gamma_s", math.nan, math.nan, None, 7),
        ]

    def test_csv_header_exact(self):
        lines = cli.rows_to_csv(self.rows()).splitlines()
        assert lines[0].startswith("#")
        assert "10*log10" in lines[0] and "20*log10" in lines[0]
        assert lines[1] == "experiment,series,x_name,x_value,value,ci95,seed"

    def test_csv_quotes_comma_series_and_round_trips(self):
        text = cli.rows_to_csv(self.rows())
        body = [l for l in text.splitlines() if not l.startswith("#")]
        records = list(csv.reader(io.StringIO("\n".join(body))))
        assert records[1][1] == "C(5,1)"
        assert float(records[1][3]) == 1.0
        assert records[1][5] == "0.01"

    def test_csv_sentinels(self):
        text = cli.rows_to_csv(self.rows())
        assert ",inf," in text
        assert ",nan," in text

    def test_json_schema_and_sentinels(self):
        payload = json.loads(cli.rows_to_json(self.rows()))
        assert [sorted(obj) for obj in payload] == [
            ["ci95", "experiment", "seed", "series", "value", "x_name", "x_value"]
        ] * 3
        assert payload[0]["ci95"] == 0.01
        assert payload[1]["value"] == "inf"
        assert payload[1]["ci95"] is None
        assert payload[2]["value"] == "nan"


class TestMainEndToEnd:
    def write(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return str(path)

    def test_stdout_csv(self, tmp_path, capsys):
        path = self.write(tmp_path, {"sweep": sweep("gamma_s", [1.0, 2.0])})
        assert cli.main(["exponent-sweep", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "experiment,series,x_name,x_value,value,ci95,seed"

    def test_reruns_are_byte_identical(self, tmp_path):
        raw = {
            "channel": "rayleigh",
            "num_antennas": 2,
            "trials": 1000,
            "channel_draws": 2,
            "seed": 11,
            "sweep": sweep("L", [2, 4]),
        }
        path = self.write(tmp_path, raw)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["montecarlo", "--config", path, "--out", out1]) == 0
        assert cli.main(["montecarlo", "--config", path, "--out", out2]) == 0
        a, b = Path(out1).read_bytes(), Path(out2).read_bytes()
        assert a == b
        assert b"Pe_MC(rayleigh,N=2)" in a

    def test_seed_override_changes_montecarlo(self, tmp_path, capsys):
        raw = {
            "channel": "rayleigh",
            "trials": 1000,
            "channel_draws": 1,
            "sweep": sweep("L", [2, 4]),
        }
        path = self.write(tmp_path, raw)
        assert cli.main(["montecarlo", "--config", path]) == 0
        first = capsys.readouterr().out
        assert cli.main(["montecarlo", "--config", path, "--seed", "99"]) == 0
        second = capsys.readouterr().out
        assert first != second
        assert ",99" in second and ",99" not in first

    def test_format_override_to_json(self, tmp_path):
        path = self.write(tmp_path, {"sweep": sweep("gamma_s", [1.0, 2.0])})
        out = str(tmp_path / "rows.json")
        code = cli.main(
            ["exponent-sweep", "--config", path, "--format", "json", "--out", out]
        )
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload[0]["experiment"] == "exponent-sweep"

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"bogus": 1, "sweep": sweep("gamma_s", [1.0])})
        assert cli.main(["exponent-sweep", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["exponent-sweep", "--config", missing]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["exponent-sweep", "--config", str(path)]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_unknown_experiment_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"sweep": sweep("gamma_s", [1.0, 2.0])})
        assert cli.main(["wrong-name", "--config", path]) == 2

    def test_compact_figure_name(self, tmp_path, capsys):
        path = self.write(tmp_path, {})
        assert cli.main(["figure7", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "gain_csis_bound_nk" in out

    def test_compact_figure_name_conflict(self, tmp_path, capsys):
        path = self.write(tmp_path, {"figure_id": 5})
        assert cli.main(["figure7", "--config", path]) == 2


MC_BASE = {
    "num_antennas": 2,
    "channel": "rayleigh",
    "trials": 1000,
    "channel_draws": 1,
    "sweep": sweep("L", [4, 8]),
}

# (experiment, config without the key under test, key): every numeric key
# of the config language, each placed in a config that is otherwise valid
NUMERIC_KEY_CASES = [
    ("montecarlo", MC_BASE, key)
    for key in (
        "theta", "sigma_eta_sq", "sigma_nu_sq", "p1", "total_power",
        "gamma_s", "gamma_s_db", "gamma_c", "gamma_c_db",
        "num_antennas", "trials", "channel_draws", "seed",
    )
] + [
    ("montecarlo", {**MC_BASE, "sweep": sweep("gamma_c", [1.0])}, "num_sensors"),
    ("montecarlo", {**MC_BASE, "channel": "ricean"}, "ricean_k"),
    ("montecarlo", {**MC_BASE, "noise": "ar1"}, "noise_corr"),
    ("figure", {"figure_id": 5}, "trials"),
]

# sweep grids: (experiment, base config, sweep variable)
MC_NO_SWEEP = {k: v for k, v in MC_BASE.items() if k != "sweep"}
GRID_CASES = [
    ("montecarlo", MC_NO_SWEEP, variable) for variable in ("L", "N", "gamma_c", "gamma_s")
] + [
    ("schemes", {"channel": "ricean", "ricean_k": 1.0}, "gamma_s"),
    ("exponent-sweep", {"channel": "ricean"}, "K"),
    ("asymptotic", {}, "beta"),
]

NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _noise_free(variable, experiment, value):
    # gamma_s = +Infinity deliberately means noise-free sensing, except on
    # the schemes grid, which needs finite points
    return variable in ("gamma_s", "gamma_s_db") and value == math.inf and experiment != "schemes"


KEY_PARAMS = [
    pytest.param(experiment, base, key, value, id=f"{key}-{name}")
    for experiment, base, key in NUMERIC_KEY_CASES
    for name, value in NON_FINITE.items()
    if not _noise_free(key, experiment, value)
]

GRID_PARAMS = [
    pytest.param(experiment, base, variable, value, id=f"{experiment}-{variable}-{name}")
    for experiment, base, variable in GRID_CASES
    for name, value in NON_FINITE.items()
    if not _noise_free(variable, experiment, value)
]


class TestNonFiniteConfig:
    """NaN and +-Infinity (which Python's json reads) are config errors."""

    def run_main(self, tmp_path, capsys, experiment, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))  # writes NaN / Infinity / -Infinity
        code = cli.main([experiment, "--config", str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("experiment,base,key,value", KEY_PARAMS)
    def test_numeric_key_rejected(self, tmp_path, capsys, experiment, base, key, value):
        code, err = self.run_main(tmp_path, capsys, experiment, {**base, key: value})
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("experiment,base,variable,value", GRID_PARAMS)
    def test_sweep_grid_entry_rejected(self, tmp_path, capsys, experiment, base, variable, value):
        raw = {**base, "sweep": sweep(variable, [1.0, value])}
        code, err = self.run_main(tmp_path, capsys, experiment, raw)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_n_list_entry_rejected(self, tmp_path, capsys, value):
        raw = {"n_list": [1, value], "sweep": sweep("gamma_c", [1.0, 2.0])}
        code, err = self.run_main(tmp_path, capsys, "exponent-sweep", raw)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("key", ["gamma_s", "gamma_s_db"])
    def test_infinite_gamma_s_is_noise_free_sensing(self, key):
        cfg = cli.parse_config({**MC_BASE, key: math.inf}, "montecarlo")
        assert cfg.params.sigma_eta_sq == 0.0

    def test_gamma_s_db_underflow_rejected(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, capsys, "montecarlo", {**MC_BASE, "gamma_s_db": -4000.0})
        assert code == 2
        assert "underflows" in err

    def test_infinite_gamma_s_grid_still_runs(self, tmp_path, capsys):
        raw = {**MC_BASE, "sweep": sweep("gamma_s", [1.0, math.inf])}
        code, _ = self.run_main(tmp_path, capsys, "montecarlo", raw)
        assert code == 0


AR1_BASE = {
    "num_sensors": 4,
    "channel": "rayleigh",
    "noise": "ar1",
    "noise_corr": 0.5,
    "trials": 1000,
    "channel_draws": 1,
    "sweep": sweep("gamma_c", [1.0, 2.0]),
}


class TestAr1NoiseFreeSensing:
    """AR(1) sensing noise of zero power is noise-free sensing, as for
    iid noise, not a singular covariance."""

    def run_main(self, tmp_path, raw, name="ar1"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"{name}.csv"
        code = cli.main(["montecarlo", "--config", str(path), "--out", str(out)])
        return code, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("extra", [{"gamma_s": math.inf}, {"sigma_eta_sq": 0.0}],
                             ids=["gamma_s-inf", "sigma_eta_sq-0"])
    def test_matches_iid_noise(self, tmp_path, extra):
        code, ar1 = self.run_main(tmp_path, {**AR1_BASE, **extra})
        assert code == 0
        iid = {k: v for k, v in AR1_BASE.items() if k not in ("noise", "noise_corr")}
        iid_code, iid_csv = self.run_main(tmp_path, {**iid, **extra}, name="iid")
        assert iid_code == 0
        assert ar1 == iid_csv

    def test_gamma_s_grid_reaching_infinity(self, tmp_path):
        code, text = self.run_main(
            tmp_path, {**AR1_BASE, "sweep": sweep("gamma_s", [2.0, math.inf])}
        )
        assert code == 0
        assert text.count(b"\n") == 6  # comment, header, 2 rows per point


# finite config values whose derived powers overflow double precision, or
# underflow to 0 where a power must be positive
OVERFLOW_CASES = {
    "gamma_s_db-overflows": {"gamma_s_db": 4000.0},
    "gamma_c_db-overflows": {"gamma_c_db": 4000.0},
    "theta-squared-overflows": {"theta": 1e200},
    "theta-squared-underflows": {"theta": 1e-300},
    "total-power-overflows": {"gamma_c": 1e300, "sigma_nu_sq": 1e10},
    "sigma-eta-sq-overflows": {"gamma_s": 1e-300, "theta": 1e10},
    "gain-budget-overflows": {"total_power": 1e308, "gamma_s": 1e10, "theta": 1e-3},
    "gamma_c-grid-point-overflows": {"sigma_nu_sq": 1e10, "sweep": sweep("gamma_c", [1.0, 1e300])},
}


class TestOverflowConfig:
    """Finite inputs that overflow a derived power are config errors
    (exit 2), never a traceback from deep inside a runner."""

    @pytest.mark.parametrize("extra", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
    def test_rejected_with_exit_2(self, tmp_path, capsys, extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MC_BASE, **extra}))
        code = cli.main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o.csv").exists()

    def test_large_finite_inputs_still_parse(self):
        # just inside the limits: theta^2 and 10^(db/10) stay finite
        cfg = cli.parse_config({**MC_BASE, "theta": 1e150, "gamma_c_db": 3000.0}, "montecarlo")
        assert math.isfinite(cfg.params.gain_budget) and cfg.params.gain_budget > 0.0


class TestModuleEntryPoint:
    def test_python_dash_m_macdet(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "macdet", "figure5", "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        expected = cli.rows_to_csv(cli.run(cli.parse_config({"figure_id": 5}, "figure"))[0])
        assert proc.stdout == expected


class TestSchemesExperiment:
    def test_structure_and_hybrid_selection(self):
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 16,
                "num_antennas": 2,
                "gamma_c": 10.0,
                "channel_draws": 3,
                "sweep": sweep("gamma_s", [0.25, 1.0, 4.0, 16.0]),
            },
            experiment="schemes",
        )
        rows, code = cli.run(cfg)
        assert code == 0
        series = {r.series for r in rows}
        assert series == {
            "method1(N=2)",
            "method2(N=2)",
            "hybrid(N=2)",
            "C(2,1)",
            "crossover(N=2)",
        }
        for x in (0.25, 1.0, 4.0, 16.0):
            at_x = {r.series: r.value for r in rows if r.x_value == x}
            assert at_x["hybrid(N=2)"] in (at_x["method1(N=2)"], at_x["method2(N=2)"])
        crossing = [r for r in rows if r.series == "crossover(N=2)"]
        assert len(crossing) == 1 and rows[-1] is crossing[0]

    def test_crossover_value_agrees_with_bound_point(self):
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 16,
                "num_antennas": 2,
                "gamma_c": 10.0,
                "channel_draws": 3,
                "sweep": sweep("gamma_s", [0.25, 1.0, 4.0, 16.0]),
            },
            experiment="schemes",
        )
        rows, _ = cli.run(cfg)
        crossover = rows[-1].value
        if not math.isnan(crossover):
            below = [r for r in rows if r.x_value < crossover and r.x_name == "gamma_s"]
            for x in {r.x_value for r in below if not math.isnan(r.x_value)}:
                at_x = {r.series: r.value for r in rows if r.x_value == x}
                assert at_x["hybrid(N=2)"] == at_x["method1(N=2)"]


    def test_tied_methods_report_no_crossover(self, tmp_path):
        # on AWGN channels both methods spend the budget on the same
        # uniform gains, so every method1 - method2 gap is exactly 0
        raw = {"channel": "awgn", "num_antennas": 2, "num_sensors": 6,
               "sweep": sweep("gamma_s", [0.5, 2.0])}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "rows.csv"
        assert cli.main(["schemes", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#")))
        crossover = [r for r in rows if r["series"] == "crossover(N=2)"]
        assert len(crossover) == 1 and math.isnan(float(crossover[0]["value"]))
        for x in ("0.5", "2.0"):
            at_x = {r["series"]: r["value"] for r in rows if r["x_value"] == x}
            assert at_x["hybrid(N=2)"] == at_x["method1(N=2)"] == at_x["method2(N=2)"]

    def test_each_channel_drawn_and_each_point_scored_once(self, monkeypatch):
        # the crossover is calibrated on the sweep's own channels and grid
        # exponents, so only the bisection steps add evaluations
        grid = [0.3, 1.0, 3.0, 10.0, 30.0]
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_antennas": 5,
                "num_sensors": 40,
                "gamma_c": 10.0,
                "channel_draws": 3,
                "sweep": sweep("gamma_s", grid),
            },
            experiment="schemes",
        )
        counts = Counter()
        count_calls(monkeypatch, counts, model, "sample_channel")
        count_calls(monkeypatch, counts, allocation, "method_exponents")
        rows, code = cli.run(cfg)
        assert code == 0
        crossover = rows[-1].value
        lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if a < crossover < b)
        # bisection halves the bracket in dB down to 0.05 dB
        steps = math.ceil(math.log2(10.0 * math.log10(hi / lo) / 0.05))
        assert counts["sample_channel"] == 3
        assert counts["method_exponents"] == len(grid) + steps

    def test_hybrid_is_the_better_method_on_figure8(self):
        # figure8 at its golden sizing: the hybrid switches where the
        # plotted mean exponents cross, so it never shows the worse one
        cfg = parse({"figure_id": 8, "seed": 7, "channel_draws": 2}, experiment="figure")
        rows, code = cli.run(cfg)
        assert code == 0
        for n in (5, 50):
            points = {r.x_value for r in rows if r.series == f"hybrid(N={n})"}
            assert len(points) == 21
            for db in points:
                at_x = {r.series: r.value for r in rows if r.x_value == db}
                better = max(at_x[f"method1(N={n})"], at_x[f"method2(N={n})"])
                assert at_x[f"hybrid(N={n})"] == better, (n, db)


class TestSdrCompareExperiment:
    def config(self):
        return parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 8,
                "num_antennas": 2,
                "gamma_c": 10.0,
                "channel_draws": 2,
                "sweep": sweep("gamma_s", [0.5, 2.0]),
            },
            experiment="sdr-compare",
        )

    def test_converged_run(self):
        rows, code = cli.run(self.config())
        assert code == 0
        series = {r.series for r in rows}
        assert series == {"sdr_phase(N=2)", "hybrid(N=2)", "C(2,1)"}
        for row in rows:
            assert math.isfinite(row.value)

    def test_nonconvergence_marks_rows_and_exit_3(self, monkeypatch):
        monkeypatch.setattr(cli, "solve_sdp", _stalled_solve)
        rows, code = cli.run(self.config())
        assert code == 3
        sdr_rows = [r for r in rows if r.series.startswith("sdr_phase")]
        assert sdr_rows and all(r.series.endswith("[nonconverged]") for r in sdr_rows)
        assert all(math.isnan(r.value) for r in sdr_rows)
        hybrid_rows = [r for r in rows if r.series.startswith("hybrid")]
        assert all(math.isfinite(r.value) for r in hybrid_rows)

    def test_nonconvergence_exit_code_through_main(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "solve_sdp", _stalled_solve)
        raw = {
            "channel": "ricean",
            "ricean_k": 1.0,
            "num_sensors": 8,
            "num_antennas": 2,
            "gamma_c": 10.0,
            "channel_draws": 2,
            "sweep": sweep("gamma_s", [0.5, 2.0]),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = str(tmp_path / "rows.csv")
        assert cli.main(["sdr-compare", "--config", str(path), "--out", out]) == 3
        assert "[nonconverged]" in Path(out).read_text()

    def test_nonconvergence_reasons_on_stderr(self, tmp_path, monkeypatch, capsys):
        # one stderr line per uncertified draw; stdout carries the CSV
        # alone, byte-equal to the output before the stderr lines existed
        monkeypatch.setattr(cli, "solve_sdp", _stalled_solve)
        raw = {
            "channel": "ricean",
            "ricean_k": 1.0,
            "num_sensors": 8,
            "num_antennas": 2,
            "gamma_c": 10.0,
            "channel_draws": 2,
            "sweep": sweep("gamma_s", [0.5, 2.0]),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["sdr-compare", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "39a508fbb329f7c06423b82e5de2a5000aba435eda074bd59d4ef4d36a8213d8"
        )
        lines = captured.err.splitlines()
        assert len(lines) == 2
        for draw, line in enumerate(lines):
            assert line.startswith(f"sdr: channel draw {draw} not certified after ")
            assert " iterations (gap " in line


class TestAsymptoticExperiment:
    def test_bounds_and_empirical_edge(self):
        cfg = parse(
            {
                "channel": "rayleigh",
                "num_sensors": 64,
                "gamma_s": 2.0,
                "gamma_c": 1.0,
                "channel_draws": 4,
                "sweep": sweep("beta", [1.0, 4.0]),
            },
            experiment="asymptotic",
        )
        rows, code = cli.run(cfg)
        assert code == 0
        at_one = {r.series: r.value for r in rows if r.x_value == 1.0}
        assert at_one["lambda_max_limit"] == pytest.approx(4.0)
        assert at_one["E_inf"] == pytest.approx(0.25)
        assert at_one["C_inf"] == pytest.approx(min(at_one["E_inf"], at_one["B_inf"]))
        assert at_one["G_inf_bound"] == pytest.approx(5 * 4 / math.pi)
        assert 0 < at_one["lambda_max_empirical(L=64)"] < 2 * at_one["lambda_max_limit"]

    def test_ricean_b_inf_is_infinite(self):
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 32,
                "channel_draws": 1,
                "sweep": sweep("beta", [1.0, 2.0]),
            },
            experiment="asymptotic",
        )
        rows, _ = cli.run(cfg)
        b_rows = [r for r in rows if r.series == "B_inf"]
        assert all(math.isinf(r.value) for r in b_rows)
        text = cli.rows_to_json(rows)
        assert '"inf"' in text


    # 20 / 8193 is the first beta whose antenna count round(L / beta) at
    # L = 20 is over the cap of 8192; 1e-300 and 1e-310 once raised a NumPy
    # ValueError and an OverflowError from round(inf)
    @pytest.mark.parametrize("beta", [1e-310, 1e-300, 20 / 8193], ids=["1e-310", "1e-300", "cap+1"])
    def test_tiny_beta_rejected_with_exit_2(self, tmp_path, capsys, beta):
        path = tmp_path / "cfg.json"
        raw = {"channel": "rayleigh", "num_sensors": 20, "sweep": sweep("beta", [beta, 1.0])}
        path.write_text(json.dumps(raw))
        code = cli.main(["asymptotic", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o.csv").exists()

    def test_beta_at_the_cap_still_parses(self):
        # parsed, never run: round(20 / beta) = 8192 antennas is allowed
        beta = 20 / 8192
        assert round(20 / beta) == 8192
        cfg = parse(
            {"channel": "rayleigh", "num_sensors": 20, "sweep": sweep("beta", [beta, 1.0])},
            experiment="asymptotic",
        )
        assert cfg.sweep_grid == (beta, 1.0)


class TestFigurePresets:
    def test_figure7_series_and_values(self):
        cfg = parse({"figure_id": 7}, experiment="figure")
        rows, code = cli.run(cfg)
        assert code == 0
        series = {r.series for r in rows}
        assert series == {
            "gain_awgn",
            "gain_nocsis",
            "gain_csis_bound_nk",
            "2zeta",
            "N_line",
        }
        zeta = ZetaFactor.from_model(ChannelModel.ricean(1.0))
        for row in rows:
            n = int(row.x_value)
            pt = SnrPoint(gamma_s=1.0, gamma_c=0.1, p1=0.5, k_factor=1.0, num_antennas=n)
            expected = {
                "gain_awgn": gain_awgn(pt),
                "gain_nocsis": gain_nocsis(pt),
                "gain_csis_bound_nk": gain_csis_bound_nk(n, 1.0, zeta),
                "2zeta": 8 / math.pi,
                "N_line": float(n),
            }[row.series]
            assert row.value == pytest.approx(expected, rel=1e-12)
        ns = sorted({r.x_value for r in rows})
        assert ns == [float(n) for n in range(1, 11)]

    def test_figure6_bound_ordering(self):
        cfg = parse({"figure_id": 6}, experiment="figure")
        rows, _ = cli.run(cfg)
        assert {r.x_name for r in rows} == {"gamma_c_db"}
        for db in {r.x_value for r in rows}:
            at_x = {r.series: r.value for r in rows if r.x_value == db}
            assert at_x["C(N=1)"] == pytest.approx(min(at_x["A(N=1)"], at_x["B(N=1)"]))
            assert at_x["E_CSIS(1)"] <= at_x["C(N=1)"] * (1 + 1e-12)
            pt = SnrPoint(
                gamma_s=1.0, gamma_c=10 ** (db / 10), p1=0.5, k_factor=0.0, num_antennas=1
            )
            assert at_x["B(N=1)"] == pytest.approx(bound_b(pt), rel=1e-12)
            assert at_x["E_CSIS(1)"] == pytest.approx(e_csis1_rayleigh_closed(pt), rel=1e-12)

    def test_figure5_monotone_in_gamma_c(self):
        cfg = parse({"figure_id": 5}, experiment="figure")
        rows, _ = cli.run(cfg)
        series = {r.series for r in rows}
        assert series == {
            "E_AWGN(N=1)",
            "E_CSIS(1)",
            "E_PO(1)",
            "E_NoCSIS(N=1,K=10)",
            "E_NoCSIS(N=1,K=20)",
        }
        for name in series:
            curve = [r.value for r in rows if r.series == name]
            assert curve == sorted(curve)

    def test_figure4_through_compact_main(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert cli.main(["figure4", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "E_NoCSIS(N=10)" in out
        assert ",gamma_c," in out
