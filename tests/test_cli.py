import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import csvdrift
from macdet import allocation, cli, model
from macdet.exponents import (
    SnrPoint,
    ZetaFactor,
    bound_b,
    e_awgn,
    e_csis1_rayleigh_closed,
    e_nocsis,
    gain_awgn,
    gain_csis_bound_nk,
    gain_nocsis,
)
from macdet.model import ChannelModel
from macdet.sdr import extract_phases, solve_sdp, solve_sdps


def _stalled_solves(channels):
    # real solves, each reported as uncertified
    return [dataclasses.replace(s, converged=False) for s in solve_sdps(channels)]


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
            parse({"noise": "ar1", **BASE_SWEEP}, experiment="montecarlo")

    def test_corr_forbidden_for_iid(self):
        with pytest.raises(cli.ConfigError, match="noise_corr"):
            parse({"noise_corr": 0.4, **BASE_SWEEP}, experiment="montecarlo")

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


RICEAN_1_5 = {"channel": "ricean", "ricean_k": 1.5}
MC_SIZE = {"trials": 1000, "channel_draws": 1}

# small configs, one per experiment and sweep variable (a K sweep pins the
# channel to ricean and sets K, and is otherwise the gamma_c case), plus
# sdr-compare at one point and asymptotic on both kinds of fading
KEY_BASES = {
    "exponent-sweep-gamma_s": (
        "exponent-sweep", {**RICEAN_1_5, "num_antennas": 2, "sweep": sweep("gamma_s", [0.6, 1.7])}
    ),
    "exponent-sweep-gamma_c": (
        "exponent-sweep", {**RICEAN_1_5, "num_antennas": 2, "sweep": sweep("gamma_c", [0.6, 1.7])}
    ),
    "exponent-sweep-N": ("exponent-sweep", {**RICEAN_1_5, "sweep": sweep("N", [1, 3])}),
    "montecarlo-gamma_s-ar1": (
        "montecarlo",
        {**RICEAN_1_5, **MC_SIZE, "num_sensors": 3, "num_antennas": 2, "noise": "ar1",
         "noise_corr": 0.5, "sweep": sweep("gamma_s", [0.6, 1.7])},
    ),
    "montecarlo-gamma_c": (
        "montecarlo",
        {**RICEAN_1_5, **MC_SIZE, "num_sensors": 3, "num_antennas": 2,
         "sweep": sweep("gamma_c", [0.6, 1.7])},
    ),
    "montecarlo-N": (
        "montecarlo", {**RICEAN_1_5, **MC_SIZE, "num_sensors": 3, "sweep": sweep("N", [1, 3])}
    ),
    "montecarlo-L": (
        "montecarlo", {**RICEAN_1_5, **MC_SIZE, "num_antennas": 2, "sweep": sweep("L", [2, 3])}
    ),
    "schemes-gamma_s": (
        "schemes",
        {**RICEAN_1_5, "num_sensors": 6, "num_antennas": 2, "channel_draws": 2,
         "sweep": sweep("gamma_s", [0.6, 1.7, 5.3])},
    ),
    "sdr-compare": (
        "sdr-compare", {**RICEAN_1_5, "num_sensors": 4, "num_antennas": 2, "channel_draws": 1}
    ),
    "sdr-compare-gamma_s": (
        "sdr-compare",
        {**RICEAN_1_5, "num_sensors": 4, "num_antennas": 2, "channel_draws": 1,
         "sweep": sweep("gamma_s", [0.6, 1.7])},
    ),
    "asymptotic-rayleigh": (
        "asymptotic",
        {"channel": "rayleigh", "num_sensors": 6, "channel_draws": 1,
         "sweep": sweep("beta", [1.5, 3.0])},
    ),
    "asymptotic-ricean": (
        "asymptotic",
        {**RICEAN_1_5, "num_sensors": 6, "channel_draws": 1, "sweep": sweep("beta", [1.5, 3.0])},
    ),
    "figure2": ("figure", {"figure_id": 2, "trials": 1000, "channel_draws": 1}),
}

# the one changed value of each key; none is a power of two, so that an
# exact binary rescale cannot pass for an invariance
PERTURBED = {
    "num_sensors": 5, "num_antennas": 3, "n_list": [1, 3], "theta": 1.3, "sigma_eta_sq": 0.7,
    "sigma_nu_sq": 1.7, "p1": 0.3, "total_power": 2.9, "gamma_s": 1.9, "gamma_s_db": 2.3,
    "gamma_c": 3.1, "gamma_c_db": 4.1, "ricean_k": 0.7, "noise_corr": 0.3, "trials": 1100,
    "channel_draws": 3,
}

# keys that name the run rather than the model: never perturbed
RUN_NAMING = {"experiment", "figure_id", "seed", "output", "format", "sweep"}

_GAMMA_S = (
    "the grid sets gamma_s = theta^2 / sigma_eta_sq, and the gain budget scales as "
    "1 / theta^2, so the received signal and noise do not depend on theta"
)
_GAMMA_C = (
    "the grid sets gamma_c, so total_power = gamma_c * sigma_nu_sq scales with "
    "sigma_nu_sq and no SNR moves"
)
_PER_SENSOR = "the closed-form exponents are per sensor"
_RICEAN_B = "on Ricean channels B_inf is inf, so C_inf = E_inf and no row reads gamma_c or p1"

# a key is read when it moves some value by more than this relative
# amount.  An invariance may still move the last bits (theta under a
# gamma_s sweep does in schemes and sdr-compare), so a changed sha256
# alone would count it as read
ROUNDING = 1e-12

# (base, key): why the output does not depend on the key, up to rounding;
# every other accepted key must move the CSV
INVARIANT = {
    ("exponent-sweep-gamma_s", "theta"): _GAMMA_S,
    ("montecarlo-gamma_s-ar1", "theta"): _GAMMA_S,
    ("schemes-gamma_s", "theta"): _GAMMA_S,
    ("sdr-compare-gamma_s", "theta"): _GAMMA_S,
    ("exponent-sweep-gamma_s", "num_sensors"): _PER_SENSOR,
    ("exponent-sweep-gamma_c", "sigma_nu_sq"): _GAMMA_C,
    ("exponent-sweep-gamma_c", "num_sensors"): _PER_SENSOR,
    ("exponent-sweep-N", "num_sensors"): _PER_SENSOR,
    ("montecarlo-gamma_c", "sigma_nu_sq"): _GAMMA_C,
    **{("asymptotic-ricean", key): _RICEAN_B
       for key in ("gamma_c", "gamma_c_db", "total_power", "p1", "sigma_nu_sq")},
}


def _perturb(raw, key):
    # a channel or noise kind switches to another kind, dropping the key
    # that only the old kind takes
    raw = dict(raw)
    if key == "channel":
        if raw.pop("ricean_k", None) is not None:
            raw["channel"] = "rayleigh"
        else:
            raw["channel"] = "awgn" if raw.get("channel") == "rayleigh" else "rayleigh"
    elif key == "noise":
        if raw.pop("noise_corr", None) is not None:
            raw["noise"] = "iid"
        else:
            raw.update(noise="ar1", noise_corr=0.3)
    else:
        assert raw.get(key) != PERTURBED[key]
        raw[key] = PERTURBED[key]
    return raw


def _overwritten(raw):
    return set(cli._SWEEPS[raw["sweep"]["variable"]]) if "sweep" in raw else set()


def _csv(experiment, raw):
    rows, code = cli.run(cli.parse_config(raw, experiment))
    assert code == 0
    return cli.rows_to_csv(rows)


def _moved(name, key):
    # whether perturbing the key moves any value of the base's CSV by
    # more than rounding, or changes its rows
    experiment, raw = KEY_BASES[name]
    changes, problems = csvdrift.drift(_csv(experiment, raw), _csv(experiment, _perturb(raw, key)))
    return bool(problems) or max(rel for _, rel in changes.values()) > ROUNDING


def _accepted_cases():
    for name in KEY_BASES:
        experiment, raw = KEY_BASES[name]
        keys = cli._EXPERIMENTS[experiment][2] - RUN_NAMING - _overwritten(raw)
        for key in sorted(keys):
            if key == "ricean_k" and raw.get("channel") != "ricean":
                continue  # only a ricean channel takes it
            if key == "noise_corr" and raw.get("noise") != "ar1":
                continue  # only ar1 noise takes it
            yield pytest.param(name, key, id=f"{name}-{key}")


def _rejected_cases():
    every_key = frozenset().union(*(entry[2] for entry in cli._EXPERIMENTS.values()))
    for name in KEY_BASES:
        experiment, raw = KEY_BASES[name]
        for key in sorted((every_key - cli._EXPERIMENTS[experiment][2]) | _overwritten(raw)):
            yield pytest.param(name, key, id=f"{name}-{key}")


# a valid value for every key, for the keys an experiment must reject
ANY_VALUE = {**PERTURBED, "noise": "ar1", "channel": "rayleigh", "figure_id": 3,
             "sweep": sweep("gamma_s", [0.6, 1.7])}


class TestEveryKeyIsRead:
    """No accepted config key is silently ignored: each changes the
    output or is a listed invariance, and every key an experiment does
    not read is a config error (exit 2) that names the key and the
    experiment."""

    def test_perturbations_are_not_powers_of_two(self):
        for value in PERTURBED.values():
            for x in value if isinstance(value, list) else [value]:
                assert x == 1 or math.frexp(x)[0] != 0.5, x

    def test_every_invariance_is_a_case(self):
        cases = {tuple(case.values) for case in _accepted_cases()}
        assert set(INVARIANT) <= cases

    @pytest.mark.parametrize("name,key", _accepted_cases())
    def test_accepted_key_changes_the_csv(self, name, key):
        assert _moved(name, key) != ((name, key) in INVARIANT)

    @pytest.mark.parametrize("name,key", _rejected_cases())
    def test_key_not_read_exits_2(self, tmp_path, capsys, name, key):
        experiment, raw = KEY_BASES[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, key: ANY_VALUE[key]}))
        assert cli.main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert repr(key) in err or f"{key} cannot be set" in err
        assert experiment in err


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

    def test_float_fields_print_as_python_floats(self):
        # an int or a NumPy scalar in a float field prints as
        # repr(float(v)); the seed prints as an integer
        row = cli.ResultRow("demo", "s", "N", 2, np.float64(0.1), np.float32(0.5), 7)
        assert cli.rows_to_csv([row]).splitlines()[2] == "demo,s,N,2.0,0.1,0.5,7"
        text = cli.rows_to_json([row])
        for pair in ('"x_value": 2.0,', '"value": 0.1,', '"ci95": 0.5,', '"seed": 7'):
            assert pair in text

    def test_json_and_csv_agree_field_for_field(self):
        # one schemes sweep: NaN in the crossover row, an empty ci95 in
        # each bound row; every JSON value printed as a CSV cell is that
        # cell, under the same field names in the same order
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 8,
                "num_antennas": 2,
                "gamma_c": 10.0,
                "channel_draws": 2,
                "sweep": sweep("gamma_s", [0.5, 2.0]),
            },
            experiment="schemes",
        )
        rows, _ = cli.run(cfg)
        body = cli.rows_to_csv(rows).split("\n", 1)[1]
        records = list(csv.DictReader(io.StringIO(body)))
        objects = json.loads(cli.rows_to_json(rows))
        assert len(records) == len(objects) == len(rows)
        assert any(obj["x_value"] == "nan" for obj in objects)
        assert any(obj["ci95"] is None for obj in objects)
        for record, obj in zip(records, objects):
            assert list(record) == list(obj)
            for name, cell in record.items():
                value = obj[name]
                text = value if isinstance(value, str) else repr(value)
                assert cell == ("" if value is None else text)


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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"seed": "\xff"}',
            b"[" * 200_000 + b"]" * 200_000,
            b'{"seed": ' + b"7" * 5000 + b"}",
        ],
        ids=["not-utf8", "deep-array", "5000-digit-int"],
    )
    def test_undecodable_json_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert cli.main(["exponent-sweep", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid JSON: ")

    def test_unknown_experiment_exit_2(self, tmp_path, capsys):
        path = self.write(tmp_path, {"sweep": sweep("gamma_s", [1.0, 2.0])})
        assert cli.main(["wrong-name", "--config", path]) == 2

    @pytest.mark.parametrize("name", ["figure²", "figure٢"])
    def test_non_ascii_figure_digit_exit_2(self, tmp_path, capsys, name):
        path = self.write(tmp_path, {})
        assert cli.main([name, "--config", path]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("key", ["gamma_s_db", "gamma_c_db"])
    def test_gamma_s_db_underflow_rejected(self, tmp_path, capsys, key):
        code, err = self.run_main(tmp_path, capsys, "montecarlo", {**MC_BASE, key: -4000.0})
        assert code == 2
        assert f"{key} is so low that {key[:-3]} underflows to 0" in err

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


class TestAr1ExtremeChannelSnr:
    """AR(1) sensing noise goes through the same overflow-safe quadratic
    form as iid noise."""

    run_main = TestAr1NoiseFreeSensing.run_main

    def test_rank_one_gram_at_gamma_c_1e300(self, tmp_path):
        # AWGN, N = 2: H D(a) R_eta D(a)^H H^H has rank one and swallows
        # sigma_nu_sq I at gamma_c = 1e300.  q depends on the powers only
        # through sigma_nu_sq / P, so sigma_nu_sq = 1e-300 at the same
        # gamma_c gives the same CSV
        raw = {**AR1_BASE, "channel": "awgn", "num_antennas": 2, "sweep": sweep("gamma_c", [1e300])}
        code, text = self.run_main(tmp_path, raw)
        assert code == 0
        tiny_code, tiny = self.run_main(tmp_path, {**raw, "sigma_nu_sq": 1e-300}, name="tiny")
        assert tiny_code == 0
        assert text == tiny


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
    "gamma_c-overflows": {"total_power": 1e10, "sigma_nu_sq": 1e-300},
    # json reads these as ints that no double holds (float() raised
    # OverflowError); as float literals they would read as +-Infinity
    "theta-int-past-a-double": {"theta": 10**400},
    "p1-negative-int-past-a-double": {"p1": -(10**400)},
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


def _count_config(key, value):
    """(experiment, config, key named in the error) with `value` at one
    count of the config language."""
    if key == "figure_id":
        return "figure", {"figure_id": value}, key
    if key == "trials-figure":
        return "figure", {"figure_id": 5, "trials": value}, "trials"
    if key == "n_list":
        return "exponent-sweep", {"n_list": [value, 2], **BASE_SWEEP}, "n_list entry"
    if key == "N":
        return "exponent-sweep", {"sweep": sweep("N", [value])}, "sweep.grid entry"
    if key == "L":
        return "montecarlo", {**MC_NO_SWEEP, "sweep": sweep("L", [value])}, "sweep.grid entry"
    if key == "num_sensors":
        return "montecarlo", {**MC_BASE, "sweep": sweep("gamma_c", [1.0]), key: value}, key
    return "montecarlo", {**MC_BASE, key: value}, key


# each count with its low: trials' low is 1000 in a Monte Carlo run
COUNT_LOWS = {
    "num_sensors": 1, "num_antennas": 1, "trials": 1000, "trials-figure": 1, "channel_draws": 1,
    "seed": 0, "figure_id": 2, "n_list": 1, "N": 1, "L": 1,
}


class TestConfigCounts:
    """Every count of a config is read through model.check_integer: a
    float (even 2.0), a bool and a value below the count's low are
    config errors naming the key."""

    @pytest.mark.parametrize("kind", ["float", "bool", "low"])
    @pytest.mark.parametrize("key", COUNT_LOWS)
    def test_rejected_naming_the_key(self, tmp_path, capsys, key, kind):
        value = {"float": 2.0, "bool": True, "low": COUNT_LOWS[key] - 1}[kind]
        experiment, raw, name = _count_config(key, value)
        with pytest.raises(cli.ConfigError, match=re.escape(name)):
            cli.parse_config(raw, experiment)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main([experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key", COUNT_LOWS)
    def test_the_low_itself_parses(self, key):
        experiment, raw, _ = _count_config(key, COUNT_LOWS[key])
        cli.parse_config(raw, experiment)


# a value outside each sweep variable's range, and the words of the type
# that owns the rule
SWEEP_POINT_RULES = {
    "gamma_s": ("montecarlo", MC_NO_SWEEP, 0.0, "gamma_s must be > 0"),
    "gamma_c": ("montecarlo", MC_NO_SWEEP, -1.0, "total_power must be > 0"),
    "K": ("exponent-sweep", {"channel": "ricean"}, -1.0, "K-factor must be >= 0"),
    "beta": ("asymptotic", {}, 0.0, "beta must be > 0"),
    "beta-cap": ("asymptotic", {"num_sensors": 20}, 20 / 8193, "exceeds 8192"),
}


class TestSweepPointRules:
    """Each sweep point is checked by the code that owns its rule, and the
    error names the point."""

    @pytest.mark.parametrize("name", SWEEP_POINT_RULES)
    def test_rule_names_the_point(self, name):
        experiment, base, value, words = SWEEP_POINT_RULES[name]
        variable = name.split("-")[0]
        raw = {**base, "sweep": sweep(variable, [value, 1e3])}
        with pytest.raises(cli.ConfigError, match=re.escape(words)) as info:
            cli.parse_config(raw, experiment)
        assert str(info.value).endswith(f" at {variable} = {value!r}")


class TestUnwritableOutput:
    """An output path that cannot be written is a config error (exit 2)
    naming the path, never a traceback."""

    @pytest.mark.parametrize(
        "target,reason",
        [
            ("missing/rows.csv", errno.ENOENT),
            ("", errno.EISDIR),
            ("rows.csv/", errno.EISDIR),
            ("file/rows.csv", errno.ENOTDIR),
            (None, errno.ENOENT),
        ],
        ids=["missing-directory", "directory", "trailing-slash", "file-as-directory", "empty"],
    )
    def test_rejected_with_exit_2(self, tmp_path, monkeypatch, capsys, target, reason):
        # checked before the run, which never starts; the reason is the
        # one opening the path for writing would give
        def never(cfg):
            raise AssertionError("run called with an unwritable output")

        monkeypatch.setattr(cli, "run", never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_SWEEP))
        (tmp_path / "file").write_text("")
        out = "" if target is None else os.path.join(tmp_path, target)
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert opened.value.errno == reason
        assert cli.main(["exponent-sweep", "--config", str(path), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: cannot write output {out}: {os.strerror(reason)}\n"

    def test_an_earlier_output_survives_a_failed_run(self, tmp_path, monkeypatch):
        def crash(cfg):
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "run", crash)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_SWEEP))
        out = tmp_path / "rows.csv"
        out.write_text("earlier output\n")
        with pytest.raises(RuntimeError, match="run failed"):
            cli.main(["exponent-sweep", "--config", str(path), "--out", str(out)])
        assert out.read_text() == "earlier output\n"

    def test_write_error_after_the_run(self, tmp_path, monkeypatch, capsys):
        # a path that passes the early check can still fail to open
        def refuse(text, path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(cli, "_write_output", refuse)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_SWEEP))
        out = tmp_path / "rows.csv"
        assert cli.main(["exponent-sweep", "--config", str(path), "--out", str(out)]) == 2
        reason = os.strerror(errno.EACCES)
        assert capsys.readouterr().err == f"config error: cannot write output {out}: {reason}\n"


def _env_with_src():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestModuleEntryPoint:
    def test_python_dash_m_macdet(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        env = _env_with_src()
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

    def test_presets_run_without_scipy(self):
        # the runtime is NumPy and the standard library only.  figure2
        # reaches log_q and the Monte Carlo solve, figure3 the array log_q
        # and the log-sum-exp over channel draws, figure7 mean_abs_h; no
        # scipy or mpmath module may be loaded after them, not even by an
        # import inside a function
        probe = (
            "import sys\n"
            "from macdet import cli\n"
            "for raw in ({'figure_id': 2, 'trials': 1000, 'channel_draws': 1},\n"
            "            {'figure_id': 3}, {'figure_id': 7}):\n"
            "    assert cli.run(cli.parse_config(raw, 'figure'))[1] == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'mpmath')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_env_with_src(), timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_and_parse_load_no_scipy(self):
        # what bench/'s setup_s times: the import and the config parse,
        # which load neither scipy nor mpmath (both installed for the tests)
        probe = (
            "import sys\n"
            "import macdet.cli\n"
            "macdet.cli.parse_config({'figure_id': 8}, 'figure')\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'mpmath')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_env_with_src(), timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMeanCi:
    @pytest.mark.parametrize("points,draws", [(7, 3), (21, 10), (21, 25), (4, 200), (3, 1), (1, 9)])
    def test_rows_keep_their_1d_bits(self, points, draws):
        # the row-wise reductions of a (points, draws) array give each row
        # the bits of the 1-D call on it
        values = np.random.default_rng(points * draws).lognormal(size=(points, draws))
        means, cis = cli._mean_ci(values)
        assert list(zip(means, cis)) == [cli._mean_ci(row.tolist()) for row in values]
        # and the 1-D call is NumPy's own mean and sample std of the row
        for row, mean, ci in zip(values, means, cis):
            assert mean == float(np.mean(row))
            if draws > 1:
                assert ci == float(1.96 * np.std(row, ddof=1) / math.sqrt(draws))
        # and so do the runners' strided views, one call per method on
        # [..., k] of a (points, draws, 3) scheme sweep array.  One call
        # on the transposed (3, points, draws) view would reduce across
        # the draws in another order, and from 8 draws on it loses these
        # bits.
        methods = np.random.default_rng(draws).lognormal(size=(points, draws, 3))
        for k in range(3):
            view = methods[..., k]
            assert list(zip(*cli._mean_ci(view))) == [cli._mean_ci(row.tolist()) for row in view]

    def test_1d_call_returns_floats(self):
        mean, ci = cli._mean_ci([1.0, 2.0, 4.0])
        assert type(mean) is float and type(ci) is float
        assert cli._mean_ci([3.0]) == (3.0, None)


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


    @pytest.mark.parametrize("n,l", [(2, 6), (3, 3), (4, 3), (5, 3)])
    def test_tied_methods_report_no_crossover(self, tmp_path, n, l):
        # on AWGN channels both methods spend the budget on the same
        # uniform gains (method2's direction normalized alike whether it
        # comes from H H^H or, for N >= L, from H^H H), so every
        # method1 - method2 gap is exactly 0
        raw = {"channel": "awgn", "num_antennas": n, "num_sensors": l,
               "sweep": sweep("gamma_s", [0.5, 2.0])}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "rows.csv"
        assert cli.main(["schemes", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#")))
        crossover = [r for r in rows if r["series"] == f"crossover(N={n})"]
        assert len(crossover) == 1 and math.isnan(float(crossover[0]["value"]))
        for x in ("0.5", "2.0"):
            at_x = {r["series"]: r["value"] for r in rows if r["x_value"] == x}
            assert at_x[f"hybrid(N={n})"] == at_x[f"method1(N={n})"] == at_x[f"method2(N={n})"]

    def test_each_channel_drawn_and_each_point_scored_once(self, monkeypatch):
        # the crossover is calibrated on the sweep's own channels and grid
        # exponents, so only the bisection steps add evaluations: the mean
        # gap is taken once per grid point (all scored in one grouped
        # pass) and once per bisection point
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
        count_calls(monkeypatch, counts, allocation, "_mean_exponent_gap")
        rows, code = cli.run(cfg)
        assert code == 0
        crossover = rows[-1].value
        lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if a < crossover < b)
        # bisection halves the bracket in dB down to 0.05 dB
        steps = math.ceil(math.log2(10.0 * math.log10(hi / lo) / 0.05))
        assert counts["sample_channel"] == 3
        assert counts["_mean_exponent_gap"] == len(grid) + steps

    @pytest.mark.parametrize("n,l,draws", [(3, 32, 3), (5, 40, 4), (2, 7, 5), (50, 200, 2)])
    def test_sweep_exponents_are_the_per_channel_compositions(self, n, l, draws):
        # the batched sweep prints exactly what finite_exponent of method1
        # and method2 give one channel at a time (bench/'s fig9-sdr check
        # compares them bit for bit)
        cfg = parse(
            {"channel": "ricean", "ricean_k": 1.0, "num_antennas": n, "num_sensors": l,
             "gamma_c": 10.0, "sweep": sweep("gamma_s", [0.3, 1.0, 3.0, 10.0])},
            experiment="schemes",
        )
        channels = cli._scheme_channels(cfg, "schemes", draws)
        result = allocation.scheme_sweep(channels, cfg.sweep_grid, cfg.params)
        for x, point in zip(cfg.sweep_grid, result.exponents):
            fe1, fe2, _ = point.T.tolist()
            params = cfg.params.at_gamma_s(x)
            assert fe1 == [
                allocation.finite_exponent(h, allocation.method1(h, params)[0], params)
                for h in channels
            ]
            assert fe2 == [
                allocation.finite_exponent(h, allocation.method2(h, params), params)
                for h in channels
            ]

    @pytest.mark.parametrize("figure_id,draws,networks", [(8, 10, 2 * 21 + 5), (9, 3, 7)])
    def test_one_network_per_grid_and_bisection_point(self, monkeypatch, figure_id, draws, networks):
        # each gamma_s point's NetworkParams is built once, by scheme_sweep,
        # and the runners read it off the result: figure8's two 21-point
        # grids and 5 bisection steps, figure9's 7 points and no bisection
        cfg = parse({"figure_id": figure_id, "seed": 7, "channel_draws": draws}, experiment="figure")
        calls = []
        original = model.NetworkParams.at_gamma_s
        monkeypatch.setattr(
            model.NetworkParams, "at_gamma_s", lambda self, x: calls.append(x) or original(self, x)
        )
        assert cli.run(cfg)[1] == 0
        assert len(calls) == networks

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

    def test_sdr_rows_are_the_per_channel_exponents(self):
        cfg = self.config()
        rows, _ = cli.run(cfg)
        channels = cli._scheme_channels(cfg, "sdr", 2)
        phases = [
            extract_phases(solve_sdp(h))
            for h in channels
        ]
        for x in cfg.sweep_grid:
            params = cfg.params.at_gamma_s(x)
            scale = np.sqrt(params.gain_budget / params.num_sensors)
            per_channel = [
                allocation.finite_exponent(h, scale * v, params) for h, v in zip(channels, phases)
            ]
            row = next(r for r in rows if r.series == "sdr_phase(N=2)" and r.x_value == x)
            assert (row.value, row.ci95) == cli._mean_ci(per_channel)

    def test_alpha_sdr_phase_is_the_runners_gains(self, monkeypatch):
        # figure9's shape (Ricean K = 1, N = 3, L = 32, three draws): the
        # gains the runner scores at each (gamma_s, draw) are bit for bit
        # alpha_sdr_phase of that draw at that gamma_s
        cfg = parse(
            {
                "channel": "ricean",
                "ricean_k": 1.0,
                "num_sensors": 32,
                "num_antennas": 3,
                "gamma_c": 10.0,
                "channel_draws": 3,
                "sweep": sweep("gamma_s", [0.5, 2.0, 8.0]),
            },
            experiment="sdr-compare",
        )
        scored = []
        original = cli.exponent_statistic

        def spy(channels, gains, *args):
            scored.append(gains)
            return original(channels, gains, *args)

        monkeypatch.setattr(cli, "exponent_statistic", spy)
        assert cli.run(cfg)[1] == 0
        [gains] = scored
        assert gains.shape == (3, 3, 32)
        channels = cli._scheme_channels(cfg, "sdr", 3)
        for i, x in enumerate(cfg.sweep_grid):
            params = cfg.params.at_gamma_s(x)
            for d, h in enumerate(channels):
                want = allocation.alpha_sdr_phase(h, params).values
                assert np.array_equal(gains[i, d].view(np.float64), want.view(np.float64)), (x, d)

    def test_nonconvergence_marks_rows_and_exit_3(self, monkeypatch):
        monkeypatch.setattr(cli, "solve_sdps", _stalled_solves)
        rows, code = cli.run(self.config())
        assert code == 3
        sdr_rows = [r for r in rows if r.series.startswith("sdr_phase")]
        assert sdr_rows and all(r.series.endswith("[nonconverged]") for r in sdr_rows)
        assert all(math.isnan(r.value) for r in sdr_rows)
        hybrid_rows = [r for r in rows if r.series.startswith("hybrid")]
        assert all(math.isfinite(r.value) for r in hybrid_rows)

    def test_partial_nonconvergence_keeps_the_certified_mean(self, monkeypatch, capsys):
        # draw 0 of 2 uncertified: the rows are marked and the exit code
        # is 3, but they carry draw 1's exponent, with no ci95
        def first_stalled(channels):
            first, *rest = solve_sdps(channels)
            return [dataclasses.replace(first, converged=False), *rest]

        monkeypatch.setattr(cli, "solve_sdps", first_stalled)
        cfg = self.config()
        rows, code = cli.run(cfg)
        assert code == 3
        assert capsys.readouterr().err.startswith("sdr: channel draw 0 not certified after ")
        h = cli._scheme_channels(cfg, "sdr", 2)[1]
        for x in cfg.sweep_grid:
            params = cfg.params.at_gamma_s(x)
            row = next(r for r in rows if r.series.startswith("sdr_phase") and r.x_value == x)
            assert row.series == "sdr_phase(N=2)[nonconverged]"
            fe = allocation.finite_exponent(h, allocation.alpha_sdr_phase(h, params), params)
            assert (row.value, row.ci95) == (fe, None)

    def test_nonconvergence_exit_code_through_main(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "solve_sdps", _stalled_solves)
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

    def test_nonconvergence_exit_code_through_figure9(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_sdps", _stalled_solves)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel_draws": 1}))
        out = tmp_path / "rows.csv"
        assert cli.main(["figure9", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("sdr: channel draw 0 not certified after ")
        body = out.read_text().split("\n", 1)[1]
        sdr_rows = [r for r in csv.DictReader(io.StringIO(body)) if r["series"].startswith("sdr")]
        assert len(sdr_rows) == 7
        for row in sdr_rows:
            assert row["series"] == "sdr_phase(N=3)[nonconverged]"
            assert row["x_name"] == "gamma_s_db"

    def test_nonconvergence_reasons_on_stderr(self, tmp_path, monkeypatch, capsys):
        # one stderr line per uncertified draw; stdout carries the CSV
        # alone, at its pinned digest
        monkeypatch.setattr(cli, "solve_sdps", _stalled_solves)
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
            "ca7836e91aca15473354b424acca030394ba31700bf0d019cacc78327ce838d0"
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

    def test_draws_the_antennas_of_params_at(self, monkeypatch):
        # N = max(1, round(L / beta)) at L = 20: 66.7, 13.3, 8, 2.86, 0.4
        drawn = []

        def spy(model, num_antennas, num_sensors, rng):
            drawn.append(num_antennas)
            return sample(model, num_antennas, num_sensors, rng)

        sample = cli.sample_channel
        monkeypatch.setattr(cli, "sample_channel", spy)
        grid = [0.3, 1.5, 2.5, 7.0, 50.0]
        cfg = parse(
            {"channel": "rayleigh", "num_sensors": 20, "channel_draws": 1,
             "sweep": sweep("beta", grid)},
            experiment="asymptotic",
        )
        cli.run(cfg)
        assert drawn == [cli._params_at(cfg.params, "beta", b).num_antennas for b in grid]
        assert drawn == [67, 13, 8, 3, 1]

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

    def test_figure2_rows_equal_six_one_series_runs(self):
        # at the bench sizing: 10,000 trials are two trial blocks, a path
        # the stored figure2 (1000 trials, one block) never covers
        cfg = parse({"figure_id": 2, "trials": 10_000, "channel_draws": 2}, experiment="figure")
        rows, code = cli.run(cfg)
        assert code == 0
        sub = dataclasses.replace(
            cfg, sweep_variable="L", sweep_grid=tuple(float(l) for l in range(1, 16))
        )
        alone = []
        for channel in (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh()):
            for n in (2, 10):
                series = [(channel, cli._base_preset_params(15, n, 1.0))]
                alone.extend(cli._montecarlo_series(sub, series))
        assert rows == alone
        assert len(rows) == 6 * 15 * 2

    def test_figure2_channels_are_the_mc_channel_substreams(self, monkeypatch):
        # the series of a point share one key per (point i, draw d), and
        # each still draws its channel on a generator of its own
        batches = []

        def spy(detectors, trials, rng):
            batches.append(list(detectors))
            return estimate(detectors, trials, rng)

        estimate = cli.estimate_pe_montecarlo_batch
        monkeypatch.setattr(cli, "estimate_pe_montecarlo_batch", spy)
        cfg = parse({"figure_id": 2, "trials": 1000, "channel_draws": 2}, experiment="figure")
        assert cli.run(cfg)[1] == 0
        models = (ChannelModel.awgn(), ChannelModel.ricean(1.0), ChannelModel.rayleigh())
        series = [(m, n) for m in models for n in (2, 10)]
        base = model.RandomSource(cfg.seed)
        assert len(batches) == 2
        for d, detectors in enumerate(batches):
            assert len(detectors) == 15 * len(series)
            for j, (channel, _, params, _) in enumerate(detectors):
                i, k = divmod(j, len(series))
                m, n = series[k]
                assert (params.num_sensors, params.num_antennas) == (i + 1, n)
                expected = model.sample_channel(m, n, i + 1, base.substream("mc-channel", i, d))
                assert np.array_equal(channel.entries, expected.entries)

    def test_awgn_montecarlo_builds_no_channel_generator(self, monkeypatch):
        philox = np.random.Philox
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        raw = {"num_sensors": 3, "trials": 1000, "channel_draws": 2,
               "sweep": sweep("gamma_s", [0.5, 2.0])}
        assert cli.run(parse({**raw, "channel": "awgn"}, "montecarlo"))[1] == 0
        assert built == []
        # the same sweep on Rayleigh channels: one generator per point and draw
        assert cli.run(parse({**raw, "channel": "rayleigh"}, "montecarlo"))[1] == 0
        assert len(built) == 2 * 2

    def test_figure4_through_compact_main(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert cli.main(["figure4", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "E_NoCSIS(N=10)" in out
        assert ",gamma_c," in out
