"""Golden digests of the CSV output of the figure presets and of the
non-figure experiments.

Each preset runs at seed 7 with small sizing (figure2: trials 1000 and
channel_draws 1; figure8: channel_draws 2; figure9: channel_draws 1;
figures 3-7 at their defaults), and the sha256 of `rows_to_csv` must
match the pinned value byte for byte.  figure2 is pinned a second time
at the size of the benchmark's fig2-mc workload (trials 10,000 and
channel_draws 2: two trial blocks, 8,192 and 1,808 trials, and two
draws), stored as figure2-bench, and figures 8 and 9 at the sizes of
the fig8-schemes and fig9-sdr workloads (channel_draws 10 and 3),
stored as figure8-bench and figure9-bench, so that a speed claim on
any workload is checked byte for byte.  A change that moves any figure
value, even in the last bit, fails here; a deliberate change updates the
digest and says which values moved and why.

The non-figure configs (`EXPERIMENTS`, also at seed 7) reach every path
of the scheme runners and the shared gamma_s rule: `schemes` with a
calibrated crossover (Ricean K=1, N=5, L=40, crossover near gamma_s =
5.82), without one where method1 dominates (Rayleigh, N=2) and where
method2 dominates (N=50, L=30); `sdr-compare` at a single gamma_s (the
hybrid falls back to the larger mean) and over a gamma_s sweep;
`exponent-sweep` over gamma_s with `n_list` and over K, N and gamma_c;
`montecarlo` over gamma_s, over gamma_c with AR(1) sensing noise and
over N on AWGN; and `asymptotic` on Rayleigh channels, L=20, beta in
{0.5, 1, 2}.

The digests were taken with NumPy 2.4.6 and glibc's libm on x86-64: the
package's special functions rest on NumPy and on the platform libm's erfc
(through math.erfc), not on SciPy.  Other NumPy/BLAS builds or another
libm may round differently in the last bit.

The pinned CSVs themselves are stored as tests/golden/<name>.csv (figure
N as figureN.csv).  When a digest moves, the failure message is the
`csvdrift` report of the stored CSV against the new one: per series, the
largest absolute and relative change, any difference in row order,
non-numeric fields or NaN/inf pattern, and the z of each moved Pe_MC
point against its Pe row.  The digest check itself stays bit-exact.
"""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import csvdrift
from macdet import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

# the NumPy the digests were taken with (constraints.txt pins it)
DIGEST_NUMPY = "2.4.6"

SEED = 7

GOLDEN = {
    2: ({"trials": 1000, "channel_draws": 1},
        "559b702dd9611c203fae2de8a3187bb8e8c80ddca192aa23369d932cdc33ecb2"),
    3: ({}, "700331721bb7712866e2eb1c112ad4b22eacef0bf1ffcfd8f6d5e4a95bcdcb72"),
    4: ({}, "49baefd47cc5d99adc843f8c132122bb4d1ad1c67e1de855d871df5fe8d287a1"),
    5: ({}, "767221be814242cd397f011e17f983f73a35fd3a8364f6a5cdfc014b72d4bc4b"),
    6: ({}, "bd8019e0b607e5bafc84e7247da314f0fbe59e70ba5484c5e923b298f438f7c0"),
    7: ({}, "8f303d1bcd3b2274eb405e6d62ae6465c81113887c2e72630cb0624dfb97b6e5"),
    8: ({"channel_draws": 2},
        "42b7703c3d4a58338fc06a57f6e55b725d3c0af3332203fc76066badf0ce75e9"),
    9: ({"channel_draws": 1},
        "b79f37e51e15217a57a8bf442a54e9ec0ad0152d7c4d4e9379d53218856882fb"),
}


# bench/workloads.py's sizings: figure -> (sizing, digest)
BENCH = {
    2: ({"trials": 10_000, "channel_draws": 2},
        "6321cf22b9f2c3e49cac9e5f8d331fbdacd5d5659e11b87ef964c0e50b464d23"),
    8: ({"channel_draws": 10},
        "be4b965f74f0e2e61cefee675d4429a62251b44ba4a3bb13c45022160e8bff33"),
    9: ({"channel_draws": 3},
        "faadf19ff01d7a521b0be68516eeaa79d995be4df6464a1905f1853af179fd95"),
}


def figure_csv(figure_id, sizing):
    cfg = cli.parse_config({"figure_id": figure_id, "seed": SEED, **sizing}, "figure")
    rows, code = cli.run(cfg)
    assert code == 0
    return cli.rows_to_csv(rows)


@pytest.mark.parametrize("figure_id", sorted(GOLDEN))
def test_figure_csv_digest(figure_id):
    sizing, digest = GOLDEN[figure_id]
    assert_digest(f"figure{figure_id}", figure_csv(figure_id, sizing), digest)


@pytest.mark.parametrize("figure_id", sorted(BENCH))
def test_figure_at_benchmark_size_digest(figure_id):
    sizing, digest = BENCH[figure_id]
    assert_digest(f"figure{figure_id}-bench", figure_csv(figure_id, sizing), digest)


RICEAN = {"channel": "ricean", "ricean_k": 1.0}

EXPERIMENTS = {
    "schemes-crossover": (
        "schemes",
        {**RICEAN, "num_antennas": 5, "num_sensors": 40, "gamma_c": 10.0, "channel_draws": 3,
         "sweep": {"variable": "gamma_s", "grid": [0.3, 1.0, 3.0, 10.0, 30.0]}},
        "b4bc0b9e23671f10d891f1d418cce3c482f4b0e35da91dac4c265479abf3023f",
    ),
    "schemes-method1-dominant": (
        "schemes",
        {"channel": "rayleigh", "num_antennas": 2, "num_sensors": 40, "channel_draws": 2,
         "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0]}},
        "f3c6831110fa065d218cecb3977a133f4d55fa0b3d01469435eb486e56203888",
    ),
    "schemes-method2-dominant": (
        "schemes",
        {**RICEAN, "num_antennas": 50, "num_sensors": 30, "gamma_c": 10.0, "channel_draws": 2,
         "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0, 8.0]}},
        "a4c091c182d6b76afdc9df83f732388f4d90be338df073b4abba13c1556f4233",
    ),
    "sdr-compare-one-point": (
        "sdr-compare",
        {**RICEAN, "num_antennas": 3, "num_sensors": 8, "gamma_s": 2.0, "gamma_c": 10.0,
         "channel_draws": 2},
        "398e895eee2520fd9f9680dc8049bd56e71963245fe72a5fabc39c092244abe7",
    ),
    "sdr-compare-sweep": (
        "sdr-compare",
        {"channel": "rayleigh", "num_antennas": 2, "num_sensors": 8, "gamma_c": 10.0,
         "channel_draws": 2, "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0, 8.0]}},
        "8f50bbc3ac5cca9aa940fb400309b77896e5b810adf20dab52c4d665b7c567b0",
    ),
    "exponent-sweep-gamma_s": (
        "exponent-sweep",
        {**RICEAN, "gamma_c": 5.0, "n_list": [1, 2, 10],
         "sweep": {"variable": "gamma_s", "grid": [0.5, 1.0, 4.0]}},
        "a7b97b2b09f3a7492594876a197f1241d9650028d66b0d20ad290d020754ed42",
    ),
    "exponent-sweep-K": (
        "exponent-sweep",
        {"channel": "ricean", "num_antennas": 3, "gamma_s": 2.0,
         "sweep": {"variable": "K", "grid": [0.0, 1.0, 10.0]}},
        "4b66fec6789d3661cad0ca24e7a6be7212f46e1729bc24f970b7376cbdadf56a",
    ),
    "exponent-sweep-N": (
        "exponent-sweep",
        {"channel": "rayleigh", "gamma_s": 2.0, "gamma_c": 3.0,
         "sweep": {"variable": "N", "grid": [1, 2, 5]}},
        "a9e29fd9ebbfcc24659ee45ace34d95e250547824791de049b5a43b57aa4e414",
    ),
    "exponent-sweep-gamma_c": (
        "exponent-sweep",
        {"channel": "awgn", "num_antennas": 2,
         "sweep": {"variable": "gamma_c", "grid": [0.5, 2.0, 8.0]}},
        "2de381be2ed7cf58f075b9e01fd985e6d98fcf294e1e2545369e90d8b0d34195",
    ),
    "montecarlo-gamma_s": (
        "montecarlo",
        {"channel": "rayleigh", "num_antennas": 2, "num_sensors": 10, "trials": 1000,
         "channel_draws": 2, "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0]}},
        "de23b62e6c2210e0b5ab1b20f302ac978047e74fe30f99038a1696b359fc583f",
    ),
    "montecarlo-gamma_c-ar1": (
        "montecarlo",
        {**RICEAN, "num_antennas": 2, "num_sensors": 6, "noise": "ar1", "noise_corr": 0.5,
         "gamma_s": 2.0, "trials": 1000, "channel_draws": 2,
         "sweep": {"variable": "gamma_c", "grid": [1.0, 4.0]}},
        "b2a9bd5370cfee1f7d7a30b02ee42661769c62a33a167018dfbaf1f3b1e79fe1",
    ),
    "montecarlo-N-awgn": (
        "montecarlo",
        {"channel": "awgn", "num_sensors": 5, "gamma_s": 1.0, "trials": 1000, "channel_draws": 1,
         "sweep": {"variable": "N", "grid": [1, 3]}},
        "374d66734f73fd7bd4c631714f07cfc959e0add5108334ef3bf440eb336958aa",
    ),
    "asymptotic-rayleigh": (
        "asymptotic",
        {"channel": "rayleigh", "num_sensors": 20, "channel_draws": 3,
         "sweep": {"variable": "beta", "grid": [0.5, 1.0, 2.0]}},
        "fe6eefcb93fbb9ad72b18eba9e5baeb3c3837ea29be8e9c849ac975275d91002",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_csv_digest(name):
    experiment, raw, digest = EXPERIMENTS[name]
    cfg = cli.parse_config({**raw, "seed": SEED}, experiment)
    rows, code = cli.run(cfg)
    assert code == 0
    assert_digest(name, cli.rows_to_csv(rows), digest)


DIGESTS = (
    {f"figure{f}": digest for f, (_, digest) in GOLDEN.items()}
    | {f"figure{f}-bench": digest for f, (_, digest) in BENCH.items()}
    | {name: digest for name, (_, _, digest) in EXPERIMENTS.items()}
)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_stored_csv_matches_its_digest(name):
    data = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def stored(name):
    return (GOLDEN_DIR / f"{name}.csv").read_bytes().decode("utf-8")


class TestCsvDrift:
    def test_file_against_itself_has_no_drift(self):
        text = stored("schemes-crossover")
        changes, problems = csvdrift.drift(text, text)
        assert problems == []
        assert changes and all(c == (0.0, 0.0) for c in changes.values())

    def test_perturbed_value_is_reported_per_series(self):
        old = stored("schemes-crossover")
        lines = old.splitlines(keepends=True)
        fields = lines[2].split(",")
        value = float(fields[4])
        fields[4] = repr(value * (1.0 + 1e-9))
        new = "".join(lines[:2] + [",".join(fields)] + lines[3:])
        changes, problems = csvdrift.drift(old, new)
        assert problems == []
        moved = {series: c for series, c in changes.items() if c != (0.0, 0.0)}
        assert list(moved) == [fields[1]]
        assert moved[fields[1]][0] == pytest.approx(abs(value) * 1e-9)
        assert moved[fields[1]][1] == pytest.approx(1e-9)
        assert fields[1] in csvdrift.report(changes, problems)

    def test_swapped_rows_fail(self):
        old = stored("schemes-crossover")
        lines = old.splitlines(keepends=True)
        new = "".join(lines[:2] + [lines[3], lines[2]] + lines[4:])
        _, problems = csvdrift.drift(old, new)
        assert "the same rows in a different order" in problems

    def test_renamed_series_fails(self):
        old = stored("schemes-crossover")
        new = old.replace("method1(N=5)", "method3(N=5)")
        _, problems = csvdrift.drift(old, new)
        assert problems and all("method3(N=5)" in p for p in problems)

    @pytest.mark.parametrize("sides", ["old", "new", "both"])
    def test_empty_input_is_structural(self, sides, tmp_path, capsys):
        # an empty file (e.g. the output of a run that exited on a usage
        # error) has no header: a structural difference, exit status 2
        text = stored("schemes-crossover")
        old = "" if sides in ("old", "both") else text
        new = "" if sides in ("new", "both") else text
        changes, problems = csvdrift.drift(old, new)
        assert changes == {}
        missing = {"old": "OLD", "new": "NEW", "both": "OLD and NEW"}[sides]
        assert problems[-1] == f"no header in {missing}"
        paths = [tmp_path / "old.csv", tmp_path / "new.csv"]
        for path, content in zip(paths, (old, new)):
            path.write_text(content, encoding="utf-8")
        assert csvdrift.main([str(p) for p in paths]) == 2
        assert "structural: no header in " in capsys.readouterr().out

    def test_moved_pe_mc_points_get_their_z(self, tmp_path, capsys):
        # z against the new Pe row, n read back from each Pe_MC row's own
        # ci95; a point at 0 has no ci95 to read n from
        head = stored("montecarlo-N-awgn").splitlines()[:2]

        def text(p_mc, pe):
            rows = []
            for x, p_hat, p in zip((1.0, 2.0, 3.0), p_mc, pe):
                ci95 = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / 1000)
                rows.append(f"montecarlo,Pe_MC(awgn),N,{x},{p_hat!r},{ci95!r},7")
                rows.append(f"montecarlo,Pe(awgn),N,{x},{p!r},,7")
            return "\n".join(head + rows) + "\n"

        old = text((0.25, 0.1, 0.002), (0.3, 0.1, 0.001))
        new = text((0.2, 0.1, 0.0), (0.25, 0.12, 0.001))
        lines = csvdrift.pe_mc_z(old, new).splitlines()
        assert len(lines) == 3 and lines[0].split()[-1] == "z"
        assert lines[1].split() == ["Pe_MC(awgn)", "1", "0.2", "0.25", "1000", "-3.65"]
        assert lines[2].split()[:4] == ["Pe_MC(awgn)", "3", "0", "0.001"]
        assert "not checkable" in lines[2]
        assert csvdrift.pe_mc_z(old, old) == ""
        paths = [tmp_path / "old.csv", tmp_path / "new.csv"]
        for path, content in zip(paths, (old, new)):
            path.write_text(content, encoding="utf-8")
        assert csvdrift.main([str(path) for path in paths]) == 1
        assert "\n".join(lines[1:]) in capsys.readouterr().out

    def test_mismatch_names_the_numpy_versions(self):
        text = stored("figure5").rstrip("\n")
        expected = f"NumPy {np.__version__} here, digests taken with {DIGEST_NUMPY}"
        with pytest.raises(AssertionError, match=expected):
            assert_digest("figure5", text, DIGESTS["figure5"])

    def test_nan_pattern_change_fails(self):
        old = stored("schemes-crossover")
        lines = old.splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[4] = "nan"
        new = "".join(lines[:2] + [",".join(fields)] + lines[3:])
        _, problems = csvdrift.drift(old, new)
        assert len(problems) == 1 and "'nan'" in problems[0]


def assert_digest(name, text, digest):
    # bit-exact; on a mismatch the message shows which series moved and how
    actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert actual == digest, (
        f"{name} CSV moved (NumPy {np.__version__} here, digests taken with {DIGEST_NUMPY}):\n"
        + csvdrift.report(*csvdrift.drift(stored(name), text))
        + "\n"
        + csvdrift.pe_mc_z(stored(name), text)
    )


# the stored Monte Carlo outputs: (trials, channel_draws) of each run
MONTECARLO_SIZING = {"figure2": GOLDEN[2][0]} | {
    name: raw for name, (experiment, raw, _) in EXPERIMENTS.items() if experiment == "montecarlo"
}

# the bound of bench/workloads.py::check_fig2: |z| above 4 has
# probability 6.3e-5 per point under a correct estimator, so about 0.6 %
# over the 96 stored points
MC_Z_LIMIT = 4.0


@pytest.mark.parametrize("name", sorted(MONTECARLO_SIZING))
def test_stored_pe_mc_within_binomial_band(name):
    # each Pe_MC row pools trials x channel_draws hypothesis draws over the
    # channels whose mean conditional error rate is the Pe row at the same x
    sizing = MONTECARLO_SIZING[name]
    n = sizing["trials"] * sizing["channel_draws"]
    series = {}
    for row in csv.DictReader(line for line in stored(name).splitlines() if not line.startswith("#")):
        series.setdefault(row["series"], {})[float(row["x_value"])] = float(row["value"])
    pairs = [
        (label, x, p_mc, series["Pe" + label[len("Pe_MC"):]][x])
        for label, points in series.items()
        if label.startswith("Pe_MC(")
        for x, p_mc in points.items()
    ]
    assert pairs
    outside = []
    for label, x, p_mc, p in pairs:
        sd = math.sqrt(p * (1.0 - p) / n)
        z = abs(p_mc - p) / sd if sd > 0.0 else (0.0 if p_mc == p else math.inf)
        if z > MC_Z_LIMIT:
            outside.append(f"{label} at x={x:g}: z = {z:.2f} (Pe_MC {p_mc}, Pe {p})")
    assert not outside, "\n".join(outside)
