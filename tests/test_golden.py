"""Golden digests of the CSV output of the figure presets and of the
non-figure experiments.

Each preset runs at seed 7 with small sizing (figure2: trials 1000 and
channel_draws 1; figure8: channel_draws 2; figure9: channel_draws 1;
figures 3-7 at their defaults), and the sha256 of `rows_to_csv` must
match the pinned value byte for byte.  A change that moves any figure
value, even in the last bit, fails here; a deliberate change updates the
digest and says which values moved and why.

The non-figure configs (`EXPERIMENTS`, also at seed 7) reach every path
of the scheme runners and the shared gamma_s rule: `schemes` with a
calibrated crossover (Ricean K=1, N=5, L=40, crossover near gamma_s =
6.83), without one where method1 dominates (Rayleigh, N=2) and where
method2 dominates (N=50, L=30); `sdr-compare` at a single gamma_s (the
hybrid falls back to the larger mean) and over a gamma_s sweep;
`exponent-sweep` over gamma_s with `n_list` and over K, N and gamma_c;
`montecarlo` over gamma_s, over gamma_c with AR(1) sensing noise and
over N on AWGN; and `asymptotic` on Rayleigh channels, L=20, beta in
{0.5, 1, 2}.

The digests were taken with NumPy 2.4.6 and SciPy 1.17.1 on x86-64.  Other
NumPy/SciPy/BLAS builds may round differently in the last bit.
"""

import hashlib

import pytest

from macdet import cli

SEED = 7

GOLDEN = {
    2: ({"trials": 1000, "channel_draws": 1},
        "a1202ca518d452277a49562fa6b71df357206b2bf93fc24e5f97e328ce14f24e"),
    3: ({}, "6faedbdcb513029059feb0947358b50514b6cd7e3187b39b08a02dbeb4260da4"),
    4: ({}, "49baefd47cc5d99adc843f8c132122bb4d1ad1c67e1de855d871df5fe8d287a1"),
    5: ({}, "767221be814242cd397f011e17f983f73a35fd3a8364f6a5cdfc014b72d4bc4b"),
    6: ({}, "bd8019e0b607e5bafc84e7247da314f0fbe59e70ba5484c5e923b298f438f7c0"),
    7: ({}, "8f303d1bcd3b2274eb405e6d62ae6465c81113887c2e72630cb0624dfb97b6e5"),
    8: ({"channel_draws": 2},
        "3809f2a54657fb96f59bbddef37f1ddc6c33e605f5126dddbec8a12c0bcfd86a"),
    9: ({"channel_draws": 1},
        "dbdd53eb27016f86bf0e82a154afa08c2116591e85c61d64ed22c4e5256006e8"),
}


@pytest.mark.parametrize("figure_id", sorted(GOLDEN))
def test_figure_csv_digest(figure_id):
    sizing, digest = GOLDEN[figure_id]
    cfg = cli.parse_config({"figure_id": figure_id, "seed": SEED, **sizing}, "figure")
    rows, code = cli.run(cfg)
    assert code == 0
    text = cli.rows_to_csv(rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


RICEAN = {"channel": "ricean", "ricean_k": 1.0}

EXPERIMENTS = {
    "schemes-crossover": (
        "schemes",
        {**RICEAN, "num_antennas": 5, "num_sensors": 40, "gamma_c": 10.0, "channel_draws": 3,
         "sweep": {"variable": "gamma_s", "grid": [0.3, 1.0, 3.0, 10.0, 30.0]}},
        "21f2a3fd736c94f370723c89c1389fc403aeef663aee7180a4ccb9cbaef3c9d6",
    ),
    "schemes-method1-dominant": (
        "schemes",
        {"channel": "rayleigh", "num_antennas": 2, "num_sensors": 40, "channel_draws": 2,
         "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0]}},
        "a03ab1866456a81eb1b60edc867e8b5791b78e037a37f0e3b47665bef53c2440",
    ),
    "schemes-method2-dominant": (
        "schemes",
        {**RICEAN, "num_antennas": 50, "num_sensors": 30, "gamma_c": 10.0, "channel_draws": 2,
         "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0, 8.0]}},
        "8c4c486772c6689dbb58d3ce7e14a6b4312171e9ae7831353275a8292168db9e",
    ),
    "sdr-compare-one-point": (
        "sdr-compare",
        {**RICEAN, "num_antennas": 3, "num_sensors": 8, "gamma_s": 2.0, "gamma_c": 10.0,
         "channel_draws": 2},
        "ec935381016850f1e201ee9248e6ba94bef121d46e995d45a7058bac1d12c895",
    ),
    "sdr-compare-sweep": (
        "sdr-compare",
        {"channel": "rayleigh", "num_antennas": 2, "num_sensors": 8, "gamma_c": 10.0,
         "channel_draws": 2, "sweep": {"variable": "gamma_s", "grid": [0.5, 2.0, 8.0]}},
        "00e43aec070c7e4cbecc4c6d418a326a9968bc4a355384c5c7f27f7d576552cc",
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
        "75ad934ea573fee36167c700ea16643b65bdee491a9f85f14e028b8dc944d069",
    ),
    "montecarlo-gamma_c-ar1": (
        "montecarlo",
        {**RICEAN, "num_antennas": 2, "num_sensors": 6, "noise": "ar1", "noise_corr": 0.5,
         "gamma_s": 2.0, "trials": 1000, "channel_draws": 2,
         "sweep": {"variable": "gamma_c", "grid": [1.0, 4.0]}},
        "53a36edc5424965faf5c9f650c51b22ead9760b335af38676675181533c62093",
    ),
    "montecarlo-N-awgn": (
        "montecarlo",
        {"channel": "awgn", "num_sensors": 5, "gamma_s": 1.0, "trials": 1000, "channel_draws": 1,
         "sweep": {"variable": "N", "grid": [1, 3]}},
        "c15f6c30427ea73c0886194c4dde4d3dad4fb01cb10d080508dd2b3c99ac95a7",
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
    text = cli.rows_to_csv(rows)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
