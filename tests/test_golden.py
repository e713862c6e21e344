"""Golden digests of the figure presets' CSV output.

Each preset runs at seed 7 with small sizing (figure2: trials 1000 and
channel_draws 1; figure8: channel_draws 2; figure9: channel_draws 1;
figures 3-7 at their defaults), and the sha256 of `rows_to_csv` must
match the pinned value byte for byte.  A change that moves any figure
value, even in the last bit, fails here; a deliberate change updates the
digest and says which values moved and why.

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
