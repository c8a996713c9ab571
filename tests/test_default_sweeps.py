"""The 13 default sweep reports stay byte-identical.

scripts/run_bound_sweeps.py runs every check over its default grid and writes
each report with harness.emit, whose CSV bytes are harness.render_csv of the
rows.  This test loads RATIO_GRIDS and HARD_GRIDS from the script's file, runs
each grid at seed 1 in-process, and pins the sha256 of those bytes.  A change
that moves any value, row order or formatting in a default report fails here;
one that means to must update the digest and say why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from modroots.harness import SweepConfig, render_csv, run_sweep

SWEEPS = Path(__file__).resolve().parents[1] / "scripts" / "run_bound_sweeps.py"

DIGESTS = {
    "t22-bound": "1940620706076f9761aa7411378f018a46ae5c821c57b1dd2b720a41d380ed39",
    "t42-bound": "3c08c203cb0a1e32ca9c6ca180230065aa0fbc31ec35136f6c6d4e78867fdd23",
    "e2k-average": "a184d4b5ca302ed7c9008f8fec9d78b9b7cc573c77dd2c642e295b367c221cb0",
    "e2k-set-doubling": "e68dad3a2bb16765b909e6bd29acd4b9c503f0f938a8e5466209df292a6c0a64",
    "w-ratio": "3b1ec66b6f0399dd59fc8150ad73d45b2d1a13f052ac177b88c826bd404ec0b5",
    "v-ratio": "43d84baaf74acf68326e20676289686b69845a04358fdc6f16bc2440ba7707d7",
    "salie-moment": "e6b81e1673bc43afea8ee002ce744cc273730ef10caa3616aa7e7a6dc5093033",
    "gamma-ratio": "10879143178451dd6382b8d5f04b2ed458f6c4081dc6ed94b675f78365052d5e",
    "tk-growth": "bb85a2cd4351d3456f945934e6fd2a7e67f7b8b643c7b74d346701d4c511ccb3",
    "gowers-lemmas": "6fb93efe46b03b1cc3d975987eb446b38752eca7a9720dd2010804389f6e26a6",
    "lattice-geometry": "092d5e0d366e50dabddf209f03de8557eb89f615f3d50681d9303328815e6c0c",
    "trichotomy": "35474309bc4562b9f7402b78afcf8e866dda3f4428876c42c5e26f64b01b32b1",
    "prodpoly-vanishing": "15d70e682e0597f3bc0a87004160625226ebb6feed70fd1c76fbe72dd9823f07",
}


def load_sweeps():
    spec = importlib.util.spec_from_file_location("run_bound_sweeps", SWEEPS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load_sweeps()
GRIDS = SCRIPT.RATIO_GRIDS + SCRIPT.HARD_GRIDS


def test_every_default_grid_is_pinned():
    assert [check for check, _ in GRIDS] == list(DIGESTS)


@pytest.mark.parametrize("check, grid", GRIDS, ids=[check for check, _ in GRIDS])
def test_default_report_is_byte_identical(check, grid):
    rows = run_sweep(SweepConfig(check, grid, seed=1)).rows
    assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == DIGESTS[check]
