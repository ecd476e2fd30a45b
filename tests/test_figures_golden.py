"""Byte-identical snapshot of every file `reproduce` writes with defaults.

`golden_figures.sha256` holds the sha256 of the 38 CSV and SVG files that
`dispersive-qkd reproduce fig1 ... fig4b` writes with the default config.
A pure refactor must leave every one of them unchanged; a change that moves
the numerics on purpose regenerates the digests, from the figure directory,
with `sha256sum * > tests/golden_figures.sha256`, and says so.
"""

import hashlib
from pathlib import Path

from dispersive_qkd.analysis import SCENARIOS
from dispersive_qkd.cli import main

DIGESTS = Path(__file__).with_name("golden_figures.sha256")


def test_reproduce_matches_golden_digests(tmp_path):
    for figure in SCENARIOS:
        assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
    expected = dict(
        reversed(line.split()) for line in DIGESTS.read_text().splitlines()
    )
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert len(expected) == 38
    assert sorted(got) == sorted(expected)
    differing = sorted(name for name in expected if got[name] != expected[name])
    assert not differing, f"figure files differ from the snapshot: {differing}"
