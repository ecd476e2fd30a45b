"""Byte-identical snapshot of every file `reproduce` writes with defaults.

`golden_figures.sha256` holds the sha256 of the 38 CSV and SVG files that
one `dispersive-qkd reproduce --out DIR` call, all six figures, writes with
the default config.
A pure refactor must leave every one of them unchanged; a change that moves
the numerics on purpose regenerates the digests, from the figure directory,
with `sha256sum * > tests/golden_figures.sha256`, and says so.

`CLI_DIGESTS` pins the other subcommands the same way: the `point` table,
the `sweep` CSV and chart (per window and per second) and the
`optimize-chirp` scan CSV and chart, with the default config apart from the
keys each command sets (those pin the charts' degenerate ranges). Regenerate
them by running the commands below and `sha256sum` on what they write.
"""

import hashlib
from pathlib import Path

import pytest

from dispersive_qkd.cli import main

DIGESTS = Path(__file__).with_name("golden_figures.sha256")


def test_reproduce_matches_golden_digests(tmp_path):
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
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


CLI_DIGESTS = {
    "point --set distance_km=20": {
        "stdout": "da33622fdd5373ed9b4b01f5b7c17ef56a2e02d26aed7cbb3dd60453836f1928",
    },
    "sweep --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "d908750ff3b8e01f15f97ba73c554ef1e5a999ef85f3dafb638e26cbef531fb2",
        "sweep.svg": "ec7eae68cc02a9acb0f2dd19f11bf349a6c660f9e5b8c38cae2044c780f762ff",
    },
    "sweep --set rate_units=per_second --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "a2ac01a14beffb6a46184806c92356df1c9100da11e9a53602925f5cc1702945",
        "sweep.svg": "34bd5d1653172db29ee89c0a1e3a94d28f856bf917aff071237d10eef3350318",
    },
    # dead at the source: the chart has no positive data to draw
    "sweep --set jitter_ps=200 --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "57cdc31f3d3fb6ea582cdfc16548445034ec876ba669917c2c711749fb16d4e4",
        "sweep.svg": "8be09ca651e4cfa7a858fa4ecefc5af5ce64bdf3e77488e38c9ed1e1a967d0e4",
    },
    "optimize-chirp --out scan.csv --svg scan.svg": {
        "scan.csv": "a0347555b4d93845725a3a8546794433ae0a5ce1d8c5c30177f776ef158c8e1f",
        "scan.svg": "02813027606efe6a5d5f8ce6e0d02825307aeab8f3fd22dd0c08c57491159843",
    },
    # every secure range is 0: the linear y axis widens a flat range
    "optimize-chirp --set jitter_ps=200 --out scan.csv --svg scan.svg": {
        "scan.csv": "a67e5fab5c55a0ff87ffc4294fa2aaba934838c3804e7c0fd54998545a2449a9",
        "scan.svg": "165d8ab05ff7b3e3a87ae7ccc9cb5cde6794de5bf0b3b96e5f32db1d1ac27da8",
    },
    # one chirp: the x axis widens a range of zero width
    "optimize-chirp --set c_min=0 --set c_max=0 --out scan.csv --svg scan.svg": {
        "scan.csv": "42bf4bcfe2c9fb47d42a0d6cec4a29649ab0dc2de001f118e18563b09451e28b",
        "scan.svg": "e91ddc18495f7367ecf16d49a6959f29e4059f5f3176f8c468671051f08ff648",
    },
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_outputs_match_golden_digests(command, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    got = {"stdout": capsysbinary.readouterr().out}
    got.update((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    digests = {name: hashlib.sha256(got[name]).hexdigest() for name in CLI_DIGESTS[command]}
    assert digests == CLI_DIGESTS[command]
