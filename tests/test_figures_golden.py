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
        "sweep.csv": "45838f6b0cc2f078c7b02883e2b57ab8befcc3d519e09b260048134b79154c8d",
        "sweep.svg": "e973d4499bc347a7f17bbf5ece6416ebcd6959d3767deb928c3b7dae25643f91",
    },
    "sweep --set rate_units=per_second --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "77c8dc658679482d731347ebcd4da1d531b3735e7bdee031ebe70ec183122cb9",
        "sweep.svg": "df1197870243a20fa5f7b0d7306a5f272bfc1ec12edd7eada87adc1363df6330",
    },
    # no dark counts at 100 dB/km: key rates span 2e-323 to 0.314, so the log
    # axis clips the tail 12 decades below the top, and the CSV holds
    # subnormal cells
    "sweep --set dark_rate_hz=0 --set alpha_db_per_km=100 --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "011ac7fb96b3f84f2d9ad4554ef3e5fcd8f33c6a24906e63d7117ee4150d3c5f",
        "sweep.svg": "fa54c79d18268d58b95af0d06a5afc25e890b66980d35a223188a6d5099ebe5a",
    },
    # dead at the source: the chart has no positive data to draw
    "sweep --set jitter_ps=200 --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "57cdc31f3d3fb6ea582cdfc16548445034ec876ba669917c2c711749fb16d4e4",
        "sweep.svg": "8be09ca651e4cfa7a858fa4ecefc5af5ce64bdf3e77488e38c9ed1e1a967d0e4",
    },
    "optimize-chirp --out scan.csv --svg scan.svg": {
        "scan.csv": "93f9e5e48931b767196c76048ff5ba02bbb96b67bab06cf74aa1dee407f80479",
        "scan.svg": "d74628960fb4d1a65995fd2ed41d325b752c4188a4deb46ed004e3e04db6508c",
    },
    # every secure range is 0: the linear y axis widens a flat range
    "optimize-chirp --set jitter_ps=200 --out scan.csv --svg scan.svg": {
        "scan.csv": "a67e5fab5c55a0ff87ffc4294fa2aaba934838c3804e7c0fd54998545a2449a9",
        "scan.svg": "165d8ab05ff7b3e3a87ae7ccc9cb5cde6794de5bf0b3b96e5f32db1d1ac27da8",
    },
    # one chirp: the x axis widens a range of zero width
    "optimize-chirp --set c_min=0 --set c_max=0 --out scan.csv --svg scan.svg": {
        "scan.csv": "2df2c1dd535d7cf6f04d505f4cfe572ee36520ab5035261588dad957278262b9",
        "scan.svg": "48c0f9bea3427d6712d95c373220314eeb84e2c4e0db425f879912069bebc853",
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
