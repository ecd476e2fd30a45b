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


# the files each figure writes: its CSVs and one chart
FIGURE_FILES = {"fig1": 9, "fig2": 7, "fig3a": 4, "fig3b": 7, "fig4a": 4, "fig4b": 7}


def _reproduce_digests(out: Path, *figures: str) -> dict[str, str]:
    """sha256 of each file that `reproduce [figures] --out out` writes."""
    assert main(["reproduce", *figures, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_reproduce_matches_golden_digests(tmp_path):
    expected = dict(
        reversed(line.split()) for line in DIGESTS.read_text().splitlines()
    )
    got = _reproduce_digests(tmp_path / "all")
    assert len(expected) == 38
    assert sorted(got) == sorted(expected)
    differing = sorted(name for name in expected if got[name] != expected[name])
    assert not differing, f"figure files differ from the snapshot: {differing}"
    # one figure per call, as the benchmark's reproduce_all times it, writes
    # exactly that figure's entries
    for fig, count in FIGURE_FILES.items():
        own = {
            name: digest
            for name, digest in expected.items()
            if name.partition("_")[0].partition(".")[0] == fig
        }
        assert len(own) == count, fig
        assert _reproduce_digests(tmp_path / fig, fig) == own, fig


CLI_DIGESTS = {
    "point --set distance_km=20": {
        "stdout": "da33622fdd5373ed9b4b01f5b7c17ef56a2e02d26aed7cbb3dd60453836f1928",
    },
    "sweep --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "7865fad58375c049556860922e98f8384b1a058865e6097e5f17d361747a36f8",
        "sweep.svg": "603a65dcd2e2ea6161b648a6ce2f5997cce767f666961970e9dbf00338d9a0d8",
    },
    "sweep --set rate_units=per_second --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "18613dd575ef6af806020715eef71c3772fab164a819569feb1d4f6acb33edab",
        "sweep.svg": "b434d355221633d40b898d7f5a35264e381df45c004180b7df45b2fd599b817e",
    },
    # no dark counts at 100 dB/km: key rates span 2e-323 to 0.314, so the log
    # axis clips the tail 12 decades below the top, and the CSV holds
    # subnormal cells
    "sweep --set dark_rate_hz=0 --set alpha_db_per_km=100 --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "d3b38c38e19a99cd710bded53b9489382b5f504e970ffbc2695ad07da500c7b5",
        "sweep.svg": "b67d0faf60794e54fcd73e1687d9ab6275b9601944b8247b5480efb5ced11002",
    },
    # dead at the source: the chart has no positive data to draw
    "sweep --set jitter_ps=200 --out sweep.csv --svg sweep.svg": {
        "sweep.csv": "57cdc31f3d3fb6ea582cdfc16548445034ec876ba669917c2c711749fb16d4e4",
        "sweep.svg": "8be09ca651e4cfa7a858fa4ecefc5af5ce64bdf3e77488e38c9ed1e1a967d0e4",
    },
    "optimize-chirp --out scan.csv --svg scan.svg": {
        "scan.csv": "a57c688f33d92665c94acac8e44a15b32fe855a531d7f77a3d53baf21296c5ff",
        "scan.svg": "93559878b50b3a103f641f37a68341c172c3cc337a9de0f357cf61d1d24f950c",
    },
    # every secure range is 0: the linear y axis widens a flat range
    "optimize-chirp --set jitter_ps=200 --out scan.csv --svg scan.svg": {
        "scan.csv": "a67e5fab5c55a0ff87ffc4294fa2aaba934838c3804e7c0fd54998545a2449a9",
        "scan.svg": "165d8ab05ff7b3e3a87ae7ccc9cb5cde6794de5bf0b3b96e5f32db1d1ac27da8",
    },
    # one chirp: the x axis widens a range of zero width
    "optimize-chirp --set c_min=0 --set c_max=0 --out scan.csv --svg scan.svg": {
        "scan.csv": "e4cadbeea0818c2955a8712e4aba027203621715b24038390377e55fc3630e74",
        "scan.svg": "34ec359eaaa5f39528bf6604d40bf04284dbdf9d15134f1098c4421b6a7f78dc",
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
