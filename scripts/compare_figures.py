#!/usr/bin/env python3
"""Compare two figure output directories file by file.

    python scripts/compare_figures.py DIR_A DIR_B

Lists the files that are byte-identical, the files present on one side
only, and the files that differ. For CSVs with the same header and row
count it gives, per column over all such files, the worst absolute and
relative deviation and the file where each occurs. Relative deviation is
|a - b| / max(|a|, |b|). For any other differing file, such as an SVG, it
names the first differing line and column, and both sides of that line cut
to 120 characters from just before the column.

Exit status: 0 when every file is on both sides and each differing file is
a CSV of the same shape with no changed non-numeric cell; 1 otherwise.
"""

import argparse
import csv
import sys
from pathlib import Path

# characters of each side shown for the first differing line of a non-CSV
_CUT = 120


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _deviation(a: str, b: str) -> tuple[float, float] | None:
    """(absolute, relative) deviation of two numeric cells; None if either
    is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    diff = abs(x - y)
    scale = max(abs(x), abs(y))
    return diff, (diff / scale if scale else 0.0)


def _first_difference(a: bytes, b: bytes) -> str:
    """'line N, column K: A | B' for the first line where a and b differ,
    each side cut to _CUT characters from a little before column K, so a
    change deep in a long polyline shows; a side that has run out of lines
    reads <end of file>."""
    lines_a = a.decode(errors="replace").splitlines()
    lines_b = b.decode(errors="replace").splitlines()
    for n in range(max(len(lines_a), len(lines_b))):
        la = lines_a[n] if n < len(lines_a) else "<end of file>"
        lb = lines_b[n] if n < len(lines_b) else "<end of file>"
        if la != lb:
            k = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
            start = max(0, k - _CUT // 4)
            return (
                f"line {n + 1}, column {k + 1}: "
                f"{la[start:start + _CUT]!r} | {lb[start:start + _CUT]!r}"
            )
    return "line endings differ"


def compare(dir_a: Path, dir_b: Path) -> int:
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    identical, differing, problems = [], [], []
    # column -> [worst_abs, file, worst_rel, file]
    worst: dict[str, list] = {}
    for name in sorted(names_a ^ names_b):
        problems.append(f"only in {dir_a if name in names_a else dir_b}: {name}")
    for name in sorted(names_a & names_b):
        pa, pb = dir_a / name, dir_b / name
        bytes_a, bytes_b = pa.read_bytes(), pb.read_bytes()
        if bytes_a == bytes_b:
            identical.append(name)
            continue
        differing.append(name)
        if pa.suffix != ".csv":
            problems.append(f"{name}: not a CSV, {_first_difference(bytes_a, bytes_b)}")
            continue
        rows_a, rows_b = _csv_rows(pa), _csv_rows(pb)
        if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            problems.append(f"{name}: header or row count differs")
            continue
        header = rows_a[0]
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            if len(row_a) != len(header) or len(row_b) != len(header):
                problems.append(f"{name}: ragged row")
                break
            for col, a, b in zip(header, row_a, row_b):
                if a == b:
                    continue
                dev = _deviation(a, b)
                if dev is None:
                    problems.append(f"{name}: column {col}: {a!r} vs {b!r}")
                    continue
                entry = worst.setdefault(col, [0.0, "", 0.0, ""])
                if dev[0] > entry[0]:
                    entry[0:2] = dev[0], name
                if dev[1] > entry[2]:
                    entry[2:4] = dev[1], name

    print(f"byte-identical: {len(identical)} of {len(names_a | names_b)} files")
    for name in identical:
        print(f"  = {name}")
    print(f"differing: {len(differing)}")
    for name in differing:
        print(f"  ~ {name}")
    if worst:
        print("worst deviation per CSV column:")
        for col, (abs_dev, abs_file, rel_dev, rel_file) in sorted(worst.items()):
            print(f"  {col}: abs {abs_dev:.3g} ({abs_file}), rel {rel_dev:.3g} ({rel_file})")
    for line in problems:
        print(f"! {line}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two figure output directories file by file."
    )
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args()
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"not a directory: {d}")
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
