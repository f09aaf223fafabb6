"""Compare a numeric CSV (a series or an arrival table) with a reference, value by value.

Usage: python tests/compare_series.py GOT WANT

The data rows are the lines that start with a digit. An empty value is an
arrival time that never crossed the threshold (the CLI writes such a row as
`2,`); it matches only another empty value. The script exits 0 when both
files have the same number of rows, each row has as many columns as its
reference row, empty values sit in the same places, and every other value
lies within 1e-9 of the reference (a NaN on either side never does);
otherwise it prints what differs and exits 1.
"""

import math
import sys


def rows(path):
    with open(path) as lines:
        return [
            [float(v) if v.strip() else None for v in line.split(",")]
            for line in lines
            if line[:1].isdigit()
        ]


def main(got_path, want_path):
    got, want = rows(got_path), rows(want_path)
    if [len(g) for g in got] != [len(w) for w in want]:
        return f"{len(got)} rows, {len(want)} expected, or a row has the wrong number of columns"
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if [a is None for a in g] != [b is None for b in w]:
            g, w = (",".join("" if v is None else f"{v:.12g}" for v in row) for row in (g, w))
            return f"data row {i} is '{g}', expected '{w}': an empty value never crossed"
    deltas = [abs(a - b) for g, w in zip(got, want) for a, b in zip(g, w) if a is not None]
    d = math.nan if any(map(math.isnan, deltas)) else max(deltas, default=math.inf)
    if d <= 1e-9:
        return 0
    return f"max |delta| {d:.3g} over {len(got)} rows (limit 1e-9)"


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
