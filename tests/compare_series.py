"""Compare a numeric CSV (a series or an arrival table) with a reference, value by value.

Usage: python tests/compare_series.py GOT WANT

The data rows are the lines that start with a digit. The script exits 0 when
both files have the same number of rows, each row has as many columns as its
reference row, and every value lies within 1e-9 of the reference (a NaN on
either side never does); otherwise it prints what differs and exits 1.
"""

import math
import sys


def rows(path):
    with open(path) as lines:
        return [[float(v) for v in line.split(",")] for line in lines if line[:1].isdigit()]


def main(got_path, want_path):
    got, want = rows(got_path), rows(want_path)
    if [len(g) for g in got] != [len(w) for w in want]:
        return f"{len(got)} rows, {len(want)} expected, or a row has the wrong number of columns"
    deltas = [abs(a - b) for g, w in zip(got, want) for a, b in zip(g, w)]
    d = math.nan if any(map(math.isnan, deltas)) else max(deltas, default=math.inf)
    if d <= 1e-9:
        return 0
    return f"max |delta| {d:.3g} over {len(got)} rows (limit 1e-9)"


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
