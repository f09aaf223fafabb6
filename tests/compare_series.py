"""Compare a series CSV with a reference series CSV, value by value.

Usage: python tests/compare_series.py GOT WANT

The data rows are the lines that start with a digit. The script exits 0 when
both files have the same number of rows and every value lies within 1e-9 of
the reference; otherwise it prints the row counts and the largest difference
and exits 1.
"""

import sys


def rows(path):
    with open(path) as lines:
        return [[float(v) for v in line.split(",")] for line in lines if line[:1].isdigit()]


def main(got_path, want_path):
    got, want = rows(got_path), rows(want_path)
    d = max((abs(a - b) for g, w in zip(got, want) for a, b in zip(g, w)), default=float("inf"))
    if len(got) == len(want) and d <= 1e-9:
        return 0
    return f"{len(got)} rows, {len(want)} expected, max |delta| {d:.3g} (limit 1e-9)"


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
