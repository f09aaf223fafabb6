"""Recompute rows of a recorded `timeseries` CSV with the independent oracle.

Usage: python tests/oracle_check.py SERIES.csv [SERIES.csv ...]

Needs `src` on PYTHONPATH. Each file's `# config:` line gives the chain, the
initial state (`ground` or `basis:<bits>`), the protocol and the two sites,
with C the sites between them. The rows at t = 0, 1, 2.5 and 5 are recomputed
by `oracle_series` in `tests/helpers.py`, which shares no code with the scan
kernel: Pauli terms one by one, a Lanczos ground state (which must be
non-degenerate), Taylor steps from one time to the next, a zeroed half for the
measurement and SVD entropies. The script exits 0 when every file holds those
rows and each lies within 1e-9 of the oracle; otherwise it prints what differs
and exits 1.
"""

import sys

import numpy as np

from compare_series import rows as series_rows
from helpers import lanczos_ground_state, oracle_series

TIMES = (0.0, 1.0, 2.5, 5.0)
LIMIT = 1e-9


def read_config(path):
    """The entries of the `# config:` line of `path` as a dict."""
    with open(path) as lines:
        for line in lines:
            if line.startswith("# config:"):
                return dict(item.split("=", 1) for item in line.split()[2:])
    return {}


def check(path):
    """None when the rows at TIMES match the oracle within LIMIT, else what differs."""
    config, rows = read_config(path), dict(series_rows(path))
    if not config:
        return f"{path}: no '# config:' line"
    missing = [t for t in TIMES if t not in rows]
    if missing:
        return f"{path}: no rows at t = {missing}"
    kind, n, a, b = config["model"], int(config["n"]), int(config["site-a"]), int(config["site-b"])
    coupling, field = float(config["j"]), float(config["h"])
    if config["initial"] == "ground":
        _, initial = lanczos_ground_state(kind, n, coupling, field)
    else:
        initial = [int(bit) for bit in config["initial"].removeprefix("basis:")]
    receivers = {a: [(b, tuple(range(min(a, b) + 1, max(a, b))))]}
    series = oracle_series(kind, n, coupling, field, initial, TIMES, receivers)
    expected = series[config["protocol"], a][0]
    recorded = [rows[t] for t in TIMES]
    delta = np.abs(expected - recorded)
    print(f"{path}: max |delta| {np.max(delta):.3g} at t = {list(TIMES)} (limit {LIMIT})")
    if not np.all(delta <= LIMIT):  # a NaN fails too
        return f"{path}: oracle {expected.tolist()}, recorded {recorded}"
    return None


def main(paths):
    if not paths:
        return __doc__
    return "\n".join(message for message in map(check, paths) if message) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
