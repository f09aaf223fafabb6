"""Recompute a recorded `timeseries` or `arrival-scan` CSV with the independent oracle.

Usage: python tests/oracle_check.py CSV [CSV ...]

Needs `src` on PYTHONPATH. Each file's `# command:` line tells the two kinds
apart, and its `# config:` line gives the chain, the initial state (`ground`
or `basis:<bits>`) and the protocol. The oracle is `oracle_series` in
`tests/helpers.py`, which shares no code with the scan kernel: Pauli terms one
by one, a Lanczos ground state (which must be non-degenerate), Taylor steps
from one time to the next, a zeroed half for the measurement and SVD
entropies.

A series names its two sites, with C the sites between them; its rows at
t = 0, 1, 2.5 and 5 must each lie within 1e-9 of the oracle.

An arrival table sends from site 0, with C = sites 1..d-1 for the receiver at
distance d. Each recorded arrival t_arr is bracketed by two points of the
config's grid: t_{i-1} < t_arr <= t_i under `interp`, and t_arr = t_i (within
1e-9, as the CSV holds 12 significant digits) under `first-sample`. The
oracle, at those two points only, must cross the threshold between them, and
its crossing (interpolated under `interp`, t_i under `first-sample`) must lie
within 1e-9 of t_arr. Only the two points are recomputed, so this does not
check that no earlier grid point crossed, and rows that never crossed (an
empty t_arr) are not checked: either would need the whole grid.

The script exits 0 when every file passes; otherwise it prints what differs
and exits 1.
"""

import sys

import numpy as np

from compare_series import rows as csv_rows
from helpers import lanczos_ground_state, oracle_series
from qcausal import TimeGrid

TIMES = (0.0, 1.0, 2.5, 5.0)
LIMIT = 1e-9


def read_header(path):
    """The command of the `# command:` line of `path` and the entries of its
    `# config:` line as a dict."""
    command, config = None, {}
    with open(path) as lines:
        for line in lines:
            if line.startswith("# command:"):
                command = line.split()[2]
            elif line.startswith("# config:"):
                config = dict(item.split("=", 1) for item in line.split()[2:])
    return command, config


def oracle(config, sender, receivers, times):
    """The oracle's (receivers, times) series of `sender` against each
    (B site, C sites) receiver under the config's chain, start and protocol."""
    kind, n = config["model"], int(config["n"])
    coupling, field = float(config["j"]), float(config["h"])
    if config["initial"] == "ground":
        _, initial = lanczos_ground_state(kind, n, coupling, field)
    else:
        initial = [int(bit) for bit in config["initial"].removeprefix("basis:")]
    series = oracle_series(kind, n, coupling, field, initial, times, {sender: receivers})
    return series[config["protocol"], sender]


def check_series(path, config):
    """None when the rows at TIMES match the oracle within LIMIT, else what differs."""
    rows = dict(csv_rows(path))
    missing = [t for t in TIMES if t not in rows]
    if missing:
        return f"{path}: no rows at t = {missing}"
    a, b = int(config["site-a"]), int(config["site-b"])
    (expected,) = oracle(config, a, [(b, tuple(range(min(a, b) + 1, max(a, b))))], TIMES)
    recorded = [rows[t] for t in TIMES]
    delta = np.abs(expected - recorded)
    print(f"{path}: max |delta| {np.max(delta):.3g} at t = {list(TIMES)} (limit {LIMIT})")
    if not np.all(delta <= LIMIT):  # a NaN fails too
        return f"{path}: oracle {expected.tolist()}, recorded {recorded}"
    return None


def check_arrivals(path, config):
    """None when the oracle crosses the threshold at every recorded arrival,
    within LIMIT, else what differs."""
    arrivals = [(int(d), t) for d, t in csv_rows(path) if t is not None]
    if not arrivals:
        return f"{path}: no arrival to check"
    grid = TimeGrid(float(config["t-max"]), float(config["dt"])).times
    threshold, interp = float(config["threshold"]), config["crossing"] == "interp"
    # The grid index i of each arrival's bracket (t_{i-1}, t_i].
    if interp:
        index = np.searchsorted(grid, [t for _, t in arrivals])
    else:
        index = np.array([np.argmin(np.abs(grid - t)) for _, t in arrivals])
    if np.any(index == grid.size):
        return f"{path}: an arrival lies after the last grid time {grid[-1]}"
    points = np.unique(np.concatenate([index - 1, index]).clip(0))
    column = dict(zip(points, range(points.size)))
    receivers = [(d, tuple(range(1, d))) for d, _ in arrivals]
    values = oracle(config, 0, receivers, grid[points])
    problems, deltas = [], []
    for (d, t), i, row in zip(arrivals, index, values):
        t0, t1 = float(grid[max(i - 1, 0)]), float(grid[i])
        after = float(row[column[i]])
        before = float(row[column[i - 1]]) if i else -np.inf
        if not before < threshold <= after:  # a NaN fails too
            problems.append(
                f"d = {d}: the oracle reads {before!r} at t = {t0!r} and {after!r} at "
                f"t = {t1!r}, which does not cross {threshold} around t_arr = {t!r}"
            )
            continue
        found = t0 + (threshold - before) * (t1 - t0) / (after - before) if interp and i else t1
        deltas.append(abs(found - t))
        if not deltas[-1] <= LIMIT:
            problems.append(f"d = {d}: the oracle crosses at {found!r}, recorded {t!r}")
    print(
        f"{path}: {len(arrivals)} arrivals, max |t_oracle - t_arr| "
        f"{max(deltas, default=np.nan):.3g} (limit {LIMIT})"
    )
    return "\n".join(f"{path}: {problem}" for problem in problems) or None


def check(path):
    """None when `path` matches the oracle, else what differs."""
    command, config = read_header(path)
    if not config:
        return f"{path}: no '# config:' line"
    if command == "arrival-scan":
        return check_arrivals(path, config)
    if command == "timeseries":
        return check_series(path, config)
    return f"{path}: command {command!r} is neither 'timeseries' nor 'arrival-scan'"


def main(paths):
    if not paths:
        return __doc__
    return "\n".join(message for message in map(check, paths) if message) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
