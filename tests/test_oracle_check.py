"""`tests/oracle_check.py`, the CI's check of recorded series and arrival
tables against the independent oracle: it passes a series and an arrival
table the CLI wrote, and fails a series whose value moved by 1e-8 or that
lacks a checked row, and a table with one arrival moved by 1e-8."""

import pytest

from compare_series import rows
from qcausal.cli import main as cli_main
from oracle_check import main

ARGV = [
    "timeseries", "--model", "tfim", "--n", "4", "--h", "1", "--initial", "ground",
    "--protocol", "quench-at-zero", "--site-a", "0", "--site-b", "3",
    "--dt", "0.5", "--t-max", "5",
]


ARRIVAL_ARGV = [
    "arrival-scan", "--model", "xx", "--n", "5", "--h", "0.3",
    "--dt", "0.05", "--t-max", "3", "--crossing", "interp",
]


def written_series(tmp_path):
    path = tmp_path / "series.csv"
    assert cli_main([*ARGV, "--out", str(path)]) == 0
    return path


def written_arrivals(tmp_path, *options):
    path = tmp_path / "arrival.csv"
    argv = [*ARRIVAL_ARGV, *options, "--out", str(path), "--json-out", str(tmp_path / "fit.json")]
    assert cli_main(argv) == 0
    return path


def test_the_scan_series_passes(tmp_path):
    assert main([written_series(tmp_path)]) == 0


def test_a_value_moved_by_1e_8_fails(tmp_path):
    path = written_series(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    (row,) = [i for i, line in enumerate(lines) if line.startswith("2.5,")]
    value = float(lines[row].split(",")[1])
    lines[row] = f"2.5,{value + 1e-8!r}\n"
    path.write_text("".join(lines))
    assert main([path]) != 0


def test_a_missing_row_fails(tmp_path):
    path = written_series(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("1,")))
    assert "no rows at t = [1.0]" in main([path])


def test_no_file_is_a_usage_error():
    assert main([]) != 0


@pytest.mark.parametrize("crossing", [[], ["--crossing", "first-sample"]])
def test_the_cli_arrival_table_passes(tmp_path, crossing):
    path = written_arrivals(tmp_path, *crossing)
    assert [d for d, t in rows(path) if t is not None] == [2, 3, 4]
    assert main([path]) == 0


@pytest.mark.parametrize("crossing", [[], ["--crossing", "first-sample"]])
def test_an_arrival_moved_by_1e_8_fails(tmp_path, crossing):
    path = written_arrivals(tmp_path, *crossing)
    lines = path.read_text().splitlines(keepends=True)
    (row,) = [i for i, line in enumerate(lines) if line.startswith("3,")]
    arrival = float(lines[row].split(",")[1])
    lines[row] = f"3,{arrival + 1e-8!r}\n"
    path.write_text("".join(lines))
    assert "d = 3" in main([path])
