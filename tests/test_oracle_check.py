"""`tests/oracle_check.py`, the CI's check of recorded series against the
independent oracle: it passes a series the scan wrote and fails one whose
value moved by 1e-8 or that lacks a checked row."""

from qcausal.cli import main as cli_main
from oracle_check import main

ARGV = [
    "timeseries", "--model", "tfim", "--n", "4", "--h", "1", "--initial", "ground",
    "--protocol", "quench-at-zero", "--site-a", "0", "--site-b", "3",
    "--dt", "0.5", "--t-max", "5",
]


def written_series(tmp_path):
    path = tmp_path / "series.csv"
    assert cli_main([*ARGV, "--out", str(path)]) == 0
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
