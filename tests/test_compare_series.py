"""`tests/compare_series.py`, the CI's check of a series CSV against its
reference: it passes only a series whose rows, columns and values all match."""

import pytest

from compare_series import main

REFERENCE = "# command: timeseries\nt,qcmi_bits\n0,0.5\n0.1,0.25\n0.2,0.125\n"

CASES = {
    "matching": (REFERENCE, True),
    "within 1e-9": (REFERENCE.replace("0.25", "0.2500000000001"), True),
    "off by 1e-6": (REFERENCE.replace("0.25", "0.250001"), False),
    "nan in the first row": (REFERENCE.replace("0,0.5", "0,nan"), False),
    "nan in a later row": (REFERENCE.replace("0.1,0.25", "0.1,nan"), False),
    "row without its value": (REFERENCE.replace("0.1,0.25", "0.1"), False),
    "row with an extra column": (REFERENCE.replace("0.1,0.25", "0.1,0.25,0.25"), False),
    "missing row": (REFERENCE.replace("0.2,0.125\n", ""), False),
    "extra row": (REFERENCE + "0.3,0.0625\n", False),
}


@pytest.mark.parametrize("got, passes", CASES.values(), ids=CASES.keys())
def test_only_a_matching_series_passes(tmp_path, got, passes):
    got_path, want_path = tmp_path / "got.csv", tmp_path / "want.csv"
    got_path.write_text(got)
    want_path.write_text(REFERENCE)
    assert (main(got_path, want_path) == 0) is passes


def test_an_empty_series_fails(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# command: timeseries\nt,qcmi_bits\n")
    assert main(empty, empty) != 0


ARRIVALS = "# command: arrival-scan\nd,t_arr\n2,0.31\n3,0.64\n4,\n"


@pytest.mark.parametrize(
    "got, passes",
    [
        (ARRIVALS, True),
        (ARRIVALS.replace("0.64", "0.6400000000001"), True),
        (ARRIVALS.replace("3,0.64", "3,"), False),
        (ARRIVALS.replace("4,\n", "4,1.02\n"), False),
    ],
    ids=["never crossed on both sides", "within 1e-9", "crossed only in the reference",
         "crossed only in the run"],
)
def test_a_row_that_never_crossed_matches_only_its_like(tmp_path, got, passes):
    got_path, want_path = tmp_path / "got.csv", tmp_path / "want.csv"
    got_path.write_text(got)
    want_path.write_text(ARRIVALS)
    message = main(got_path, want_path)
    assert (message == 0) is passes
    if not passes:
        row = 2 if "3,\n" in got else 3
        assert message.startswith(f"data row {row} is ")
