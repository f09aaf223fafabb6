import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcausal
from qcausal import causalscan, ccmi, cli
from qcausal.cli import main


def run_cli(*argv):
    return main(list(argv))


def refuse_build(monkeypatch, module):
    monkeypatch.setattr(module, "build_model", lambda model: pytest.fail("built"))


def read_error(path):
    """The OSError that reading `path` raises, as the CLI quotes it."""
    try:
        path.read_text()
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path} is readable")


class TestGhzDemo:
    def test_reports_worked_example(self, capsys):
        # Every line, the per-outcome branches of `apply_instrument` included;
        # CI diffs the installed console script's output against the same file.
        assert run_cli("ghz-demo") == 0
        expected = (Path(__file__).parent / "data" / "ghz-demo.txt").read_text()
        assert capsys.readouterr().out == expected


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestTimeseries:
    def test_xx_start_at_zero(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            "timeseries", "--model", "xx", "--n", "4", "--j", "1", "--h", "0.5",
            "--initial", "basis:1000", "--site-a", "0", "--site-b", "3",
            "--t-max", "1.0", "--dt", "0.1", "--out", str(out),
        )
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == ["t", "qcmi_bits"]
        assert any("command: timeseries" in c for c in comments)
        assert any("model=xx" in c and "initial=basis:1000" in c for c in comments)
        assert any("instrument" in c for c in comments)
        assert float(rows[0][0]) == 0.0
        assert abs(float(rows[0][1])) <= 1e-10
        assert len(rows) == 11

    def test_tfim_quench_series_rises(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            "timeseries", "--model", "tfim", "--n", "3", "--j", "1", "--h", "1",
            "--initial", "ground", "--protocol", "quench-at-zero",
            "--site-a", "0", "--site-b", "2", "--out", str(out),
        )
        assert code == 0
        _, _, rows = read_csv(out)
        values = [float(r[1]) for r in rows]
        assert max(values) >= values[0] + 0.01

    def test_uncoupled_chain_all_zero(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            "timeseries", "--model", "xx", "--n", "3", "--j", "0", "--h", "0.5",
            "--initial", "basis:100", "--site-a", "0", "--site-b", "2",
            "--t-max", "1.0", "--dt", "0.25", "--out", str(out),
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert all(abs(float(r[1])) <= 1e-10 for r in rows)

    def test_degenerate_ground_state_warns_on_stderr_only(self, tmp_path):
        # TFIM at h = 0: |0000> and |1111> tie. The warning reaches stderr; the
        # CSV is the same bytes as a run with warnings ignored.
        env = dict(os.environ, PYTHONPATH=str(Path(qcausal.__file__).parents[1]))
        argv = [
            "-m", "qcausal", "timeseries", "--model", "tfim", "--n", "4", "--h", "0",
            "--initial", "ground", "--protocol", "quench-at-zero", "--site-a", "0",
            "--site-b", "3", "--t-max", "0.2", "--dt", "0.1",
        ]
        runs = []
        for flags, name in (([], "warned.csv"), (["-W", "ignore"], "quiet.csv")):
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, *flags, *argv, "--out", str(out)],
                env=env, capture_output=True, text=True, check=False,
            )
            assert done.returncode == 0
            runs.append((done.stderr, out.read_bytes()))
        (warned, warned_csv), (quiet, quiet_csv) = runs
        assert "RuntimeWarning: degenerate ground state" in warned and quiet == ""
        assert warned_csv == quiet_csv and b"degenerate" not in warned_csv

    def test_missing_sites_is_usage_error(self):
        assert run_cli("timeseries", "--model", "xx", "--n", "4") == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("timeseries", "--frequency", "3") == 2
        capsys.readouterr()

    def test_bad_model_is_usage_error(self, capsys):
        assert run_cli("timeseries", "--model", "xy") == 2
        capsys.readouterr()

    def test_oversized_grid_is_usage_error(self, capsys):
        # 1e8 grid points: rejected from the sizes, before any array is built.
        code = run_cli(
            "timeseries", "--model", "xx", "--n", "4", "--site-a", "0", "--site-b", "3",
            "--initial", "basis:1000", "--t-max", "1e4", "--dt", "1e-4",
        )
        assert code == 2
        assert "scan limit" in capsys.readouterr().err

    def test_a_300_digit_point_count_is_refused_in_one_short_line(self, capsys, monkeypatch):
        # 5e300 grid points, within float range: the count is printed in .3g
        # form, and neither the times nor the chain is built.
        refuse_build(monkeypatch, causalscan)
        unbuilt = property(lambda grid: pytest.fail("times built"))
        monkeypatch.setattr(causalscan.TimeGrid, "times", unbuilt)
        code = run_cli(
            "timeseries", "--model", "xx", "--n", "4", "--site-a", "0", "--site-b", "3",
            "--dt", "1e-300", "--t-max", "5",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 5e+300 grid points exceed the scan limit of 8.39e+06; raise dt or lower t_max\n"
        )

    @pytest.mark.parametrize("a, b", [("0", "1"), ("3", "2")])
    def test_adjacent_sites_exit_2_before_the_build(self, capsys, monkeypatch, a, b):
        refuse_build(monkeypatch, causalscan)
        code = run_cli(
            "timeseries", "--model", "xx", "--n", "4", "--site-a", a, "--site-b", b,
            "--initial", "basis:1000",
        )
        assert code == 2
        assert "no intermediate sites" in capsys.readouterr().err


class TestArrivalScan:
    def test_small_scan_csv_and_json(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code = run_cli(
            "arrival-scan", "--model", "xx", "--n", "4", "--j", "1", "--h", "0.5",
            "--distances", "2:3", "--out", str(csv_path), "--json-out", str(json_path),
        )
        assert code == 0
        _, header, rows = read_csv(csv_path)
        assert header == ["d", "t_arr"]
        assert [r[0] for r in rows] == ["2", "3"]
        summary = json.loads(json_path.read_text())
        for key in ("m", "b", "v_eff", "v_lr", "v0", "threshold", "protocol", "grid"):
            assert key in summary
        assert summary["v0"] == 2.0
        assert abs(summary["v_lr"] - 4 * math.e) < 1e-9
        assert summary["config"]["initial"] == "basis:1000"

    def test_tfim_scan_reports_the_tfim_v0(self, tmp_path):
        json_path = tmp_path / "scan.json"
        code = run_cli(
            "arrival-scan", "--model", "tfim", "--n", "5", "--j", "1", "--h", "0.5",
            "--t-max", "3", "--out", str(tmp_path / "scan.csv"), "--json-out", str(json_path),
        )
        assert code == 0
        assert json.loads(json_path.read_text())["v0"] == 1.0

    def test_uncrossable_threshold_exits_4(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        code = run_cli(
            "arrival-scan", "--model", "xx", "--n", "4", "--j", "1", "--h", "0.5",
            "--threshold", "10", "--t-max", "1", "--dt", "0.1",
            "--out", str(csv_path),
        )
        assert code == 4
        _, _, rows = read_csv(csv_path)
        assert all(r[1] == "" for r in rows)
        assert "error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "arrival-scan", "--model", "xx", "--n", "4", "--j", "1", "--h", "0.5",
            "--distances", "2:3", "--t-max", "3", "--dt", "0.05",
        )
        outputs = []
        for tag in ("one", "two"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            assert run_cli(*args, "--out", str(csv_path), "--json-out", str(json_path)) == 0
            outputs.append(csv_path.read_bytes() + json_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_chain_length_is_checked_before_the_defaults_are_sized(self, capsys):
        # The default initial state holds n characters: a huge --n must be
        # refused, not spelled out.
        assert run_cli("arrival-scan", "--n", str(2**63)) == 2
        assert f"dense register capped at 12 sites, got {2**63}" in capsys.readouterr().err

    def test_distances_without_a_colon_exit_2(self, capsys):
        assert run_cli("arrival-scan", "--n", "4", "--distances", "2-3") == 2
        assert "distances must look like 'lo:hi', got '2-3'" in capsys.readouterr().err

    def test_arrivals_all_at_zero_write_no_velocity_and_a_note(self, tmp_path):
        # A ground state measured at t: the index sits above the threshold from t = 0.
        csv_path, json_path = tmp_path / "scan.csv", tmp_path / "scan.json"
        code = run_cli(
            "arrival-scan", "--model", "tfim", "--n", "6", "--h", "1", "--initial", "ground",
            "--t-max", "1", "--dt", "0.1", "--out", str(csv_path), "--json-out", str(json_path),
        )
        assert code == 0
        _, _, rows = read_csv(csv_path)
        assert rows == [[str(d), "0"] for d in range(2, 6)]
        summary = json.loads(json_path.read_text())
        assert summary["v_eff"] is None and summary["m"] == 0.0
        assert summary["note"] == "non-positive slope 0; effective velocity undefined"

    def test_distance_one_exits_2_before_the_build(self, capsys, monkeypatch):
        refuse_build(monkeypatch, causalscan)
        assert run_cli("arrival-scan", "--model", "xx", "--n", "8", "--distances", "1:7") == 2
        assert "d=1 leaves C empty" in capsys.readouterr().err


class TestBounds:
    def test_unit_coupling_display(self, capsys):
        assert run_cli("bounds", "--model", "xx", "--n", "8", "--j", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert f"{payload['v_lr']:.4f}" == "10.8731"
        assert payload["v0"] == 2.0

    def test_tfim_v0_is_twice_the_weaker_of_coupling_and_field(self, capsys):
        assert run_cli("bounds", "--model", "tfim", "--n", "8", "--j", "1", "--h", "0.5") == 0
        assert json.loads(capsys.readouterr().out)["v0"] == 1.0

    def test_free_chain_all_zero(self, capsys):
        assert run_cli("bounds", "--j", "0", "--h", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == payload["g_prop"] == payload["v_lr"] == payload["v0"] == 0.0

    def test_output_into_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bounds.json"
        assert run_cli("bounds", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2]")
        assert not out.parent.exists()

    def test_norm_arithmetic(self, capsys):
        assert run_cli("bounds", "--j", "2", "--h", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == 5.0
        assert payload["g_prop"] == 4.0
        assert abs(payload["v_lr"] - 8 * math.e) < 1e-9


class TestCommutatorFront:
    def test_probe_rows(self, tmp_path):
        out = tmp_path / "front.csv"
        code = run_cli(
            "commutator-front", "--model", "xx", "--n", "4", "--j", "1", "--h", "0.3",
            "--site-a", "0", "--site-b", "3", "--t-max", "2", "--dt", "0.5",
            "--out", str(out),
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "norm"]
        assert abs(float(rows[0][1])) < 1e-12
        assert all(float(r[1]) <= 2.0 + 1e-9 for r in rows)

    def test_oversized_grid_is_usage_error(self, capsys):
        # 1e7 grid points x 2^4: the scans' amplitude rule, applied before any time is built.
        code = run_cli(
            "commutator-front", "--model", "xx", "--n", "4", "--site-a", "0", "--site-b", "3",
            "--t-max", "1e3", "--dt", "1e-4",
        )
        assert code == 2
        assert "scan limit" in capsys.readouterr().err

    def test_coincident_sites_usage_error(self, capsys, monkeypatch):
        refuse_build(monkeypatch, cli)
        code = run_cli(
            "commutator-front", "--model", "xx", "--n", "12",
            "--site-a", "3", "--site-b", "3",
        )
        assert code == 2
        assert "must differ" in capsys.readouterr().err

    def test_out_of_range_site_exits_2_before_the_build(self, capsys, monkeypatch):
        refuse_build(monkeypatch, cli)
        code = run_cli(
            "commutator-front", "--model", "xx", "--n", "12",
            "--site-a", "0", "--site-b", "12",
        )
        assert code == 2
        assert "[0, 12)" in capsys.readouterr().err


class TestCcmi:
    def write_series(self, tmp_path, name, values):
        path = tmp_path / name
        path.write_text("\n".join(f"{float(v)!r}" for v in values) + "\n")
        return path

    def test_lagged_pair_beats_surrogates(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        x = rng.standard_normal(2000)
        driver = self.write_series(tmp_path, "x.txt", x)
        response = self.write_series(tmp_path, "y.txt", np.roll(x, 1))
        code = run_cli(
            "ccmi", "--driver", str(driver), "--response", str(response),
            "--surrogates", "8", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ccmi_bits"] > payload["surrogate_mean"] + 5 * payload["surrogate_std"]

    def test_independent_pair_near_floor(self, tmp_path, capsys):
        rng = np.random.default_rng(72)
        driver = self.write_series(tmp_path, "x.txt", rng.standard_normal(2000))
        response = self.write_series(tmp_path, "y.txt", rng.standard_normal(2000))
        code = run_cli("ccmi", "--driver", str(driver), "--response", str(response),
                       "--surrogates", "8")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        band = 2 * payload["surrogate_std"]
        assert abs(payload["ccmi_bits"] - payload["surrogate_mean"]) <= band

    def test_short_series_exits_3(self, tmp_path, capsys):
        driver = self.write_series(tmp_path, "x.txt", [1.0, 2.0, 3.0])
        response = self.write_series(tmp_path, "y.txt", [1.0, 2.0, 3.0])
        assert run_cli("ccmi", "--driver", str(driver), "--response", str(response)) == 3
        capsys.readouterr()

    def test_a_nan_in_a_series_exits_3(self, tmp_path, capsys):
        driver = self.write_series(tmp_path, "x.txt", [np.nan, *range(20)])
        response = self.write_series(tmp_path, "y.txt", range(21))
        assert run_cli("ccmi", "--driver", str(driver), "--response", str(response)) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: series contain non-finite values\n"

    def test_a_line_that_is_not_a_number_names_file_and_line(self, tmp_path, capsys):
        driver = tmp_path / "x.txt"
        driver.write_text("# recorded\n1.0\n\n2.5\nabc\n")
        assert run_cli("ccmi", "--driver", str(driver), "--response", str(driver)) == 2
        assert capsys.readouterr().err == f"error: {driver}:5: not a number: 'abc'\n"

    @pytest.mark.parametrize("flags", [("--surrogates", "-3"), ("--surrogates", "2", "--seed", "-1")])
    def test_negative_surrogates_or_seed_exit_2(self, tmp_path, capsys, flags):
        rng = np.random.default_rng(73)
        driver = self.write_series(tmp_path, "x.txt", rng.standard_normal(200))
        response = self.write_series(tmp_path, "y.txt", rng.standard_normal(200))
        code = run_cli("ccmi", "--driver", str(driver), "--response", str(response), *flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no.txt"
        assert run_cli("ccmi", "--driver", str(missing), "--response", str(missing)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read series file {missing}: {read_error(missing)}\n"

    def test_bins_past_the_label_range_exit_2(self, tmp_path, capsys):
        ramp = self.write_series(tmp_path, "ramp.txt", range(20))
        code = run_cli("ccmi", "--driver", str(ramp), "--response", str(ramp),
                       "--bins", str(2**64))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {2**64} bins on 20 samples overflow the {np.intp.__name__} bin labels; "
            "lower the bin count\n"
        )

    def test_counter_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(74)
        driver = self.write_series(tmp_path, "x.txt", rng.standard_normal(500))
        response = self.write_series(tmp_path, "y.txt", rng.standard_normal(500))
        monkeypatch.setattr(ccmi, "MAX_COUNTER_CELLS", 100)
        code = run_cli("ccmi", "--driver", str(driver), "--response", str(response))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "counter cells exceeds the ccmi limit of 100; lower the bin count\n"
        )


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# bounds setup\nj = 2.0\nh = 1.0\n")
        assert run_cli("bounds", "--config", str(config)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == 5.0
        assert run_cli("bounds", "--config", str(config), "--j", "1", "--h", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == 2.0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_file_message(self, tmp_path, capsys, kind):
        config = tmp_path / "run.cfg"
        if kind == "directory":
            config.mkdir()
        assert run_cli("bounds", "--config", str(config)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read config file {config}: {read_error(config)}\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("coupling = 2.0\n")
        assert run_cli("bounds", "--config", str(config)) == 2
        capsys.readouterr()

    def test_config_echoed_in_output(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n = 3\nj = 0.0\nh = 0.5\n")
        out = tmp_path / "series.csv"
        code = run_cli(
            "timeseries", "--config", str(config), "--model", "xx",
            "--initial", "basis:100", "--site-a", "0", "--site-b", "2",
            "--t-max", "0.5", "--dt", "0.25", "--out", str(out),
        )
        assert code == 0
        comments, _, _ = read_csv(out)
        config_line = next(c for c in comments if "config:" in c)
        assert "n=3" in config_line and "j=0" in config_line and "site-a=0" in config_line

    @pytest.mark.parametrize(
        "line, message",
        [
            ("model = xy", "argument --model: invalid choice: 'xy'"),
            ("n = 2.0", "argument --n: invalid int value: '2.0'"),
            ("j = abc", "argument --j: invalid float value: 'abc'"),
            ("site-a 0", "run.cfg:2: expected 'key = value'"),
            ("out = x.csv", "run.cfg:2: unknown option 'out'"),
        ],
    )
    def test_bad_entry_is_usage_error(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"# timeseries setup\n{line}\n")
        code = run_cli(
            "timeseries", "--config", str(config), "--n", "3", "--initial", "basis:100",
            "--site-a", "0", "--site-b", "2", "--t-max", "0.5", "--dt", "0.25",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_file_supplies_sites_and_flag_overrides_protocol(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 3\ninitial = basis:100\nsite-a = 0\nsite-b = 2\nprotocol = quench-at-zero\n"
        )
        outputs = {}
        for tag, flags in (("file", ()), ("flag", ("--protocol", "measure-at-t"))):
            out = tmp_path / f"{tag}.csv"
            code = run_cli(
                "timeseries", "--config", str(config), "--t-max", "0.5", "--dt", "0.25",
                *flags, "--out", str(out),
            )
            assert code == 0
            comments, _, rows = read_csv(out)
            config_line = next(c for c in comments if "config:" in c)
            assert "site-a=0" in config_line and "site-b=2" in config_line
            outputs[tag] = config_line
            assert len(rows) == 3
        assert "protocol=quench-at-zero" in outputs["file"]
        assert "protocol=measure-at-t" in outputs["flag"]


@pytest.mark.parametrize(
    "command", ["ghz-demo", "timeseries", "arrival-scan", "bounds", "commutator-front", "ccmi"]
)
def test_help_exits_0(command, capsys):
    assert run_cli(command, "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: qcausal {command}")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["qcausal", "bounds", "--n", "4"], 0),
        (["qcausal", "arrival-scan", "--n", "4", "--distances", "2-3"], 2),
        (["qcausal", "arrival-scan", "--n", "4", "--t-max", "0.1", "--dt", "0.05"], 4),
    ],
)
def test_console_entry_exits_with_the_command_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == code
    capsys.readouterr()


class TestNoCommand:
    def test_bare_invocation_is_usage_error(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()


COMMAND_NAMES = ["ghz-demo", "timeseries", "arrival-scan", "bounds", "commutator-front", "ccmi"]


class TestParserPerCommand:
    def test_top_level_help_lists_every_command(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: qcausal")
        assert all(f"    {name}" in out for name in COMMAND_NAMES)

    def test_unknown_command_exits_2_and_names_every_choice(self, capsys):
        assert run_cli("nosuch") == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert all(repr(name) in err for name in COMMAND_NAMES)

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_a_named_command_gets_only_its_own_parser(self, command, capsys):
        parser = cli.build_parser(command)
        assert parser.parse_args([command]).command == command
        other = next(name for name in COMMAND_NAMES if name != command)
        with pytest.raises(SystemExit) as exited:
            parser.parse_args([other])
        assert exited.value.code == 2
        assert f"invalid choice: {other!r}" in capsys.readouterr().err

    def test_config_reparse_reuses_the_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", counted)
        config = tmp_path / "run.cfg"
        config.write_text("j = 2.0\nh = 1.0\n")
        assert run_cli("bounds", "--config", str(config)) == 0
        assert json.loads(capsys.readouterr().out)["g"] == 5.0
        assert built == ["bounds"]

    def test_an_option_value_may_name_another_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("bounds", "--out", "ccmi") == 0
        assert json.loads((tmp_path / "ccmi").read_text())["command"] == "bounds"
        config = tmp_path / "timeseries"
        config.write_text("n = 3\n")
        assert run_cli("bounds", "--config", "timeseries", "--out", "arrival-scan") == 0
        payload = json.loads((tmp_path / "arrival-scan").read_text())
        assert payload["config"]["n"] == 3
