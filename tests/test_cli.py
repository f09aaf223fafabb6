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
        assert run_cli("ghz-demo") == 0
        out = capsys.readouterr().out
        assert "S(rho_ABC) = 0" in out
        assert "S(rho_C)   = 1" in out
        assert "S(rho_AC)  = 1" in out
        assert "S(rho_BC)  = 1" in out
        assert "symmetric QCMI I(A:B|C) = 1" in out
        assert "asymmetric QCMI I(A;B|C) = 0" in out
        assert out.count("p = 0.5") == 2


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

    def test_free_chain_all_zero(self, capsys):
        assert run_cli("bounds", "--j", "0", "--h", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g"] == payload["g_prop"] == payload["v_lr"] == payload["v0"] == 0.0

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


class TestNoCommand:
    def test_bare_invocation_is_usage_error(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()
