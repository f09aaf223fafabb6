"""Command-line frontend emitting reproducible CSV/JSON artifacts.

Every command resolves its options as: built-in defaults, overridden by a
``--config`` key-value file, overridden by explicit flags. argparse is the
only converter and checker of option values: each ``key = value`` line of
the file becomes a ``--key=value`` token placed ahead of the flags, and the
last value argparse sees wins. The resolved configuration is echoed into
every emitted file so a run can be reproduced from its output alone.
Identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .bounds import commutator_front_norm, lr_velocity, max_group_velocity
from .causalscan import CROSSINGS, DEFAULT_DT, DEFAULT_T_MAX, DEFAULT_THRESHOLD, PROTOCOLS
from .causalscan import ScanConfig, TimeGrid, arrival_scan, fit_velocity, qcmi_time_series
from .ccmi import SeriesEmbedding, ccmi_asymmetric_series, surrogate_baseline
from .exceptions import InsufficientData, InvalidInput, QcausalError
from .infomeasures import Partition, asymmetric_qcmi, mutual_information_sites, symmetric_qcmi
from .instrument import apply_instrument, projective_z_instrument
from .qstate import PAULI_X, PAULI_Y, PAULI_Z, check_site_pair, ghz_state, partial_trace
from .qstate import von_neumann_entropy
from .spinchain import MODEL_KINDS, ChainModel, build_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INSUFFICIENT = 4

# A command's error exits with the code of the first kind it is an instance of.
_EXIT_CODES = {
    InvalidInput: EXIT_USAGE,
    InsufficientData: EXIT_INSUFFICIENT,
    QcausalError: EXIT_NUMERIC,
    OSError: EXIT_USAGE,
}

_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# An option's converter is the type of its default; these numeric options
# default to None, and every other option with a None default is a string.
_OPTION_TYPES = {"site-a": int, "site-b": int}

_OPTION_CHOICES = {
    "model": MODEL_KINDS,
    "protocol": PROTOCOLS,
    "crossing": CROSSINGS,
    "op-a": ("x", "y", "z"),
    "op-b": ("x", "y", "z"),
}

_MODEL_DEFAULTS = {"model": "xx", "n": 8, "j": 1.0, "h": 0.0}
_GRID_DEFAULTS = {"dt": DEFAULT_DT, "t-max": DEFAULT_T_MAX}
_EVOLUTION_DEFAULTS = {"initial": "ground", "protocol": "measure-at-t", **_GRID_DEFAULTS}
_DETECT_DEFAULTS = {"threshold": DEFAULT_THRESHOLD, "crossing": "first-sample"}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _require(resolved: dict, *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) is None]
    if missing:
        raise InvalidInput(f"missing required option(s): {', '.join('--' + k for k in missing)}")


def _chain_model(resolved: dict) -> ChainModel:
    return ChainModel(
        kind=resolved["model"],
        n_sites=resolved["n"],
        coupling=resolved["j"],
        field=resolved["h"],
    )


def _scan_config(resolved: dict, **fields) -> ScanConfig:
    return ScanConfig(
        model=_chain_model(resolved),
        initial=resolved["initial"],
        protocol=resolved["protocol"],
        grid=TimeGrid(resolved["t-max"], resolved["dt"]),
        **fields,
    )


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(command: str, resolved: dict, columns, rows, extra_comments=()) -> str:
    lines = [f"# command: {command}"]
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(resolved.items()))
    lines.append(f"# config: {echo}")
    for comment in extra_comments:
        lines.append(f"# {comment}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_ghz_demo(args, resolved) -> int:
    psi = ghz_state(3)
    rho = psi.density_matrix()
    partition = Partition((0,), (1,), (2,))
    instrument = projective_z_instrument(0, 3)

    def show(value: float) -> str:
        # Human-facing report: suppress eigensolver dust around exact values.
        return _fmt(round(value, 12))

    print("three-qubit GHZ state, computational-basis measurement on A")
    print(f"S(rho_ABC) = {show(von_neumann_entropy(rho))}")
    print(f"S(rho_C)   = {show(von_neumann_entropy(partial_trace(rho, (2,))))}")
    print(f"S(rho_AC)  = {show(von_neumann_entropy(partial_trace(rho, (0, 2))))}")
    print(f"S(rho_BC)  = {show(von_neumann_entropy(partial_trace(rho, (1, 2))))}")
    print(f"symmetric QCMI I(A:B|C) = {show(symmetric_qcmi(rho, partition))}")
    for branch in apply_instrument(rho, instrument):
        s_branch = von_neumann_entropy(branch.state)
        mi = mutual_information_sites(branch.state, (0,), (1,))
        print(
            f"outcome {branch.label}: p = {show(branch.probability)}, "
            f"S(rho_BC^x) = {show(s_branch)}, I(B:C) = {show(mi)}"
        )
    asym = asymmetric_qcmi(rho, partition, instrument)
    print(f"asymmetric QCMI I(A;B|C) = {show(asym)} (instrument: {instrument.describe})")
    return EXIT_OK


def cmd_timeseries(args, resolved) -> int:
    _require(resolved, "site-a", "site-b")
    config = _scan_config(resolved, site_a=resolved["site-a"], site_b=resolved["site-b"])
    series = qcmi_time_series(config)
    text = _csv_text(
        "timeseries",
        resolved,
        ("t", "qcmi_bits"),
        zip(series.times.tolist(), series.values.tolist()),
        extra_comments=(f"instrument: {series.instrument_label}",),
    )
    _emit(text, args.out)
    return EXIT_OK


def _parse_distances(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise InvalidInput(f"distances must look like 'lo:hi', got {text!r}") from exc
    return lo, hi


def cmd_arrival_scan(args, resolved) -> int:
    n = _chain_model(resolved).n_sites  # checked before the defaults are sized by it
    if resolved["initial"] is None:
        # Arrival times track a single excitation injected at the sender.
        resolved["initial"] = "basis:1" + "0" * (n - 1)
    if resolved["distances"] is None:
        resolved["distances"] = f"2:{n - 1}"
    lo, hi = _parse_distances(resolved["distances"])
    config = _scan_config(
        resolved, threshold=resolved["threshold"], crossing=resolved["crossing"],
        d_min=lo, d_max=hi,
    )
    table = arrival_scan(config)
    _emit(_csv_text("arrival-scan", resolved, ("d", "t_arr"), table.rows), args.out)
    # Fewer than two arrivals raises InsufficientData: main reports it, exit code 4.
    fit = fit_velocity(table)
    summary = {
        "m": fit.slope,
        "b": fit.intercept,
        "v_eff": fit.v_eff,
        "v_lr": lr_velocity(config.model).v_lr,
        "v0": max_group_velocity(config.model),
        "threshold": resolved["threshold"],
        "protocol": resolved["protocol"],
        "grid": {"dt": resolved["dt"], "t_max": resolved["t-max"]},
        "command": "arrival-scan",
        "config": dict(sorted(resolved.items())),
    }
    if fit.note:
        summary["note"] = fit.note
    _emit(_json_text(summary), args.json_out)
    return EXIT_OK


def cmd_bounds(args, resolved) -> int:
    model = _chain_model(resolved)
    estimate = lr_velocity(model)
    payload = {
        "g": estimate.g,
        "g_prop": estimate.g_prop,
        "v_lr": estimate.v_lr,
        "v0": max_group_velocity(model),
        "command": "bounds",
        "config": dict(sorted(resolved.items())),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_commutator_front(args, resolved) -> int:
    _require(resolved, "site-a", "site-b")
    model = _chain_model(resolved)
    grid = TimeGrid(resolved["t-max"], resolved["dt"])
    check_site_pair(resolved["site-a"], resolved["site-b"], model.n_sites)
    hamiltonian = build_model(model)
    op_a = _PAULI[resolved["op-a"]]
    op_b = _PAULI[resolved["op-b"]]
    rows = []
    for t in grid.times:
        norm = commutator_front_norm(
            hamiltonian, resolved["site-a"], op_a, resolved["site-b"], op_b, float(t)
        )
        rows.append((float(t), norm))
    _emit(_csv_text("commutator-front", resolved, ("t", "norm"), rows), args.out)
    return EXIT_OK


def _content_lines(path: str, kind: str) -> Iterator[tuple[int, str]]:
    """Number and text of each line of the `kind` file `path` that is not blank or a `#` comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInput(f"cannot read {kind} file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw


def _read_series(path: str) -> np.ndarray:
    values = []
    for lineno, raw in _content_lines(path, "series"):
        line = raw.strip()
        try:
            values.append(float(line))
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: not a number: {line!r}") from exc
    return np.array(values)


def cmd_ccmi(args, resolved) -> int:
    _require(resolved, "driver", "response")
    if resolved["surrogates"] < 0:
        raise InvalidInput(f"--surrogates must be non-negative, got {resolved['surrogates']}")
    driver = _read_series(resolved["driver"])
    response = _read_series(resolved["response"])
    try:
        emb = SeriesEmbedding(
            driver, response, horizon=resolved["tau"], delay=resolved["eta0"],
            bins=resolved["bins"],
        )
        value = ccmi_asymmetric_series(emb)
        payload = {
            "ccmi_bits": value,
            "n_samples": emb.n_samples,
            "surrogate_mean": None,
            "surrogate_std": None,
            "command": "ccmi",
            "config": dict(sorted(resolved.items())),
        }
        if resolved["surrogates"] > 0:
            baseline = surrogate_baseline(emb, resolved["surrogates"], seed=resolved["seed"])
            payload["surrogate_mean"] = float(baseline.mean())
            payload["surrogate_std"] = float(baseline.std())
    except InsufficientData as exc:
        # Short input is a data error here, not a scan with too few arrivals.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(_json_text(payload), args.out)
    return EXIT_OK


# command: (handler, help text, option defaults). A default of None marks an
# option that is either required (checked in the handler) or derived from the
# other options.
COMMANDS = {
    "ghz-demo": (
        cmd_ghz_demo, "three-qubit worked example contrasting the two conditional forms", {},
    ),
    "timeseries": (
        cmd_timeseries, "QCMI time series for a fixed sender/receiver pair (CSV)",
        {**_MODEL_DEFAULTS, **_EVOLUTION_DEFAULTS, "site-a": None, "site-b": None},
    ),
    "arrival-scan": (
        cmd_arrival_scan, "per-distance arrival times and velocity fit (CSV + JSON)",
        {**_MODEL_DEFAULTS, **_EVOLUTION_DEFAULTS, **_DETECT_DEFAULTS,
         "initial": None, "distances": None},
    ),
    "bounds": (
        cmd_bounds, "analytic interaction-norm and group-velocity bounds (JSON)", _MODEL_DEFAULTS,
    ),
    "commutator-front": (
        cmd_commutator_front, "exact commutator-norm light-cone probe (CSV)",
        {**_MODEL_DEFAULTS, "site-a": None, "site-b": None, "op-a": "z", "op-b": "z",
         **_GRID_DEFAULTS},
    ),
    "ccmi": (
        cmd_ccmi, "classical asymmetric CMI of two recorded series",
        {"driver": None, "response": None, "tau": 1, "eta0": 1, "bins": 4, "surrogates": 0,
         "seed": 0},
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The qcausal parser: with the named command's subparser only, when
    `command` names one, else with every command's (for help and errors)."""
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Directional QCMI diagnostics for exactly simulated spin chains.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, options) in COMMANDS.items():
        if command in COMMANDS and name != command:
            continue
        sub = subparsers.add_parser(name, help=help_text)
        for key, default in options.items():
            sub.add_argument(
                f"--{key}",
                type=_OPTION_TYPES.get(key, str if default is None else type(default)),
                choices=_OPTION_CHOICES.get(key),
                default=default,
            )
        if name != "ghz-demo":
            sub.add_argument("--out", default=None, help="write primary output here")
            sub.add_argument("--config", default=None, help="key = value file of option defaults")
        if name == "arrival-scan":
            sub.add_argument("--json-out", dest="json_out", default=None,
                             help="write the JSON summary here")
    return parser


def _read_config_file(path: str, options: dict) -> list[str]:
    """The `key = value` lines of `path` as `--key=value` tokens for argparse."""
    tokens = []
    for lineno, raw in _content_lines(path, "config"):
        if "=" not in raw:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = raw.partition("=")
        key = key.strip()
        if key not in options:
            raise InvalidInput(f"{path}:{lineno}: unknown option {key!r}")
        tokens.append(f"--{key}={value.strip()}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the command from the first token: build only its parser.
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's entries go ahead of the flags: argparse keeps the last value.
            at = argv.index(args.command) + 1
            file_tokens = _read_config_file(args.config, COMMANDS[args.command][2])
            args = parser.parse_args([*argv[:at], *file_tokens, *argv[at:]])
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    handler, _, options = COMMANDS[args.command]
    try:
        return handler(args, {key: getattr(args, key.replace("-", "_")) for key in options})
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
