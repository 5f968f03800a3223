"""Command-line interface: sweeps to CSV, extrema analysis to JSON.

Commands
--------
eit-sweep    transmission vs two-photon detuning (master equation and/or
             closed-form engine, optionally the three-level restriction)
cavity-scan  transmission vs probe-cavity detuning for an empty cavity or
             one no-control atom
analyze      max/min report (JSON on stdout) for a previously written CSV
converge     transmission vs Fock truncation at a few detunings

All frequencies on disk are linear MHz.  Numbers are serialized with 12
significant digits; adding ``--deterministic`` drops the timestamp comment
so identical runs produce byte-identical files.  Exit status: 0 all points
solved within tolerance, 1 some sweep points flagged, 2 argument,
configuration or solver errors, or running out of memory, that leave no
result: a JSON error record goes to stderr and no partial ``--out`` file is
left behind.
``--out`` is opened before the first solve, so an unwritable path fails at
once.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import stat
import sys
import tempfile
from datetime import datetime, timezone

from .config import RunConfig
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateSteadyStateError,
    EdgeExtremumError,
    SteadyStateConvergenceError,
)
from .sweep import (
    ENGINE_MASTER_EQUATION,
    ENGINE_SEMICLASSICAL,
    SpectrumRecord,
    SweepSpec,
    VAR_PROBE_CAVITY,
    VAR_TWO_PHOTON,
    convergence_study,
    find_extrema,
    run_sweep,
)

_SPECTRUM_COLUMNS = (
    "T_rel",
    "photon_number",
    "absorption_part",
    "dispersion_part",
    "engine",
    "residual",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".12g")


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.from_file(path)


@contextlib.contextmanager
def _output(path: str, deterministic: bool):
    """Open an output CSV before any solve, headed with a timestamp unless
    ``deterministic``; a command that fails leaves ``path`` as it was.  A
    missing or regular file (a symlink's target) is written through a
    temporary file beside it, with the file's mode or 0o666 less the umask,
    moved onto it only on success; a pipe or a device is written directly."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    target = os.path.realpath(path)
    temp = None
    try:
        if stat.S_ISREG(mode):
            fd, temp = tempfile.mkstemp(".tmp", os.path.basename(target) + ".",
                                        os.path.dirname(target))
            os.fchmod(fd, stat.S_IMODE(mode))
            handle = os.fdopen(fd, "w", encoding="utf-8", newline="")
        else:
            handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with handle:
            if not deterministic:
                handle.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
            yield handle
        if temp is not None:
            os.replace(temp, target)
    except BaseException as exc:
        if temp is not None:
            # the command's own error is the record, not a failed removal
            with contextlib.suppress(OSError):
                os.remove(temp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _write_spectrum_csv(handle, sweep_column: str, records: list[SpectrumRecord]):
    """The spectrum rows that ``_read_spectrum_csv`` reads back."""
    writer = csv.writer(handle)
    writer.writerow((sweep_column,) + _SPECTRUM_COLUMNS)
    for rec in records:
        writer.writerow(
            (
                _fmt(rec.sweep_value),
                _fmt(rec.transmission_rel),
                _fmt(rec.photon_number),
                _fmt(rec.absorption_part),
                _fmt(rec.dispersion_part),
                rec.engine,
                _fmt(rec.residual_norm),
            )
        )


def _sweep_to_csv(spec: SweepSpec, sweep_column: str, args) -> int:
    with _output(args.out, args.deterministic) as handle:
        records = run_sweep(spec)
        _write_spectrum_csv(handle, sweep_column, records)
    return _exit_status(records)


def _csv_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: bad number {text!r}")
    return value


def _read_spectrum_csv(path: str) -> tuple[str, list[SpectrumRecord]]:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            numbered = [(n, ln) for n, ln in enumerate(handle, start=1) if not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(ln for _, ln in numbered)
    try:
        header = next(reader)
    except StopIteration as exc:
        raise ConfigError(f"{path}: empty CSV") from exc
    if tuple(header[1:]) != _SPECTRUM_COLUMNS:
        raise ConfigError(f"{path}: unrecognized spectrum columns {header!r}")
    records = []
    for row in reader:
        where = f"{path}:{numbered[reader.line_num - 1][0]}"
        if len(row) != len(header):
            raise ConfigError(f"{where}: expected {len(header)} fields, got {len(row)}")
        records.append(
            SpectrumRecord(
                sweep_value=_csv_float(row[0], where),
                transmission_rel=_csv_float(row[1], where),
                photon_number=_csv_float(row[2], where),
                absorption_part=_csv_float(row[3], where) if row[3] else None,
                dispersion_part=_csv_float(row[4], where) if row[4] else None,
                residual_norm=_csv_float(row[6], where) if row[6] else None,
                engine=row[5],
            )
        )
    return header[0], records


def _exit_status(records: list[SpectrumRecord]) -> int:
    return 0 if all(r.converged for r in records) else 1


def _cmd_eit_sweep(args) -> int:
    config = _load_config(args.config)
    if args.atoms is not None:
        config = dataclasses.replace(config, n_atoms=args.atoms)
    engines = {
        "me": (ENGINE_MASTER_EQUATION,),
        "sc": (ENGINE_SEMICLASSICAL,),
        "both": (ENGINE_MASTER_EQUATION, ENGINE_SEMICLASSICAL),
    }[args.engine]
    spec = SweepSpec(
        variable=VAR_TWO_PHOTON,
        start=config.start,
        stop=config.stop,
        n_points=config.n_points,
        base_params=config.params(),
        engines=engines,
        level_scheme="three" if args.three_level else "five",
    )
    return _sweep_to_csv(spec, "delta_MHz", args)


def _cmd_cavity_scan(args) -> int:
    config = _load_config(args.config)
    config = dataclasses.replace(config, n_atoms=args.atoms)
    spec = SweepSpec(
        variable=VAR_PROBE_CAVITY,
        start=args.start,
        stop=args.stop,
        n_points=args.points,
        base_params=config.params(),
        engines=(ENGINE_MASTER_EQUATION,),
        level_scheme="two" if args.atoms == 1 else "five",
    )
    return _sweep_to_csv(spec, "delta_p_cav_MHz", args)


def _cmd_analyze(args) -> int:
    sweep_column, records = _read_spectrum_csv(args.input)
    if not records:
        raise ConfigError(f"{args.input}: no spectrum rows")
    report = {"input": args.input, "sweep_column": sweep_column, "engines": {}}
    for engine in sorted({r.engine for r in records}):
        subset = [r for r in records if r.engine == engine]
        try:
            extrema = find_extrema(subset)
        except ValueError as exc:
            raise ConfigError(f"{args.input}: engine {engine!r}: {exc}") from exc
        report["engines"][engine] = {
            "delta_max_MHz": extrema.delta_max,
            "T_max": extrema.t_max,
            "delta_min_MHz": extrema.delta_min,
            "T_min": extrema.t_min,
            "separation_MHz": extrema.delta_min - extrema.delta_max,
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_converge(args) -> int:
    config = _load_config(args.config)
    try:
        n_max_list = [int(part) for part in args.nmax_list.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --nmax-list {args.nmax_list!r}") from exc
    with _output(args.out, args.deterministic) as handle:
        study = convergence_study(config.params(), n_max_list)
        writer = csv.writer(handle)
        writer.writerow(("n_max", "delta_MHz", "T_rel", "photon_number"))
        for row in study.rows:
            writer.writerow(
                (row.n_max, _fmt(row.delta_mhz), _fmt(row.transmission_rel), _fmt(row.photon_number))
            )
    if not study.converged:
        changes = {str(k): v for k, v in study.last_changes.items()}
        print(
            json.dumps({"warning": "truncation not converged", "last_changes": changes}),
            file=sys.stderr,
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """A bad argument raises ConfigError, which exits 2 with a JSON record;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavity-eit",
        description="Steady-state cavity transmission spectra for multilevel atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    csv_flags = argparse.ArgumentParser(add_help=False)
    csv_flags.add_argument("--config", help="flat key = value config file (defaults built in)")
    csv_flags.add_argument("--out", required=True, help="output CSV path")
    csv_flags.add_argument("--deterministic", action="store_true",
                           help="omit the timestamp header line")

    sweep = sub.add_parser("eit-sweep", parents=[csv_flags],
                           help="transmission vs two-photon detuning")
    sweep.add_argument("--atoms", type=int, choices=(0, 1, 2), help="override atom number")
    sweep.add_argument("--engine", choices=("me", "sc", "both"), default="me")
    sweep.add_argument("--three-level", action="store_true",
                       help="restrict the master equation to {g1, g2, e}")
    sweep.set_defaults(func=_cmd_eit_sweep)

    scan = sub.add_parser("cavity-scan", parents=[csv_flags],
                          help="transmission vs probe-cavity detuning")
    scan.add_argument("--atoms", type=int, choices=(0, 1), default=1,
                      help="0: empty cavity, 1: one no-control atom")
    scan.add_argument("--start", type=float, default=-3.0, help="window start, MHz")
    scan.add_argument("--stop", type=float, default=3.0, help="window stop, MHz")
    scan.add_argument("--points", type=int, default=241, help="grid points")
    scan.set_defaults(func=_cmd_cavity_scan)

    analyze = sub.add_parser("analyze", help="extrema report for a spectrum CSV")
    analyze.add_argument("--in", dest="input", required=True, help="input CSV path")
    analyze.set_defaults(func=_cmd_analyze)

    converge = sub.add_parser("converge", parents=[csv_flags],
                              help="Fock-truncation convergence table")
    converge.add_argument("--nmax-list", required=True,
                          help="comma separated ascending truncations, e.g. 2,3,4")
    converge.set_defaults(func=_cmd_converge)
    return parser


_SIGNED = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """``--option -VALUE`` as ``--option=-VALUE`` where VALUE starts with a
    digit or a point: argparse takes a separate value that starts with "-"
    for an option unless it is one plain number, such as ``-1,1`` for
    ``--nmax-list`` or ``-1e-3`` for ``--start``, and no option here starts
    with "-" and a digit or a point."""
    joined = []
    for arg in argv:
        last = joined[-1] if joined else ""
        if last.startswith("--") and "=" not in last and _SIGNED.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except OverflowError as exc:
        # a float power (g**2, omega_con**2) of a huge but finite parameter
        record = {"error": "ConfigError", "message": f"parameters overflow: {exc}"}
    except (ConfigError, CapacityError, DegenerateSteadyStateError, EdgeExtremumError,
            SteadyStateConvergenceError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass, so name the base class
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        record = {"error": name, "message": str(exc) or "out of memory"}
    print(json.dumps(record), file=sys.stderr)
    return 2
