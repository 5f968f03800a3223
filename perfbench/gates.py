"""Output checks applied to every operation before a number is reported.

Each check returns a list of failure messages, one per failed operation
(a CSV row, a whole CLI call, or an oracle leg); an empty list passes.
"""

from __future__ import annotations

import csv
import math

# Master-equation rows must solve to the package's own default tolerance.
MAX_RESIDUAL = 1e-9
# Seed-0 T_rel against the values recorded at the reference commit.  The
# acceptance criteria allow 1e-6 to 0.02; this catches far smaller drifts.
REFERENCE_TOL = 1e-8
# RK4 against expm_multiply of the assembled generator, in trace distance.
ORACLE_TOL = 1e-6

SPECTRUM_COLUMNS = ("T_rel", "photon_number", "absorption_part", "dispersion_part",
                    "engine", "residual")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _close(a: float, b: float, rel: float = 1e-10) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_spectrum(path, sweep_column: str, grid: list[float], engines: tuple[str, ...],
                   reference: list[float] | None = None) -> list[str]:
    """Spectrum CSV: layout, grid, finite values, residuals, reference T_rel.

    One failure per bad row; a file that cannot be read or has the wrong
    header fails every expected row.
    """
    expected = len(grid) * len(engines)
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"] * expected
    if tuple(header) != (sweep_column,) + SPECTRUM_COLUMNS:
        return [f"{path}: header {header!r}"] * expected
    failures = []
    if len(rows) != expected:
        failures += [f"{path}: {len(rows)} rows, expected {expected}"] * abs(expected - len(rows))
    wanted = [(x, e) for x in grid for e in sorted(engines)]
    for k, (row, (x, engine)) in enumerate(zip(rows, wanted)):
        where = f"{path} row {k + 1}"
        if len(row) != 7 or row[5] != engine or not _finite(row[0]) \
                or not _close(float(row[0]), x):
            failures.append(f"{where}: expected {engine} at {x!r}, got {row!r}")
        elif not all(_finite(v) for v in row[1:3]):
            failures.append(f"{where}: non-finite value {row!r}")
        elif engine == "me" and not (_finite(row[6]) and float(row[6]) <= MAX_RESIDUAL):
            failures.append(f"{where}: residual {row[6]!r} above {MAX_RESIDUAL}")
        elif engine == "sc" and not all(_finite(v) for v in row[3:5]):
            failures.append(f"{where}: non-finite response {row!r}")
        elif reference is not None and abs(float(row[1]) - reference[k]) > REFERENCE_TOL:
            failures.append(f"{where}: T_rel {row[1]} differs from reference {reference[k]!r}")
    return failures


def check_converge(path, n_max_list: list[int], reference: list[float] | None = None) -> list[str]:
    """Truncation CSV: one finite row per (n_max, detuning), reference T_rel."""
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    if header != ["n_max", "delta_MHz", "T_rel", "photon_number"] or not rows:
        return [f"{path}: header {header!r} with {len(rows)} rows"]
    failures = []
    if sorted({row[0] for row in rows}) != sorted(str(n) for n in n_max_list):
        failures.append(f"{path}: n_max column {[row[0] for row in rows]}")
    for k, row in enumerate(rows):
        if len(row) != 4 or not all(_finite(v) for v in row[1:]):
            failures.append(f"{path} row {k + 1}: {row!r}")
        elif reference is not None and (len(reference) != len(rows)
                                        or abs(float(row[2]) - reference[k]) > REFERENCE_TOL):
            failures.append(f"{path} row {k + 1}: T_rel {row[2]} differs from reference")
    return failures


def check_extrema(report: dict, engine: str, shape: bool) -> list[str]:
    """``analyze`` output: finite extrema; with ``shape``, criterion 5's bounds.

    Criterion 5: the maximum comes first, lies within 0.35 MHz of the
    two-photon resonance, and the minimum follows it by 0.15 to 0.35 MHz.
    """
    try:
        ext = report["engines"][engine]
        d_max, d_min = float(ext["delta_max_MHz"]), float(ext["delta_min_MHz"])
        values = [d_max, d_min, float(ext["T_max"]), float(ext["T_min"])]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"analyze report lacks {engine} extrema: {exc!r}"]
    if not all(math.isfinite(v) for v in values):
        return [f"analyze {engine}: non-finite extrema {values}"]
    separation = d_min - d_max
    if shape and not (d_max < d_min and abs(d_max) <= 0.35 and 0.15 <= separation <= 0.35):
        return [f"analyze {engine}: max at {d_max}, min at {d_min} breaks criterion 5"]
    return []


def trace_distance(a, b) -> float:
    import numpy as np

    diff = np.asarray(a) - np.asarray(b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def check_oracle(label: str, state, exact) -> list[str]:
    """One oracle leg: the RK4 state against the exact propagated state."""
    dist = trace_distance(state, exact)
    if not dist <= ORACLE_TOL:
        return [f"oracle {label}: trace distance {dist:.3e} to expm_multiply above {ORACLE_TOL}"]
    return []
