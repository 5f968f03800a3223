"""One benchmark workload in one fresh process.

``run.py`` starts this file once per workload and once per extra set-up
sample.  It imports the package from ``<root>/src``, generates the
workload's inputs from the seed, runs timed rounds, checks every output
outside the timed region, and prints one JSON object as its last line.

Workloads (see README.md for why each exists):

eit-1atom  ``eit-sweep --engine both`` on the 261-point one-atom window, then
           ``analyze``.
eit-2atom  a two-atom ``eit-sweep`` over two seeded detunings, near 0 and
           +1.5 MHz.
oracle     RK4 ``evolve`` legs: N=1 over T_ORACLE, N=2 over 0.5 us.
cli-short  ``converge``, two 241-point ``cavity-scan``s, a 29-point
           ``eit-sweep`` and ``analyze``.

Seed 0 reproduces the CLI defaults; other seeds shift each window by a
sub-grid offset and redraw detunings and initial states.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates

WORKLOADS = ("eit-1atom", "eit-2atom", "oracle", "cli-short")
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"

KAPPA_MHZ = 0.4  # PhysicsParams default, fixes the oracle horizon below
T_ORACLE = 20.0 / (2.0 * math.pi * KAPPA_MHZ)  # us, criterion 7's horizon
T_ORACLE_N2 = 0.5  # us; RK4 is within ~3e-7 of exact here (1e-5 at 0.2 us)
APPLY_REPEATS = 31
# run_s is a median of at least this many rounds, even where they outlast
# --seconds.  The host's speed swings for about one oracle round (12-15 s);
# the oracle's two-round mean spread up to 25 % across seeds, so it takes a
# median of three, which drops one slow round.
MIN_ROUNDS = {"eit-1atom": 2, "eit-2atom": 2, "oracle": 3, "cli-short": 2}


def now() -> float:
    """CLOCK_MONOTONIC, comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class CliCall:
    """One ``cavity_eit.cli.main`` call; ``{dir}`` in argv is the round's directory."""

    label: str
    argv: list[str]
    points: int  # sweep points the output stands for, each an operation
    check: Callable[[Path, str], list[str]]  # (round_dir, stdout) -> failure messages


@dataclass
class OracleLeg:
    n_atoms: int
    model: object
    rho0: object
    t_final: float

    @property
    def label(self) -> str:
        return f"N={self.n_atoms}"


def _offset(rng: random.Random, seed: int, step: float) -> float:
    return 0.0 if seed == DEFAULT_SEED else rng.uniform(-0.5, 0.5) * step


def _grid(start: float, stop: float, n: int) -> list[float]:
    step = (stop - start) / (n - 1)
    return [start + k * step for k in range(n - 1)] + [stop]


def _write_config(path: Path, **values) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def _spectrum_check(name, column, grid, engines, reference):
    def check(round_dir, stdout):
        return gates.check_spectrum(Path(round_dir) / name, column, grid, engines, reference)
    return check


def _analyze_check(shape):
    def check(round_dir, stdout):
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"analyze printed no JSON: {stdout[:200]!r}"]
        failures = []
        for engine in ("me", "sc"):
            failures += gates.check_extrema(report, engine, shape and engine == "me")
        return failures
    return check


def _sweep_calls(label, cfg, grid, atoms, engines, reference, analyze, shape):
    name = f"{label}.csv"
    calls = [CliCall(label, ["eit-sweep", "--config", cfg, "--atoms", str(atoms),
                             "--engine", "both" if len(engines) == 2 else "me",
                             "--out", "{dir}/" + name, "--deterministic"],
                     len(grid) * len(engines),
                     _spectrum_check(name, "delta_MHz", grid, engines, reference))]
    if analyze:
        calls.append(CliCall(f"{label}.analyze", ["analyze", "--in", "{dir}/" + name], 0,
                             _analyze_check(shape)))
    return calls


def make_plan(workload: str, seed: int, smoke: bool, work: Path, references: dict):
    """Inputs for one workload: a list of CLI calls or of oracle legs."""
    rng = random.Random(f"{workload}/{seed}")
    ref = references.get(workload, {}) if seed == DEFAULT_SEED and not smoke else {}

    if workload == "eit-1atom":
        n = 53 if smoke else 261
        off = _offset(rng, seed, 2.6 / (n - 1))
        start, stop = -0.9 + off, 1.7 + off
        cfg = _write_config(work / "eit1.cfg", start=start, stop=stop, n_points=n)
        return _sweep_calls("spectrum", cfg, _grid(start, stop, n), 1, ("me", "sc"),
                            ref.get("spectrum"), analyze=True, shape=True)

    if workload == "eit-2atom":
        # Two-photon resonance and criterion 9's +1.5 MHz, each moved by up to
        # 0.05 MHz: the sparse LU's cost varies ~15 % across the window.
        start = _offset(rng, seed, 0.1)
        stop = 1.5 + _offset(rng, seed, 0.1)
        cfg = _write_config(work / "eit2.cfg", start=start, stop=stop, n_points=2,
                            n_max=1 if smoke else 2)
        return _sweep_calls("spectrum", cfg, _grid(start, stop, 2), 2, ("me",),
                            ref.get("spectrum"), analyze=False, shape=False)

    if workload == "cli-short":
        n_max_list = [1, 2] if smoke else [2, 3, 4]
        n_scan = 21 if smoke else 241
        off = _offset(rng, seed, 6.0 / (n_scan - 1))
        scan_grid = _grid(-3.0 + off, 3.0 + off, n_scan)
        off = _offset(rng, seed, 1.4 / 28)
        start, stop = -0.7 + off, 0.7 + off
        cfg = _write_config(work / "short.cfg", start=start, stop=stop, n_points=29)

        def converge_check(round_dir, stdout):
            return gates.check_converge(Path(round_dir) / "converge.csv", n_max_list,
                                        ref.get("converge"))

        calls = [CliCall("converge", ["converge", "--nmax-list", ",".join(map(str, n_max_list)),
                                      "--out", "{dir}/converge.csv", "--deterministic"],
                         0, converge_check)]
        for atoms in (0, 1):
            name = f"scan{atoms}"
            calls.append(CliCall(
                name, ["cavity-scan", "--atoms", str(atoms), "--start", repr(scan_grid[0]),
                       "--stop", repr(scan_grid[-1]), "--points", str(n_scan),
                       "--out", "{dir}/" + name + ".csv", "--deterministic"],
                n_scan, _spectrum_check(name + ".csv", "delta_p_cav_MHz", scan_grid, ("me",),
                                        ref.get(name))))
        calls += _sweep_calls("sweep29", cfg, _grid(start, stop, 29), 1, ("me", "sc"),
                              ref.get("sweep29"), analyze=True, shape=False)
        return calls

    if workload == "oracle":
        return _oracle_legs(rng, seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _oracle_legs(rng: random.Random, seed: int, smoke: bool) -> list[OracleLeg]:
    import numpy as np
    from dataclasses import replace

    from cavity_eit import DensityMatrix, PhysicsParams, build_model

    legs = []
    for n_atoms, horizon, default_delta in ((1, T_ORACLE, 0.1), (2, T_ORACLE_N2, 1.5)):
        if seed == DEFAULT_SEED:
            delta, weights = default_delta, [0.5] * n_atoms
        else:
            delta = rng.uniform(-0.9, 1.7)
            weights = [rng.uniform(0.2, 0.8) for _ in range(n_atoms)]
        params = replace(PhysicsParams(), n_atoms=n_atoms, delta=delta)
        if smoke:
            # Smaller hyperfine offsets allow a longer stable RK4 step, so a
            # horizon where RK4 already meets ORACLE_TOL takes ~3 s, not ~14 s.
            horizon = min(horizon, 1.0)
            params = replace(params, omega_d=-40.0, omega_f=50.0, n_max=3 - n_atoms)
        model = build_model(params)
        # ground-state mixture p|g1><g1| + (1-p)|g2><g2| per atom, cavity in vacuum
        rho = np.ones((1, 1))
        for p in weights:
            rho = np.kron(rho, np.diag([p, 1.0 - p, 0.0, 0.0, 0.0]))
        vacuum = np.zeros((params.n_max + 1,) * 2)
        vacuum[0, 0] = 1.0
        rho0 = DensityMatrix(model.space, np.kron(rho, vacuum))
        legs.append(OracleLeg(n_atoms, model, rho0, horizon))
    return legs


def _run_cli(call: CliCall, round_dir: Path):
    from cavity_eit import cli

    argv = [a.replace("{dir}", str(round_dir)) for a in call.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            status = f"raised {type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue()


def run_round(plan, round_dir: Path):
    """Run every call of one round; return (wall seconds, outcomes, round_dir)."""
    from cavity_eit import liouville

    round_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    start = time.perf_counter()
    for item in plan:
        if isinstance(item, CliCall):
            outcomes.append(_run_cli(item, round_dir))
        else:
            try:
                outcomes.append(liouville.evolve(item.model, item.rho0, item.t_final))
            except Exception as exc:  # noqa: BLE001 - counted as a failed leg
                outcomes.append(exc)
    return time.perf_counter() - start, outcomes, round_dir


def check_round(plan, round_dir: Path, outcomes, exact) -> tuple[int, list[str]]:
    """Operations attempted in one round, and one message per failed one."""
    attempted, failures = 0, []
    for k, (item, outcome) in enumerate(zip(plan, outcomes)):
        if isinstance(item, CliCall):
            ops = 1 + item.points
            attempted += ops
            status, stdout, stderr = outcome
            if status != 0:
                failures += [f"{item.label}: exit {status}; {stderr.strip()[:300]}"] * ops
            else:
                failures += item.check(round_dir, stdout)[:ops]
        else:
            attempted += 1
            if isinstance(outcome, Exception):
                failures.append(f"oracle {item.label}: {type(outcome).__name__}: {outcome}")
            else:
                failures += gates.check_oracle(item.label, outcome.matrix, exact[k])
    return attempted, failures


def exact_states(plan) -> list:
    """expm_multiply of each oracle leg's assembled generator on its initial state."""
    from scipy.sparse.linalg import expm_multiply

    from cavity_eit import build_superoperator

    states = []
    for item in plan:
        if isinstance(item, OracleLeg):
            dim = item.rho0.matrix.shape[0]
            vec = item.rho0.matrix.reshape(-1, order="F")
            gen = build_superoperator(item.model)
            states.append(expm_multiply(gen * item.t_final, vec).reshape((dim, dim), order="F"))
        else:
            states.append(None)
    return states


def apply_ms(leg: OracleLeg, state) -> float:
    """Median wall time of one ``liouvillian_apply`` on the leg's final state."""
    from cavity_eit import liouvillian_apply

    samples = []
    for _ in range(APPLY_REPEATS):
        start = time.perf_counter()
        liouvillian_apply(leg.model, state)
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/cavity_eit")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="one traced round, after --untraced-rounds plain ones")
    parser.add_argument("--untraced-rounds", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced problem sizes")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this seed-0 run's T_rel values in {REFERENCE_FILE.name}")
    args = parser.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    start = now()
    import cavity_eit
    import_s = now() - start
    if not Path(cavity_eit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cavity_eit imported from {cavity_eit.__file__}, not {src}")

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    plan = make_plan(args.workload, args.seed, args.smoke, work, references)
    setup_s = now() - args.spawned
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    traced = []
    if args.trace:
        from spans import Tracer, instrument, layer_metrics

        rounds = [run_round(plan, work / f"round{k}") for k in range(args.untraced_rounds)]
        tracer = Tracer()
        with instrument(tracer):
            traced.append(run_round(plan, work / "traced"))
        peak_rss_mb = _peak_rss_mb()
    else:
        rounds = []
        deadline = time.perf_counter() + args.seconds
        min_rounds = 1 if args.smoke else MIN_ROUNDS[args.workload]
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            rounds.append(run_round(plan, work / f"round{len(rounds)}"))
            if len(rounds) == 1:
                # One round is what one set of CLI processes holds; later
                # rounds add allocator fragmentation left by pool threads.
                peak_rss_mb = _peak_rss_mb()

    exact = exact_states(plan)
    attempted, failures = 0, []
    for _, outcomes, round_dir in rounds + traced:
        n, bad = check_round(plan, round_dir, outcomes, exact)
        attempted += n
        failures += bad

    result.update(
        rounds_s=[wall for wall, _, _ in rounds],
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        env=environment(),
    )
    if traced:
        wall, outcomes, round_dir = traced[0]
        layers = layer_metrics(tracer.spans)
        layers["cli.csv_bytes"] = sum(p.stat().st_size for p in round_dir.glob("*.csv"))
        for item, outcome in zip(plan, outcomes):
            if isinstance(item, OracleLeg) and not isinstance(outcome, Exception):
                layers[f"liouville.apply_n{item.n_atoms}_ms"] = apply_ms(item, outcome)
        result.update(traced_s=[wall], layers=layers, spans=len(tracer.spans))
    if args.record_reference:
        if args.seed != DEFAULT_SEED or args.smoke or failures:
            raise SystemExit("references come from a clean full-size seed-0 run")
        first = rounds[0][2]
        record = {}
        for item in plan:
            if isinstance(item, CliCall) and item.points:
                _, rows = gates.read_csv(first / f"{item.label}.csv")
                record[item.label] = [float(row[1]) for row in rows]
            elif isinstance(item, CliCall) and item.label == "converge":
                _, rows = gates.read_csv(first / "converge.csv")
                record["converge"] = [float(row[2]) for row in rows]
        references[args.workload] = record
        REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
