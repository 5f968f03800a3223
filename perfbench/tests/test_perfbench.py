"""Tests of the benchmark itself: span arithmetic, output gates, smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, thread=1):
    return spans.Span(name, start, end, thread, parent)


def test_self_time_subtracts_union_of_overlapping_worker_spans():
    sweep = _span("sweep", 0.0, 10.0, None)
    children = [
        _span("steady_state", 1.0, 5.0, 0, thread=2),
        _span("steady_state", 2.0, 6.0, 0, thread=3),  # overlaps the first
        _span("model", 5.5, 5.8, 0, thread=2),  # inside the union already
        _span("semiclassical", 7.0, 9.0, 0),
        _span("steady_state", 9.5, 12.0, 0, thread=3),  # runs past the parent
    ]
    # covered: [1, 6] + [7, 9] + [9.5, 10] = 7.5
    assert spans.self_time(sweep, children) == pytest.approx(2.5)
    metrics = spans.layer_metrics([sweep] + children)
    assert metrics["sweep.self_s"] == pytest.approx(2.5)
    assert metrics["sweep.busy_over_wall"] == pytest.approx((4 + 4 + 0.3 + 2 + 2.5) / 10)


def test_pool_thread_spans_attach_to_the_open_anchor():
    tracer = spans.Tracer()
    child = tracer.wrap("steady_state", lambda: time.sleep(0.05))

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(child) for _ in range(4)]:
                future.result()

    tracer.wrap("sweep", sweep, anchor=True)()
    outer = tracer.spans[0]
    workers = tracer.spans[1:]
    assert outer.name == "sweep" and len(workers) == 4
    assert all(s.parent == 0 for s in workers)
    assert {s.thread for s in workers} != {threading.get_ident()}
    # two threads sleep side by side: busy time is about twice the covered time
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sweep.busy_over_wall"] > 1.5
    assert 0.0 <= metrics["sweep.self_s"] < outer.duration / 2


def test_instrument_restores_every_rebound_function():
    from cavity_eit import cli, liouville, sweep

    before = (cli.main, cli.run_sweep, sweep.steady_state, liouville.evolve,
              dict(sweep._BUILDERS))
    with spans.instrument(spans.Tracer()):
        assert sweep._BUILDERS["five"] is not before[4]["five"]
    assert (cli.main, cli.run_sweep, sweep.steady_state, liouville.evolve,
            dict(sweep._BUILDERS)) == before


@pytest.fixture(scope="module")
def small_spectrum(tmp_path_factory):
    from cavity_eit.cli import main

    work = tmp_path_factory.mktemp("spectrum")
    cfg = work / "run.cfg"
    cfg.write_text("start = -0.7\nstop = 0.7\nn_points = 29\n", encoding="utf-8")
    out = work / "sweep.csv"
    assert main(["eit-sweep", "--config", str(cfg), "--engine", "both",
                 "--out", str(out), "--deterministic"]) == 0
    grid = workloads._grid(-0.7, 0.7, 29)
    _, rows = gates.read_csv(out)
    return out, grid, [float(row[1]) for row in rows]


def test_spectrum_gate_accepts_program_output(small_spectrum):
    path, grid, reference = small_spectrum
    assert gates.check_spectrum(path, "delta_MHz", grid, ("me", "sc"), reference) == []


def test_spectrum_gate_rejects_t_rel_perturbed_by_1e_6(small_spectrum, tmp_path):
    path, grid, reference = small_spectrum
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[7].split(",")
    fields[1] = format(float(fields[1]) + 1e-6, ".12g")
    lines[7] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures = gates.check_spectrum(bad, "delta_MHz", grid, ("me", "sc"), reference)
    assert len(failures) == 1 and "reference" in failures[0]


def test_spectrum_gate_rejects_large_residual_and_missing_rows(small_spectrum, tmp_path):
    path, grid, _ = small_spectrum
    lines = path.read_text(encoding="utf-8").splitlines()
    me_row = next(k for k, line in enumerate(lines) if ",me," in line)
    fields = lines[me_row].split(",")
    fields[6] = "2e-09"
    lines[me_row] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    failures = gates.check_spectrum(bad, "delta_MHz", grid, ("me", "sc"))
    assert len(failures) == 3  # one residual, two missing rows


def test_oracle_gate_rejects_a_wrong_state():
    from cavity_eit import DensityMatrix, PhysicsParams, build_model, evolve

    params = replace(PhysicsParams(), n_atoms=0, n_max=4)
    model = build_model(params)
    vacuum = np.zeros((5, 5), dtype=complex)
    vacuum[0, 0] = 1.0
    leg = workloads.OracleLeg(0, model, DensityMatrix(model.space, vacuum), 1.0)
    exact = workloads.exact_states([leg])[0]
    state = evolve(leg.model, leg.rho0, leg.t_final).matrix
    assert gates.check_oracle("empty", state, exact) == []
    wrong = state.copy()
    wrong[0, 0] += 2e-6
    wrong[1, 1] -= 2e-6
    assert len(gates.check_oracle("empty", wrong, exact)) == 1


def test_plans_are_deterministic_per_seed(tmp_path):
    def argvs(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        plan = workloads.make_plan("cli-short", seed, False, work, {})
        return [c.argv for c in plan], (work / "short.cfg").read_text()

    assert argvs(7, "a")[1] == argvs(7, "b")[1]
    assert argvs(7, "c")[1] != argvs(8, "d")[1]
    assert "start = -0.7\n" in argvs(workloads.DEFAULT_SEED, "e")[1]


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_traced_smoke_run_reports_every_layer():
    proc = _bench("--workload", "cli-short", "--seed", "3", "--seconds", "0", "--smoke",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    for name in ("liouville.evolve_n2_s", "liouville.apply_n1_ms", "sweep.converge_s",
                 "sweep.extrema_s", "liouville.solve_self_s", "cli.self_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
