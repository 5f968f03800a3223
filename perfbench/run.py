"""Benchmark entry point for the cavity-eit package.

    python3 perfbench/run.py --workload eit-1atom --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/cavity_eit``.  Each
workload runs in its own fresh worker process (``workloads.py``), so set-up
time and peak memory belong to it; extra worker processes that stop after
set-up give more set-up samples.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:

--trace 0  end-to-end metrics of the named workload: ``run_s`` (median wall
           time of a round of its calls), ``setup_s`` (median, interpreter
           start to inputs ready) and ``peak_rss_mb``.
--trace 1  per-layer metrics from one traced round of every workload, so
           every layer is measured; the named workload also runs one
           untraced round, and the difference is ``trace.overhead_s``.

Every output is checked (``gates.py``) before a number is reported.  A
results file with sample counts, failures and the machine record goes to
``.bench_out/``.  The benchmark sets no thread variable: it measures the
configuration users get by default and records what it found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
SETUP_PROBES = 2  # set-up samples besides the measuring worker's own
DEADLINE_S = 170.0  # a run must end within three minutes
THREAD_VARS = ("EIT_SIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def _worker(workload, args, work: Path, deadline: float, *extra) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {workload}")
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work)]
    cmd += ["--smoke"] * args.smoke + list(extra)
    cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine(worker_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **worker_env,
        "git_sha": _git_sha(),
        "env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def summary(samples: list[float], unit: str) -> dict:
    """Median, and the maximum as the highest percentile a few samples support."""
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "max": max(samples), "samples": samples}


def untraced(args, work: Path, deadline: float) -> dict:
    setups = []
    for k in range(1 if args.smoke else SETUP_PROBES):
        probe = _worker(args.workload, args, work / f"probe{k}", deadline, "--setup-only")
        setups.append(probe["setup_s"])
    res = _worker(args.workload, args, work / "run", deadline)
    setups.append(res["setup_s"])
    metrics = {
        "run_s": summary(res["rounds_s"], "s"),
        "setup_s": summary(setups, "s"),
        "peak_rss_mb": summary([res["peak_rss_mb"]], "MB"),
    }
    return {"attempted": res["attempted"], "failed": res["failed"],
            "failures": res["failures"], "metrics": metrics, "env": res["env"]}


def traced(args, work: Path, deadline: float) -> dict:
    from spans import combine

    per_workload, attempted, failed, failures = {}, 0, 0, []
    for workload in WORKLOADS:
        extra = ["--trace", "--untraced-rounds", "1" if workload == args.workload else "0"]
        res = _worker(workload, args, work / workload, deadline, *extra)
        layers = dict(res["layers"], **{"setup.import_s": res["import_s"]})
        if res["rounds_s"]:
            layers["trace.overhead_s"] = res["traced_s"][0] - res["rounds_s"][0]
        per_workload[workload] = layers
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
    layers = combine(per_workload.values())
    layers["setup.import_s"] = statistics.median(
        lay["setup.import_s"] for lay in per_workload.values())
    metrics = {name: {"value": layers.get(name, 0), "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "per_workload": per_workload, "env": res["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavity-eit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measure rounds until this much time has passed "
                             "(at least two; three for oracle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, one set-up probe; for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavity_eit" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'cavity_eit'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + "-smoke" * args.smoke
    work = ROOT / ".bench_out" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = (traced if args.trace else untraced)(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine(result.pop("env")),
              "fail_frac": result["failed"] / max(result["attempted"], 1), **result}
    (ROOT / ".bench_out" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        count = f" (n={m['n']}, max {m['max']:.6g})" if "n" in m else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{count}")
    print(f"{args.workload} fail_frac = {record['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
