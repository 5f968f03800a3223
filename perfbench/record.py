"""Run every workload over several seeds and record the results in one file.

    python3 perfbench/record.py --seeds 0-9 --trace --out perfbench/baseline/BENCH_x.json

Each (workload, seed) pair is one ``run.py`` run.  For every end-to-end
metric and workload the table gives the median over the runs, the spread
(distance between the first and third quartiles over the median, the
figure each metric's bound in BENCHMARK.json is compared with), the number
of runs, the samples per run and the median wall time of one ``run.py``
command.  ``--trace`` adds one traced run per workload at the first seed.
The output file holds every run's results file, machine record included.  Exit status 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    result = json.loads((ROOT / ".bench_out" / f"{tag}.json").read_text())
    result["command_s"] = time.monotonic() - start
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="default: every workload, also those BENCHMARK.json leaves out")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="JSON file for every run's results")
    args = parser.parse_args(argv)

    runs, ok = [], True
    print(f"{'workload':<10} {'metric':<12} {'median':>10} {'unit':<5} {'spread':>7} "
          f"{'bound':>6} {'runs':>4}  samples/run  fail_frac  s/run")
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in seeds(args.seeds)]
        runs += results
        ok &= all(r["failed"] == 0 for r in results)
        fail = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        command_s = statistics.median(r["command_s"] for r in results)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            counts = sorted({r["metrics"][name]["n"] for r in results})
            print(f"{workload:<10} {name:<12} {statistics.median(values):>10.4f} "
                  f"{metric['unit']:<5} {spread(values):>7.3f} {metric['bound']:>6} "
                  f"{len(values):>4}  {'/'.join(map(str, counts)):<11}  {fail:<9.3g}  "
                  f"{command_s:.1f}",
                  flush=True)
    if args.trace:
        first = seeds(args.seeds)[0]
        for workload in args.workloads.split(","):
            result = run(workload, first, args.seconds, 1)
            runs.append(result)
            ok &= result["failed"] == 0
            print(f"traced, {workload} named: fail_frac {result['fail_frac']:.3g}, "
                  f"{result['command_s']:.1f} s")
            for name, metric in result["metrics"].items():
                print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
