"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads antipode-sweep feedback-group cli-session \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0|1] [--out FILE]

For every workload and metric it prints the median over the seeds, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  Runs
are sequential, so they do not compete for the two cores.  With --out the
summary is also stored in that JSON file under "trace0" or "trace1", next
to what an earlier call stored there (bench/baseline.json holds the
baseline recorded this way).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        values: dict[str, list] = {}
        checks = [0, 0]
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            checks[0] += result["attempted"]
            checks[1] += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
                if name in bounds), flush=True)
        rows = {}
        for name, vals in values.items():
            if not any(vals):
                continue  # a layer this workload does not reach
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(vals),
                          "spread": (q3 - q1) / median if median else 0.0}
            if name in bounds or args.trace:
                print(f"  {workload} {name}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                      f"spread {rows[name]['spread']:.3f}"
                      + (f" (bound {bounds[name]})" if name in bounds else ""), flush=True)
        summary[workload] = {"seeds": args.seeds, "checks_attempted": checks[0],
                             "checks_failed": checks[1], "metrics": rows}
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data["machine"] = (f"{platform.machine()}, {os.cpu_count()} cpus, "
                           f"Python {platform.python_version()}")
        data.setdefault(f"trace{args.trace}", {}).update(summary)
        out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
