"""Run every workload untraced and traced; print every metric and check result.

    python3 perfbench/report.py [--seed 0]

Each run is its own `run.py` process, so peak memory stays per workload.
Exits nonzero if any run fails to produce a result or counts a failure.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {workload['name']} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {workload['name']} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"err_rate={result['failed'] / result['attempted']:g}")
            for line in lines[:-1]:
                print("   " + line)
            status = status or int(not result["correct"])
    return status


if __name__ == "__main__":
    sys.exit(main())
