"""Every workload, untraced then traced, one after another; one table.

    python3 perfbench/suite.py [--seed N] [--seconds S]

Runs ``run.py`` in a fresh process per workload and mode, never two at once,
and prints each metric by workload, name, value and unit. Exits nonzero if
any run failed or any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':<16} {'trace':>5} {'metric':<30} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{name:<16} {trace:>5} run failed with exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if proc.returncode or not result["correct"]:
                status = 1
            print(f"{name:<16} {trace:>5} {'correct':<30} {str(result['correct']):>14}")
            print(f"{name:<16} {trace:>5} {'attempted':<30} {result['attempted']:>14}  count")
            print(f"{name:<16} {trace:>5} {'failed':<30} {result['failed']:>14}  count")
            for metric, m in result["metrics"].items():
                print(f"{name:<16} {trace:>5} {metric:<30} {m['value']:>14.6g}  {m['unit']}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
