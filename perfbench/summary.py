"""Print every end-to-end metric, one row per workload.

Run from the repository root::

    python3 perfbench/summary.py --seed 1

Each workload runs once through ``run.py`` (untraced), for the
``run_seconds`` of ``BENCHMARK.json``; the table shows each metric with its
unit, plus whether the outputs were correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402
from run import END_TO_END  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    arguments = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    header = ["workload", "correct", "failed/attempted"] + [f"{name} [{unit}]" for name, unit in END_TO_END]
    rows = []
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(arguments.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        if completed.returncode != 0:
            rows.append([workload, "error", "-"] + ["-"] * len(END_TO_END))
            continue
        result = json.loads(completed.stdout.decode("utf-8").strip().splitlines()[-1])
        metrics = result["metrics"]
        rows.append([workload, str(result["correct"]), f"{result['failed']}/{result['attempted']}"]
                    + [f"{metrics[name]['value']:.6g}" for name, _unit in END_TO_END])
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
