"""Run-to-run spread of the end-to-end metrics, the way the benchmark's
acceptance is judged.

Usage::

    python3 perfbench/steady.py --workload hunt [--runs 10] [--first-seed 1]
        [--seconds S]

Runs ``perfbench/run.py --trace 0`` once per seed and prints, for every
metric, the median over the runs and the distance between the first and
third quartile as a share of that median, beside the bound from
``BENCHMARK.json``, and the same for the unscaled values each run
reports.  ``--seconds`` defaults
to the file's ``run_seconds``.  A run that exits non-zero, prints no
result or reports ``correct: false`` is listed and left out; the exit
code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchstats import median, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNSCALED = "  unscaled: "


def _result(stdout: str) -> "dict | None":
    lines = stdout.splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def _table(title: str, values: dict, bounds: dict) -> None:
    print(f"{title:32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        spread = f"{quartile_spread(series):8.3f}" if len(series) > 1 else f"{'-':>8s}"
        print(f"{name:32s} {median(series):12.5g} {spread} {bounds[name]:>6}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict = {name: [] for name in bounds}
    unscaled: dict = {}
    left_out = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        result = _result(out.stdout)
        if out.returncode != 0 or result is None or result.get("correct") is not True:
            left_out.append(seed)
            reason = "no result" if result is None else f"correct {result.get('correct')}"
            print(f"seed {seed}: LEFT OUT (exit {out.returncode}, {reason})\n"
                  + (out.stdout + out.stderr)[-2000:], flush=True)
            continue
        print(f"seed {seed}: "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        for line in out.stdout.splitlines():
            if line.startswith(UNSCALED):
                for pair in line[len(UNSCALED):].split(", "):
                    name, value = pair.split("=")
                    unscaled.setdefault(name, []).append(float(value))

    if any(values.values()):
        _table("metric", values, bounds)
    if unscaled:
        _table("metric, unscaled", unscaled, bounds)
    if left_out:
        print(f"left out {len(left_out)} of {args.runs} runs: seeds {left_out}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
