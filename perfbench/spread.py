"""Check the benchmark is steady: run one workload over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload campaign-mixed --seeds 1-10

Runs ``perfbench/run.py`` once per seed (``run_seconds`` from
``BENCHMARK.json`` unless ``--seconds`` is given), one run at a time,
and prints for every end-to-end metric the median of the runs and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound.  A metric is steady when that
spread stays below a third of its bound (``setup_s`` is exempt from
the spread rule).  The metrics a run reports but ``BENCHMARK.json``
does not declare are listed after them, read from the run's record
in ``.perfbench/``.  Exits 1 if any run was incorrect or any spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="a range 1-10 or a list 3,5,8")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    #: Metrics the run reported but BENCHMARK.json does not declare.
    extra: dict[str, list[float]] = {}
    bad = 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            bad += 1
            continue
        bad += not result["correct"]
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): "
              f"correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads((ROOT / ".perfbench" / (
            f"{args.workload}-seed{seed}-trace0.json")).read_text())
        for name, metric in record["metrics"].items():
            if name not in result["metrics"]:
                extra.setdefault(name, []).append(metric["value"])

    failed = bad > 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values.get(name, [])
        if len(vals) < 2:
            print(f"{name}: too few values")
            failed = True
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = spread <= bound / 3.0
        verdict = "steady" if steady else (
            "within bound" if spread <= bound else "TOO NOISY")
        if name != "setup_s" and spread > bound:
            failed = True
        print(f"{name:<20} median {med:<12.6g} spread {spread:7.2%} "
              f"bound {bound:.0%}  {verdict}")
    for name, vals in sorted(extra.items()):
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<20} median {med:<12.6g} spread {spread:7.2%} "
              "(not declared)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
