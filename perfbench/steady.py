"""Steadiness check: run one workload over several seeds and print spreads.

Usage::

    python3 perfbench/steady.py --workload skewed --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (seeds ``first-seed`` onwards),
then prints, for every metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and ``(q3 - q1) /
median``.  A spread above a third of the metric's bound in
``BENCHMARK.json`` is flagged; the exit code is 1 if any run failed its
correctness gate or any end-to-end spread exceeds its bound.  Runs
take ``run_seconds`` from ``BENCHMARK.json`` and ``--trace 0``, exactly as
the gated metrics are taken.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=common.ROOT, timeout=900)
        elapsed = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            failures += 1
        shown = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            if name in bounds:
                shown.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: {elapsed:.0f}s correct={result['correct']} "
              + " ".join(shown), flush=True)
    worst = 0
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g}s")
    print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>8}")
    for name, vals in values.items():
        med, q1, q3, rel = common.spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = " ok" if rel < bound / 3 else " WIDE"
            if rel > bound:
                worst += 1
        print(f"  {name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{rel:>9.3f}{bound if bound is not None else '':>8}{flag}"
              f"  {units[name]}")
    return 1 if failures or worst else 0


if __name__ == "__main__":
    raise SystemExit(main())
