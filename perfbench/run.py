"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload {skewed,uniform} --seed N \
        --seconds S --trace {0,1}

Each workload has two halves, run one after the other from the same
seed: an analyst session through the public Python API (:mod:`analyst`),
then closed-loop clients of a ``repro serve`` child on a durable store
built from the seeded web stand-in input (:mod:`serve`).  Both halves run
in every workload because every run reports every metric.  Each half
measures for half of ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when the run completed (check ``correct`` for the gate) and non-zero
when it could not run at all.
"""

from __future__ import annotations

import argparse

import common

WORKLOADS = ("skewed", "uniform")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    common.require_program()
    common.pin_environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    import analyst
    import serve

    half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    result = common.combine([analyst.drive(half), serve.drive(half)])
    common.emit(result.correct, result.attempted, result.failed,
                result.metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
