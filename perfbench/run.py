#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload capacity-sweep --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload capacity-sweep --seed 3 --trace 1
    python3 perfbench/run.py --workload transform-serve --open-rate 100 --seed 7

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace
1`` makes the separate serial, in-process traced run and prints the
per-layer metrics.  Every metric is printed as ``name value unit``; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC

WORKLOADS = ("capacity-sweep", "transform-serve")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 open_rate=None, tiny: bool = False) -> dict:
    """The workload's outcome: metrics ``{name: (value, unit)}``,
    ``attempted``, ``failed`` and ``correct``."""
    if workload == "transform-serve":
        import serving

        if open_rate is None:
            raise ValueError("transform-serve needs --open-rate")
        if trace:
            return serving.run_traced(seed, seconds, open_rate, tiny=tiny)
        return serving.run_end_to_end(seed, seconds, open_rate, tiny=tiny)
    import sweeps

    if trace:
        return sweeps.run_traced(workload, seed, tiny=tiny)
    return sweeps.run_end_to_end(workload, seed, seconds, tiny=tiny)


def result_line(outcome: dict) -> str:
    return json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (7: the repo's default settings "
                             "seed, which has reference digests)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--open-rate", type=float, default=None,
                        help="transform-serve open-loop rate, requests/s")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), open_rate=args.open_rate)
    for name, (value, unit) in sorted(outcome["metrics"].items()):
        print(f"{name:<46} {value:>14.6g} {unit}")
    print(f"{'fail_frac':<46} {outcome['failed'] / outcome['attempted']:>14.6g}"
          f" ratio ({outcome['failed']} of {outcome['attempted']})")
    for key, value in sorted(outcome.get("info", {}).items()):
        print(f"# {key}: {json.dumps(value, default=str)}")
    print(result_line(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
