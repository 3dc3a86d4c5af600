#!/usr/bin/env python3
"""Write the reference digests the sweep workload checks against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --seeds 7 0 1 2

Runs the sweep workload once per seed, cold and serial, and stores the
digest of its simulated statistics in ``perfbench/reference.json``.
Regenerate only when a change is meant to alter simulated results, and
say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, WorkDir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=["capacity-sweep"])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import sweeps

    path = sweeps.REFERENCE_PATH
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workloads:
        for seed in args.seeds:
            plan = sweeps.make_plan(workload, seed)
            with WorkDir(workload + "-reference") as work:
                _, result, runner = sweeps.timed_run(plan, work / "cache",
                                                     serial=True)
            data.setdefault(workload, {})[str(seed)] = sweeps.run_digest(
                result, runner)
            print(f"{workload} seed {seed}: {data[workload][str(seed)]['table']}")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
