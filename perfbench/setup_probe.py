"""Time one fresh set-up: package import plus every config of a workload.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N

The inputs are generated before the clock starts (standard library only,
so nothing of numpy is imported early).  Prints the elapsed seconds as the
last line.  ``run.py`` starts several of these and reports their median.
"""

from __future__ import annotations

import argparse
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    overrides = [
        o for task in workloads.build(args.workload, args.seed)
        for o in workloads.config_overrides(task)
    ]
    start = time.perf_counter()
    from ergodyn.scenarios import load_config

    for entry in overrides:
        try:
            load_config(None, entry)
        except Exception:  # the task that uses it fails, and is counted
            pass
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
