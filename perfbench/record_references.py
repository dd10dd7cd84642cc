#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record_references.py --seeds 0-99 [--workloads protocol_rf,...]

For every (workload, seed) it generates the inputs, runs one iteration,
requires it to pass its checks, and stores its digests in
perfbench/references.json; every benchmark run then checks each of its
iterations against them. Re-record only when a
change is meant to alter computed output, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,2,5-7")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)

    modules = run.import_program()
    sys.path.insert(0, str(run.HERE))
    import workloads

    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    data = {"version": 1, "workloads": run.load_references()}
    for name in names:
        table = data["workloads"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            work = run.ROOT / ".perfbench" / f"record-{name}-{seed}"
            runner = run.Runner(workloads.WORKLOADS[name], seed, modules, work, references={})
            try:
                runner.setup()
                runner.iteration()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if runner.failures:
                print(f"{name} seed {seed}: not recorded: {runner.failures[:3]}", file=sys.stderr)
                return 1
            table[str(seed)] = runner.digests
            print(f"{name} seed {seed}: {len(runner.digests)} digests", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
