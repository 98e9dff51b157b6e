#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed 2]

It checks two things:

1. Seeded inputs: for every workload, the same seed yields identical
   trace bytes in two separate processes, and another seed yields
   different bytes.
2. A seed other than the one used while tuning (default 2) runs all four
   workloads clean, untraced and traced: every run is correct, no
   operation failed, and each reports exactly the metrics BENCHMARK.json
   lists, with their units.

Exit code 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (sibling module)


def digest(workload, seed):
    out = subprocess.run([run.BINARY, "--trace-digest", "--workload",
                          workload, "--seed", str(seed)],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip().split(": ", 1)[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    if not run.build():
        print("selftest: build failed")
        return 1
    failures = []

    for workload in run.WORKLOADS:
        first, again = digest(workload, 7), digest(workload, 7)
        other = digest(workload, 8)
        ok = first == again and first != other
        print("inputs %-9s seed 7: %s, again: %s, seed 8: %s -> %s"
              % (workload, first, again, other, "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s trace bytes are not seed-determined"
                            % workload)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().split("\n")
            result = run.parse_result(lines[-1]) if lines else None
            problems = []
            if proc.returncode != 0 or result is None:
                problems.append("exit code %d, no result" % proc.returncode)
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%d of %d operations failed"
                                    % (result["failed"],
                                       result["attempted"]))
                units = {name: m["unit"]
                         for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append("metrics differ from BENCHMARK.json")
            print("run    %-9s seed %d trace %d: %s"
                  % (workload, args.seed, trace,
                     "; ".join(problems) if problems else "ok"))
            if problems:
                failures.append("%s trace %d: %s"
                                % (workload, trace, "; ".join(problems)))

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
