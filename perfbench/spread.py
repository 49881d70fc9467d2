"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload lake-slam --seeds 0-9 [--trace 0] [--seconds 20]

Runs ``perfbench/run.py`` one seed at a time, in this process's working
directory, and prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the bound in BENCHMARK.json.  The last line is the summary
as JSON.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                          for n, m in result["metrics"].items()
                                          if n in bounds or args.trace))

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": vals}
        bound = bounds.get(name)
        print(f"{name:<44} median {median:<12.6g} spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                      "seconds": seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
