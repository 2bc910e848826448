"""Run the benchmark once per seed and report each metric's median and
quartile spread (IQR as a share of the median) against its bound.

    python3 perfbench/spread.py --workload server-concord --seeds 0-9 [--trace 0]

A metric is steady when its spread stays well inside its bound in
``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metricmath import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed {} was not correct".format(seed))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed {}: {}".format(seed, " ".join(
            "{}={:.6g}".format(n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print("{:<32} {:>14} {:>8} {:>7}".format("metric", "median", "spread", "bound"))
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) >= 2 else float("nan")
        bound = bounds.get(name)
        print("{:<32} {:>14.6g} {:>8.4f} {:>7}".format(
            name, statistics.median(series), spread,
            "" if bound is None else bound))


if __name__ == "__main__":
    main()
