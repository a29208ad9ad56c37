"""Repeat the benchmark and print each metric's median and quartiles.

    python3 rqbench/repeat.py --seeds 1-10 --seconds 20

Runs rqbench/run.py untraced once per (seed, workload), seeds in the outer
loop so that a slow spell of the host touches every workload alike, and
prints per workload and metric the median, the quartiles
(statistics.quantiles, n=4) and the interquartile range as a share of the
median.  The runs' last lines are kept in rqbench/results/repeat-SEEDS.json,
e.g. repeat-1-10.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("eval-warm", "train-n14", "large-n22")


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        for wl in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = perf_counter()
            done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  timeout=900)
            wall = perf_counter() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                print(f"{wl} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            last = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": wl, "seed": seed, "wall_s": wall, **last})
            print(f"{wl} seed {seed}: {wall:.1f} s, correct={last['correct']}, "
                  f"failed {last['failed']}/{last['attempted']}", flush=True)

    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"repeat-{args.seeds.replace(',', '_')}.json"
    out.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"\n{'workload':<10} {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for wl in WORKLOADS:
        mine = [r for r in runs if r["workload"] == wl]
        for name in mine[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in mine])
            print(f"{wl:<10} {name:<44} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['iqr_share']:>8.4f}")
        shares = {r["failed"] / r["attempted"] for r in mine}
        walls = [r["wall_s"] for r in mine]
        print(f"{wl:<10} {'failed share (distinct values)':<44} {sorted(shares)}")
        print(f"{wl:<10} {'run wall seconds (max)':<44} {max(walls):>12.1f}")
    print(f"\nruns kept in {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
