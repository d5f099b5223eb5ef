"""Repeat the benchmark over several seeds and summarize the spread between runs.

    python3 bench/repeat.py --workloads dvr-sweep tonks-dense levels \
        --runs 10 --first-seed 101 --seconds 38 [--label NAME]

Runs ``bench/run.py`` untraced, once per seed and workload, one run at a
time, and prints for every metric the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread (Q3 - Q1) / median,
with the bound from BENCHMARK.json beside it.  The raw result lines go to
``bench/out/repeat-<label>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }

    results = {}
    for workload in args.workloads:
        rows = results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row["seed"] = seed
            rows.append(row)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in row["metrics"].items())
            print(f"{workload} seed {seed}: failed {row['failed']}/{row['attempted']} {values}",
                  flush=True)

    out = BENCH / "out" / f"repeat-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nraw results in {out}")
    for workload, rows in results.items():
        failed = sorted({(r["failed"], r["attempted"]) for r in rows})
        print(f"\n{workload}: {len(rows)} runs, failed/attempted {failed}, "
              f"correct {all(r['correct'] for r in rows)}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            print(f"  {name:14s} median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}%  bound {100 * bounds[name]:.0f}%")


if __name__ == "__main__":
    main()
