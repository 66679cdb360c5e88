"""Alternating pairs of benchmark runs, parent tree against changed tree.

    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seed S \
        --pairs 10 --seconds 30 --out pairs.json

Each root is a checkout holding ``bench/run.py`` and ``src/``. Pair k runs
``env PYTHONHASHSEED=0 python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each root, one run at a time, the parent
first when k is even. The last stdout line of every run is kept. The output
file holds every run's end-to-end metrics and, per metric, both sides'
medians and quartiles and the pairs the change won; ``--out`` appends a
workload/seed entry to an existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s", "op_p50_s", "op_tail_s", "work_cal", "peak_rss_mb"}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {}
    for name in runs[0]["metrics"]:
        entry = {}
        for side, side_runs in sides.items():
            values = sorted(r["metrics"][name] for r in side_runs)
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        lower = name in LOWER_IS_BETTER
        wins = sum((c["metrics"][name] < p["metrics"][name]) == lower
                   and c["metrics"][name] != p["metrics"][name]
                   for p, c in zip(sides["parent"], sides["change"]))
        entry["change_wins"] = f"{wins}/{len(sides['parent'])}"
        entry["relative_change"] = entry["change"]["median"] / entry["parent"]["median"] - 1
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            run = run_once(root, args.workload, args.seed, args.seconds)
            runs.append({"pair": pair, "side": side, **run})
            print(json.dumps(runs[-1]), flush=True)
    runs.sort(key=lambda r: (r["pair"], r["side"] != "parent"))
    entry = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "summary": summary(runs), "runs": runs}
    found = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {"entries": []}
    found["entries"].append(entry)
    args.out.write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
