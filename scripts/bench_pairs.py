"""Alternating pairs of benchmark runs, parent tree against changed tree.

    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seed S \
        --pairs 10 --seconds 30 --out pairs.json

Each root is a checkout holding ``bench/run.py`` and ``src/``. Pair k runs
``env PYTHONHASHSEED=0 python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each root, one run at a time, the parent
first when k is even. The last stdout line of every run is kept. The output
file holds every run's end-to-end metrics and, per metric, both sides'
medians and quartiles and the pairs the change won; ``--out`` appends a
workload/seed entry to an existing file. The file's top level names the
run command, each root's ``git rev-parse HEAD`` (null when the root is
not the top of a git checkout, or its ``src/`` or ``bench/`` differ from
HEAD), the platform and the Python version.

The runs neither write nor should read bytecode caches, so a root that
holds a ``__pycache__`` folder under ``src/`` or ``bench/`` is refused
with exit code 2, naming the folder: stale ``.pyc`` files there move
``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s", "op_p50_s", "op_tail_s", "work_cal", "peak_rss_mb"}
ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def bench_args(workload: str, seed: object, seconds: object) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]


def bytecode_folder(root: Path) -> Path | None:
    """The first ``__pycache__`` folder under the root's src/ or bench/."""
    found = (path for folder in ("src", "bench") for path in sorted((root / folder).rglob("__pycache__")))
    return next(found, None)


def head_sha(root: Path) -> str | None:
    """HEAD of the git checkout at root, or None when root is not its top
    folder or the checkout's src/ or bench/ differ from HEAD."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != root.resolve():
        return None
    if git("status", "--porcelain", "--", "src", "bench").stdout.strip():
        return None
    return git("rev-parse", "HEAD").stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run([sys.executable, *bench_args(workload, seed, seconds)], cwd=root,
                          env=dict(os.environ, **ENV), capture_output=True, text=True, check=True)
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
    for root in (args.parent, args.change):
        found = bytecode_folder(root)
        if found is not None:
            print(f"{found}: bytecode cache in a benchmarked root; remove it and rerun", file=sys.stderr)
            return 2
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
    command = [*(f"{k}={v}" for k, v in ENV.items()), Path(sys.executable).name, *bench_args("W", "S", "T")]
    found.update({"command": " ".join(command),
                  "parent_sha": head_sha(args.parent), "change_sha": head_sha(args.change),
                  "platform": platform.platform(), "python": sys.version})
    found["entries"].append(entry)
    args.out.write_text(json.dumps(found, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
