"""Benchmark of cantordensity: seeded workloads, checked answers, steady timings.

Usage, from the root of the repository:

    env PYTHONHASHSEED=0 python3 bench/run.py --workload offspring-trace \
        --seed 1 --seconds 30 --trace 0

Each operation is one CLI call made in-process through
``cantordensity.cli:main`` with stdout captured, or one call of a
clopen set operation. Operations run in interleaved rounds until
``--seconds`` have passed. A fixed calibration loop runs just before
and just after every operation; the operation's time divided by their
mean is its calibrated work, and its median over the rounds times the
run's fastest calibration loop is its time in quiet-host seconds.
Set-up time comes from separate fresh interpreters. With
``--trace 1`` one round runs plain and one traced, and the per-layer
metrics are printed instead.

The last line of stdout is one JSON object: correct, attempted,
failed and metrics. Run details go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

from calibration import calibration
from checks import perturb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
SETUP_LAUNCHES = 7
TAIL_BEYOND = 10

LAYER_NAMES = ("jsonio", "oracles", "offspring", "trees", "reductions", "approx",
               "clopen", "dualistic", "dyadics", "words", "branches")
COUNTED_FUNCTIONS = ("clopen.halves", "clopen.localize", "clopen.from_words",
                     "clopen.take_submass", "offspring.local_bounds", "trees.member",
                     "trees.region_key", "oracles.local_bounds", "branches.prefix")


def write_documents(docs: dict, folder: Path) -> dict[str, str]:
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def measure_setup(folder: Path) -> list[tuple[float, float]]:
    """(seconds, calibrated work) for a fresh interpreter to import the CLI and
    parse every document, over sequential launches after one warm-up launch."""
    command = [sys.executable, str(HERE / "setup_child.py"), str(folder), str(SRC)]
    launches = []
    for launch in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        if launch:
            seconds, work = done.stdout.split()
            launches.append((float(seconds), float(work)))
    return launches


class Runner:
    """Runs operations and keeps each one's outputs and timings."""

    def __init__(self, workload, paths: dict[str, str], sets: dict, cli_entry):
        self.ops = workload.ops
        self.argv = [
            [paths[a[1:]] if a.startswith("@") else a for a in op.argv] for op in self.ops
        ]
        self.sets = sets
        self.cli_entry = cli_entry
        # First answer of each operation; later rounds must repeat it.
        self.outputs: dict[int, object] = {}
        self.seconds: list[list[float]] = [[] for _ in self.ops]
        self.work: list[list[float]] = [[] for _ in self.ops]
        self.problems: list[str] = []
        self.calibrations: list[float] = []
        # Median calibration time of each round: the host's speed over the run.
        self.round_calibration: list[float] = []
        self.attempted = 0
        self.failed = 0

    def _call(self, index: int):
        op = self.ops[index]
        if op.call is not None:
            return op.call(self.sets)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            self.cli_entry(self.argv[index], standalone_mode=False)
        return buffer.getvalue()

    def round(self) -> float:
        """One pass over every operation; returns the summed operation time."""
        total = 0.0
        calibrations = []
        for index, op in enumerate(self.ops):
            gc.collect()
            before = calibration()
            start = perf_counter()
            try:
                result = self._call(index)
            except (Exception, SystemExit) as err:
                self.attempted += 1
                self.failed += 1
                if op.known_failure is None or not isinstance(err, op.known_failure):
                    self.problems.append(f"{op.name}: {type(err).__name__}: {err}")
                continue
            elapsed = perf_counter() - start
            after = calibration()
            calibrations += [before, after]
            self.attempted += 1
            total += elapsed
            if op.call is not None:
                result = ("set", tuple(result.words)) if hasattr(result, "words") else ("bool", result)
            if self.outputs.setdefault(index, result) != result:
                self.problems.append(f"{op.name}: answers differ between rounds")
            self.seconds[index].append(elapsed)
            self.work[index].append(elapsed / ((before + after) / 2))
        self.calibrations += calibrations
        self.round_calibration.append(statistics.median(calibrations))
        return total

    def check(self, workload) -> None:
        """Independent checks on the first answers, joint checks, and the
        self-test of the checks."""
        first = self.outputs
        for index, out in first.items():
            try:
                problems = self.ops[index].check(out)
            except (ValueError, KeyError, TypeError) as err:
                # A malformed answer is a wrong answer, not a crash of the run.
                problems = [f"unreadable answer: {type(err).__name__}: {err}"]
            self.problems += [f"{self.ops[index].name}: {p}" for p in problems]
        for joint in workload.joint_checks:
            try:
                self.problems += joint(first)
            except KeyError as missing:
                self.problems.append(f"joint check: operation {missing} gave no answer")
        for index, how in workload.self_test:
            if index not in first:
                self.problems.append(f"self-test: {self.ops[index].name} gave no answer")
            elif not self.ops[index].check(perturb(first[index], how)):
                self.problems.append(f"self-test: {how} answer of {self.ops[index].name} accepted")

    def records(self) -> int:
        """Certified records: trace lines, measure intervals, verdicts, clopen results."""
        return sum(out.count("\n") if isinstance(out, str) else 1
                   for out in self.outputs.values())


def end_to_end(runner: Runner, setup: list[tuple[float, float]]) -> dict:
    """Times are quiet-host seconds: calibrated work times the fastest
    calibration loop of the run.

    A neighbour on the sibling hardware thread slows every loop by up to
    2x, in bursts shorter than a second, so raw wall times spread 20-40%
    from run to run; the fastest of some thousand calibration loops holds
    within a few percent. An operation's work is its median over the rounds;
    the best round is the luckiest draw and spreads twice as much.
    """
    floor = min(runner.calibrations)
    done = sorted(runner.outputs)
    work = [statistics.median(runner.work[i]) for i in done]
    seconds = sorted(w * floor for w in work)
    summed = sum(seconds)
    return {
        "setup_s": {"value": statistics.median(w for _, w in setup) * floor, "unit": "s"},
        "op_p50_s": {"value": statistics.median(seconds), "unit": "s"},
        "op_tail_s": {"value": seconds[-(TAIL_BEYOND + 1)], "unit": "s"},
        "ops_per_s": {"value": len(done) / summed, "unit": "1/s"},
        "work_cal": {"value": sum(work), "unit": "cal"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "answers_per_s": {"value": runner.records() / summed, "unit": "1/s"},
    }


def wall_figures(runner: Runner, setup: list[tuple[float, float]]) -> dict:
    """The same figures from raw wall times, for the run details."""
    seconds = sorted(statistics.median(runner.seconds[i]) for i in runner.outputs)
    return {
        "setup_s": statistics.median(s for s, _ in setup) if setup else None,
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": seconds[-(TAIL_BEYOND + 1)],
        "ops_per_s": len(seconds) / sum(seconds),
        "calibration_floor_s": min(runner.calibrations),
        "calibration_median_s": statistics.median(runner.calibrations),
    }


def per_layer(tracer, records: int) -> dict:
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = {"value": tracer.layer_calls[layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": tracer.self_s[layer], "unit": "s"}
    for name in COUNTED_FUNCTIONS:
        count = tracer.function_calls[name]
        if name == "oracles.local_bounds":
            count = tracer.top_local_bounds
        metrics[f"{name}.calls"] = {"value": count, "unit": "count"}
    metrics["clopen.halves_per_answer"] = {
        "value": tracer.function_calls["clopen.halves"] / records, "unit": "calls/record"}
    metrics["trees.member_per_answer"] = {
        "value": tracer.function_calls["trees.member"] / records, "unit": "calls/record"}
    return metrics


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("offspring-trace", "exact-sets", "clopen-algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "cantordensity" / "cli.py").is_file():
        print(f"no cantordensity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cantordensity import cli, jsonio
    from cantordensity.clopen import ClopenSet, subset_of_measure
    from workloads import WORKLOADS

    rng = Random(f"{args.workload}/{args.seed}")
    if args.workload == "offspring-trace":
        workload = WORKLOADS[args.workload](
            rng, lambda doc: jsonio.oracle_from_spec(doc).labels.label)
    else:
        workload = WORKLOADS[args.workload](rng)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    folder = OUT / f"{tag}-{os.getpid()}"
    try:
        paths = write_documents(workload.docs, folder)
        sets = {"ClopenSet": ClopenSet, "subset_of_measure": subset_of_measure}
        for name, doc in workload.docs.items():
            if doc.get("kind") == "clopen" and name != "long":
                sets[name] = ClopenSet.from_words([tuple(map(int, w)) for w in doc["words"]])
        setup = [] if args.trace else measure_setup(folder)
        runner = Runner(workload, paths, sets, cli.main.main)
        started = perf_counter()
        plain_round = runner.round()
        rounds = 1
        extra: dict = {}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            runner.cli_entry = tracer.wrap("jsonio", "cli", cli.main.main)
            traced_round = runner.round()
            rounds += 1
            extra = {"plain_round_s": plain_round, "traced_round_s": traced_round,
                     "overhead_s": traced_round - plain_round}
        else:
            while rounds < MIN_ROUNDS or perf_counter() - started < args.seconds:
                runner.round()
                rounds += 1
        measured = perf_counter() - started
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    checked = perf_counter()
    runner.check(workload)
    extra["check_s"] = perf_counter() - checked
    if args.trace:
        metrics = per_layer(tracer, runner.records() or 1)
    else:
        metrics = end_to_end(runner, setup)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "measured_s": measured, "setup_launches": setup,
        "round_calibration_s": runner.round_calibration,
        "wall": wall_figures(runner, setup),
        "problems": runner.problems, **extra,
        "ops": [
            {"name": op.name, "round_s": secs, "round_cal": work}
            for op, secs, work in zip(workload.ops, runner.seconds, runner.work)
        ],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
