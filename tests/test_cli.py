"""Command-line surface: verbs, exit codes, and output determinism."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from clirunner import invoke

from cantordensity import offspring
from cantordensity.cli import main
from cantordensity.dyadics import RatInterval
from cantordensity.oracles import ClopenOracle, MeasureOracle, TailCertificate, Verdict


def write(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_measure_dualistic_golden(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "1/3"})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 0
    assert result.output == '{"lo": "1/3", "hi": "1/3"}\n'


def test_measure_with_prefix(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["01", "110"]})
    result = invoke("measure", "--set", spec, "--prefix", "01")
    assert result.exit_code == 0
    assert json.loads(result.output) == {"lo": "1", "hi": "1"}


def test_trace_emits_one_object_per_line(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "4")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert [r["n"] for r in records] == [0, 1, 2, 3]
    assert records[0] == {"n": 0, "lo": "1/2", "hi": "1/2"}
    assert records[3] == {"n": 3, "lo": "1", "hi": "1"}


def test_classify_full_space_converges(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": [""]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    result = invoke(
        "classify", "--set", spec, "--branch", branch, "--eps", "1/100"
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["verdict"] == "converges"
    assert record["lo"] == "1" and record["hi"] == "1"


def test_classify_blurry_second_reduction(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "second"})
    branch = write(
        tmp_path / "branch.json",
        {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "1"}},
    )
    result = invoke(
        "classify", "--set", spec, "--branch", branch,
        "--eps", "1/16", "--max-depth", "78",
    )
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["verdict"] == "blurry"
    numerator, _, denominator = record["delta"].partition("/")
    assert int(numerator) / int(denominator) >= 1 - 1 / 16


def test_domain_error_exits_one_with_module_message(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/2"})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 1
    assert "measure must be in (0;1): 3/2" in result.stderr


def test_contradicted_certificate_exits_one_without_traceback(tmp_path, monkeypatch):
    # The set {0...} reads 1/2 at the root and 0 along 1^w; a certificate
    # claiming 1 from depth 0 on fails the cross-check at once.
    def lying(self, point, effort):
        return TailCertificate(RatInterval.point(Fraction(1)), 0)

    monkeypatch.setattr(ClopenOracle, "tail_certificate", lying)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "1"})
    result = invoke("classify", "--set", spec, "--branch", branch)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "contradicts certified bounds" in result.stderr


def test_memory_error_exits_one_without_traceback(tmp_path, monkeypatch):
    def exhausted(self, word, budget):
        raise MemoryError

    monkeypatch.setattr(ClopenOracle, "local_bounds", exhausted)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == "out of memory\n"


def test_interrupt_exits_one_without_traceback(tmp_path, monkeypatch):
    def interrupted(self, word, budget):
        raise KeyboardInterrupt

    monkeypatch.setattr(ClopenOracle, "local_bounds", interrupted)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "\nAborted!\n"


def test_parse_errors_exit_two(tmp_path):
    bad_kind = write(tmp_path / "set.json", {"kind": "nonsense"})
    assert invoke("measure", "--set", bad_kind).exit_code == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("not json", encoding="utf-8")
    assert invoke("measure", "--set", str(not_json)).exit_code == 2
    missing = str(tmp_path / "absent.json")
    assert invoke("measure", "--set", missing).exit_code == 2
    spec = write(tmp_path / "ok.json", {"kind": "clopen", "words": []})
    assert invoke("measure", "--set", spec, "--prefix", "012").exit_code == 2
    assert invoke("measure", "--set", spec, "--prefix", "\u00b2").exit_code == 2


def test_usage_errors_exit_two_naming_the_culprit(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/5"})
    out = str(tmp_path / "out.json")
    cases = [
        (("nosuchverb",), "nosuchverb"),
        (("build dualistic", "--measure", "1/2", "-o", out), "build dualistic"),
        (("build", "nosuchkind", "-o", out), "nosuchkind"),
        (("measure", "--set", spec, "--nope", "1"), "--nope"),
        (("measure", "--set", spec, "--bud", "3"), "--bud"),
        (("measure", "--prefix", "01"), "--set"),
        (("measure", "--set"), "--set"),
        (("measure", "--set", spec, "--budget", "x"), "'x'"),
        (("measure", "--set", spec, "--budget", "-1"), "-1"),
        (("build", "reduction", "--which", "fourth", "-o", out), "fourth"),
        (("build", "reduction", "--which", "first", "--preset", "nope", "-o", out), "nope"),
        (("measure", "--set", spec, "stray"), "stray"),
        (("verify", "codec", "stray"), "stray"),
        (("verify", "no-such-suite"), "no-such-suite"),
    ]
    for args, culprit in cases:
        result = invoke(*args)
        assert result.exit_code == 2, (args, result.output)
        assert result.stdout == "", args
        assert culprit in result.stderr, (args, result.stderr)
        assert "Traceback" not in result.stderr, args


def test_help_names_every_option():
    verbs = {
        ("measure",): {"--set", "--prefix", "--budget"},
        ("trace",): {"--set", "--branch", "--steps", "--budget"},
        ("classify",): {"--set", "--branch", "--eps", "--max-depth"},
        ("build", "dualistic"): {"--measure", "-o", "--out"},
        ("build", "countable-range"): {"--value", "-o", "--out"},
        ("build", "offspring"): {"--tree", "--label", "--default-label", "-o", "--out"},
        ("build", "reduction"): {"--which", "--tree", "--preset", "--value", "--a", "--b",
                                 "--eps", "-o", "--out"},
        ("verify",): {"--seed", "--cases"},
    }
    for verb, flags in verbs.items():
        result = invoke(*verb, "--help")
        assert result.exit_code == 0, verb
        assert flags <= set(re.findall(r"(?<![\w-])-{1,2}[\w-]+", result.stdout)), verb


def test_option_values_are_taken_verbatim(tmp_path):
    # An option takes the next argument as its value even when it looks
    # like an option, so a negative fraction reaches the module's check.
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/5"})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    result = invoke("classify", "--set", spec, "--branch", branch, "--eps", "-1/3")
    assert result.exit_code == 1
    assert result.stderr == "eps must be positive: -1/3\n"
    result = invoke("build", "dualistic", "--measure", "-1/2", "-o", str(tmp_path / "F"))
    assert result.exit_code == 1
    assert result.stderr == "measure must be in (0;1): -1/2\n"
    result = invoke("measure", f"--set={spec}", "--prefix=01")
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"lo": "1/4", "hi": "1/4"}
    # A repeated single option keeps its last value; a multiple one keeps all.
    result = invoke("measure", "--set", spec, "--prefix", "1", "--prefix", "01")
    assert json.loads(result.stdout) == {"lo": "1/4", "hi": "1/4"}
    out = str(tmp_path / "countable.json")
    result = invoke("build", "countable-range", "--value", "1/3", "--value=3/4", "-o", out)
    assert result.exit_code == 0
    assert json.loads(open(out, encoding="utf-8").read())["values"] == ["1/3", "3/4"]
    # The verify suite may come before or after its options.
    assert invoke("verify", "--cases", "3", "codec", "--seed", "2").output == "3/3 pass\n"


def test_closed_stdout_pipe_exits_one_silently(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    writer = subprocess.Popen(
        [sys.executable, "-m", "cantordensity.cli", "trace", "--set", spec, "--branch", branch,
         "--steps", "5000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = subprocess.Popen(["head", "-n", "1"], stdin=writer.stdout, stdout=subprocess.PIPE)
    writer.stdout.close()
    first, _ = head.communicate(timeout=60)
    stderr = writer.stderr.read().decode()
    writer.stderr.close()
    assert writer.wait(timeout=60) == 1
    assert first == b'{"n": 0, "lo": "1/2", "hi": "1/2"}\n'
    assert stderr == ""


def test_build_dualistic_round_trips(tmp_path):
    out = str(tmp_path / "spec.json")
    result = invoke("build", "dualistic", "--measure", "5/8", "-o", out)
    assert result.exit_code == 0
    document = json.loads(open(out, encoding="utf-8").read())
    assert document == {"kind": "dualistic", "measure": "5/8"}
    follow = invoke("measure", "--set", out)
    assert json.loads(follow.output) == {"lo": "5/8", "hi": "5/8"}


def test_build_rejects_domain_violations(tmp_path):
    out = str(tmp_path / "spec.json")
    result = invoke("build", "dualistic", "--measure", "3/2", "-o", out)
    assert result.exit_code == 1
    result = invoke(
        "build", "countable-range", "--value", "1/3", "--value", "1/3", "-o", out
    )
    assert result.exit_code == 1


def test_build_offspring_and_reduction(tmp_path):
    tree = write(
        tmp_path / "tree.json", {"nodes": [""], "policies": {"": "zeros"}}
    )
    out = str(tmp_path / "offspring.json")
    result = invoke(
        "build", "offspring", "--tree", tree,
        "--label", "=1/2", "--label", "0=1/4", "-o", out,
    )
    assert result.exit_code == 0
    document = json.loads(open(out, encoding="utf-8").read())
    assert document["labels"] == {"": "1/2", "0": "1/4"}
    assert "variant" not in document
    out2 = str(tmp_path / "reduction.json")
    result = invoke(
        "build", "reduction", "--which", "first",
        "--preset", "constant", "--value", "1/2", "--tree", tree, "-o", out2,
    )
    assert result.exit_code == 0
    follow = invoke("measure", "--set", out2, "--budget", "12")
    assert follow.exit_code == 0
    result = invoke("build", "reduction", "--which", "second", "-o", out2)
    assert result.exit_code == 0
    missing_preset = invoke("build", "reduction", "--which", "third", "-o", out2)
    assert missing_preset.exit_code == 2


def test_verify_suites_pass_and_are_deterministic():
    first = invoke("verify", "branch-lemma", "--seed", "7", "--cases", "15")
    second = invoke("verify", "branch-lemma", "--seed", "7", "--cases", "15")
    assert first.exit_code == 0
    assert first.output == "15/15 pass\n"
    assert first.output == second.output
    for suite in ("dualistic-measure", "clopen-laws", "codec"):
        result = invoke("verify", suite, "--seed", "3", "--cases", "20")
        assert result.exit_code == 0, (suite, result.output)
        assert result.output == "20/20 pass\n"


def test_measure_of_a_long_clopen_word(tmp_path):
    # The word is deeper than the interpreter's recursion limit.
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["01" * 750]})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 0
    point = f"1/{2 ** 1500}"
    assert result.stdout == json.dumps({"lo": point, "hi": point}) + "\n"


def test_deep_budget_measure_answers(tmp_path):
    # A lookahead of 1200 letters is deeper than the interpreter's
    # recursion limit; the bounds must nest inside shallower ones.
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "second"})
    bounds = {}
    for budget in ("800", "1200"):
        result = invoke("measure", "--set", spec, "--budget", budget)
        assert result.exit_code == 0, result.output
        record = json.loads(result.stdout)
        bounds[budget] = (Fraction(record["lo"]), Fraction(record["hi"]))
    lo, hi = bounds["1200"]
    shallow_lo, shallow_hi = bounds["800"]
    assert shallow_lo <= lo <= hi <= shallow_hi


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_unprintable_budgets_exit_one_before_evaluating(tmp_path):
    # Bounds over 2^budget with more digits than the interpreter prints
    # are refused before any evaluation, naming the largest budget.
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "second"})
    started = time.perf_counter()
    result = invoke("measure", "--set", spec, "--budget", "100000")
    assert time.perf_counter() - started < 1
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "set_int_max_str_digits" not in result.stderr
    largest = int(re.search(r"the largest budget accepted is (\d+)$", result.stderr).group(1))
    str(1 << largest)
    with pytest.raises(ValueError):
        str(1 << (largest + 1))
    # A prefix takes its length off the lookahead.
    result = invoke("measure", "--set", spec, "--prefix", "0110", "--budget", "100000")
    assert result.exit_code == 1
    assert result.stderr.endswith(f"the largest budget accepted is {largest + 4}\n")
    branch = write(tmp_path / "branch.json",
                   {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "1"}})
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "3",
                    "--budget", str(largest + 1))
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.endswith(f"the largest budget accepted is {largest}\n")



@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_unprintable_verdicts_exit_one(tmp_path, monkeypatch):
    # A verdict whose pad is 2^-20000 has bounds over 6 000 digits long:
    # classify refuses it with its own message, not the interpreter's.
    pad = Fraction(1, 1 << 20000)
    verdict = Verdict(kind="converges", interval=RatInterval(Fraction(1, 3) - pad,
                                                             Fraction(1, 3) + pad),
                      depth=12, detail="tail certificate")
    monkeypatch.setattr(MeasureOracle, "classify", lambda self, point, eps, max_depth: verdict)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    result = invoke("classify", "--set", spec, "--branch", branch)
    assert result.exit_code == 1
    assert result.stdout == ""
    digits = sys.get_int_max_str_digits()
    assert result.stderr == (f"verdict at depth 12 is too large: its bounds would have over "
                             f"{digits} digits\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_unprintable_exact_bounds_exit_one(tmp_path, monkeypatch):
    # One 20 000-letter word gives exact bounds over 6 000 digits long:
    # measure and trace refuse them with their own message, not the
    # interpreter's, and a trace keeps the lines it already printed.
    message = f"bounds too large to print: over {sys.get_int_max_str_digits()} digits\n"
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0" * 20000]})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    for args in (("measure", "--set", spec), ("trace", "--set", spec, "--branch", branch,
                                              "--steps", "3")):
        result = invoke(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == message
    half = RatInterval(Fraction(1, 2), Fraction(1, 2))
    tiny = RatInterval(Fraction(0), Fraction(1, 1 << 20000))
    monkeypatch.setattr(MeasureOracle, "trace", lambda self, point, depth, window: iter([half, tiny]))
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "2")
    assert result.exit_code == 1
    assert result.stdout == '{"n": 0, "lo": "1/2", "hi": "1/2"}\n'
    assert result.stderr == message

    # Domain errors raised while the trace runs keep their own text.
    def failing(self, point, depth, window):
        yield half
        raise ValueError("not a point of the set's domain")

    monkeypatch.setattr(MeasureOracle, "trace", failing)
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "2")
    assert result.exit_code == 1
    assert result.stdout == '{"n": 0, "lo": "1/2", "hi": "1/2"}\n'
    assert result.stderr == "not a point of the set's domain\n"


def test_states_cap_ends_deep_budgets(tmp_path):
    # Node keys of the first reduction differ per node, so each level
    # opens about twice the states of the one above: budget 200 at
    # prefix 01 would run for minutes without the cap.
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "first",
                                         "function": {"preset": "constant", "value": "2/7"}})
    started = time.perf_counter()
    result = invoke("measure", "--set", spec, "--prefix", "01", "--budget", "200")
    assert time.perf_counter() - started < 5
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("budget exhausted: over ")
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "head": "01", "period": "1"})
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "3", "--budget", "200")
    assert result.exit_code == 1
    assert result.stderr.startswith("budget exhausted: over ")


def test_states_cap_counts_letters_not_block_states(tmp_path):
    # The cap counts one unit per letter a jump spans, where stepping
    # each letter opens up to three block states (two pure, one mixed)
    # per node key. Budget 120 at prefix 01 stays under it and answers,
    # inside the bounds of budget 100.
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "first",
                                         "function": {"preset": "constant", "value": "2/7"}})
    bounds = {}
    for budget in ("100", "120"):
        result = invoke("measure", "--set", spec, "--prefix", "01", "--budget", budget)
        assert result.exit_code == 0, result.stderr
        record = json.loads(result.stdout)
        bounds[budget] = (Fraction(record["lo"]), Fraction(record["hi"]))
    assert bounds["100"][0] <= bounds["120"][0] <= bounds["120"][1] <= bounds["100"][1]
    assert bounds["120"] != bounds["100"]


def test_classify_reports_an_exhausted_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(offspring, "MAX_STATES", 20)
    spec = write(tmp_path / "set.json", {"kind": "reduction", "which": "second"})
    branch = write(tmp_path / "branch.json",
                   {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "1"}})
    result = invoke("classify", "--set", spec, "--branch", branch)
    assert result.exit_code == 0
    record = json.loads(result.stdout)
    assert record["verdict"] == "undetermined"
    assert record["detail"].startswith("budget exhausted: over 20 ")


def test_in_process_calls_leave_no_captured_buffer_alive(tmp_path):
    # Callers that capture stdout per call, as a test harness or a
    # benchmark does, must get every buffer back once they drop it.
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/5"})
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "10"})
    calls = [["measure", "--set", spec], ["trace", "--set", spec, "--branch", branch, "--steps", "3"]]
    buffers = []
    for argv in calls * 5:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                main(argv)
            except SystemExit as done:
                assert not done.code
        assert buffer.getvalue()
        buffers.append(weakref.ref(buffer))
        del buffer
    gc.collect()
    assert [ref for ref in buffers if ref() is not None] == []
