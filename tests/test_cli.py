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

from cantordensity import jsonio, offspring
from cantordensity.branches import Branch, interleave_branches
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


def test_classify_without_a_certificate_is_undetermined(tmp_path):
    # Neither set certifies a tail along its stretched point: the compose
    # part is entered by a stretched point, which has no plain tail.
    cases = [
        ({"kind": "dualistic", "measure": "2/7"}, "10", ("--max-depth", "40"), 40),
        ({"kind": "compose", "parts": [{"prefix": "0", "set": {"kind": "dualistic",
                                                                 "measure": "2/7"}}]},
         "01", (), 80),
    ]
    for document, period, flags, depth in cases:
        spec = write(tmp_path / "set.json", document)
        branch = write(tmp_path / "branch.json",
                       {"kind": "stretch", "of": {"kind": "ev_periodic", "period": period}})
        result = invoke("classify", "--set", spec, "--branch", branch, *flags)
        assert result.exit_code == 0, result.output
        assert result.stdout == (f'{{"verdict": "undetermined", "lo": "0", "hi": "0", '
                                 f'"depth": {depth}, "detail": "no certificate within depth"}}\n')


def test_domain_error_exits_one_with_module_message(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/2"})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 1
    assert "measure must be in (0;1): 3/2" in result.stderr


def test_long_interleave_exits_one_before_weaving(tmp_path, monkeypatch):
    # Coprime cycles of 1 023 and 1 024 letters weave into 2 * lcm =
    # 2 095 104 letters, over the cap of 2^20: refused before any prefix
    # of either stream is built.
    built = []
    prefix = Branch.prefix

    def counted(self, n):
        built.append(n)
        return prefix(self, n)

    monkeypatch.setattr(Branch, "prefix", counted)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["1"]})
    x = {"kind": "ev_periodic", "period": "0" * 1022 + "1"}
    y = {"kind": "ev_periodic", "period": "1" * 1023 + "0"}
    branch = write(tmp_path / "branch.json", {"kind": "interleave", "x": x, "y": y})
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "3")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "interleaved stream too long: 2095104 letters of head and cycle, over 1048576\n"
    assert built == []
    # At the cap the stream is woven; one head letter more is refused.
    woven = interleave_branches(Branch((), (0,) * (1 << 19)), Branch((), (1,)))
    assert len(woven.head) + len(woven.cycle) == 1 << 20
    with pytest.raises(ValueError, match="1048578 letters"):
        interleave_branches(Branch((1,), (0,) * (1 << 19)), Branch((), (1,)))


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
    def exhausted(self, budget=0):
        raise MemoryError

    monkeypatch.setattr(ClopenOracle, "measure_bounds", exhausted)
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    result = invoke("measure", "--set", spec)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr == "out of memory\n"


def test_interrupt_exits_one_without_traceback(tmp_path, monkeypatch):
    def interrupted(self, budget=0):
        raise KeyboardInterrupt

    monkeypatch.setattr(ClopenOracle, "measure_bounds", interrupted)
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


def _offspring_set(tree):
    return {"kind": "offspring", "tree": tree}


_TREE_ZEROS = {"nodes": [""], "policies": {"": "zeros"}}
_MALFORMED_SETS = [
    (5, "expected an object carrying 'kind', got 5"),
    (_offspring_set(3), "tree spec must be an object, got 3"),
    (_offspring_set({"nodes": "0"}), '"nodes" must be an array of words'),
    (_offspring_set({"nodes": [""], "policies": []}),
     '"policies" must be an object keyed by words'),
    (_offspring_set({"nodes": [""], "policies": {"": 3}}),
     'policy must be a name or {"periodic": word}, got 3'),
    (_offspring_set({"nodes": [""], "policies": {"": {"periodic": "1", "x": "0"}}}),
     "policy must be a name or {\"periodic\": word}, got {'periodic': '1', 'x': '0'}"),
    (_offspring_set({"nodes": [""], "policies": {"": {"periodic": ""}}}),
     "periodic policy needs a non-empty cycle"),
    # With both faults the policy's is named.
    (_offspring_set({"nodes": [""], "policies": {"": {"periodic": []}}, "arity": 1}),
     "periodic policy needs a non-empty cycle"),
    ({"kind": "countable-range", "values": "1/3"}, '"values" must be an array'),
    ({"kind": "offspring", "tree": _TREE_ZEROS, "labels": ["1/2"]},
     '"labels" must be an object keyed by words'),
    ({"kind": "compose", "parts": ["0"]},
     "each part is {\"prefix\": word, \"set\": spec}, got '0'"),
    ({"kind": "compose", "parts": [{"prefix": "0", "set": {"kind": "clopen", "words": []}}],
      "complemented": 1}, '"complemented" must be a boolean'),
]
# Files the JSON reader cannot decode, as bytes, and the message after
# "spec error: <path> ".
_UNREADABLE_DOCUMENTS = [
    (b"\xff\xfe{}", "is not UTF-8: byte 0xff at offset 0"),
    (b'{"kind": "clopen", "words": ["0\xc3"]}', "is not UTF-8: byte 0xc3 at offset 31"),
    (b"[" * 100_000, "nests arrays or objects too deeply"),
    (b"1" * 5_000, f"holds an integer of over {sys.get_int_max_str_digits()} digits"),
    (b"\xef\xbb\xbf{}",
     "is not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"{", "is not JSON: Expecting property name enclosed in double quotes: "
           "line 1 column 2 (char 1)"),
]
_MALFORMED_BRANCHES = [
    ("0", "expected an object carrying 'kind', got '0'"),
    ({"kind": "baire", "period": []}, "period must be non-empty"),
    ({"kind": "baire", "head": [2], "period": ""}, "period must be non-empty"),
    ({"kind": "ev_periodic", "period": ""}, "period must be non-empty"),
]


def test_malformed_documents_exit_two_with_their_message(tmp_path):
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "0"})
    for document, message in _MALFORMED_SETS:
        spec = write(tmp_path / "set.json", document)
        result = invoke("measure", "--set", spec)
        assert (result.exit_code, result.stdout) == (2, ""), document
        assert result.stderr == f"spec error: {message}\n", document
    for raw, message in _UNREADABLE_DOCUMENTS:
        spec = tmp_path / "set.json"
        spec.write_bytes(raw)
        result = invoke("measure", "--set", str(spec))
        assert (result.exit_code, result.stdout) == (2, ""), raw[:40]
        assert result.stderr == f"spec error: {spec} {message}\n", raw[:40]
    spec = write(tmp_path / "set.json", {"kind": "clopen", "words": ["0"]})
    for document, message in _MALFORMED_BRANCHES:
        write(tmp_path / "branch.json", document)
        result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "1")
        assert (result.exit_code, result.stdout) == (2, ""), document
        assert result.stderr == f"spec error: {message}\n", document


def test_documents_nested_near_the_recursion_limit_are_spec_errors(tmp_path):
    # Complement chains from well below the recursion limit to past it. The
    # JSON reader accepts chains a little deeper than the spec reader and the
    # walks through the oracle it builds, which recurse once per level; each
    # chain must answer or exit 2 as a spec error, never with the
    # interpreter's bare "maximum recursion depth exceeded".
    spec = tmp_path / "set.json"
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "period": "01"})
    leaf = json.dumps({"kind": "clopen", "words": ["0", "10"]})
    verbs = [("measure", "--prefix", "0101"), ("trace", "--branch", branch, "--steps", "5"),
             ("classify", "--branch", branch)]
    limit = sys.getrecursionlimit()
    codes = set()
    for depth in range(limit - 100, limit + 5):
        spec.write_text('{"kind": "complement", "of": ' * depth + leaf + "}" * depth,
                        encoding="utf-8")
        for verb, *options in verbs:
            result = invoke(verb, "--set", str(spec), *options)
            codes.add(result.exit_code)
            if result.exit_code:
                assert (result.exit_code, result.stdout) == (2, ""), (verb, depth)
                assert result.stderr == f"spec error: {spec} nests arrays or objects too deeply\n"
    assert codes == {0, 2}


def test_usage_errors_exit_two_naming_the_culprit(tmp_path):
    spec = write(tmp_path / "set.json", {"kind": "dualistic", "measure": "3/5"})
    tree = write(tmp_path / "tree.json", _TREE_ZEROS)
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
        ((), "Missing command."),
        (("build",), "Missing command."),
        (("build", "reduction", "--which", "second", "--preset", "constant", "-o", out),
         "the second reduction takes no function"),
        (("build", "reduction", "--which", "first", "--preset", "constant", "-o", out),
         "preset 'constant' needs --value"),
        (("build", "reduction", "--which", "third", "--preset", "interval", "--a", "1/4",
          "-o", out), "preset 'interval' needs --b"),
        (("build", "offspring", "--tree", tree, "--label", "01", "-o", out),
         "labels look like node=value, got '01'"),
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


def test_help_lists_the_commands_of_each_group():
    groups = {
        (): ["measure", "trace", "classify", "build dualistic", "build countable-range",
             "build offspring", "build reduction", "verify"],
        ("build",): ["dualistic", "countable-range", "offspring", "reduction"],
    }
    for group, names in groups.items():
        result = invoke(*group, "--help")
        assert result.exit_code == 0, group
        usage, _, commands = result.stdout.partition("\n\nCommands:\n")
        assert usage == " ".join(("Usage: cantordensity",) + group + ("COMMAND [ARGS]...",))
        assert [re.split(r"\s{2,}", line.strip())[0]
                for line in commands.splitlines()] == names, group


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


def test_build_reduction_writes_the_function_of_each_preset(tmp_path):
    out = str(tmp_path / "reduction.json")
    cases = [
        (("first", "constant", "--value", "2/4"), {"preset": "constant", "value": "1/2"}),
        (("first", "interval", "--a", "1/4", "--b", "1/2"),
         {"preset": "interval", "a": "1/4", "b": "1/2"}),
        (("third", "injective", "--eps", "1/8"), {"preset": "injective", "eps": "1/8"}),
    ]
    for (which, preset, *flags), function in cases:
        result = invoke("build", "reduction", "--which", which, "--preset", preset, *flags,
                        "-o", out)
        assert (result.exit_code, result.stdout) == (0, f"wrote {out}\n"), result.output
        document = json.loads(open(out, encoding="utf-8").read())
        assert document == {"kind": "reduction", "which": which, "function": function}


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
    monkeypatch.setattr(MeasureOracle, "bound_runs",
                        lambda self, point, start, stop, window: iter([(half, 1), (tiny, 1)]))
    result = invoke("trace", "--set", spec, "--branch", branch, "--steps", "2")
    assert result.exit_code == 1
    assert result.stdout == '{"n": 0, "lo": "1/2", "hi": "1/2"}\n'
    assert result.stderr == message

    # Domain errors raised while the trace runs keep their own text.
    def failing(self, point, start, stop, window):
        yield half, 1
        raise ValueError("not a point of the set's domain")

    monkeypatch.setattr(MeasureOracle, "bound_runs", failing)
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


class _LineCounter:
    """A stdout that keeps counts and the last line, not the text."""

    def __init__(self):
        self.lines = self.most = self.writes = self.flushes = 0
        self.last = ""

    def write(self, text: str) -> int:
        count = text.count("\n")
        self.lines += count
        self.most = max(self.most, count)
        self.writes += 1
        self.last = text.rstrip("\n").rpartition("\n")[2]
        return len(text)

    def flush(self) -> None:
        self.flushes += 1


def _oracle_classes(cls=MeasureOracle):
    for sub in cls.__subclasses__():
        yield sub
        yield from _oracle_classes(sub)


@pytest.mark.parametrize("doc, head, period, settled_by, bounds", [
    # A clopen set of depth 5 is a settled segment from depth 5 on.
    ({"kind": "clopen", "words": ["01101", "1"]}, "011", "01", 5, '"lo": "1", "hi": "1"'),
    # The designated point 0^3 1^3 0^w of 3/5 rides a spine from depth 6 on.
    ({"kind": "countable-range", "values": ["1/4", "2/7", "3/5"]}, "000111", "0", 6,
     '"lo": "3/5", "hi": "3/5"'),
    # stretch(1^w) is 1^w, which leaves the tree {"", "0"} at depth 1: the
    # offspring view there is the empty segment.
    ({"kind": "offspring", "tree": {"nodes": ["", "0"], "policies": {"0": "zeros"}}}, "", "1", 1,
     '"lo": "0", "hi": "0"'),
    # 0 enters node 0, whose mixed block 01 flags into the 1/3 stand-in at
    # depth 3; its child on 1 is the empty segment.
    ({"kind": "offspring", "tree": {"nodes": ["", "0"], "policies": {"0": "full"}},
      "default_label": "1/3"}, "001", "1", 4, '"lo": "0", "hi": "0"'),
])
def test_settled_traces_take_bounded_work_and_writes(tmp_path, monkeypatch, doc, head, period,
                                                     settled_by, bounds):
    # Outermost calls only: the ones the trace makes, not a part's inside them.
    calls = {"child": 0, "measure_bounds": 0}
    inside = []

    def counted(name, method):
        def wrapper(*args):
            calls[name] += not inside
            inside.append(name)
            try:
                return method(*args)
            finally:
                inside.pop()
        return wrapper

    for cls in _oracle_classes():
        for name in calls:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counted(name, vars(cls)[name]))
    spec = write(tmp_path / "set.json", doc)
    branch = write(tmp_path / "branch.json", {"kind": "ev_periodic", "head": head, "period": period})
    out = _LineCounter()
    with contextlib.redirect_stdout(out):
        main(["trace", "--set", spec, "--branch", branch, "--steps", "1000000"])
    assert calls["child"] <= settled_by + 3 and calls["measure_bounds"] <= settled_by + 3, calls
    assert out.most <= jsonio.TRACE_CHUNK_LINES
    assert out.flushes == out.writes
    assert out.lines == 1000000
    assert out.last == f'{{"n": 999999, {bounds}}}'
