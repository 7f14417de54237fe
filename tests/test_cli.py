import collections
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partfact import Alphabet, cli
from partfact import fsa as A
from partfact import regular as R

BENCH = Path(__file__).resolve().parent.parent / "bench"

EXAMPLE1_DOC = {
    "alphabet": ["0", "1"],
    "kind": "finite",
    "code": ["00", "0010", "1000", "11", "1111", "010", "011"],
}

EXAMPLE3_DOC = {
    "alphabet": ["a", "b", "c", "d"],
    "kind": "regex",
    "regex": "a|bb|c|ad*b|bc*bb",
    "partition": {"X0": "ad+b", "X1": "a|ab|bb|c|bc*bb"},
}


def run_cli(args, files=None, tmp_path=None, env=None, stdin=""):
    paths = []
    for i, doc in enumerate(files or []):
        p = tmp_path / f"doc{i}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(p))
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "partfact", *args, *paths],
        input=stdin,
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(command_args, doc, tmp_path, expect=0, env=None):
    code, out, err = run_cli([command_args[0], "--format", "json", *command_args[1:]],
                             files=[doc], tmp_path=tmp_path, env=env)
    assert code == expect, (out, err)
    return json.loads(out) if expect == 0 else err


def test_canonical_example1(tmp_path):
    report = run_json(["canonical"], EXAMPLE1_DOC, tmp_path)
    assert report["command"] == "canonical"
    assert report["classes"] == {
        "X0": ["010", "011"],
        "X1": ["00", "0010", "1000"],
        "X2": ["11", "1111"],
    }
    assert isinstance(report["elapsed_ms"], int)


def test_characteristic_example1(tmp_path):
    report = run_json(["characteristic"], EXAMPLE1_DOC, tmp_path)
    assert list(report["classes"].values()) == [
        ["00", "0010", "1000"],
        ["11", "1111"],
        ["010"],
        ["011"],
    ]


def test_ud_verdicts_and_quiet_exit(tmp_path):
    ud_doc = {"alphabet": ["0", "1"], "kind": "finite", "code": ["0", "01", "11"]}
    report = run_json(["ud"], ud_doc, tmp_path)
    assert report["verdict"] is True and "relation" not in report

    report = run_json(["ud"], EXAMPLE1_DOC, tmp_path)
    assert report["verdict"] is False
    assert report["relation"] == {"left": ["11", "11"], "right": ["1111"]}

    code, out, _ = run_cli(["ud", "--quiet"], files=[ud_doc], tmp_path=tmp_path)
    assert code == 0 and out == ""
    code, out, _ = run_cli(["ud", "--quiet"], files=[EXAMPLE1_DOC], tmp_path=tmp_path)
    assert code == 1 and out == ""


def test_ud_regex_kind(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "a+b+"}
    assert run_json(["ud"], doc, tmp_path)["verdict"] is True
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "a|ab|ba"}
    report = run_json(["ud"], doc, tmp_path)
    assert report["verdict"] is False
    assert report["ambiguous_message"] == "aba"
    doc = dict(doc, regex="(a|b)*a" + "(a|b)" * 20)  # its subset construction passes the state cap
    code, out, _ = run_cli(["ud", "--quiet"], files=[doc], tmp_path=tmp_path)
    assert code == 1 and out == ""


def test_check_partition_emits_witness_when_not_coding(tmp_path):
    doc = {
        "alphabet": ["a", "b"],
        "kind": "finite",
        "code": ["a", "ab", "ba"],
        "partition": {"X0": ["a"], "X1": ["ab", "ba"]},
    }
    report = run_json(["check-partition"], doc, tmp_path)
    assert report["verdict"] is False
    assert report["ambiguous_message"]


def test_prime_relations(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "finite", "code": ["a", "aa"]}
    report = run_json(["prime-relations", "--max-len", "3"], doc, tmp_path)
    assert report["bound"] == 3
    assert report["relations"] == [
        {"left": ["a", "a"], "right": ["aa"]},
        {"left": ["a", "aa"], "right": ["aa", "a"]},
    ]


def test_unbounded_prime_relations_exit_3(tmp_path):
    # a(ba)^k = (ab)^k·a for every k: the relation list has no end
    doc = {"alphabet": ["a", "b"], "kind": "finite", "code": ["a", "ab", "ba"]}
    code, out, err = run_cli(["prime-relations", "--max-len", "100000000"], files=[doc], tmp_path=tmp_path)
    assert code == 3 and out == "", err
    assert ": enumerate_prime_relations needs more than " in err and "Traceback" not in err, err


def test_check_partition_example3(tmp_path):
    report = run_json(["check-partition"], EXAMPLE3_DOC, tmp_path)
    assert report["verdict"] is True


def test_factorize(tmp_path):
    doc = dict(EXAMPLE1_DOC)
    doc["partition"] = {
        "X0": ["010", "011"],
        "X1": ["00", "0010", "1000"],
        "X2": ["11", "1111"],
    }
    report = run_json(["factorize", "--word", "0010010"], doc, tmp_path)
    assert report["blocks"] == [["X1", "0010"], ["X0", "010"]]
    run_json(["factorize", "--word", "111"], doc, tmp_path, expect=4)


def test_lattice(tmp_path):
    doc = dict(EXAMPLE1_DOC)
    doc["partitions"] = {
        "P1": {"A": ["010", "011", "00", "0010", "1000"], "B": ["11", "1111"]},
        "P2": {"A": ["010", "011", "11", "1111"], "B": ["00", "0010", "1000"]},
    }
    meet = run_json(["lattice", "--op", "meet", "--left", "P1", "--right", "P2"], doc, tmp_path)
    assert list(meet["classes"].values()) == [[
        "00", "11", "010", "011", "0010", "1000", "1111",
    ]]
    join = run_json(["lattice", "--op", "join", "--left", "P1", "--right", "P2"], doc, tmp_path)
    assert list(join["classes"].values()) == [
        ["00", "0010", "1000"],
        ["11", "1111"],
        ["010", "011"],
    ]
    # an infinite class is bad input for lattice, as it is for factorize
    doc["partitions"]["P3"] = {"A": "0(0|1)*", "B": ["11"]}
    err = run_json(["lattice", "--op", "meet", "--left", "P1", "--right", "P3"], doc, tmp_path, expect=2)
    assert "this command needs finite partition classes" in err
    doc["partition"] = doc["partitions"]["P3"]
    err = run_json(["factorize", "--word", "0011"], doc, tmp_path, expect=2)
    assert "this command needs finite partition classes" in err


def test_base_finite_and_infinite(tmp_path):
    doc = {"alphabet": ["0", "1"], "kind": "finite", "code": ["0", "01", "11"]}
    report = run_json(["base"], doc, tmp_path)
    assert report["classes"]["base"] == ["0", "01", "11"]

    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "a+b+"}
    report = run_json(["base"], doc, tmp_path)
    expr = report["classes"]["base"]
    assert isinstance(expr, str)
    ab = Alphabet("ab")
    assert A.equivalent(A.regex_to_fsa(expr, ab), A.regex_to_fsa("a+b+", ab))


def test_boolean_commands(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "finite", "code": ["aa", "ba"]}
    assert run_json(["thin"], doc, tmp_path)["verdict"] is True
    assert run_json(["dense"], doc, tmp_path)["verdict"] is False
    assert run_json(["complete"], doc, tmp_path)["verdict"] is False
    assert run_json(["maximal"], doc, tmp_path)["verdict"] is False
    assert run_json(["full"], doc, tmp_path)["verdict"] is False
    assert run_json(["is-base"], doc, tmp_path)["verdict"] is True

    a2 = {"alphabet": ["0", "1"], "kind": "regex", "regex": "(0|1)(0|1)"}
    assert run_json(["maximal"], a2, tmp_path)["verdict"] is True
    assert run_json(["maximal-ud"], a2, tmp_path)["verdict"] is True
    assert run_json(["lemma2", "--word", "0"], a2, tmp_path)["verdict"] is True


def test_full_accepts_monoid_input(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "_|b(a|b)*|a(a|b)(a|b)*"}
    assert run_json(["full"], doc, tmp_path)["verdict"] is True


def test_monoid_input_that_is_not_closed_exits_4(tmp_path):
    # the empty word is in the language, so it is read as a monoid, and
    # aa·aa is not in it; the library's check gives the message
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "_|a|aa|aaa"}
    for command in ("base", "full", "decompose"):
        code, _out, err = run_cli([command], files=[doc], tmp_path=tmp_path)
        assert code == 4, err
        assert err.endswith(": language is not closed under concatenation\n"), err


def test_maximal_on_dense_code_exits_4(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "(a|b)(a|b)*(a|b)|b"}
    code, _out, err = run_cli(["maximal"], files=[doc], tmp_path=tmp_path)
    assert code == 4, err


def test_witness(tmp_path):
    doc = {"alphabet": ["a", "b"], "kind": "finite", "code": ["aa", "ba"]}
    report = run_json(["witness"], doc, tmp_path)
    assert report["witness"] == {"v": "bb", "w": "bba"}
    a2 = {"alphabet": ["0", "1"], "kind": "regex", "regex": "(0|1)(0|1)"}
    report = run_json(["witness"], a2, tmp_path)
    assert report["witness"] == {"v": None, "w": None}
    # every nonempty code over one letter is complete: nothing to extend
    unary = {"alphabet": ["a"], "kind": "regex", "regex": "aa|aaa"}
    assert run_json(["witness"], unary, tmp_path)["witness"] == {"v": None, "w": None}


def test_free_product(tmp_path):
    report = run_json(["free-product"], EXAMPLE3_DOC, tmp_path)
    assert report["verdict"] is True


def test_gen_ud(tmp_path):
    doc = dict(EXAMPLE1_DOC)
    doc["partition"] = {
        "X0": ["010", "011"],
        "X1": ["00", "0010", "1000"],
        "X2": ["11", "1111"],
    }
    report = run_json(["gen-ud", "--seq", "1,2"], doc, tmp_path)
    expr = report["classes"]["generated"]
    zo = Alphabet("01")
    generated = A.regex_to_fsa(expr, zo)
    assert A.accepts(generated, "001011")
    assert not A.accepts(generated, "0010")

    code, _, _ = run_cli(["gen-ud", "--seq", "1,2"], files=[EXAMPLE1_DOC], tmp_path=tmp_path)
    assert code == 2  # no partition in the input
    code, _, _ = run_cli(["gen-ud", "--seq", "1,1"], files=[doc], tmp_path=tmp_path)
    assert code == 4  # adjacent equal
    code, _, _ = run_cli(["gen-ud", "--seq", "1,2,1"], files=[doc], tmp_path=tmp_path)
    assert code == 4  # last equals first
    code, _, _ = run_cli(["gen-ud", "--seq", "1,x"], files=[doc], tmp_path=tmp_path)
    assert code == 2  # unparsable sequence


def test_reserved_regex_symbol_in_alphabet(tmp_path):
    # "*" is a symbol here, so no regex can spell the generated language
    doc = {"alphabet": ["a", "*"], "kind": "finite", "code": ["a", "*"],
           "partition": {"A": ["a"], "B": ["*"]}}
    code, _, err = run_cli(["gen-ud", "--seq", "0,1"], files=[doc], tmp_path=tmp_path)
    assert code == 4, err
    assert "reserved by the regex dialect" in err
    assert run_json(["ud"], doc, tmp_path)["verdict"] is True  # finite analyses are unaffected
    regex_doc = {"alphabet": ["a", "*"], "kind": "regex", "regex": "a"}
    code, _, _ = run_cli(["ud"], files=[regex_doc], tmp_path=tmp_path)
    assert code == 2


def test_decompose(tmp_path):
    report = run_json(["decompose"], EXAMPLE1_DOC, tmp_path)
    assert report["classes"] == {
        "X0": ["11", "010", "011"],
        "X1": ["00", "0010", "1000"],
    }


def test_invalid_partition_exits_4(tmp_path):
    doc = dict(EXAMPLE1_DOC)
    doc["partition"] = {"X0": ["010"], "X1": ["00", "0010", "1000"]}  # not covering
    code, _, _ = run_cli(["factorize", "--word", "0010010"], files=[doc], tmp_path=tmp_path)
    assert code == 4
    code, _, _ = run_cli(["check-partition"], files=[doc], tmp_path=tmp_path)
    assert code == 4


def test_malformed_inputs_exit_2(tmp_path):
    code, _, _ = run_cli(["ud"], tmp_path=tmp_path, stdin="{not json")
    assert code == 2
    code, _, _ = run_cli(["ud"], files=[{"alphabet": ["a"], "kind": "nope"}], tmp_path=tmp_path)
    assert code == 2
    code, _, _ = run_cli(["ud"], files=[{"alphabet": ["a"], "kind": "finite"}], tmp_path=tmp_path)
    assert code == 2
    code, _, _ = run_cli(
        ["ud"], files=[{"alphabet": ["a"], "kind": "finite", "code": ["ab"]}], tmp_path=tmp_path
    )
    assert code == 2
    code, _, _ = run_cli(
        ["ud"], files=[{"alphabet": ["a", "b"], "kind": "regex", "regex": "a|"}], tmp_path=tmp_path
    )
    assert code == 2
    # a file that is missing or not UTF-8, and JSON nested past the
    # decoder's recursion limit, are malformed input too; exit 1 would
    # read as a false verdict. In a batch the other inputs are still
    # reported.
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(EXAMPLE1_DOC), encoding="utf-8")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    missing = tmp_path / "missing.json"
    cases = ((undecodable, "can't decode"), (deep, "invalid JSON"), (missing, "No such file"))
    for bad, message in cases:
        for args in (["ud", str(bad)], ["ud", "--quiet", str(bad)], ["ud", str(ok), str(bad)]):
            code, out, err = run_cli(args)
            assert code == 2, (args, err)
            assert "Traceback" not in err and f"partfact: {bad}: " in err and message in err, err
            if str(ok) in args:
                assert out.count('verdict: false') == 1 and f"input: {json.dumps(str(ok))}" in out, out


def test_state_cap_environment_exits_3(tmp_path):
    doc = {
        "alphabet": ["0", "1"],
        "kind": "regex",
        "regex": "(0|1)*0(0|1)(0|1)(0|1)(0|1)(0|1)",
    }
    code, _, err = run_cli(["complete"], files=[doc], tmp_path=tmp_path,
                           env={"PARTFACT_STATE_CAP": "10"})
    assert code == 3, err
    # the error names the construction that hit the cap; the base has
    # 159 states, so neither side of its construction fits under 50
    doc["regex"] = "(0|1)*0" + "(0|1)" * 6
    code, _, err = run_cli(["base"], files=[doc], tmp_path=tmp_path,
                           env={"PARTFACT_STATE_CAP": "50"})
    assert code == 3, err
    assert err.endswith(": difference needs more than 50 states\n"), err


def test_deeply_nested_base_is_rendered(tmp_path):
    # the base regex nests 250 stars deep; rendering it needs no recursion
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "(a" * 250 + ")*b" * 250}
    code, out, err = run_cli(["base"], files=[doc], tmp_path=tmp_path)
    assert (code, err) == (0, "")
    assert re.search(r"^  base: \S", out, re.M), out


def test_quiet_base_renders_nothing(monkeypatch):
    # --quiet prints no report, so the base is not rendered
    rendered = []
    to_regex = A.fsa_to_regex
    monkeypatch.setattr(A, "fsa_to_regex", lambda f: rendered.append(f) or to_regex(f))
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "a*b"}
    assert "classes" not in in_process("base", doc, "--quiet")
    assert rendered == []
    assert in_process("base", doc)["classes"]["base"] == "a*b"
    assert len(rendered) == 1


def test_base_past_the_forward_sides_cap_exits_0(tmp_path):
    # the forward construction of this base passes the default cap; the
    # mirrored one builds its 20 479 states
    doc = {"alphabet": ["a", "b"], "kind": "regex", "regex": "(a|b)*a" + "(a|b)" * 13}
    code, out, err = run_cli(["base", "--quiet"], files=[doc], tmp_path=tmp_path)
    assert (code, out, err) == (0, "", "")


def test_long_word_trie_and_ud(tmp_path):
    # the trie keys each child by (state, symbol), so one long word costs
    # linear time; 100 001 states need a raised cap
    ab = Alphabet("ab")
    word = ab.word("ab" * 50_000)
    old = A.state_cap()
    try:
        A.set_state_cap(200_000)
        trie, chain = A.word_set_fsa(ab, [word]), A.word_fsa(word)
    finally:
        A.set_state_cap(old)
    fields = ("alphabet", "n_states", "transitions", "initial", "accepting")
    assert [getattr(trie, f) for f in fields] == [getattr(chain, f) for f in fields]
    # ud builds no trie, so the default cap does not stop it
    started = time.perf_counter()
    report = run_json(["ud"], {"alphabet": ["a", "b"], "kind": "finite", "code": [word.text]}, tmp_path)
    assert report["verdict"] is True
    assert time.perf_counter() - started < 10


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # a reader that stops after one line of a batch whose reports overflow
    # the pipe buffer (64 KiB on Linux)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"alphabet": ["0", "1"], "kind": "finite", "code": ["0", "01", "11"]}))
    with open(tmp_path / "err.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "partfact", "ud", "--format", "json", *[str(doc)] * 2000],
                                stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
    assert (tmp_path / "err.txt").read_text() == ""


def test_internal_error_exits_5_and_batch_continues(tmp_path, monkeypatch, capsys):
    # A handler that fails on the regex document stands in for a defect
    # inside partfact: it must not read as malformed input or a false
    # verdict, and the other documents of a batch are still reported.
    def faulty_ud(doc, args):
        if doc.kind == "regex":
            raise RuntimeError("boom")
        return cli.cmd_ud(doc, args)

    monkeypatch.setitem(cli.COMMANDS, "ud", faulty_ud)
    paths = []
    for i, doc in enumerate([{"alphabet": ["a", "b"], "kind": "regex", "regex": "a|ab"}, EXAMPLE1_DOC]):
        paths.append(tmp_path / f"doc{i}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["ud", "--quiet", str(paths[0])]) == 5
    capsys.readouterr()
    assert cli.main(["ud", "--format", "json", *map(str, paths)]) == 5
    out, err = capsys.readouterr()
    assert re.search(r"^partfact: \S*doc0\.json: internal error: boom$", err, re.M), err
    report = json.loads(out)
    assert report["input"].endswith("doc1.json")
    assert report["verdict"] is False


def test_json_reports_are_deterministic(tmp_path):
    def snapshot():
        code, out, _ = run_cli(["canonical", "--format", "json"], files=[EXAMPLE1_DOC], tmp_path=tmp_path)
        assert code == 0
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)

    assert snapshot() == snapshot()
    parsed = json.loads(snapshot())
    assert list(parsed) == sorted(parsed)  # keys serialized sorted


def test_cli_import_leaves_out_the_thread_pool():
    # only --jobs batches use concurrent.futures; every other run saves its import
    code = "import sys, partfact.cli; assert 'concurrent.futures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_batch_mode(tmp_path):
    ok = {"alphabet": ["0", "1"], "kind": "finite", "code": ["0", "01", "11"]}
    code, out, _ = run_cli(["ud", "--format", "json", "--jobs", "2"],
                           files=[ok, EXAMPLE1_DOC], tmp_path=tmp_path)
    assert code == 0
    docs = json.loads("[" + out.replace("}\n{", "},{") + "]")
    assert [d["verdict"] for d in docs] == [True, False]
    assert docs[0]["input"].endswith("doc0.json")
    assert docs[1]["input"].endswith("doc1.json")


def test_table_format(tmp_path):
    code, out, _ = run_cli(["canonical"], files=[EXAMPLE1_DOC], tmp_path=tmp_path)
    assert code == 0
    assert 'command: "canonical"' in out
    assert "X0: 010 011" in out


def test_table_format_labels_each_batch_input(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(EXAMPLE1_DOC), encoding="utf-8")
    code, out, _ = run_cli(["ud", str(ok), str(ok)])
    assert code == 0
    labels = [line for line in out.splitlines() if line.startswith("input: ")]
    assert labels == [f"input: {json.dumps(str(ok))}"] * 2
    # a single input has no label
    code, out, _ = run_cli(["ud", str(ok)])
    assert code == 0 and "input: " not in out


def in_process(command, doc, *options):
    args = cli.build_parser().parse_args([command, *options])
    return cli.run_document(command, json.dumps(doc), args)


def test_benchmark_cli_reports(monkeypatch):
    # the reports the benchmark's CLI cases check, without its processes
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    expected = json.loads((BENCH / "expected" / "cli.json").read_text(encoding="utf-8"))
    for case, command, options, doc in workloads.CLI_CASES:
        options = [o[1] if isinstance(o, tuple) else o for o in options]
        report = in_process(command, workloads.CLI_DOCS[doc], *options)
        del report["elapsed_ms"]
        assert json.loads(json.dumps(report)) == expected[case], case


def test_each_command_asks_each_question_once(monkeypatch):
    counts = collections.Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counted

    for name in ("minimize", "_subset_walk"):
        count(A, name)
    count(R, "_two_factorizations")
    monkeypatch.setattr(cli, "base", count(R, "base"))

    ab = {"alphabet": ["a", "b"], "kind": "regex"}
    not_coding = dict(EXAMPLE3_DOC, partition={"X0": "a|ad*b", "X1": "bb|c|bc*bb"})
    for command, doc, expected in [
        ("ud", dict(ab, regex="a|ab|ba"), {"minimize": 0, "_two_factorizations": 1}),
        ("check-partition", not_coding, {"minimize": 0, "_two_factorizations": 1}),
        ("witness", dict(ab, regex="aa|ba"), {"_subset_walk": 1}),
        # base walks once, for its nonempty part; its second difference is
        # a subset construction and equivalent a walk of subset pairs, not
        # walks of states against subsets
        ("maximal-ud", dict(ab, regex="a|b"), {"base": 1, "_subset_walk": 3}),
        ("decompose", EXAMPLE1_DOC, {"base": 1, "minimize": 0}),
    ]:
        counts.clear()
        report = in_process(command, doc)
        assert {name: counts[name] for name in expected} == expected, (command, report)
    # the pair walk is the library's only ambiguity search; run counting
    # lives in the test oracles
    removed = ("is_unambiguous", "ambiguity_witness", "_find_ambiguous_word", "_raw_word", "_bfs")
    assert [name for name in removed if hasattr(A, name)] == []
