"""The benchmark workloads.

The measured workloads are finite-codes, cli-batch and ``regular``,
which runs regular-longword and monoid-blowup as one workload; those two
parts can also be run on their own.

Each workload function takes the freshly imported ``partfact`` package
and the tracer (``None`` in the untraced run) and returns a
:class:`Workload`, whose ``make_items`` turns the seeded
``random.Random`` into the items of one pass; every pass repeats them.
One item is one analysis call on one generated input, or one CLI
invocation. Library functions are looked up on their module at call
time, so the wrappers that the traced run installs see every top-level
call. Arguments that carry an acceptor are rebuilt before each
call, outside the timed region, so no call profits from another's caches.

Expected answers come from how the inputs are built, and witnesses are
re-checked by :mod:`verify`, which does not call partfact.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import verify as V

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_CLI = BENCH_DIR / "expected" / "cli.json"


@dataclass
class Item:
    op: str                              # "<layer>.<name>" of the top-level call
    size: int                            # value of the workload's scaling parameter
    fn: Callable[..., Any]               # the timed call
    args: Callable[[], tuple]            # builds its arguments, untimed
    check: Callable[[Any], None]         # raises verify.WrongAnswer on a wrong answer
    variant: str = ""                    # which kind of input, where a workload has several
    family: Optional[str] = None         # what ``size`` measures, if growth exponents fit it


@dataclass
class Workload:
    make_items: Callable[[random.Random], list[Item]]  # the items of a pass
    is_warmup: Callable[[Item], bool]                # items run once during set-up
    cleanup: Callable[[], None] = field(default=lambda: None)


class CapExceeded(Exception):
    """A CLI invocation ended with the documented state-cap exit code."""


class CliFailed(Exception):
    """A CLI invocation ended with an exit code other than 0 or 3."""


def _late(module, name: str) -> Callable[..., Any]:
    """Call ``module.name`` as bound at call time."""
    return lambda *args: getattr(module, name)(*args)


def _fixed(*args) -> Callable[[], tuple]:
    return lambda: args


def _expect(value) -> Callable[[Any], None]:
    return lambda got: V.require(got is value, f"expected {value}, got {got}")


def spread(lo: int, hi: int, count: int, shift: float = 0.0, power: float = 1.0) -> list[int]:
    """``count`` sizes from ``lo`` to ``hi``: ``lo + (hi - lo) * t ** power``
    for ``t`` evenly spaced over [0, 1], so a ``power`` above 1 puts more
    of them at the small end; ``shift`` (below 1) moves every ``t`` part of
    a step up, capped at ``hi``.

    Sizes on such a fine grid make the items' times a continuum, so that
    no percentile falls into a gap between two groups of items."""
    return [round(lo + (hi - lo) * min(1.0, (j + shift) / (count - 1)) ** power)
            for j in range(count)]


# ---------------------------------------------------------------------------
# finite-codes


EXAMPLE1 = ["00", "0010", "1000", "11", "1111", "010", "011"]
EXAMPLE1_TA = [["00", "0010", "1000"], ["11", "1111"]]
# dense random codes, each item on a code of its own: op -> word counts
DENSE_SIZES = {
    "finite_code.sp_is_ud": spread(50, 400, 9),
    "finite_code.enumerate_prime_relations": spread(50, 200, 9),
    "finite_code.characteristic_partition": spread(50, 110, 6),
    "finite_code.canonical_coding_partition": spread(50, 100, 4),
    "finite_code.p_factorize": spread(50, 100, 4),
}
STRUCTURED_OPS = (
    "finite_code.sp_is_ud", "finite_code.enumerate_prime_relations",
    "finite_code.characteristic_partition", "finite_code.canonical_coding_partition",
    "finite_code.p_factorize", "lattice.coding_meet", "lattice.coding_join",
)
# structured codes: ten sizes per op over 50-400 words, staggered between ops
STRUCTURED_SIZES = {op: spread(50, 400, 10, shift=k / len(STRUCTURED_OPS) * 0.9)
                    for k, op in enumerate(STRUCTURED_OPS)}
RELATION_BOUND = 8
MESSAGE_LEN = 300


def _dense_code(rng: random.Random, n: int) -> tuple[list[str], tuple[str, str]]:
    """n random binary words that contain x, y and xy, the others spread
    evenly over the lengths 3..16."""
    x = "".join(rng.choice("01") for _ in range(2))
    y = "".join(rng.choice("01") for _ in range(3))
    words = {x, y, x + y}
    i = 0
    while len(words) < n:
        words.add("".join(rng.choice("01") for _ in range(3 + i % 14)))
        i += 1
    return sorted(words), (x, y)


def _structured_code(rng: random.Random, n: int):
    """Example 1 copied onto k disjoint letter pairs, plus a random prefix
    code on two further letters, n words in all.

    Words over disjoint letter blocks cannot meet in a prime relation, so
    the finest coding partition is known: each copy keeps Example 1's two
    totally ambiguous classes, every other word is a singleton."""
    k = n // 10
    letters = [chr(0x100 + i) for i in range(2 * k + 2)]
    words: set[str] = set()
    ta: list[frozenset[str]] = []
    squares = []
    for i in range(k):
        relabel = str.maketrans({"0": letters[2 * i], "1": letters[2 * i + 1]})
        words |= {w.translate(relabel) for w in EXAMPLE1}
        ta += [frozenset(w.translate(relabel) for w in c) for c in EXAMPLE1_TA]
        squares.append(("11".translate(relabel), "1111".translate(relabel)))
    leaves = [""]
    while len(leaves) < n - 7 * k:
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [w + letters[-2], w + letters[-1]]
    words |= set(leaves)
    return letters, sorted(words), ta, squares


def _message(rng: random.Random, words: list[str]) -> str:
    msg = ""
    while len(msg) < MESSAGE_LEN:
        msg += rng.choice(words)
    return msg


def _coarsening(rng: random.Random, classes: list[frozenset[str]]) -> list[frozenset[str]]:
    """Random grouping of whole classes; every coarsening of the finest
    coding partition is coding."""
    groups: list[set[str]] = []
    for c in rng.sample(classes, len(classes)):
        if groups and rng.random() < 0.5:
            rng.choice(groups).update(c)
        else:
            groups.append(set(c))
    return [frozenset(g) for g in groups]


def _check_not_ud(words: set[str]):
    def check(result):
        verdict, rel = result
        V.require(verdict is False, "code with x, y, xy reported UD")
        V.check_relation([p.text for p in rel.left.parts], [p.text for p in rel.right.parts],
                         rel.message.text, words)
    return check


def _check_relations(words: set[str], must_contain: list[tuple[list[str], list[str]]]):
    def check(rels):
        seen = set()
        for r in rels:
            left, right = [p.text for p in r.left.parts], [p.text for p in r.right.parts]
            V.require(len(r.message.text) <= RELATION_BOUND, "relation longer than the bound")
            V.check_relation(left, right, r.message.text, words)
            seen.add((tuple(left), tuple(right)))
            seen.add((tuple(right), tuple(left)))
        for left, right in must_contain:
            V.require((tuple(left), tuple(right)) in seen, f"missing relation {left} = {right}")
    return check


def _check_classes(words: set[str], exact: Optional[set] = None, together=()):
    def check(partition):
        classes = V.as_classes(partition.classes)
        V.check_partition_of(classes, words)
        if exact is not None:
            V.require(classes == exact, "partition differs from the known one")
        for group in together:
            V.require(V.same_class(classes, group), f"{sorted(group)} split across classes")
    return check


def _check_blocks(message: str, classes: list[frozenset[str]]):
    def check(result):
        V.require(result.message.text == message, "factorized a different message")
        V.check_block_factorization(message, [(k, b.text) for k, b in result.blocks], classes)
    return check


def _check_exact(expected: set[frozenset[str]]):
    def check(partition):
        V.require(V.as_classes(partition.classes) == expected, "lattice operation result is wrong")
    return check


def finite_codes(pf, tracer=None) -> Workload:
    binary = pf.Alphabet("01")

    def item(variant: str, op: str, size: int, args: tuple, check) -> Item:
        # growth exponents are fitted on the dense codes only
        layer, name = op.split(".", 1)
        return Item(op, size, _late(getattr(pf, layer), name), _fixed(*args), check, variant,
                    family="words" if variant == "dense" else None)

    def dense(rng: random.Random, op: str, n: int) -> Item:
        # a random binary code with x, y and xy planted: not UD
        texts, (x, y) = _dense_code(rng, n)
        words = set(texts)
        code = pf.FiniteCode(binary, texts)
        if op == "finite_code.sp_is_ud":
            return item("dense", op, n, (code,), _check_not_ud(words))
        if op == "finite_code.enumerate_prime_relations":
            return item("dense", op, n, (code, RELATION_BOUND),
                        _check_relations(words, [([x, y], [x + y])]))
        if op == "finite_code.p_factorize":
            # the one-class partition is coding for every code
            msg = _message(rng, texts)
            trivial = pf.Partition(code, [binary.words(texts)])
            return item("dense", op, n, (binary.word(msg), trivial),
                        _check_blocks(msg, [frozenset(words)]))
        return item("dense", op, n, (code,), _check_classes(words, together=[[x, y, x + y]]))

    def structured(rng: random.Random, op: str, n: int) -> Item:
        # relabelled Example 1 plus a prefix code: partitions known by construction
        letters, texts, ta, squares = _structured_code(rng, n)
        words = set(texts)
        alphabet = pf.Alphabet(letters)
        code = pf.FiniteCode(alphabet, texts)
        in_ta = set().union(*ta)
        singles = [frozenset([w]) for w in texts if w not in in_ta]
        fine = set(ta) | set(singles)
        canonical = [frozenset().union(*singles)] + ta
        other = _coarsening(rng, sorted(fine, key=sorted))
        msg = _message(rng, texts)

        def part(classes):
            return pf.Partition(code, [alphabet.words(sorted(c)) for c in classes])

        make = {
            "finite_code.sp_is_ud": lambda: ((code,), _check_not_ud(words)),
            "finite_code.enumerate_prime_relations": lambda: (
                (code, RELATION_BOUND),
                _check_relations(words, [([w, w], [ww]) for w, ww in squares])),
            "finite_code.characteristic_partition": lambda: (
                (code,), _check_classes(words, fine)),
            "finite_code.canonical_coding_partition": lambda: (
                (code,), _check_classes(words, set(canonical))),
            "finite_code.p_factorize": lambda: (
                (alphabet.word(msg), part(canonical)), _check_blocks(msg, canonical)),
            "lattice.coding_meet": lambda: (
                (part(canonical), part(other)), _check_exact(V.meet(set(canonical), set(other)))),
            "lattice.coding_join": lambda: (
                (part(canonical), part(other)),
                _check_exact(V.common_refinement(set(canonical), set(other)))),
        }
        return item("structured", op, n, *make[op]())

    def make_items(rng: random.Random) -> list[Item]:
        # every item gets an input of its own, so that no single draw moves
        # a whole group of items together
        items = [dense(rng, op, n) for op, sizes in DENSE_SIZES.items() for n in sizes]
        items += [structured(rng, op, n) for op, sizes in STRUCTURED_SIZES.items() for n in sizes]
        return items

    # warm up on the smallest structured code of each op: cheap, and the
    # same work for every seed
    return Workload(make_items,
                    lambda it: it.variant == "structured" and it.size == STRUCTURED_SIZES[it.op][0])


# ---------------------------------------------------------------------------
# regular-longword

# one long word length per item, 25-400 letters, denser at the short end
# so that a pass stays short; the items take the lengths in turn
LONGWORD_ITEMS = 110
WORD_LENGTHS = spread(25, 400, LONGWORD_ITEMS, power=1.5)


def longword_docs(rng: random.Random, length: int) -> list[dict]:
    """Two finite codes around one long word w = a(a|d)^(length-1):

    - {b, ca, cb, cc, w} is a prefix code, so UD, and the partition
      {b, ca, cb, cc} | {w} is coding;
    - {b, c, bc, w} contains x, y and xy, so it is not UD, and the
      partition {b} | {c, bc, w} is not coding: bc is one block or two.
    """
    w = "a" + "".join(rng.choice("ad") for _ in range(length - 1))
    return [
        dict(words=["b", "ca", "cb", "cc", w], ud=True,
             classes=[["b", "ca", "cb", "cc"], [w]], coding=True),
        dict(words=["b", "c", "bc", w], ud=False,
             classes=[["b"], ["c", "bc", w]], coding=False),
    ]


def _check_language(words: list[str]):
    probes = [w[:-1] for w in words if len(w) > 1] + [w + "a" for w in words] + ["", "d", "ab"]

    def check(f):
        for w in words:
            V.require(V.nfa_accepts(f, w), f"compiled acceptor rejects {w[:12]!r}")
        for u in probes:
            if u not in words:
                V.require(not V.nfa_accepts(f, u), f"compiled acceptor accepts {u[:12]!r}")
    return check


def _check_witness(ud: bool, words: set[str]):
    def check(w):
        if ud:
            V.require(w is None, "UD code got an ambiguity witness")
        else:
            V.require(w is not None, "non-UD code got no ambiguity witness")
            V.check_ambiguous(w.text, words)
    return check


def regular_longword(pf, tracer=None) -> Workload:
    A, R = pf.fsa, pf.regular
    alphabet = pf.Alphabet("abcd")
    return Workload(lambda rng: _longword_items(A, R, alphabet, rng),
                    lambda it: it.size <= WORD_LENGTHS[len(LONGWORD_OPS) * 2 - 1])


LONGWORD_OPS = ("fsa.regex_to_fsa", "regular.regular_is_ud", "regular.ud_ambiguity_witness",
                "regular.RegularPartition", "regular.regular_is_coding")


def _longword_items(A, R, alphabet, rng: random.Random) -> list[Item]:
    # every item gets a long word of its own, so that no single draw moves
    # a whole group of items together
    items: list[Item] = []
    kinds = itertools.cycle(itertools.product(LONGWORD_OPS, (0, 1)))
    for length, (op, kind) in zip(WORD_LENGTHS, kinds):
        doc = longword_docs(rng, length)[kind]
        regex = "|".join(doc["words"])
        class_regexes = ["|".join(c) for c in doc["classes"]]

        def code(regex=regex):
            return R.RegularCode(A.regex_to_fsa(regex, alphabet))

        def classes(class_regexes=class_regexes):
            return [A.regex_to_fsa(c, alphabet) for c in class_regexes]

        def partition(code=code, classes=classes):
            return R.RegularPartition(code(), classes())

        make = {
            "fsa.regex_to_fsa": lambda: (
                _fixed(regex, alphabet), _check_language(doc["words"])),
            "regular.regular_is_ud": lambda: (
                lambda code=code: (code(),), _expect(doc["ud"])),
            "regular.ud_ambiguity_witness": lambda: (
                lambda code=code: (code(),), _check_witness(doc["ud"], set(doc["words"]))),
            "regular.RegularPartition": lambda: (
                lambda code=code, classes=classes: (code(), classes()),
                lambda p, k=len(class_regexes): V.require(len(p.classes) == k, "class count")),
            "regular.regular_is_coding": lambda: (
                lambda partition=partition: (partition(),), _expect(doc["coding"])),
        }
        layer, name = op.split(".")
        items.append(Item(op, length, _late(A if layer == "fsa" else R, name), *make[op](),
                          family="word_length"))
    return items


# ---------------------------------------------------------------------------
# monoid-blowup

BLOWUP_N = (4, 5, 6, 7, 8, 9, 10, 11)
SAMPLES_PER_CHECK = 40


def blowup_regexes(n: int) -> dict[str, str]:
    tail = "(a|b)" * n
    return {
        "P": f"b*a{tail}",                      # complete prefix code, thin
        "Q": f"(a|b)*a{tail}",                  # (n+1)-th letter from the end is a
        "Q2": f"(b*a)+{tail}",                  # the same language as Q
        "QR": f"(a|b)*a{tail}|(a|b)*b{tail}",   # every word longer than n
    }


def _sample_words(rng: random.Random, n: int) -> list[str]:
    """Products of 1..3 words of Q with short random padding, plus words
    of P: a mix of members and non-members of both bases."""
    out = []
    for _ in range(SAMPLES_PER_CHECK):
        u = ""
        for _ in range(rng.randint(1, 3)):
            u += "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            u += rng.choice("ab") + "".join(rng.choice("ab") for _ in range(n))
        out.append(u)
        out.append("b" * rng.randint(0, 4) + "a" + "".join(rng.choice("ab") for _ in range(n)))
    return out


def monoid_blowup(pf, tracer=None) -> Workload:
    A, R = pf.fsa, pf.regular
    alphabet = pf.Alphabet("ab")
    return Workload(lambda rng: _blowup_items(A, R, alphabet, rng),
                    lambda it: it.size == BLOWUP_N[0])


def _blowup_items(A, R, alphabet, rng: random.Random) -> list[Item]:
    items: list[Item] = []
    for n in BLOWUP_N:
        rx = blowup_regexes(n)
        samples = _sample_words(rng, n)

        def lang(key, rx=rx):
            return lambda: A.regex_to_fsa(rx[key], alphabet)

        def code(key, lang=lang):
            return lambda: (R.RegularCode(lang(key)()),)

        def monoid(key, lang=lang):
            return lambda: (R.RegularMonoid.generated_by(R.RegularCode(lang(key)())),)

        def langs(*keys, lang=lang):
            return lambda: tuple(lang(k)() for k in keys)

        def base_check(in_base, samples=samples):
            def check(result):
                for u in samples:
                    V.require(V.nfa_accepts(result.lang, u) == in_base(u),
                              f"base membership wrong for {u!r}")
            return check

        items += [
            Item("regular.regular_is_ud", n, _late(R, "regular_is_ud"), code("P"), _expect(True)),
            Item("regular.regular_is_ud", n, _late(R, "regular_is_ud"), code("Q"), _expect(False)),
            Item("regular.is_complete", n, _late(R, "is_complete"), code("P"), _expect(True)),
            Item("regular.completeness_witness", n, _late(R, "completeness_witness"), code("P"),
                 lambda got: V.require(got is None, f"complete code got witness {got}")),
            Item("regular.is_dense", n, _late(R, "is_dense"), langs("P"), _expect(False)),
            Item("regular.is_dense", n, _late(R, "is_dense"), langs("Q"), _expect(True)),
            Item("regular.base", n, _late(R, "base"), monoid("P"),
                 base_check(lambda u, n=n: V.in_prefix_family(u, n))),
            Item("regular.base", n, _late(R, "base"), monoid("Q"),
                 base_check(lambda u, n=n: V.in_blowup_base(u, n))),
            Item("regular.is_full", n, _late(R, "is_full"), monoid("P"), _expect(True)),
            Item("fsa.is_universal", n, _late(A, "is_universal"), langs("Q"), _expect(False)),
            Item("fsa.is_universal", n, _late(A, "is_universal"), langs("QR"), _expect(False)),
            Item("fsa.includes", n, _late(A, "includes"), langs("Q", "P"), _expect(True)),
            Item("fsa.includes", n, _late(A, "includes"), langs("P", "Q"), _expect(False)),
            Item("fsa.equivalent", n, _late(A, "equivalent"), langs("Q", "Q2"), _expect(True)),
        ]
    for it in items:
        it.family = "n"
    return items


# ---------------------------------------------------------------------------
# cli-batch

EX1_CANONICAL = {"X0": ["010", "011"], "X1": ["00", "0010", "1000"], "X2": ["11", "1111"]}

CLI_DOCS = {
    "example1": {"alphabet": ["0", "1"], "kind": "finite", "code": EXAMPLE1},
    "example1-partitioned": {
        "alphabet": ["0", "1"], "kind": "finite", "code": EXAMPLE1,
        "partition": EX1_CANONICAL,
        "partitions": {"P1": EX1_CANONICAL,
                       "P2": {"A": ["010", "011", "00", "0010", "1000"], "B": ["11", "1111"]}},
    },
    "example3": {"alphabet": ["a", "b", "c", "d"], "kind": "regex", "regex": "a|bb|c|ad*b|bc*bb",
                 "partition": {"X0": "ad+b", "X1": "a|ab|bb|c|bc*bb"}},
    "uniform": {"alphabet": ["a", "b"], "kind": "regex", "regex": "(a|b)(a|b)(a|b)"},
    "prefix-words": {"alphabet": ["0", "1"], "kind": "finite", "code": ["0", "10", "110", "111"]},
    "prefix-regex": {"alphabet": ["a", "b"], "kind": "regex", "regex": "b*a(a|b)"},
    "incomplete": {"alphabet": ["a", "b"], "kind": "regex", "regex": "aa|ba"},
}

BATCH_COMMAND = "ud"

# (case, command, options, document); ("word", text) options are relabelled
CLI_CASES = [(f"ud-{doc}", "ud", [], doc) for doc in
             ("example1", "example3", "uniform", "prefix-words", "prefix-regex", "incomplete")] + [
    ("prime-relations", "prime-relations", ["--max-len", "8"], "example1"),
    ("canonical", "canonical", [], "example1"),
    ("characteristic", "characteristic", [], "example1"),
    ("check-partition", "check-partition", [], "example3"),
    ("factorize", "factorize", ["--word", ("word", "0010010")], "example1-partitioned"),
    ("lattice-meet", "lattice", ["--op", "meet", "--left", "P1", "--right", "P2"],
     "example1-partitioned"),
    ("lattice-join", "lattice", ["--op", "join", "--left", "P1", "--right", "P2"],
     "example1-partitioned"),
    ("base", "base", [], "prefix-regex"),
    ("is-base", "is-base", [], "prefix-regex"),
    ("thin", "thin", [], "prefix-regex"),
    ("dense", "dense", [], "uniform"),
    ("complete", "complete", [], "uniform"),
    ("maximal", "maximal", [], "uniform"),
    ("full", "full", [], "prefix-regex"),
    ("maximal-ud", "maximal-ud", [], "prefix-regex"),
    ("witness", "witness", [], "incomplete"),
    ("free-product", "free-product", [], "example1-partitioned"),
    ("gen-ud", "gen-ud", ["--seq", "1,2"], "example1-partitioned"),
    ("lemma2", "lemma2", ["--word", ("word", "ab")], "uniform"),
    ("decompose", "decompose", [], "example1"),
    ("canonical-prefix", "canonical", [], "prefix-words"),
    ("characteristic-prefix", "characteristic", [], "prefix-words"),
    ("check-partition-example1", "check-partition", [], "example1-partitioned"),
    ("complete-incomplete", "complete", [], "incomplete"),
    ("witness-complete", "witness", [], "prefix-regex"),
    ("is-base-uniform", "is-base", [], "uniform"),
]
RELABELLINGS_PER_PASS = 3

# Symbols are relabelled per seed by an order-preserving map into this pool,
# which holds no regex operator, so reports map back symbol by symbol.
SYMBOL_POOL = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
DOC_SYMBOLS = "01abcd"
WORD_FIELDS = ("classes", "relation", "relations", "witness", "ambiguous_message")


def _relabel(value, table):
    """Apply a symbol map to every word or regex string of a document or
    report (dict keys, and so class names, stay)."""
    if isinstance(value, str):
        return value.translate(table)
    if isinstance(value, list):
        return [_relabel(v, table) for v in value]
    if isinstance(value, dict):
        return {k: v if k == "kind" else _relabel(v, table) for k, v in value.items()}
    return value


def normalize_report(report: dict, table) -> dict:
    """Map a report's words back through ``table`` and drop ``elapsed_ms``
    and the batch ``input`` path."""
    out = {k: v for k, v in report.items() if k not in ("elapsed_ms", "input")}
    for key in WORD_FIELDS:
        if key in out:
            out[key] = _relabel(out[key], table)
    if "blocks" in out:
        out["blocks"] = [[name, text.translate(table)] for name, text in out["blocks"]]
    return out


def split_reports(text: str) -> list[dict]:
    """Parse the concatenated JSON reports printed by a batch invocation."""
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return reports
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)


def cli_batch(pf, tracer=None) -> Workload:
    expected = json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))
    workdir = ROOT / ".bench_tmp" / f"cli-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    labels = itertools.count()
    env = dict(os.environ)
    env.pop("PARTFACT_STATE_CAP", None)     # keep the default cap, as the in-process runs do
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def invoke(argv: list[str]) -> str:
        if tracer is None:
            cmd = [sys.executable, "-m", "partfact", *argv]
        else:
            spans_file = workdir / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_file), *argv]
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.add_child_spans(json.loads(spans_file.read_text(encoding="utf-8")), wall)
            spans_file.unlink()
        if proc.returncode == 3:
            raise CapExceeded(proc.stderr.strip())
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.stdout

    def make_items(rng: random.Random) -> list[Item]:
        return [it for _ in range(RELABELLINGS_PER_PASS) for it in relabelled_items(rng)]

    def relabelled_items(rng: random.Random) -> list[Item]:
        # an order-preserving relabelling of the documents' symbols
        mapped = "".join(sorted(rng.sample(SYMBOL_POOL, len(DOC_SYMBOLS))))
        forward = str.maketrans(DOC_SYMBOLS, mapped)
        backward = str.maketrans(mapped, DOC_SYMBOLS)
        docdir = workdir / f"docs{next(labels)}"
        docdir.mkdir()
        paths = {}
        for name, doc in CLI_DOCS.items():
            paths[name] = str(docdir / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(_relabel(doc, forward)), encoding="utf-8")

        def single_check(case):
            def check(stdout):
                report = normalize_report(json.loads(stdout), backward)
                V.require(report == expected[case], f"CLI report for {case} differs from expected")
            return check

        def batch_check(stdout):
            reports = split_reports(stdout)
            V.require(len(reports) == len(batch_docs), "batch printed the wrong number of reports")
            for doc, report in zip(batch_docs, reports):
                V.require(report.get("input") == paths[doc], "batch reports out of order")
                V.require(normalize_report(report, backward) == expected[f"ud-{doc}"],
                          f"batch report for {doc} differs from expected")

        items = []
        for case, command, options, doc in CLI_CASES:
            argv = [command, "--format", "json"]
            argv += [o[1].translate(forward) if isinstance(o, tuple) else o for o in options]
            argv.append(paths[doc])
            items.append(Item(f"cli.{case}", 1, invoke, _fixed(argv), single_check(case)))
        batch_docs = [doc for _case, command, _o, doc in CLI_CASES if command == BATCH_COMMAND]
        for jobs in (1, 2):
            argv = [BATCH_COMMAND, "--format", "json", "--jobs", str(jobs)]
            argv += [paths[doc] for doc in batch_docs]
            items.append(Item(f"cli.batch_jobs{jobs}", 1, invoke, _fixed(argv), batch_check))
        return items

    def cleanup():
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass            # another run still uses it

    return Workload(make_items, lambda it: it.op == "cli.canonical", cleanup=cleanup)


def combined(*parts: Callable[..., Workload]) -> Callable[..., Workload]:
    """A workload whose pass is one pass of each part, in turn."""
    def workload(pf, tracer=None) -> Workload:
        built = [part(pf, tracer) for part in parts]
        warmup: set[int] = set()

        def make_items(rng: random.Random) -> list[Item]:
            items = []
            for w in built:
                own = w.make_items(rng)
                warmup.update(id(it) for it in own if w.is_warmup(it))
                items += own
            return items

        def cleanup():
            for w in built:
                w.cleanup()

        return Workload(make_items, lambda it: id(it) in warmup, cleanup)
    return workload


# the workloads that BENCHMARK.json names
MEASURED = {
    "finite-codes": finite_codes,
    "cli-batch": cli_batch,
    "regular": combined(regular_longword, monoid_blowup),
}
WORKLOADS = {**MEASURED, "regular-longword": regular_longword, "monoid-blowup": monoid_blowup}
