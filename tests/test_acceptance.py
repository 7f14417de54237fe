"""Acceptance suite: one test per criterion, each timed against its
budget and reporting one PASS/FAIL line (run with ``pytest -s`` to see
the lines as they happen)."""

import functools
import itertools
import random
import sys
import time
from contextlib import contextmanager

from conftest import random_finite_code
from oracles import brute_force_oracle, cooccurrence_witness_bound
from partfact import (
    Alphabet,
    FiniteCode,
    RegularCode,
    RegularMonoid,
    RegularPartition,
    canonical_coding_partition,
    canonical_partition,
    characteristic_partition,
    coding_join,
    coding_meet,
    completeness_witness,
    cooccurrence_pairs,
    enumerate_prime_relations,
    extension_witness,
    gen_ud,
    is_coding,
    is_complete,
    is_full,
    is_maximal,
    is_unbordered,
    lemma2_check,
    leq,
    regular_is_coding,
    regular_is_ud,
    sp_is_ud,
)
from partfact import fsa as A
from conftest import random_coding_partition

ZO = Alphabet("01")
AB = Alphabet("ab")
ABCD = Alphabet("abcd")

EXAMPLE1 = FiniteCode(ZO, ["00", "0010", "1000", "11", "1111", "010", "011"])

CORPUS_SEED = 20240525
CORPUS_SIZE = 500
ORACLE_BOUND = 12


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {description} ({elapsed:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its {limit_seconds}s budget"


@functools.lru_cache(maxsize=1)
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_finite_code(rng) for _ in range(CORPUS_SIZE)]


@functools.lru_cache(maxsize=1)
def corpus_oracle_results():
    return [brute_force_oracle(code, ORACLE_BOUND) for code in corpus()]


def test_criterion_01_example1_canonical_partition():
    with criterion(1, "Example-1 canonical partition reproduction", 1.0):
        unambiguous, ta = canonical_partition(EXAMPLE1)
        assert {w.text for w in unambiguous} == {"010", "011"}
        assert [{w.text for w in c} for c in ta] == [
            {"00", "0010", "1000"},
            {"11", "1111"},
        ]


def test_criterion_02_example3_regular_coding_partition():
    with criterion(2, "Example-3 regular coding partition verification", 5.0):
        code = RegularCode.from_regex("a|bb|c|ad*b|bc*bb", ABCD)
        x0 = A.regex_to_fsa("ad+b", ABCD)
        x1 = A.regex_to_fsa("a|ab|bb|c|bc*bb", ABCD)
        assert A.is_empty(A.intersection(x0, x1))
        assert A.equivalent(A.union(x0, x1), code.lang)
        assert regular_is_coding(RegularPartition(code, (x0, x1)))


def test_criterion_03_uniform_codes():
    with criterion(3, "uniform codes: UD, complete, maximal, full; strict chain", 5.0):
        for n in (1, 2, 3, 4):
            an = RegularCode.from_regex("(0|1)" * n, ZO)
            assert regular_is_ud(an)
            assert is_complete(an)
            assert is_maximal(an)
            assert is_full(RegularMonoid.generated_by(an))
        a2 = A.star(A.regex_to_fsa("(0|1)(0|1)", ZO))
        a4 = A.star(A.regex_to_fsa("(0|1)(0|1)(0|1)(0|1)", ZO))
        assert A.includes(a2, a4)
        assert not A.equivalent(a2, a4)


def test_criterion_04_full_monoid_by_inclusion_maximality():
    with criterion(4, "A* minus {a} is a full monoid", 5.0):
        lang = A.difference(A.full_language_fsa(AB), A.word_fsa(AB.word("a")))
        assert is_full(RegularMonoid(lang))


def test_criterion_05_witness_pipeline():
    with criterion(5, "witness pipeline for {aa, ba}", 5.0):
        x = RegularCode.from_words(FiniteCode(AB, ["aa", "ba"]))
        v = completeness_witness(x)
        assert v is not None and v.text == "bb"
        w = extension_witness(x)
        assert w is not None and w.text == "bba"
        assert is_unbordered(w)
        assert not A.accepts(A.factor_closure(A.star(x.lang)), w.text)
        extended = RegularCode(A.union(x.lang, A.word_fsa(w)))
        assert regular_is_coding(RegularPartition(extended, (x.lang, A.word_fsa(w))))


def test_criterion_06_oracle_equivalence_ud():
    with criterion(6, f"UD agreement with the bounded oracle on {CORPUS_SIZE} random codes", 60.0):
        results = corpus_oracle_results()
        for code, (oracle_ud, _merges) in zip(corpus(), results):
            sp_verdict, _witness = sp_is_ud(code)
            assert sp_verdict == oracle_ud, code
            assert regular_is_ud(RegularCode.from_words(code)) == oracle_ud, code


def test_criterion_07_oracle_characteristic_partition():
    with criterion(7, "characteristic partition sound and complete on the corpus", 120.0):
        results = corpus_oracle_results()
        for code, (_oracle_ud, merges) in zip(corpus(), results):
            fine = characteristic_partition(code)
            owner = {w: i for i, c in enumerate(fine.classes) for w in c}
            for u, v in merges:  # bounded-oracle merges are honored
                assert owner[u] == owner[v], (code, u, v)
            # every exact merge is witnessed by an enumerated prime relation
            pairs = cooccurrence_pairs(code)
            extended_bound = 2 * sum(len(w) for w in code.words)
            cache = {}
            for u, v in pairs:
                assert owner[u] == owner[v]
                bound = cooccurrence_witness_bound(code, u, v)
                assert bound is not None and bound <= extended_bound, (code, u, v)
                if bound not in cache:
                    cache[bound] = enumerate_prime_relations(code, bound)
                assert any(
                    u in r.support() and v in r.support() for r in cache[bound]
                ), (code, u, v)


def test_criterion_08_lattice_laws():
    with criterion(8, "lattice laws on 200 random coding-partition pairs", 60.0):
        rng = random.Random(CORPUS_SEED + 8)
        for _ in range(200):
            code = random_finite_code(rng)
            p = random_coding_partition(rng, code)
            q = random_coding_partition(rng, code)
            meet, join = coding_meet(p, q), coding_join(p, q)
            assert meet == coding_meet(q, p)
            assert join == coding_join(q, p)
            assert coding_meet(p, p) == p and coding_join(p, p) == p
            r = random_coding_partition(rng, code)
            assert coding_meet(coding_meet(p, q), r) == coding_meet(p, coding_meet(q, r))
            assert coding_join(coding_join(p, q), r) == coding_join(p, coding_join(q, r))
            assert coding_meet(p, join) == p
            assert coding_join(p, meet) == p
            assert is_coding(code, meet) and is_coding(code, join)
            assert leq(p, q) == (join == q) == (coding_meet(p, q) == p)


def test_criterion_09_theorem9_generator():
    with criterion(9, "UD generator over Example-1's partition, all sequences", 30.0):
        partition = RegularPartition.from_finite(canonical_coding_partition(EXAMPLE1))
        sequences = [
            seq
            for n in (2, 3)
            for seq in itertools.product(range(3), repeat=n)
            if all(a != b for a, b in zip(seq, seq[1:])) and seq[0] != seq[-1]
        ]
        assert len(sequences) == 12
        for seq in sequences:
            assert regular_is_ud(gen_ud(partition, list(seq))), seq


def test_criterion_10_lemma2_property():
    with criterion(10, "Lemma-2 check over uniform codes for all short words", 30.0):
        for n in (2, 3):
            code = RegularCode.from_regex("(0|1)" * n, ZO)
            for length in range(5):
                for tup in itertools.product("01", repeat=length):
                    assert lemma2_check(code, ZO.word("".join(tup)))
