import random
import time
from pathlib import Path

import pytest

import oracles
from conftest import random_coding_partition, random_finite_code
from oracles import (
    brute_force_oracle,
    brute_force_relations,
    cooccurrence_witness_bound,
    graph_prime_relations,
    graph_sp_is_ud,
)
from partfact import fsa as A
from partfact import finite_code as F
from partfact import lattice as L
from partfact import (
    Alphabet,
    Factorization,
    FiniteCode,
    InputError,
    Partition,
    PreconditionError,
    PrimeRelation,
    StateCapExceededError,
    canonical_coding_partition,
    canonical_partition,
    characteristic_partition,
    cooccurrence_pairs,
    enumerate_prime_relations,
    is_coding,
    is_totally_ambiguous,
    p_factorize,
    sp_is_ud,
)

AB = Alphabet("ab")
ZO = Alphabet("01")
BENCH = Path(__file__).resolve().parent.parent / "bench"

EXAMPLE1 = FiniteCode(ZO, ["00", "0010", "1000", "11", "1111", "010", "011"])
# three letters past U+00FF, declared out of code-point order
WIDE = Alphabet("\u0152\u0101\u0140")


def texts(ws):
    return sorted(w.text for w in ws)


def pair_texts(pairs):
    return sorted((u.text, v.text) for u, v in pairs)


def relation_texts(r):
    return tuple(p.text for p in r.left.parts), tuple(p.text for p in r.right.parts), r.message.text


# ---------------------------------------------------------------------------
# Value types


def test_finite_code_validation():
    with pytest.raises(InputError):
        FiniteCode(AB, ["a", ""])
    assert len(FiniteCode(AB, ["a", "a", "b"])) == 2


def test_factorization_validation():
    m = AB.word("ab")
    Factorization(m, (AB.word("a"), AB.word("b")))
    with pytest.raises(InputError):
        Factorization(m, (AB.word("a"),))
    with pytest.raises(InputError):
        Factorization(m, ())


def test_prime_relation_validation():
    m = AB.word("aa")
    f1 = Factorization(m, (AB.word("a"), AB.word("a")))
    f2 = Factorization(m, (AB.word("aa"),))
    PrimeRelation(f1, f2)
    with pytest.raises(InputError):
        PrimeRelation(f1, f1)
    # shared intermediate prefix product a = a
    m3 = AB.word("aab")
    g1 = Factorization(m3, (AB.word("a"), AB.word("ab")))
    g2 = Factorization(m3, (AB.word("a"), AB.word("a"), AB.word("b")))
    with pytest.raises(InputError):
        PrimeRelation(g1, g2)


def test_partition_validation():
    code = FiniteCode(AB, ["a", "ab", "ba"])
    a, ab, ba = AB.word("a"), AB.word("ab"), AB.word("ba")
    with pytest.raises(InputError):
        Partition(code, [{a}, {ab}])  # not covering
    with pytest.raises(InputError):
        Partition(code, [{a, ab}, {ab, ba}])  # overlap
    with pytest.raises(InputError):
        Partition(code, [{a, ab, ba}, set()])  # empty class
    assert Partition.trivial(code) == Partition(code, [{a, ab, ba}])
    # equality ignores class order
    assert Partition(code, [{a}, {ab, ba}]) == Partition(code, [{ab, ba}, {a}])


# ---------------------------------------------------------------------------
# Sardinas-Patterson and prime relations


def test_sp_examples():
    ud, witness = sp_is_ud(FiniteCode(ZO, ["0", "01", "11"]))
    assert ud and witness is None
    ud, witness = sp_is_ud(FiniteCode(AB, ["a", "ab", "ba"]))
    assert not ud
    assert [p.text for p in witness.left.parts] == ["a", "ba"]
    assert [p.text for p in witness.right.parts] == ["ab", "a"]
    ud, witness = sp_is_ud(FiniteCode(AB, ["ab"]))
    assert ud and witness is None
    ud, witness = sp_is_ud(FiniteCode(AB, ["a", "a" * 10_000]))
    assert not ud
    assert [p.text for p in witness.left.parts] == ["a"] * 10_000
    assert [p.text for p in witness.right.parts] == ["a" * 10_000]


def test_sp_rejects_empty_code():
    code = FiniteCode(AB, [])
    with pytest.raises(PreconditionError):
        sp_is_ud(code)


def test_enumerate_prime_relations_examples():
    rels = enumerate_prime_relations(FiniteCode(AB, ["a", "ab", "ba"]), 3)
    assert len(rels) == 1
    assert repr(rels[0]) == "a·ba = ab·a"
    assert enumerate_prime_relations(FiniteCode(ZO, ["0", "01", "11"]), 10) == []
    prefix_code = FiniteCode(AB, ["a", "ba", "bb"])  # no dangling suffix at all
    assert enumerate_prime_relations(prefix_code, 10) == []
    assert sp_is_ud(prefix_code) == (True, None)
    rels = enumerate_prime_relations(FiniteCode(AB, ["a", "aa"]), 3)
    assert [repr(r) for r in rels] == ["a·a = aa", "a·aa = aa·a"]


def test_enumerate_is_sorted_and_bounded():
    rng = random.Random(2024)
    for _ in range(40):
        code = random_finite_code(rng)
        rels = enumerate_prime_relations(code, 8)
        keys = [
            (r.message.sort_key(), tuple(p.sort_key() for p in r.left.parts), tuple(p.sort_key() for p in r.right.parts))
            for r in rels
        ]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))
        for r in rels:
            assert len(r.message) <= 8
            assert r.left.parts <= r.right.parts


def test_enumeration_matches_oracle_prime_pairs():
    # two independent enumerations of bounded prime relations must induce
    # exactly the same merge pairs
    rng = random.Random(99)
    for _ in range(60):
        code = random_finite_code(rng, max_words=4, max_len=3)
        rels = enumerate_prime_relations(code, 7)
        enum_merges = set()
        for r in rels:
            support = sorted(r.support())
            for i, u in enumerate(support):
                for v in support[i + 1:]:
                    enum_merges.add((u, v))
        _ud, merges = brute_force_oracle(code, 7)
        assert merges == enum_merges, code
        assert all(len(r.message) <= 7 for r in rels)
        assert len({(r.left.parts, r.right.parts) for r in rels}) == len(rels)


def test_relations_match_brute_force_search():
    # declared orders that are not code-point order decide the witness's
    # tie-breaks, and the search must agree with the message search exactly
    rng = random.Random(7007)
    alphabets = [Alphabet("ba"), ZO, WIDE]
    with_relations = 0
    for i in range(150):
        alphabet = alphabets[i % 3]
        size = rng.randint(5, 12)
        words = set()
        while len(words) < size:
            words.add("".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 6))))
        code = FiniteCode(alphabet, words)
        expected = brute_force_relations(code, 7)
        got = [relation_texts(r) for r in enumerate_prime_relations(code, 7)]
        assert len(got) == len(set(got)) and set(got) == expected, code

        def shortlex(t):
            return len(t), [alphabet.rank(c) for c in t]

        def key(rel):
            left, right, message = rel
            return shortlex(message), [shortlex(t) for t in left], [shortlex(t) for t in right]

        ud, witness = sp_is_ud(code)
        if expected:
            with_relations += 1
            least = min(expected, key=key)
            assert got[0] == least
            assert not ud and relation_texts(witness) == least
        else:
            assert ud or len(witness.message) > 7
    assert with_relations >= 75


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


def test_dense_code_scaling():
    # every residual lookup is indexed: at 1600 words the relation search,
    # which reads a few residuals, and the graph build behind the partition
    # take a fraction of a second
    texts_, (x, y) = _dense_code(random.Random(1600), 1600)
    code = FiniteCode(ZO, texts_)
    start = time.perf_counter()
    ud, witness = sp_is_ud(code)
    fine = characteristic_partition(code)
    elapsed = time.perf_counter() - start
    assert not ud and witness is not None
    owners = {fine.class_index_of(ZO.word(t)) for t in (x, y, x + y)}
    assert len(owners) == 1
    assert elapsed < 2.5


def test_relation_search_matches_the_whole_graph_search(monkeypatch):
    # the search reads only the residuals within the length bound; the
    # reference builds the whole dangling-suffix graph first
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rng = random.Random(1953)
    alphabets = [AB, Alphabet("ba"), ZO, WIDE]
    codes = []
    for i in range(600):
        alphabet = alphabets[i % len(alphabets)]
        size = rng.randint(1, 9)
        codes.append(FiniteCode(alphabet, {"".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 6)))
                                           for _ in range(size)}))
    for n in (50, 100, 200):
        codes.append(FiniteCode(ZO, workloads._dense_code(random.Random(n), n)[0]))
        letters, words, _ta, _squares = workloads._structured_code(random.Random(n), n)
        codes.append(FiniteCode(Alphabet("".join(letters)), words))
    not_ud = related = 0
    for code in codes:
        ud, witness = sp_is_ud(code)
        assert (ud, witness) == graph_sp_is_ud(code), code
        not_ud += not ud
        for bound in (1, 4, 7, 10):
            rels = enumerate_prime_relations(code, bound)
            assert rels == graph_prime_relations(code, bound), (code, bound)
            related += bool(rels)
    assert not_ud >= 280 and related >= 700


def test_relation_search_reads_only_within_the_bound(monkeypatch):
    # the partition reads each of the 3826 residuals once; the searches
    # read 6 and 97
    code = FiniteCode(ZO, _dense_code(random.Random(1600), 1600)[0])
    _arcs, whole = oracles._useful_text_arcs(code)
    reads = []
    comparable = F._CodeIndex.comparable

    def counted(index, u):
        reads.append(u)
        return comparable(index, u)

    monkeypatch.setattr(F._CodeIndex, "comparable", counted)
    characteristic_partition(code)
    assert sorted(reads) == sorted(whole) and len(whole) > 3000
    reads.clear()
    assert not sp_is_ud(code)[0]
    assert len(reads) <= 50
    reads.clear()
    assert enumerate_prime_relations(code, 8)
    assert len(reads) <= 500


def test_enumeration_hits_the_state_cap():
    # a(ba)^k = (ab)^k·a is a prime relation for every k, so the list has
    # no end; the states popped and the parts listed count against the cap
    code = FiniteCode(AB, ["a", "ab", "ba"])
    old = A.state_cap()
    try:
        A.set_state_cap(200)
        with pytest.raises(StateCapExceededError, match="^enumerate_prime_relations needs more than 200 states$"):
            enumerate_prime_relations(code, 10 ** 8)
        with pytest.raises(StateCapExceededError):  # 60 states popped, but 990 parts
            enumerate_prime_relations(code, 61)
        assert [len(r.message) for r in enumerate_prime_relations(code, 11)] == [3, 5, 7, 9, 11]
        # the shortest relations are not capped: this witness has 1001 parts
        ud, witness = sp_is_ud(FiniteCode(AB, ["a", "a" * 1000]))
        assert not ud and len(witness.left.parts) == 1000
    finally:
        A.set_state_cap(old)


# ---------------------------------------------------------------------------
# Co-occurrence and partitions


def test_cooccurrence_examples():
    pairs = cooccurrence_pairs(FiniteCode(AB, ["a", "ab", "ba"]))
    assert pair_texts(pairs) == [("a", "ab"), ("a", "ba"), ("ab", "ba")]
    assert cooccurrence_pairs(FiniteCode(ZO, ["0", "01", "11"])) == set()
    pairs = cooccurrence_pairs(EXAMPLE1)
    assert pair_texts(pairs) == [
        ("00", "0010"),
        ("00", "1000"),
        ("0010", "1000"),
        ("11", "1111"),
    ]


def test_characteristic_examples():
    fine = characteristic_partition(FiniteCode(ZO, ["0", "01", "11"]))
    assert all(len(c) == 1 for c in fine.classes)
    fine = characteristic_partition(FiniteCode(AB, ["a", "ab", "ba"]))
    assert len(fine.classes) == 1
    fine = characteristic_partition(EXAMPLE1)
    assert sorted(texts(c) for c in fine.classes) == [
        ["00", "0010", "1000"],
        ["010"],
        ["011"],
        ["11", "1111"],
    ]


def test_canonical_examples():
    unambiguous, ta = canonical_partition(EXAMPLE1)
    assert texts(unambiguous) == ["010", "011"]
    assert [texts(c) for c in ta] == [["00", "0010", "1000"], ["11", "1111"]]
    unambiguous, ta = canonical_partition(FiniteCode(ZO, ["0", "01", "11"]))
    assert texts(unambiguous) == ["0", "01", "11"] and ta == []
    unambiguous, ta = canonical_partition(FiniteCode(AB, ["a", "aa"]))
    assert unambiguous == frozenset() and [texts(c) for c in ta] == [["a", "aa"]]


def test_is_coding_examples():
    assert is_coding(EXAMPLE1, Partition.trivial(EXAMPLE1))
    w = {t: ZO.word(t) for t in EXAMPLE1.texts()}
    split = Partition(
        EXAMPLE1,
        [{w["00"]}, {w["0010"], w["1000"]}, {w["11"], w["1111"]}, {w["010"], w["011"]}],
    )
    assert not is_coding(EXAMPLE1, split)
    ud_code = FiniteCode(ZO, ["0", "01", "11"])
    assert is_coding(ud_code, Partition.singletons(ud_code))
    assert is_coding(ud_code, Partition.trivial(ud_code))
    other = FiniteCode(ZO, ["0", "01"])
    with pytest.raises(PreconditionError):
        is_coding(other, Partition.trivial(ud_code))


def test_totally_ambiguous_examples():
    assert is_totally_ambiguous(FiniteCode(AB, ["a", "ab", "ba"]))
    assert not is_totally_ambiguous(FiniteCode(AB, ["a"]))
    assert not is_totally_ambiguous(EXAMPLE1)


# ---------------------------------------------------------------------------
# P-factorization


def test_p_factorize_examples():
    pc = canonical_coding_partition(EXAMPLE1)
    result = p_factorize(ZO.word("0010010"), pc)
    names = {i: texts(c) for i, c in enumerate(pc.classes)}
    assert [(names[k][0], b.text) for k, b in result.blocks] == [("00", "0010"), ("010", "010")]
    assert result.blocks[0][0] == pc.class_index_of(ZO.word("0010"))
    assert result.blocks[1][0] == pc.class_index_of(ZO.word("010"))

    trivial = Partition.trivial(EXAMPLE1)
    result = p_factorize(ZO.word("0010010"), trivial)
    assert result.blocks == ((0, ZO.word("0010010")),)

    alternating = p_factorize(AB.word("ab" * 5_000), Partition.singletons(FiniteCode(AB, ["a", "b"])))
    assert [b.text for _k, b in alternating.blocks] == ["a", "b"] * 5_000
    run = p_factorize(AB.word("a" * 10_000), Partition.singletons(FiniteCode(AB, ["a", "b"])))
    assert [b.text for _k, b in run.blocks] == ["a" * 10_000]

    with pytest.raises(PreconditionError):
        p_factorize(ZO.word("111"), pc)
    with pytest.raises(PreconditionError):
        p_factorize(ZO.word(""), pc)


def test_p_factorize_rejects_non_coding_partition():
    code = FiniteCode(AB, ["a", "ab", "ba"])
    split = Partition(code, [{AB.word("a")}, {AB.word("ab"), AB.word("ba")}])
    with pytest.raises(PreconditionError):
        p_factorize(AB.word("aba"), split)


def test_p_factorize_round_trip_properties():
    rng = random.Random(4242)
    done = 0
    while done < 50:
        code = random_finite_code(rng)
        partition = random_coding_partition(rng, code)
        words = code.sorted_words()
        parts = [rng.choice(words) for _ in range(rng.randint(1, 4))]
        message = code.alphabet.word("".join(p.text for p in parts))
        result = p_factorize(message, partition)
        assert "".join(b.text for _k, b in result.blocks) == message.text
        for (k1, _), (k2, _) in zip(result.blocks, result.blocks[1:]):
            assert k1 != k2
        # every block parses as a nonempty product of its class's words
        for k, block in result.blocks:
            class_texts = {w.text for w in partition.classes[k]}
            reachable = {0}
            for i in range(len(block.text)):
                if i in reachable:
                    for t in class_texts:
                        if block.text.startswith(t, i):
                            reachable.add(i + len(t))
            assert len(block.text) in reachable
        done += 1


# ---------------------------------------------------------------------------
# Oracle-backed invariants


def test_sp_matches_oracle():
    rng = random.Random(1234)
    for _ in range(120):
        code = random_finite_code(rng)
        ud, witness = sp_is_ud(code)
        oracle_ud, _merges = brute_force_oracle(code, 12)
        assert ud == oracle_ud, code
        if not ud:
            assert witness.left.parts != witness.right.parts
            assert witness.message == witness.left.message


def test_oracle_merges_respected_by_characteristic_partition():
    rng = random.Random(777)
    for _ in range(80):
        code = random_finite_code(rng)
        _ud, merges = brute_force_oracle(code, 12)
        fine = characteristic_partition(code)
        owner = {w: i for i, c in enumerate(fine.classes) for w in c}
        for u, v in merges:
            assert owner[u] == owner[v], (code, u, v)


def test_characteristic_classes_are_cooccurrence_components():
    # the finest partition is read off the suffix graph without pairs, so
    # rebuild its classes from the exact pairs: neither over- nor under-merged
    rng = random.Random(4242)
    merged = 0
    for _ in range(400):
        code = random_finite_code(rng)
        component = {w: frozenset([w]) for w in code.words}
        for u, v in cooccurrence_pairs(code):
            joined = component[u] | component[v]
            for w in joined:
                component[w] = joined
        expected = sorted(set(component.values()), key=lambda c: min(c).sort_key())
        fine = characteristic_partition(code)
        assert list(fine.classes) == expected, code
        merged += any(len(c) > 1 for c in fine.classes)
    assert merged >= 100


def test_numbered_analyses_match_the_word_keyed_oracles(monkeypatch):
    # the library numbers the words and the useful residuals; the oracles
    # build the whole graph and link Word objects
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rng = random.Random(2011)
    codes = [random_finite_code(rng, max_words=rng.choice((6, 9)), max_len=rng.choice((4, 6)))
             for _ in range(600)]
    for n in (50, 100, 200):
        codes.append(FiniteCode(ZO, workloads._dense_code(random.Random(n), n)[0]))
        letters, words, _ta, _squares = workloads._structured_code(random.Random(n), n)
        codes.append(FiniteCode(Alphabet("".join(letters)), words))
    # words are numbered in shortlex order, residuals sorted by code point
    codes += [FiniteCode(Alphabet("cba"), code.texts()) for code in codes[:300]]
    merged = 0
    for code in codes:
        fine = oracles.characteristic_partition(code)
        assert characteristic_partition(code).classes == fine.classes, code
        unambiguous = frozenset(w for c in fine.classes if len(c) == 1 for w in c)
        canonical = ([unambiguous] if unambiguous else []) + [c for c in fine.classes if len(c) > 1]
        assert canonical_coding_partition(code).classes == tuple(canonical), code
        p, q = random_coding_partition(rng, code), random_coding_partition(rng, code)
        assert L.coding_meet(p, q).classes == oracles.coding_meet(p, q).classes, (p, q)
        assert L.coding_join(p, q).classes == oracles.coding_join(p, q).classes, (p, q)
        assert cooccurrence_pairs(code) == oracles.cooccurrence_pairs(code), code
        merged += len(fine) < len(code)
    assert merged >= 200


def test_characteristic_merges_witnessed_by_relations():
    rng = random.Random(555)
    for _ in range(40):
        code = random_finite_code(rng, max_words=5)
        pairs = cooccurrence_pairs(code)
        total_len = sum(len(w) for w in code.words)
        cache = {}
        for u, v in pairs:
            bound = cooccurrence_witness_bound(code, u, v)
            assert bound is not None
            assert bound <= 2 * total_len
            if bound not in cache:
                cache[bound] = enumerate_prime_relations(code, bound)
            assert any(u in r.support() and v in r.support() for r in cache[bound])


def test_characteristic_is_finest_coding_partition():
    rng = random.Random(31337)
    for _ in range(60):
        code = random_finite_code(rng)
        fine = characteristic_partition(code)
        assert is_coding(code, fine)
        # splitting any non-singleton class breaks the coding property
        for idx, cls in enumerate(fine.classes):
            if len(cls) < 2:
                continue
            members = sorted(cls)
            one, rest = {members[0]}, set(members[1:])
            split = list(fine.classes[:idx]) + [one, rest] + list(fine.classes[idx + 1:])
            assert not is_coding(code, Partition(code, split))


def test_coarsening_preserves_coding():
    rng = random.Random(909)
    for _ in range(60):
        code = random_finite_code(rng)
        finer = random_coding_partition(rng, code)
        assert is_coding(code, finer)
        # merge two random classes: still coding
        if len(finer.classes) >= 2:
            classes = list(finer.classes)
            a = classes.pop(rng.randrange(len(classes)))
            b = classes.pop(rng.randrange(len(classes)))
            coarser = Partition(code, classes + [a | b])
            assert is_coding(code, coarser)


def test_ud_codes_have_singleton_characteristic_partition():
    rng = random.Random(246)
    seen_ud = 0
    for _ in range(150):
        code = random_finite_code(rng)
        ud, _witness = sp_is_ud(code)
        if not ud:
            continue
        seen_ud += 1
        fine = characteristic_partition(code)
        assert all(len(c) == 1 for c in fine.classes)
        grouped = random_coding_partition(rng, code)
        assert is_coding(code, grouped)
    assert seen_ud > 20
