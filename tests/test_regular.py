import collections
import itertools
import random
import re
import time

import pytest

import oracles
from conftest import dialect_text, language_set, random_finite_code, random_regex
from partfact import (
    Alphabet,
    AlphabetMismatchError,
    FiniteCode,
    Partition,
    PreconditionError,
    RegularCode,
    RegularMonoid,
    RegularPartition,
    StateCapExceededError,
    base,
    canonical_free_factorization,
    canonical_partition,
    coding_ambiguity_witness,
    completeness_witness,
    extension_witness,
    free_product_check,
    gen_ud,
    is_base,
    is_coding,
    is_complete,
    is_dense,
    is_full,
    is_maximal,
    is_maximal_ud,
    is_submonoid,
    is_thin,
    is_unbordered,
    lemma2_check,
    regular_is_coding,
    regular_is_ud,
    sp_is_ud,
    ud_ambiguity_witness,
)
from partfact import fsa as A

AB = Alphabet("ab")
BA = Alphabet("ba")
ZO = Alphabet("01")
ABCD = Alphabet("abcd")
UNARY = Alphabet("a")

EXAMPLE1 = FiniteCode(ZO, ["00", "0010", "1000", "11", "1111", "010", "011"])


def code_rx(expr, alphabet=AB):
    return RegularCode.from_regex(expr, alphabet)


def code_words(alphabet, words):
    return RegularCode.from_words(FiniteCode(alphabet, words))


def uniform(n):
    return code_rx("(0|1)" * n, ZO)


def finite_texts(f):
    return [w.text for w in A.enumerate_finite_language(f)]


# ---------------------------------------------------------------------------
# Types


def test_regular_code_validation():
    with pytest.raises(PreconditionError):
        RegularCode(A.empty_fsa(AB))
    with pytest.raises(PreconditionError):
        RegularCode(A.regex_to_fsa("_|a", AB))


def test_regular_monoid_validation():
    RegularMonoid(A.regex_to_fsa("(aa|ba)*", AB))
    with pytest.raises(PreconditionError):
        RegularMonoid(A.regex_to_fsa("a*b", AB))  # no empty word
    with pytest.raises(PreconditionError):
        RegularMonoid(A.regex_to_fsa("_|a|aa|aaa", AB))  # not product-closed


def test_regular_partition_validation():
    x = code_rx("a|bb|ab", AB)
    with pytest.raises(PreconditionError):
        RegularPartition(x, (A.regex_to_fsa("a|bb", AB), A.regex_to_fsa("bb|ab", AB)))
    with pytest.raises(PreconditionError):
        RegularPartition(x, (A.regex_to_fsa("a", AB),))
    RegularPartition(x, (A.regex_to_fsa("a|ab", AB), A.regex_to_fsa("bb", AB)))
    bb = A.regex_to_fsa("bb", AB)
    for first, message in (
        (A.empty_fsa(AB), "partition classes must be nonempty"),
        (A.Fsa(AB, 3, [(0, "a", 1)], (0,), (2,)), "partition classes must be nonempty"),  # no accepting run
        (A.regex_to_fsa("_|a|ab", AB), "partition classes may not contain the empty word"),
        (A.regex_to_fsa("a*(ab)*", AB), "partition classes may not contain the empty word"),  # by spontaneous moves
    ):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            RegularPartition(x, (first, bb))
    # the overlap check stops at the first word two classes share: against
    # the emptiness of their intersection on seeded random classes
    rng = random.Random(17)
    overlaps = []
    while len(overlaps) < 200:
        classes = [A.difference(A.regex_to_fsa(dialect_text(random_regex(rng, 4), rng), AB), A.epsilon_fsa(AB))
                   for _ in range(2)]
        if A.is_empty(classes[0]) or A.is_empty(classes[1]):
            continue
        try:
            RegularPartition(RegularCode(A.union(*classes)), classes)
            overlaps.append(False)
        except PreconditionError as e:
            assert str(e) == "classes 0 and 1 overlap"
            overlaps.append(True)
        assert overlaps[-1] == (not A.is_empty(A.intersection(*classes)))
    assert 20 < sum(overlaps) < 180


def _outcome(check, *args):
    try:
        check(*args)
    except (PreconditionError, AlphabetMismatchError) as e:
        return type(e), str(e)
    return None


# each splits a code in two by intersection: first letter, parity of the length, last letter
_SPLITS = [[A.regex_to_fsa(rx, AB) for rx in pair] for pair in (
    ("a(a|b)*", "b(a|b)*"), ("((a|b)(a|b))*", "(a|b)((a|b)(a|b))*"), ("(a|b)*a", "(a|b)*b"))]


def _random_classes(rng, code):
    """Classes of a random code: the cells of one or two splits, then
    maybe an overlapping class, a gap, a star class, a word outside the
    code, an empty class or one over another alphabet; shuffled."""
    cells = [code.lang]
    for split in rng.sample(_SPLITS, rng.randint(1, 2)):
        cells = [A.intersection(c, s) for c in cells for s in split]
    classes = [c for c in cells if not A.is_empty(c)]
    i = rng.randrange(len(classes))
    change = rng.choice(("none", "none", "overlap", "gap", "star", "outside", "empty", "alphabet"))
    if change == "overlap":
        classes.append(A.intersection(code.lang, A.regex_to_fsa(dialect_text(random_regex(rng, 3), rng), AB)))
    elif change == "gap" and len(classes) > 1:
        del classes[i]
    elif change == "star":
        classes.append(A.regex_to_fsa(rng.choice(("(ab)+", "a(ba)*", "b+a", "(a|bb)(a|bb)*", "(ab)*")), AB))
    elif change == "outside":
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        classes[i] = A.union(classes[i], A.word_fsa(AB.word(word)))
    elif change == "empty":
        classes[i] = A.difference(classes[i], classes[i])
    elif change == "alphabet":
        classes[i] = A.regex_to_fsa("a", Alphabet("abc"))
    rng.shuffle(classes)
    return classes


def test_regular_partition_checks_match_the_acceptor_checks():
    # the cover check on the class views laid side by side, against the
    # union acceptor compared with the code: the same error and message,
    # naming the same pair of classes, on 2000 seeded partitions
    rng = random.Random(61)
    seen = collections.Counter()
    cases = 0
    while cases < 2000:
        lang = A.difference(A.regex_to_fsa(dialect_text(random_regex(rng, 3), rng), AB), A.epsilon_fsa(AB))
        if A.is_empty(lang):
            continue
        code = RegularCode(lang)
        classes = _random_classes(rng, code)
        got = _outcome(RegularPartition, code, classes)
        assert got == _outcome(oracles.check_regular_partition, code, classes), (code, classes)
        seen[got and got[1].split()[-1]] += 1
        cases += 1
    # every outcome occurs: a partition, an overlap, no exact cover, an
    # empty class, one with the empty word, another alphabet
    assert min(seen[k] for k in (None, "overlap", "exactly", "nonempty", "word", "code's")) > 20, seen


# ---------------------------------------------------------------------------
# Submonoids, bases


def test_is_submonoid_examples():
    assert is_submonoid(A.regex_to_fsa("(aa|ba)*", AB))
    assert not is_submonoid(A.regex_to_fsa("_|a|aa|aaa", AB))
    astar_minus_a = A.difference(A.full_language_fsa(AB), A.word_fsa(AB.word("a")))
    assert is_submonoid(astar_minus_a)


def test_base_examples():
    assert finite_texts(base(RegularMonoid(A.full_language_fsa(AB))).lang) == ["a", "b"]
    m = RegularMonoid.generated_by(uniform(2))
    assert finite_texts(base(m).lang) == ["00", "01", "10", "11"]
    m = RegularMonoid.generated_by(code_words(ZO, ["0", "01", "11"]))
    assert finite_texts(base(m).lang) == ["0", "01", "11"]
    # ((a|b)*a(a|b)^n)*: the subset blow-up family at n = 11
    n = 11
    m = RegularMonoid.generated_by(code_rx("(a|b)*a" + "(a|b)" * n))
    b = base(m).lang
    assert b.n_states == 5119
    assert_split_rule(m, b, n, random.Random(23))


def prefixes_accepted(f):
    """A function from a text to whether f accepts each prefix of it,
    shortest first: one run of f's moves per text."""
    adj = f.adjacency()

    def closure(states):
        seen, stack = set(states), list(states)
        while stack:
            for a, q in adj[stack.pop()]:
                if a is None and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    def run(text):
        current = closure(f.initial)
        accepted = [not current.isdisjoint(f.accepting)]
        for c in text:
            current = closure({q for p in current for a, q in adj[p] if a == c})
            accepted.append(not current.isdisjoint(f.accepting))
        return accepted

    return run


def assert_split_rule(m, b, n, rng):
    """On 200 seeded words of n + 1 to 3n + 3 letters, b accepts t iff the
    monoid does and no cut splits t into two nonempty words of it."""
    in_m, in_m_mirrored, in_b = prefixes_accepted(m.lang), prefixes_accepted(A.reverse(m.lang)), prefixes_accepted(b)
    for _ in range(200):
        t = "".join(rng.choice("ab") for _ in range(rng.randint(n + 1, 3 * n + 3)))
        heads, tails = in_m(t), in_m_mirrored(t[::-1])[::-1]  # t[:i] and t[i:] in m
        split = any(heads[i] and tails[i] for i in range(1, len(t)))
        assert in_b(t)[-1] == (heads[-1] and not split)


def test_base_decides_past_the_forward_sides_cap():
    # at n = 13 the forward subset construction passes the default cap;
    # the mirrored side builds the base under it
    assert A.state_cap() == A.DEFAULT_STATE_CAP
    n = 13
    m = RegularMonoid.generated_by(code_rx("(a|b)*a" + "(a|b)" * n))
    b = base(m).lang
    assert b.n_states == 20479
    assert_split_rule(m, b, n, random.Random(41))


def test_base_matches_the_difference_construction(monkeypatch):
    # both sides of base against the minimal DFA of the walk of the
    # determinized nonempty part against its square, field by field: the
    # four blow-up families, their two mirror images, also over an
    # alphabet declared out of code-point order, and seeded random regex
    # monoids. The forward side's last subset construction is of a
    # difference, the mirrored side's of a mirrored DFA; each finishes
    monoids = []
    for alphabet, sizes in ((AB, range(1, 12)), (BA, range(1, 7))):
        for n in sizes:
            tail = "(a|b)" * n
            for expr in (f"b*a{tail}", f"(a|b)*a{tail}", f"(b*a)+{tail}", f"(a|b)*a{tail}|(a|b)*b{tail}",
                         f"{tail}a(a|b)*", f"{tail}ab*"):
                monoids.append(RegularMonoid.generated_by(code_rx(expr, alphabet)))
    rng = random.Random(29)
    families = len(monoids)
    while len(monoids) < families + 320:
        code = A.difference(A.regex_to_fsa(dialect_text(random_regex(rng, 5), rng), AB), A.epsilon_fsa(AB))
        if code.n_states:
            monoids.append(RegularMonoid.generated_by(RegularCode(code)))
    subset_dfa, mirrored = A._subset_dfa, []

    def recorded(l, r=None, limit=None):
        mirrored.append(r is None)
        return subset_dfa(l, r, limit)

    monkeypatch.setattr(A, "_subset_dfa", recorded)
    sizes, sides = set(), set()
    for m in monoids:
        got = base(m).lang
        sides.add(mirrored[-1])
        want = oracles.base(m)
        assert (got.n_states, got.transitions, got.initial, got.accepting) == (
            want.n_states, want.transitions, want.initial, want.accepting)
        sizes.add(got.n_states)
    assert max(sizes) == 5119 and len(sizes) > 20
    assert sides == {False, True}


def test_base_of_trivial_monoid():
    with pytest.raises(PreconditionError):
        base(RegularMonoid(A.epsilon_fsa(AB)))


def test_is_base_examples():
    assert is_base(code_words(ZO, ["0", "01", "11"]))
    assert not is_base(code_words(AB, ["a", "aa"]))
    assert is_base(code_rx("a+b+", AB))


def test_base_generates_and_is_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        code = random_finite_code(rng, max_words=4, max_len=3)
        m = RegularMonoid.generated_by(RegularCode.from_words(code))
        b = base(m)
        assert A.equivalent(A.star(b.lang), m.lang)  # the base generates
        assert A.equivalent(base(RegularMonoid.generated_by(b)).lang, b.lang)  # idempotent


# ---------------------------------------------------------------------------
# Density, completeness


def test_dense_thin_examples():
    assert is_dense(A.full_language_fsa(AB))
    assert is_thin(A.word_set_fsa(AB, AB.words(["aa", "ba"])))
    assert not is_dense(A.star(A.word_set_fsa(AB, AB.words(["aa", "ba"]))))


def test_complete_examples():
    assert is_complete(uniform(2))
    assert not is_complete(code_words(AB, ["aa", "ba"]))
    assert is_complete(code_words(UNARY, ["a"]))


def test_completeness_and_density_decide_on_the_blowup_family():
    # every subset of the factor closure of (b*a(a|b)^20)* or of
    # (a|b)*a(a|b)^20 that holds a universal position is the least one,
    # so the walk is constant where it used to hit the default cap
    tail = "(a|b)" * 20
    x = code_rx("b*a" + tail)
    assert A.state_cap() == A.DEFAULT_STATE_CAP
    assert is_complete(x)
    assert completeness_witness(x) is None
    assert is_full(RegularMonoid.generated_by(x))
    assert is_dense(A.regex_to_fsa("(a|b)*a" + tail, AB))


def test_completeness_without_a_universal_position():
    # negative controls: no position of these factor-closure views is
    # universal, so nothing collapses, and the verdicts are the oracle's.
    # {a, ab, bb} is complete, but only a subset of several positions
    # sees it; in the view of the prefix code {a, ba, bb}* every position
    # is universal, while the view of {a, ba, bb} itself has none
    x = code_words(AB, ["a", "ba", "bb"])
    assert A._Subsets(A._View(A.factor_closure(A.star(x.lang))), collapse=True).universal != 0
    for words in (["a", "ab", "bb"], ["aa", "ba"]):
        x = code_words(AB, words)
        closure = A.factor_closure(A.star(x.lang))
        assert A._Subsets(A._View(closure), collapse=True).universal == 0
        want = oracles.completeness_witness(x.lang)
        assert completeness_witness(x) == want
        assert is_complete(x) == (want is None)
    for words in (["a", "ba"], ["a", "ba", "bb"]):
        x = code_words(AB, words)
        assert A._Subsets(A._View(A.factor_closure(x.lang)), collapse=True).universal == 0
        want = oracles.shortest_word(oracles.difference(A.full_language_fsa(AB), A.factor_closure(x.lang)))
        assert is_dense(x.lang) == (want is None) and want is not None


def test_completeness_witness_examples():
    assert completeness_witness(code_words(AB, ["aa", "ba"])).text == "bb"
    assert completeness_witness(uniform(2)) is None
    assert completeness_witness(code_words(AB, ["a"])).text == "b"


def test_extension_witness_examples():
    x = code_words(AB, ["aa", "ba"])
    w = extension_witness(x)
    assert w.text == "bba"
    assert is_unbordered(w)
    assert completeness_witness(uniform(2)) is None and extension_witness(uniform(2)) is None
    assert extension_witness(code_words(AB, ["a"])).text == "b"
    with pytest.raises(PreconditionError):
        extension_witness(code_words(UNARY, ["a"]))


def test_extension_witness_proof_obligations():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        fc = random_finite_code(rng, max_symbols=2)
        if len(fc.alphabet) < 2:
            continue
        x = RegularCode.from_words(fc)
        w = extension_witness(x)
        if w is None:
            assert is_complete(x)
            continue
        checked += 1
        assert is_unbordered(w)
        assert not A.accepts(A.factor_closure(A.star(x.lang)), w.text)
        extended = RegularCode(A.union(x.lang, A.word_fsa(w)))
        partition = RegularPartition(extended, (x.lang, A.word_fsa(w)))
        assert regular_is_coding(partition)


# ---------------------------------------------------------------------------
# Unique decipherability


def test_regular_is_ud_examples():
    assert regular_is_ud(code_rx("a+b+", AB))
    assert not regular_is_ud(code_rx("a|ab|ba", AB))
    assert regular_is_ud(uniform(3))


def test_regular_is_ud_matches_sp_on_finite_codes():
    rng = random.Random(2718)
    for _ in range(100):
        fc = random_finite_code(rng)
        expected, _ = sp_is_ud(fc)
        assert regular_is_ud(RegularCode.from_words(fc)) == expected, fc


def _count_factorizations(message: str, texts, bound=None) -> int:
    counts = [0] * (len(message) + 1)
    counts[0] = 1
    for i in range(1, len(message) + 1):
        for t in texts:
            if i >= len(t) and message.startswith(t, i - len(t)):
                counts[i] += counts[i - len(t)]
    return counts[len(message)]


def test_ud_ambiguity_witness():
    rng = random.Random(1618)
    ambiguous_seen = 0
    for _ in range(60):
        fc = random_finite_code(rng)
        code = RegularCode.from_words(fc)
        witness = ud_ambiguity_witness(code)
        assert (witness is None) == regular_is_ud(code)
        if witness is not None:
            ambiguous_seen += 1
            assert _count_factorizations(witness.text, fc.texts()) >= 2, (fc, witness)
    assert ambiguous_seen > 10


def test_coding_ambiguity_witness():
    fc = FiniteCode(AB, ["a", "ab", "ba"])
    bad = RegularPartition(
        RegularCode.from_words(fc),
        (A.word_set_fsa(AB, AB.words(["a"])), A.word_set_fsa(AB, AB.words(["ab", "ba"]))),
    )
    witness = coding_ambiguity_witness(bad)
    assert witness is not None
    assert A.accepts(A.star(A.word_set_fsa(AB, fc.words)), witness.text)
    assert coding_ambiguity_witness(example3_partition()) is None


# ---------------------------------------------------------------------------
# Coding partitions of regular codes


def example3_partition():
    x = code_rx("a|bb|c|ad*b|bc*bb", ABCD)
    return RegularPartition(
        x, (A.regex_to_fsa("ad+b", ABCD), A.regex_to_fsa("a|ab|bb|c|bc*bb", ABCD))
    )


def test_regular_is_coding_examples():
    assert regular_is_coding(example3_partition())
    x = code_rx("a|bb|c|ad*b|bc*bb", ABCD)
    assert regular_is_coding(RegularPartition(x, (x.lang,)))
    fc = FiniteCode(AB, ["a", "ab", "ba"])
    bad = RegularPartition(
        RegularCode.from_words(fc),
        (A.word_set_fsa(AB, AB.words(["a"])), A.word_set_fsa(AB, AB.words(["ab", "ba"]))),
    )
    assert not regular_is_coding(bad)


def test_example1_block_parser_is_unambiguous_by_run_counting():
    from conftest import has_ambiguous_word
    from oracles import _block_parser, is_unambiguous
    from partfact import canonical_coding_partition

    parser = _block_parser(RegularPartition.from_finite(canonical_coding_partition(EXAMPLE1)).classes)
    assert is_unambiguous(parser)
    assert not has_ambiguous_word(parser, 8)


def test_regular_is_coding_matches_finite_is_coding():
    rng = random.Random(31415)
    for _ in range(60):
        fc = random_finite_code(rng, max_words=5, max_len=3)
        words = fc.sorted_words()
        rng.shuffle(words)
        cut = rng.randint(1, len(words))
        classes = [frozenset(words[:cut])] + ([frozenset(words[cut:])] if words[cut:] else [])
        p = Partition(fc, classes)
        expected = is_coding(fc, p)
        assert regular_is_coding(RegularPartition.from_finite(p)) == expected, fc


def _texts(f, max_len):
    return [w.text for w in oracles.enumerate_words(f, max_len)]


def _check_pair_walk(partition, ud, coding):
    # the verdicts of the run-counting oracles, and the least witnesses by
    # brute force over every message up to the witness's length
    code = partition.code
    assert (oracles.ud_run_witness(code.lang) is None) == ud
    assert (oracles.coding_run_witness(partition.classes) is None) == coding
    for by_word, classes, witness, verdict in (
        (True, (code.lang,), ud_ambiguity_witness(code), ud),
        (False, partition.classes, coding_ambiguity_witness(partition), coding),
    ):
        assert (witness is None) == verdict, (code, by_word)
        if witness is not None:
            n = len(witness)
            texts = [_texts(c, n) for c in classes]
            least = oracles.least_two_factorizations(texts, n, by_word, code.alphabet.symbols)
            assert least == witness.text, (texts, by_word)


@pytest.mark.parametrize("on_positions", [False, True, "every other class"])
def test_pair_walk_matches_the_oracles_with_least_witnesses(monkeypatch, on_positions):
    # on positions, a class is read on its own view, as where its subset
    # construction is too big; every other class mixes both kinds of part
    # side by side in one walk, so their offsets and owners must agree
    if on_positions:
        subset_dfa, turns = A._subset_dfa, itertools.cycle((True, on_positions is True))

        def on_view(l, r=None, limit=None):
            return None if limit and next(turns) else subset_dfa(l, r, limit)

        monkeypatch.setattr(A, "_subset_dfa", on_view)
    rng = random.Random(5772)
    for i in range(300):  # finite codes and two-class partitions, as tries and as regexes
        fc = random_finite_code(rng, max_words=5, max_len=3)
        if i % 2:  # an alphabet declared out of code-point order
            fc = FiniteCode(Alphabet(reversed(fc.alphabet.symbols)), [w.text for w in fc.words])
        words = fc.sorted_words()
        rng.shuffle(words)
        cut = rng.randint(1, len(words))
        groups = [g for g in (words[:cut], words[cut:]) if g]
        ud, coding = sp_is_ud(fc)[0], is_coding(fc, Partition(fc, map(frozenset, groups)))
        trie = RegularPartition(RegularCode.from_words(fc), [A.word_set_fsa(fc.alphabet, g) for g in groups])
        _check_pair_walk(trie, ud, coding)
        as_regex = [A.regex_to_fsa("|".join(w.text for w in g), fc.alphabet) for g in groups]
        _check_pair_walk(RegularPartition(code_rx("|".join(w.text for w in words), fc.alphabet), as_regex), ud, coding)
    starred = 0
    while starred < 100:  # infinite codes, split by first letter
        alphabet = (AB, BA)[starred % 2]
        try:
            code = code_rx(dialect_text(random_regex(rng, 3), rng), alphabet)
        except PreconditionError:
            continue
        by_first = [A.intersection(code.lang, A.regex_to_fsa(c + "(a|b)*", alphabet)) for c in "ab"]
        p = RegularPartition(code, [c for c in by_first if not A.is_empty(c)])
        _check_pair_walk(p, oracles.ud_run_witness(code.lang) is None, oracles.coding_run_witness(p.classes) is None)
        starred += 1


def test_pair_walk_grows_polynomially_past_the_subset_blowup():
    # (a|b)*a(a|b)^20 has 2^21 subsets, beyond the state cap
    q = code_rx("(a|b)*a" + "(a|b)" * 20, AB)
    started = time.perf_counter()
    assert ud_ambiguity_witness(q) == AB.word("a" * 42)
    assert time.perf_counter() - started < 0.5
    assert regular_is_ud(code_rx("b*a" + "(a|b)" * 20, AB))
    old = A.state_cap()
    try:
        A.set_state_cap(100)  # the walk counts its pairs, under its own name
        with pytest.raises(StateCapExceededError, match="factorizations"):
            ud_ambiguity_witness(q)
    finally:
        A.set_state_cap(old)


def test_pair_walk_reads_many_word_alternations_deterministically():
    # each of the 512 branches of {a,b}^9 given as one alternation is a
    # position of its own: on those positions the walk passes the state cap
    words = ["".join(t) for t in itertools.product("ab", repeat=9)]
    x = code_rx("|".join(words))
    assert regular_is_ud(x)
    by_first = [A.regex_to_fsa("|".join(w for w in words if w[0] == c), AB) for c in "ab"]
    assert regular_is_coding(RegularPartition(x, by_first))
    assert ud_ambiguity_witness(code_rx("|".join(words + ["a" * 18]))) == AB.word("a" * 18)


def test_pair_walk_and_partition_build_each_view_once(monkeypatch):
    # on long-word codes the pair walk reads each class's subset
    # construction as it is, with no acceptor built and no second view;
    # a partition's cover check reads the class views it already built
    # side by side, against the code's view
    word = "a" + "".join(random.Random(400).choice("ad") for _ in range(399))
    codes = [code_rx(f"b|ca|cb|cc|{word}", ABCD), code_rx(f"b|c|bc|{word}", ABCD)]
    splits = [["b|ca|cb|cc", word], ["b", f"c|bc|{word}"], ["b", "ca", "cb|cc", word]]
    counts = collections.Counter()

    def count(owner, name, key):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(A.Fsa, "__init__", "Fsa")
    count(A, "union", "union")
    count(A._View, "__init__", "view")
    for code, split, ud in zip(codes + codes[:1], splits, (True, False, True)):
        classes = [A.regex_to_fsa(c, ABCD) for c in split]
        counts.clear()
        p = RegularPartition(code, classes)
        assert counts == {"view": len(classes) + 1}, counts
        counts.clear()
        assert (ud_ambiguity_witness(code) is None) == ud
        assert (coding_ambiguity_witness(p) is None) == ud
        assert counts == {"view": 1 + len(classes)}, counts  # one per subset construction


# ---------------------------------------------------------------------------
# Free products


def test_free_product_examples():
    m0 = RegularMonoid.generated_by(code_rx("ad+b", ABCD))
    m1 = RegularMonoid.generated_by(code_rx("a|ab|bb|c|bc*bb", ABCD))
    assert free_product_check([m0, m1])
    astar = RegularMonoid.generated_by(code_rx("a", AB))
    assert not free_product_check([astar, astar])
    aastar = RegularMonoid.generated_by(code_rx("aa", AB))
    assert not free_product_check([astar, aastar])
    with pytest.raises(PreconditionError):
        free_product_check([astar])
    with pytest.raises(PreconditionError):
        free_product_check([astar, RegularMonoid(A.epsilon_fsa(AB))])


def test_free_product_base_union_and_strict_growth():
    # when the product is free, the base of the generated monoid is the
    # union of the bases, and the generated monoid strictly grows
    m0 = RegularMonoid.generated_by(code_rx("ad+b", ABCD))
    m1 = RegularMonoid.generated_by(code_rx("a|ab|bb|c|bc*bb", ABCD))
    assert free_product_check([m0, m1])
    joint = RegularMonoid.generated_by(A.union(m0.lang, m1.lang))
    expected_base = A.union(base(m0).lang, base(m1).lang)
    assert A.equivalent(base(joint).lang, expected_base)
    assert A.includes(joint.lang, m0.lang) and not A.equivalent(joint.lang, m0.lang)
    assert A.includes(joint.lang, m1.lang) and not A.equivalent(joint.lang, m1.lang)


def test_free_product_matches_coding_partition_on_finite_codes():
    rng = random.Random(5150)
    for _ in range(40):
        fc = random_finite_code(rng, max_words=4, max_len=3)
        words = fc.sorted_words()
        if len(words) < 2:
            continue
        cut = rng.randint(1, len(words) - 1)
        left, right = words[:cut], words[cut:]
        p = Partition(fc, [frozenset(left), frozenset(right)])
        ml = RegularMonoid.generated_by(code_words(fc.alphabet, [w.text for w in left]))
        mr = RegularMonoid.generated_by(code_words(fc.alphabet, [w.text for w in right]))
        # free product of the two generated monoids asks the same question
        # about their bases; when the halves are their own bases it must
        # agree with the finite coding check
        bl, br = base(ml), base(mr)
        halves_are_bases = A.equivalent(bl.lang, A.word_set_fsa(fc.alphabet, left)) and A.equivalent(
            br.lang, A.word_set_fsa(fc.alphabet, right)
        )
        if halves_are_bases:
            verdict = free_product_check([ml, mr])
            assert verdict == is_coding(fc, p), fc
            if verdict:
                # the base of the generated monoid is the union of the bases
                joint = RegularMonoid.generated_by(A.union(ml.lang, mr.lang))
                assert A.equivalent(base(joint).lang, A.union(bl.lang, br.lang))


# ---------------------------------------------------------------------------
# Maximality, fullness


def test_is_maximal_examples():
    assert is_maximal(code_rx("(0|1)(0|1)(0|1)", ZO))
    assert not is_maximal(code_words(AB, ["aa", "ba"]))
    assert is_maximal(code_words(UNARY, ["a"]))


def test_is_maximal_refuses_dense_codes():
    dense_code = RegularCode(A.difference(A.full_language_fsa(AB), A.regex_to_fsa("_|a", AB)))
    assert is_dense(dense_code.lang)
    with pytest.raises(PreconditionError):
        is_maximal(dense_code)


def test_is_full_examples():
    astar_minus_a = RegularMonoid(A.difference(A.full_language_fsa(AB), A.word_fsa(AB.word("a"))))
    assert is_full(astar_minus_a)
    assert is_full(RegularMonoid.generated_by(uniform(2)))
    assert not is_full(RegularMonoid.generated_by(code_words(AB, ["aa", "ba"])))


def test_full_monoids_are_dense():
    candidates = [
        RegularMonoid(A.difference(A.full_language_fsa(AB), A.word_fsa(AB.word("a")))),
        RegularMonoid.generated_by(uniform(1)),
        RegularMonoid.generated_by(uniform(2)),
        RegularMonoid.generated_by(uniform(3)),
    ]
    for m in candidates:
        assert is_full(m)
        assert is_dense(m.lang)


def test_is_maximal_ud_examples():
    assert is_maximal_ud(uniform(2))
    # a+b+ is thin and complete (any word w is a factor of a.w.b), hence
    # a maximal UD code; mechanical checks agree
    apbp = code_rx("a+b+", AB)
    assert is_complete(apbp)
    assert is_maximal_ud(apbp)
    assert not is_maximal_ud(code_words(AB, ["a", "ab", "ba"]))  # a base, but not UD
    with pytest.raises(PreconditionError):
        is_maximal_ud(code_words(AB, ["a", "aa"]))  # not a base


# ---------------------------------------------------------------------------
# Lemma-2 style intersection check


def test_lemma2_examples():
    assert lemma2_check(uniform(2), ZO.word("0"))
    assert lemma2_check(uniform(2), ZO.word(""))
    with pytest.raises(PreconditionError):
        lemma2_check(code_words(AB, ["aa", "ba"]), AB.word("a"))


def test_lemma2_holds_for_thin_complete_samples():
    apbp = code_rx("a+b+", AB)
    for n in range(5):
        for text in ["".join(s) for s in __import__("itertools").product("ab", repeat=n)]:
            assert lemma2_check(apbp, AB.word(text))


# ---------------------------------------------------------------------------
# UD generator from coding partitions


def test_gen_ud_examples():
    p = RegularPartition.from_finite(_example1_canonical())
    code = gen_ud(p, [1, 2])
    assert regular_is_ud(code)
    with pytest.raises(PreconditionError):
        gen_ud(p, [1, 1])
    with pytest.raises(PreconditionError):
        gen_ud(p, [1, 2, 1])
    with pytest.raises(PreconditionError):
        gen_ud(p, [1])
    with pytest.raises(PreconditionError):
        gen_ud(p, [1, 5])


def _example1_canonical():
    from partfact import canonical_coding_partition

    return canonical_coding_partition(EXAMPLE1)


def test_gen_ud_language():
    p = RegularPartition.from_finite(_example1_canonical())
    code = gen_ud(p, [1, 2])
    # members are (class 1)+(class 2)+ products
    sample = "0010" + "11"
    assert A.accepts(code.lang, sample)
    assert A.accepts(code.lang, "00" + "1000" + "1111" + "11")
    assert not A.accepts(code.lang, "0010")
    assert not A.accepts(code.lang, "11" + "0010")


def test_gen_ud_rejects_non_coding_partition():
    fc = FiniteCode(AB, ["a", "ab", "ba"])
    p = RegularPartition(
        RegularCode.from_words(fc),
        (A.word_set_fsa(AB, AB.words(["a"])), A.word_set_fsa(AB, AB.words(["ab", "ba"]))),
    )
    with pytest.raises(PreconditionError):
        gen_ud(p, [0, 1])


# ---------------------------------------------------------------------------
# Canonical free factorization


def test_canonical_free_factorization_example1():
    # The base of (Example-1 code)* drops 1111 = 11.11, so 11 joins the
    # unambiguous part; one indecomposable factor remains.
    m = RegularMonoid.generated_by(RegularCode.from_words(EXAMPLE1))
    free_component, indecomposable = canonical_free_factorization(m)
    assert free_component is not None
    expected_free = A.star(A.word_set_fsa(ZO, ZO.words(["010", "011", "11"])))
    assert A.equivalent(free_component, expected_free)
    assert len(indecomposable) == 1
    expected_ta = A.star(A.word_set_fsa(ZO, ZO.words(["00", "0010", "1000"])))
    assert A.equivalent(indecomposable[0], expected_ta)


def test_canonical_free_factorization_ud_code():
    m = RegularMonoid.generated_by(code_words(ZO, ["0", "01", "11"]))
    free_component, indecomposable = canonical_free_factorization(m)
    assert indecomposable == []
    assert A.equivalent(free_component, m.lang)


def test_canonical_free_factorization_collapsing_base():
    m = RegularMonoid.generated_by(code_words(AB, ["a", "aa"]))
    free_component, indecomposable = canonical_free_factorization(m)
    assert indecomposable == []
    assert A.equivalent(free_component, A.regex_to_fsa("a*", AB))


def test_canonical_free_factorization_infinite_base():
    m = RegularMonoid.generated_by(code_rx("a+b+", AB))
    with pytest.raises(PreconditionError):
        canonical_free_factorization(m)


def test_canonical_free_factorization_matches_finite_analysis():
    rng = random.Random(404)
    for _ in range(25):
        fc = random_finite_code(rng, max_words=4, max_len=3)
        m = RegularMonoid.generated_by(RegularCode.from_words(fc))
        free_component, indecomposable = canonical_free_factorization(m)
        base_words = FiniteCode(fc.alphabet, A.enumerate_finite_language(base(m).lang))
        unambiguous, ta = canonical_partition(base_words)
        if unambiguous:
            assert free_component is not None
            assert A.equivalent(free_component, A.star(A.word_set_fsa(fc.alphabet, unambiguous)))
        else:
            assert free_component is None
        assert len(indecomposable) == len(ta)
        for f, cls in zip(indecomposable, ta):
            assert A.equivalent(f, A.star(A.word_set_fsa(fc.alphabet, cls)))
        # the factors recombine to the whole monoid
        whole = free_component if free_component is not None else A.epsilon_fsa(fc.alphabet)
        for f in indecomposable:
            whole = A.star(A.union(whole, f))
        assert A.equivalent(A.star(whole), m.lang)
