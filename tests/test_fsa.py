import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import oracles
from conftest import all_texts, count_runs, dialect_text, has_ambiguous_word, language_set, random_fsa, random_regex
from oracles import enumerate_words, moore_minimize
from partfact import (
    Alphabet,
    AlphabetMismatchError,
    InputError,
    PreconditionError,
    RegexSyntaxError,
    RegularCode,
    RegularMonoid,
    StateCapExceededError,
    base,
    completeness_witness,
)
from partfact import fsa as A
from partfact.fsa import Fsa

AB = Alphabet("ab")
ZO = Alphabet("01")
ABD = Alphabet("abd")


def lang(f, n=6):
    return language_set(f, n)


def rx(expr, alphabet=AB):
    return A.regex_to_fsa(expr, alphabet)


# ---------------------------------------------------------------------------
# Regex ingestion


def test_regex_examples():
    assert lang(rx("a|bb")) == {"a", "bb"}
    assert lang(rx("ad*b", ABD), 5) == {"ab", "adb", "addb", "adddb"}
    assert lang(rx("_")) == {""}
    assert lang(rx("(" * 10_000 + "a" + ")" * 10_000)) == {"a"}
    # a group's factors are folded in one pass: a 20 000-letter word
    # compiles in a fraction of a second; a fold that copies the prefix
    # acceptor at every factor takes about a minute
    text = "".join(random.Random(20_000).choice("ab") for _ in range(20_000))
    start = time.perf_counter()
    f = rx(text)
    elapsed = time.perf_counter() - start
    assert [w.text for w in enumerate_words(f, len(text))] == [text]
    assert elapsed < 2.0
    # a group's alternatives are appended once each: 16 000 alternatives
    # compile in well under a second; rebuilding the initial and
    # accepting sets per alternative takes about 15 s
    rng = random.Random(16_000)
    alts = ["".join(rng.choice("ab") for _ in range(2)) for _ in range(16_000)]
    start = time.perf_counter()
    f = rx("|".join(alts))
    elapsed = time.perf_counter() - start
    assert all(A.accepts(f, t) for t in rng.sample(alts, 20))
    assert not A.accepts(f, "a") and not A.accepts(f, "aba")
    assert elapsed < 3.0


def test_regex_structure():
    assert lang(rx("(a|b)*aa(a|b)*"), 4) == {t for t in all_texts(AB, 4) if "aa" in t}
    assert lang(rx("a+")) == {"a" * k for k in range(1, 7)}
    assert lang(rx(" a | b b ")) == {"a", "bb"}  # whitespace ignored


def _python_pattern(node):
    if isinstance(node, str):
        return "" if node == "_" else node
    if node[0] == "alt":
        return f"(?:{_python_pattern(node[1])}|{_python_pattern(node[2])})"
    if node[0] == "cat":
        return _python_pattern(node[1]) + _python_pattern(node[2])
    return f"(?:{_python_pattern(node[1])}){'*' if node[0] == 'star' else '+'}"


def test_regex_matches_python_re():
    rng = random.Random(71)
    texts = list(all_texts(AB, 6))
    for _ in range(300):
        # Depth 4: Python's backtracking matcher can take exponential time
        # on deeper nests of loops over nullable bodies.
        node = random_regex(rng, 4)
        text = dialect_text(node, rng)
        pattern = re.compile(_python_pattern(node))
        assert lang(rx(text)) == {t for t in texts if pattern.fullmatch(t)}, (text, pattern.pattern)


def test_reserved_symbols_are_refused_in_regex_text():
    star = Alphabet("a*")
    with pytest.raises(InputError):
        A.regex_to_fsa("a*", star)
    f = A.plus(A.word_set_fsa(star, star.words(["a", "*"])))
    with pytest.raises(PreconditionError):
        A.fsa_to_regex(f)
    assert A.enumerate_finite_language(A.word_set_fsa(star, star.words(["*a"])))[0].text == "*a"


def test_regex_syntax_errors():
    with pytest.raises(RegexSyntaxError) as e:
        rx("a|")
    assert e.value.position == 2
    with pytest.raises(RegexSyntaxError):
        rx("(a")
    with pytest.raises(RegexSyntaxError):
        rx("*a")
    with pytest.raises(RegexSyntaxError) as e:
        rx("ac")  # c not in {a,b}
    assert e.value.position == 1


# ---------------------------------------------------------------------------
# Combinations


def test_combine_examples():
    l = rx("a(ba)*")
    assert A.is_empty(A.difference(l, l))
    assert lang(A.concat(rx("a"), rx("b"))) == {"ab"}
    inter = A.intersection(rx("a*"), rx("(aa)*"))
    assert language_set(inter, 8) == language_set(rx("(aa)*"), 8)


def test_combine_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        A.union(rx("a"), A.regex_to_fsa("0", ZO))
    with pytest.raises(AlphabetMismatchError):
        A.includes(rx("a"), A.regex_to_fsa("0", ZO))


def test_closure_examples():
    abc = Alphabet("abc")
    fc = A.factor_closure(A.word_fsa(abc.word("abc")))
    assert language_set(fc, 3) == {"", "a", "b", "c", "ab", "bc", "abc"}
    assert A.is_empty(A.difference(A.full_language_fsa(AB), rx("(a|b)*")))
    st = A.star(A.word_set_fsa(AB, AB.words(["aa", "ba"])))
    assert not A.accepts(st, "abab")
    assert lang(st, 4) == {"", "aa", "ba", "aaaa", "aaba", "baaa", "baba"}
    # every symbol is checked, also those after the last run has died
    for text in ("a?", "b?"):
        with pytest.raises(InputError):
            A.accepts(rx("a*"), text)


def test_decide_examples():
    assert A.is_universal(A.star(A.word_set_fsa(AB, AB.words(["a", "b"]))))
    assert A.includes(rx("a*"), rx("(aa)*"))
    A2 = A.star(rx("(0|1)(0|1)", ZO))
    A4 = A.star(rx("(0|1)(0|1)(0|1)(0|1)", ZO))
    assert A.includes(A2, A4)
    assert not A.equivalent(A4, A2)


def test_shortest_word():
    assert A.shortest_word(A.plus(rx("aa"))).text == "aa"
    assert A.shortest_word(A.empty_fsa(AB)) is None
    st = A.star(A.word_set_fsa(AB, AB.words(["aa", "ba"])))
    assert A.shortest_word(A.difference(A.full_language_fsa(AB), A.factor_closure(st))).text == "bb"
    assert A.shortest_word(A.full_language_fsa(AB), A.factor_closure(st)).text == "bb"
    # one word reaches several states; the later one leads to the least word
    assert A.shortest_word(Fsa(AB, 4, [(0, "b", 2), (1, "a", 3)], (0, 1), (2, 3))).text == "a"
    nfa = Fsa(AB, 5, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "a", 4)], (0,), (3, 4))
    assert A.shortest_word(nfa).text == "aa"
    assert A.shortest_word(A.difference(nfa, rx("aa"))).text == "ab"
    assert A.shortest_word(nfa, rx("aa")).text == "ab"
    assert A.shortest_word(nfa, rx("aa|ab")) is None


def test_acceptors_without_useful_states():
    # the empty acceptor, and one with states but none both reachable and
    # co-reachable: each operation gives what it gives on the empty language
    for f in (A.empty_fsa(AB), Fsa(AB, 3, [(0, "a", 1)], (0,), (2,))):
        for op in (A.trim, A.eliminate_epsilon, A.factor_closure, A.determinize, A.minimize):
            assert op(f).n_states == 0, op
        assert A.enumerate_finite_language(f) == []
        assert oracles.is_unambiguous(f)
        assert oracles.ambiguity_witness(f) is None
        assert A.shortest_word(f) is None
        assert A.fsa_to_regex(f) is None


def test_shortest_word_respects_alphabet_order():
    ba = Alphabet("ba")
    f = A.word_set_fsa(ba, ba.words(["a", "b"]))
    assert A.shortest_word(f).text == "b"


# ---------------------------------------------------------------------------
# Properties against brute-force set evaluation


def test_constructions_match_set_expressions():
    rng = random.Random(7)
    exprs = ["a", "b", "a|bb", "(ab)*", "a*b", "(a|b)(a|b)", "a+", "_|ab"]
    for _ in range(25):
        e1, e2 = rng.choice(exprs), rng.choice(exprs)
        f1, f2 = rx(e1), rx(e2)
        s1, s2 = lang(f1), lang(f2)
        assert lang(A.union(f1, f2)) == s1 | s2
        assert lang(A.intersection(f1, f2)) == s1 & s2
        assert lang(A.difference(f1, f2)) == s1 - s2
        assert lang(A.concat(f1, f2)) == {u + v for u in s1 for v in s2 if len(u + v) <= 6}
        star_set = {""}
        for _i in range(6):
            star_set |= {u + v for u in star_set for v in s1 if len(u + v) <= 6}
        assert lang(A.star(f1)) == star_set
        assert lang(A.plus(f1)) == {w for w in star_set if w or "" in s1}
        assert lang(A.difference(A.full_language_fsa(AB), f1)) == set(all_texts(AB, 6)) - s1


def _binary_union(l, r):
    n = l.n_states
    trans = list(l.transitions) + [(p + n, a, q + n) for p, a, q in r.transitions]
    init = set(l.initial) | {s + n for s in r.initial}
    acc = set(l.accepting) | {s + n for s in r.accepting}
    return Fsa(l.alphabet, n + r.n_states, trans, init, acc)


def _binary_concat(l, r):
    n = l.n_states
    trans = list(l.transitions) + [(p + n, a, q + n) for p, a, q in r.transitions]
    trans += [(p, None, q + n) for p in l.accepting for q in r.initial]
    return Fsa(l.alphabet, n + r.n_states, trans, l.initial, {s + n for s in r.accepting})


def test_nary_folds_match_binary_folds():
    # n-ary concat and union equal the left fold of the binary
    # constructions field by field
    rng = random.Random(44)
    for _ in range(200):
        fs = [random_fsa(rng, AB, max_states=rng.choice((5, 40))) for _ in range(rng.randint(1, 4))]
        for op, binary in ((A.concat, _binary_concat), (A.union, _binary_union)):
            folded = fs[0]
            for f in fs[1:]:
                folded = binary(folded, f)
            got = op(*fs)
            assert got.n_states == folded.n_states
            assert got.transitions == folded.transitions
            assert tuple(got.initial) == tuple(folded.initial)
            assert tuple(got.accepting) == tuple(folded.accepting)


def _fields(f):
    return f.n_states, f.transitions, tuple(f.initial), tuple(f.accepting)


def test_state_sets_iterate_in_ascending_order():
    # however the initial and accepting sets are given or built, they
    # iterate in ascending order, so no construction has to keep an order
    f = Fsa(AB, 9, (), (8, 1), (8, 1))
    assert tuple(f.initial) == (1, 8) and tuple(f.accepting) == (1, 8)
    assert not hasattr(f.initial, "__dict__") and not hasattr(f.accepting, "__dict__")
    rng = random.Random(12)
    for _ in range(150):
        f, g = random_fsa(rng, AB, max_states=12), random_fsa(rng, AB, max_states=12)
        results = (A.union(f, g, f), A.concat(f, g, f), A.star(f), A.trim(f), A.minimize(f), A.difference(f, g))
        for h in results:
            assert list(h.initial) == sorted(h.initial) and list(h.accepting) == sorted(h.accepting)
        assert _fields(A.trim(A.trim(f))) == _fields(A.trim(f))
    # regex constructions are trimmed as they are built
    for _ in range(300):
        f = rx(dialect_text(random_regex(rng, 5), rng))
        assert _fields(f) == _fields(A.trim(f))


def test_factor_closure_matches_sandwich_test():
    # u is a factor of L exactly when L meets A* u A*
    sigma_star = rx("(a|b)*")
    for expr in ["a", "a|bb", "(ab)*", "a*b", "(a|b)(a|b)", "a+", "_|ab"]:
        f = rx(expr)
        fc = A.factor_closure(f)
        for u in all_texts(AB, 3):
            sandwich = A.concat(A.concat(sigma_star, A.word_fsa(AB.word(u))), sigma_star)
            assert A.accepts(fc, u) == (not A.is_empty(A.intersection(f, sandwich)))


def test_random_fsa_boolean_ops():
    rng = random.Random(21)
    for _ in range(60):
        f1 = random_fsa(rng, AB)
        f2 = random_fsa(rng, AB)
        s1, s2 = lang(f1, 5), lang(f2, 5)
        assert language_set(A.union(f1, f2), 5) == s1 | s2
        assert language_set(A.intersection(f1, f2), 5) == s1 & s2
        assert language_set(A.difference(f1, f2), 5) == s1 - s2
        assert language_set(A.determinize(f1), 5) == s1
        assert language_set(A.minimize(f1), 5) == s1
    # the minimal DFA of one long word is its chain
    abcd = Alphabet("abcd")
    text = "".join(rng.choice("abcd") for _ in range(2000))
    m = A.minimize(A.word_fsa(abcd.word(text)))
    assert (m.n_states, len(m.transitions)) == (2001, 2000)
    assert [w.text for w in A.enumerate_finite_language(m)] == [text]


def test_minimize_matches_moore_oracle():
    # Hopcroft's refinement finds Moore's partition and numbers its blocks
    # the same way, so the minimal DFAs agree field by field
    rng = random.Random(37)
    shapes = []
    for alphabet in (AB, Alphabet("abc")):
        for _ in range(1100):
            shapes.append(random_fsa(rng, alphabet, max_states=rng.choice((3, 6, 12)), eps_prob=0.2))
    for n in range(10):
        q = rx("(a|b)*a" + "(a|b)" * n)
        shapes += [q, A.star(q)]
        if n < 7:
            shapes.append(A.plus(A.union(q, rx("b*a" + "(a|b)" * n))))
    abcd = Alphabet("abcd")
    for length in (200, 300, 400):
        w = "a" + "".join(rng.choice("ad") for _ in range(length - 1))
        for words in (["b", "ca", "cb", "cc", w], ["b", "c", "bc", w]):
            code = A.regex_to_fsa("|".join(words), abcd)
            shapes += [code, A.plus(code)]
    empty = merged = 0
    for f in shapes:
        got, want = A.minimize(f), moore_minimize(f)
        assert _fields(got) == _fields(want), f
        empty += got.n_states == 0
        merged += got.n_states < A.determinize(f).n_states
    # the corpus exercises the empty language and real merging
    assert empty > 100 and merged > 300


def test_hopcroft_drops_dead_states():
    # the refinement drops the states that reach no accepting state, so on
    # a DFA with dead states, numbered anywhere among the live ones, it
    # gives what it gives on the trimmed DFA, field by field
    rng = random.Random(53)
    dead = empty = 0
    for _ in range(400):
        d = A.determinize(random_fsa(rng, AB, max_states=8, eps_prob=0.2))
        n, k = d.n_states, rng.randint(1, 6)
        moves = {(p, a): q for p, a, q in d.transitions}
        for p in range(n + k):
            for a in AB.symbols:  # live states may move to dead ones, dead ones only to dead ones
                if (p, a) not in moves and (p >= n or rng.random() < 0.5) and rng.random() < 0.7:
                    moves[(p, a)] = rng.randrange(n, n + k)
        order = list(range(n + k))
        rng.shuffle(order)
        initial = d.initial if n else (rng.randrange(k),)
        e = Fsa(AB, n + k, [(order[p], a, order[q]) for (p, a), q in moves.items()],
                [order[s] for s in initial], [order[s] for s in d.accepting])
        trimmed = A.trim(e)
        got = A._hopcroft(e.alphabet, e.n_states, e.transitions, e.initial, e.accepting)
        want = A._hopcroft(trimmed.alphabet, trimmed.n_states, trimmed.transitions, trimmed.initial,
                           trimmed.accepting)
        assert _fields(got) == _fields(want), e
        dead += trimmed.n_states < e.n_states
        empty += got.n_states == 0
    assert dead == 400 and empty > 10


def test_subsets_of_a_deterministic_view_stay_small():
    # a subset of one position is keyed by its rank, not by a bitmask as
    # wide as the view, so determinize of a long chain stays linear: 16 000
    # letters peak at about 14 MB, where bitmasks took 45 MB
    rng = random.Random(61)
    w = A.word_fsa(Alphabet("abcd").word("".join(rng.choice("abcd") for _ in range(16000))))
    tracemalloc.start()
    try:
        d = A.determinize(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _fields(d) == _fields(w)
    assert peak < 24 * 2**20


def test_minimize_is_near_linear_on_a_unary_word():
    # a unary word needs one Moore round per letter, about 14 s at 4000
    # letters; Hopcroft's refinement takes a fraction of a second
    start = time.perf_counter()
    m = A.minimize(A.word_fsa(AB.word("a" * 4000)))
    elapsed = time.perf_counter() - start
    assert (m.n_states, len(m.transitions)) == (4001, 4000)
    assert m.transitions == tuple((i, "a", i + 1) for i in range(4000))
    assert elapsed < 2.0


def test_difference_is_near_linear_on_a_long_word():
    # the walk keeps one parent link per pair and spells no word; a word
    # per pair holds n^2 / 2 letters, 512 MB at n = 32 000
    rng = random.Random(19)
    text = "".join(rng.choice("ab") for _ in range(32000))
    w, eps = A.word_fsa(AB.word(text)), A.epsilon_fsa(AB)
    start = time.perf_counter()
    d = A.difference(w, eps)
    elapsed = time.perf_counter() - start
    assert _fields(d) == (32001, w.transitions, (0,), (32000,))
    assert elapsed < 2.0
    tracemalloc.start()
    try:
        A.difference(A.word_fsa(AB.word(text[:4000])), eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20  # about 3.6 MB; words would add 8 MB


def _random_enfa(rng, alphabet):
    """A random acceptor with spontaneous moves that now and then has a
    spontaneous cycle, a dead state, an unreachable state and repeated
    transitions."""
    f = random_fsa(rng, alphabet, max_states=6, eps_prob=0.3)
    n, trans, accepting = f.n_states, list(f.transitions), set(f.accepting)
    symbols = alphabet.symbols
    if rng.random() < 0.5:
        p, q = rng.randrange(n), rng.randrange(n)
        trans += [(p, None, q), (q, None, p)]
    if rng.random() < 0.5:  # entered, never left, not accepting
        trans += [(rng.randrange(n), rng.choice(symbols), n), (n, rng.choice(symbols), n)]
        n += 1
    if rng.random() < 0.5:  # accepting, never entered
        trans.append((n, rng.choice(symbols), rng.randrange(n)))
        accepting.add(n)
        n += 1
    if trans and rng.random() < 0.5:
        trans += rng.sample(trans, rng.randint(1, len(trans)))
    rng.shuffle(trans)
    return Fsa(alphabet, n, trans, f.initial, accepting)


def _outcome(op, *args):
    try:
        out = op(*args)
    except StateCapExceededError as exc:
        return "cap", str(exc)
    return "ok", _fields(out) if isinstance(out, Fsa) else out


# each construction against its reference: (name, arity, new, reference)
_ORACLE_CHECKS = [
    ("eliminate_epsilon", 1, A.eliminate_epsilon, oracles.eliminate_epsilon),
    ("determinize", 1, A.determinize, oracles.determinize),
    ("minimize", 1, A.minimize, moore_minimize),
    ("shortest_word", 1, A.shortest_word, oracles.shortest_word),
    ("intersection", 2, A.intersection, oracles.intersection),
    ("difference", 2, A.difference, oracles.difference),
    ("includes", 2, A.includes, oracles.includes),
    ("equivalent", 2, A.equivalent, oracles.equivalent),
    # one early-stopping walk, which decides whenever the whole
    # difference behind the reference did, and finds the same word
    ("completeness_witness", 1, lambda c: completeness_witness(RegularCode(c)),
     oracles.completeness_witness),
]
# the walks that collapse a subset holding a universal position, or
# Hopcroft-Karp's for equivalent, may decide where the reference's own
# walk (one of _WALKS) hit the cap
_COLLAPSED = ("includes", "equivalent", "shortest_word", "difference")
_WALKS = ("includes", "difference", "shortest_word")


def _match_oracles(f, g, caps, counts):
    """Every check on ``f`` and ``g`` at each cap, the first cap being the
    default: the same fields, verdicts, words and cap errors, except
    where the reference alone hits the cap."""
    old = A.state_cap()
    code = A.difference(f, A.epsilon_fsa(f.alphabet))
    uncapped = {}
    for cap in caps:
        A.set_state_cap(cap)
        try:
            for name, arity, new, ref in _ORACLE_CHECKS:
                if name == "completeness_witness":
                    if code.n_states == 0:
                        continue
                    args = (code,)
                else:
                    args = (f, g)[:arity]
                got, want = _outcome(new, *args), _outcome(ref, *args)
                uncapped.setdefault(name, got)
                if got == want:
                    counts[got[0]] += 1
                    continue
                assert cap != old and want[0] == "cap", (name, cap, args)
                assert got[0] == "cap" or got == uncapped[name], (name, cap, args)
                if name == "completeness_witness" or (
                        name in _COLLAPSED and want[1] in {f"{w} needs more than {cap} states" for w in _WALKS}):
                    counts["early"] += got[0] == "ok"
                else:
                    assert want[1] == f"Fsa needs more than {cap} states"
                    assert max(a.n_states for a in args) > cap
                    counts["oversize"] += 1
        finally:
            A.set_state_cap(old)


def test_constructions_match_reference_oracles():
    # the view, the numbered subsets and the parent-linked walk against
    # references that build the spontaneous-move-free acceptor first: the
    # same fields, verdicts and words, and the same cap errors at small
    # caps. An input larger than the cap made the references fail on that
    # acceptor ("Fsa needs ..."), which the view never builds.
    rng = random.Random(43)
    counts = {"ok": 0, "cap": 0, "oversize": 0, "early": 0}
    for alphabet in (AB, Alphabet("abc")):
        for _ in range(300):
            f, g = _random_enfa(rng, alphabet), _random_enfa(rng, alphabet)
            _match_oracles(f, g, (A.state_cap(), 10, 6, 3), counts)
    # the corpus decides, hits the same caps, has inputs larger than the
    # cap, and finds witnesses where the whole difference hit the cap
    assert min(counts.values()) > 0, counts


def test_view_matches_the_per_position_reference():
    # the one-pass view against closures and reachability per position:
    # spontaneous cycles and self-loops, unreachable and dead states,
    # repeated transitions, the empty acceptor, nested stars and long words
    rng = random.Random(59)
    inputs = [A.empty_fsa(AB), Fsa(AB, 3, [(0, "a", 1)], (), (1,)), Fsa(AB, 2, [(0, "a", 1)], (0,), ()),
              Fsa(AB, 3, [(0, None, 0), (0, "a", 0), (0, None, 1), (1, None, 0), (1, "b", 2), (1, "b", 2)], (0,), (2,))]
    for alphabet in (AB, Alphabet("abc")):
        inputs += [_random_enfa(rng, alphabet) for _ in range(1500)]
    inputs += [rx(dialect_text(random_regex(rng, 4), rng)) for _ in range(500)]
    inputs += [rx("(" * 50 + "a" + ")*b" * 50), rx("(" * 50 + "ab" + ")*a" * 50), rx("((a|b)*a)*" * 50)]
    for n in (25, 100, 400):
        word = "".join(rng.choice("ab") for _ in range(n))
        inputs += [rx(word), rx(f"b|ab|ba|{word}"), A.star(rx(f"a|{word}"))]
    for f in inputs:
        v = A._View(f)
        assert (v.states, v.initial, v.accepting, v.rows) == oracles.view(f), f


def _larger_enfa(rng, alphabet):
    """A random acceptor of 20-80 states with spontaneous moves."""
    n = rng.randint(20, 80)
    trans = [(rng.randrange(n), None if rng.random() < 0.15 else rng.choice(alphabet.symbols), rng.randrange(n))
             for _ in range(rng.randint(n, 2 * n))]
    initial = rng.sample(range(n), rng.randint(1, 4))
    accepting = rng.sample(range(n), rng.randint(1, n // 2))
    return Fsa(alphabet, n, trans, initial, accepting)


def test_constructions_match_reference_oracles_on_larger_acceptors():
    # views of up to 80 positions span several bytes of a subset, and
    # their subsets fall on both sides of the bit-by-bit threshold
    rng = random.Random(47)
    counts = {"ok": 0, "cap": 0, "oversize": 0, "early": 0}
    widths = set()
    sparse = dense = 0
    for alphabet in (AB, Alphabet("abc")):
        for _ in range(30):
            f, g = _larger_enfa(rng, alphabet), _larger_enfa(rng, alphabet)
            _match_oracles(f, g, (A.state_cap(), 150, 40, 12), counts)
            v = A._View(f)
            widths.add(len(v.states) // 8)
            sizes = [1 if s < 0 else s.bit_count() for s in _all_subsets(v)]
            sparse += sum(size <= 4 for size in sizes)
            dense += sum(size > 4 for size in sizes)
    assert min(counts.values()) > 0, counts
    assert {0, 1, 2, 3, 4} <= widths and sparse > 1000 and dense > 1000, (widths, sparse, dense)


def _all_subsets(v):
    subsets = A._Subsets(v)
    i = 0
    while i < len(subsets.sets):
        for c in v.rows:
            subsets.step(i, c)
        i += 1
    return subsets.sets


def _fixpoint_universal(v):
    """The universal positions of a view by rounds to the greatest
    fixpoint: the reference for the worklist pass of ``_Subsets``."""
    inside = set(v.accepting)
    while True:
        kept = {p for p in inside if all(inside.intersection(row[p]) for row in v.rows.values())}
        if kept == inside:
            return sum(1 << r for r, p in enumerate(v.states) if p in inside)
        inside = kept


def test_universal_positions_are_the_greatest_fixpoint():
    rng = random.Random(53)
    found = 0
    for alphabet in (AB, Alphabet("abc")):
        for _ in range(150):
            f = _random_enfa(rng, alphabet)
            for g in (f, A.star(f), A.factor_closure(f), A.factor_closure(A.star(f))):
                v = A._View(g)
                universal = A._Subsets(v, collapse=True).universal
                assert universal == _fixpoint_universal(v), g
                assert A._Subsets(v).universal == 0
                found += universal != 0
    assert found > 100, found


def test_double_complement_round_trip():
    rng = random.Random(5)
    sigma_star = A.full_language_fsa(AB)
    for _ in range(30):
        f = random_fsa(rng, AB)
        assert A.equivalent(A.difference(sigma_star, A.difference(sigma_star, f)), f)


_SEEDED_PRODUCTS = """
import json, random
from conftest import random_fsa
from partfact import Alphabet, RegularCode, RegularMonoid, base, completeness_witness, is_complete
from partfact import fsa as A
rng = random.Random(17)
ab = Alphabet("ab")
out = []
for _ in range(200):
    f, g = random_fsa(rng, ab), random_fsa(rng, ab)
    for h in (A.intersection(f, g), A.difference(f, g), A.determinize(f)):
        out.append([h.n_states, h.transitions, sorted(h.initial), sorted(h.accepting)])
    code = A.difference(f, A.epsilon_fsa(ab))
    if code.n_states:
        h = base(RegularMonoid.generated_by(RegularCode(code))).lang
        out.append([h.n_states, h.transitions, sorted(h.initial), sorted(h.accepting)])
        out.append(str(completeness_witness(RegularCode(code))))
    # the folds, in the order their sets iterate
    for h in (A.union(f, g, f), A.concat(f, g, f)):
        out.append([h.n_states, h.transitions, list(h.initial), list(h.accepting)])
for _ in range(100):
    h = A.regex_to_fsa(" | ".join(rng.choice(("ab", "(a|b)*", "b+a", "_")) for _ in range(20)), ab)
    out.append([h.n_states, h.transitions, list(h.initial), list(h.accepting)])
# subsets of several bytes, and bases of the blow-up families
for _ in range(20):
    h = A.determinize(random_fsa(rng, ab, max_states=60, eps_prob=0.2))
    out.append([h.n_states, h.transitions, list(h.initial), list(h.accepting)])
for n in range(1, 8):
    for expr in ("b*a", "(a|b)*a", "(b*a)+"):
        m = RegularMonoid.generated_by(RegularCode(A.regex_to_fsa(expr + "(a|b)" * n, ab)))
        h = base(m).lang
        out.append([h.n_states, h.transitions, list(h.initial), list(h.accepting)])
# the Hopcroft-Karp walk and the collapsed completeness walks
for n in range(1, 8):
    langs = [A.regex_to_fsa(expr + "(a|b)" * n, ab) for expr in ("b*a", "(a|b)*a")]
    for l in langs:
        out.append([A.equivalent(l, r) for r in langs])
        out.append([is_complete(RegularCode(l)), str(completeness_witness(RegularCode(l)))])
print(json.dumps(out))
"""


def test_nested_star_comparison():
    # the walk has 5053 pairs over few subsets of about d states each; each
    # step of a subset is computed once, not once per pair (1.4 s before)
    d = 100
    f = rx("(" * d + "a" + ")*b" * d)
    g = rx(A.fsa_to_regex(f))
    start = time.perf_counter()
    assert A.equivalent(g, f)
    assert time.perf_counter() - start < 1.0


def test_nested_star_equivalent_numbers_few_subsets(monkeypatch):
    # one Hopcroft-Karp walk: each side numbers at most 2d + 4 subsets,
    # where two inclusion walks took 2 x 20 102 pairs at d = 200
    d = 200
    f = rx("(" * d + "a" + ")*b" * d)
    g = rx(A.fsa_to_regex(f))
    built = []
    subsets = A._Subsets

    def counted(*args, **kwargs):
        built.append(subsets(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(A, "_Subsets", counted)
    assert A.equivalent(g, f) and A.equivalent(f, g)
    assert not A.equivalent(f, rx("(" * d + "a" + ")*b" * d + "b"))  # "b" is in f only
    assert len(built) == 6
    assert all(len(s.sets) <= 2 * d + 4 for s in built[:4]), [len(s.sets) for s in built]


def test_equivalent_matches_the_reference_on_the_blowup_families():
    # one walk of subset pairs against two inclusion walks
    for n in range(1, 11):
        tail = "(a|b)" * n
        langs = [rx(e) for e in (f"b*a{tail}", f"(a|b)*a{tail}", f"(b*a)+{tail}", f"(a|b)*a{tail}|(a|b)*b{tail}")]
        for l in langs:
            for r in langs:
                assert A.equivalent(l, r) == oracles.equivalent(l, r), (n, l, r)


def test_products_do_not_depend_on_string_hashing():
    path = os.pathsep.join([os.path.dirname(os.path.dirname(A.__file__)), os.path.dirname(__file__)])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _SEEDED_PRODUCTS], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_factor_closure_properties():
    rng = random.Random(11)
    for _ in range(25):
        f = random_fsa(rng, AB)
        fc = A.factor_closure(f)
        if A.is_empty(f):
            assert A.is_empty(fc)
            continue
        assert A.includes(fc, f)
        assert A.accepts(fc, "")
        closure = language_set(fc, 5)
        for t in closure:
            for i in range(len(t) + 1):
                for j in range(i, len(t) + 1):
                    assert t[i:j] in closure


def test_enumerate_words_sorted():
    f = rx("(a|b)*")
    ws = enumerate_words(f, 3)
    assert [w.text for w in ws] == sorted((w.text for w in ws), key=lambda t: (len(t), t))


def test_enumerate_finite_language():
    ws = A.enumerate_finite_language(rx("a|bb|ab"))
    assert [w.text for w in ws] == ["a", "ab", "bb"]
    with pytest.raises(Exception):
        A.enumerate_finite_language(rx("a*"))
    long_word = "a" * 10_000
    assert [w.text for w in A.enumerate_finite_language(A.word_fsa(AB.word(long_word)))] == [long_word]


# ---------------------------------------------------------------------------
# Run-unambiguity (the oracle's run-counting search)


def test_unambiguous_examples():
    d = A.determinize(rx("(ab)*a"))
    assert oracles.is_unambiguous(d)
    parallel = Fsa(AB, 2, [(0, "a", 1), (0, "a", 1)], (0,), (1,))
    assert not oracles.is_unambiguous(parallel)
    twopath = Fsa(AB, 3, [(0, "a", 1), (0, "a", 2)], (0,), (1, 2))
    assert not oracles.is_unambiguous(twopath)
    eps_cycle = Fsa(AB, 2, [(0, None, 0), (0, "a", 1)], (0,), (1,))
    assert not oracles.is_unambiguous(eps_cycle)
    diverge_reconverge = Fsa(AB, 4, [(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 3)], (0,), (3,))
    assert not oracles.is_unambiguous(diverge_reconverge)
    assert oracles.is_unambiguous(A.empty_fsa(AB))
    n = 10_000
    chain = [(i, None, i + 1) for i in range(n - 1)]
    assert oracles.is_unambiguous(Fsa(AB, n, chain, (0,), (n - 1,)))
    forked = Fsa(AB, n, chain + [(0, None, n - 1)], (0,), (n - 1,))
    assert oracles.ambiguity_witness(forked) == AB.word("")
    n = 500
    looped = Fsa(AB, n, chain[:n - 1] + [(i, "a", i) for i in range(n)], (0,), (n - 1,))
    assert oracles.ambiguity_witness(looped) == AB.word("a")


def test_unambiguity_matches_run_counting():
    rng = random.Random(13)
    checked_ambiguous = 0
    for _ in range(80):
        f = random_fsa(rng, AB)
        verdict = oracles.is_unambiguous(f)
        if verdict:
            assert not has_ambiguous_word(f, 8)
        else:
            checked_ambiguous += 1
            assert has_ambiguous_word(f, 12)
    assert checked_ambiguous > 10  # the corpus exercises both verdicts


def test_ambiguity_witness_is_genuinely_ambiguous():
    rng = random.Random(29)
    witnessed = 0
    for _ in range(80):
        f = random_fsa(rng, AB)
        w = oracles.ambiguity_witness(f)
        if w is None:
            assert oracles.is_unambiguous(f)
            continue
        witnessed += 1
        assert count_runs(f, w.text, cap=2) >= 2, f
    assert witnessed > 10


def test_run_counting_counts_epsilon_routes():
    # one symbol transition reachable through two distinct spontaneous paths
    f = Fsa(AB, 4, [(0, None, 1), (0, None, 2), (1, None, 3), (2, None, 3)], (0,), (3,))
    assert count_runs(f, "") >= 2
    assert not oracles.is_unambiguous(f)


# ---------------------------------------------------------------------------
# Resource cap and regex synthesis


def test_state_cap():
    q4e = A.eliminate_epsilon(rx("(a|b)*a(a|b)(a|b)(a|b)(a|b)"))  # 12 states
    monoid = RegularMonoid.generated_by(RegularCode(rx("(a|b)*a" + "(a|b)" * 6)))
    old = A.state_cap()
    try:
        A.set_state_cap(8)
        with pytest.raises(StateCapExceededError, match="^Fsa needs more than 8 states$"):
            A.determinize(rx("(a|b)*a(a|b)(a|b)(a|b)(a|b)"))
        A.set_state_cap(12)
        with pytest.raises(StateCapExceededError, match="^determinize needs more than 12 states$"):
            A.determinize(q4e)
        A.set_state_cap(20)
        with pytest.raises(StateCapExceededError, match="^includes needs more than 20 states$"):
            A.includes(q4e, q4e)  # a true inclusion walks every pair
        with pytest.raises(StateCapExceededError, match="^equivalent needs more than 20 states$"):
            A.equivalent(q4e, q4e)  # 32 subsets a side
        with pytest.raises(StateCapExceededError, match="^difference needs more than 20 states$"):
            A.difference(A.full_language_fsa(AB), q4e)
        with pytest.raises(StateCapExceededError, match="^intersection needs more than 20 states$"):
            A.intersection(q4e, q4e)
        # base of the blow-up monoid ((a|b)*a(a|b)^6)*: the construction
        # that hits the cap depends on how small the cap is; from 50 on it
        # is the subset construction of nonempty - nonempty^2, and only
        # below the 159 states of the base, which the mirrored side builds
        for cap, construction in ((20, "Fsa"), (50, "difference"), (158, "difference")):
            A.set_state_cap(cap)
            with pytest.raises(StateCapExceededError, match=f"^{construction} needs more than {cap} states$"):
                base(monoid)
        for cap in (159, 300):
            A.set_state_cap(cap)
            assert base(monoid).lang.n_states == 159
    finally:
        A.set_state_cap(old)
    with pytest.raises(InputError):
        A.set_state_cap(0)


def test_fsa_to_regex_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        f = random_fsa(rng, AB)
        expr = A.fsa_to_regex(f)
        if expr is None:
            assert A.is_empty(f)
            continue
        assert A.equivalent(A.regex_to_fsa(expr, AB), f)


def test_fsa_to_regex_deep_nesting():
    # terms are hash-consed and rendered from an explicit stack, so no
    # recursion depth grows with the nesting of the synthesized regex
    d = 1000
    f = rx("(a" * d + ")*b" * d)
    assert A.equivalent(rx(A.fsa_to_regex(f)), f)
    for d in (1, 2, 5, 1000):
        nested = "(" * (d - 1) + "a*b" + ")*b" * (d - 1)
        assert A.fsa_to_regex(rx("(" * d + "a" + ")*b" * d)) == nested
        if d < 1000:
            assert A.equivalent(rx(nested), rx("(" * d + "a" + ")*b" * d))
