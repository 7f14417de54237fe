import pytest
from hypothesis import given, strategies as st

from partfact import (
    Alphabet,
    AlphabetMismatchError,
    Factorization,
    FiniteCode,
    InputError,
    Partition,
    PFactorization,
    PreconditionError,
    PrimeRelation,
    RegularCode,
    RegularMonoid,
    RegularPartition,
    Word,
    is_factor,
    is_unbordered,
    left_quotient_word,
    regex_to_fsa,
)

AB = Alphabet("ab")
ZO = Alphabet("01")

texts = st.text(alphabet="ab", max_size=7)
words = texts.map(lambda t: AB.word(t))


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet("")
    with pytest.raises(InputError):
        Alphabet(["ab"])  # multi-character symbol
    with pytest.raises(InputError):
        Alphabet("aa")


def test_alphabet_order_defines_shortlex():
    ba = Alphabet("ba")  # b ranks before a
    assert ba.word("b") < ba.word("a")
    assert sorted(ba.words(["a", "b", "bb"])) == list(ba.words(["b", "a", "bb"]))


def test_word_validation():
    with pytest.raises(InputError):
        AB.word("abc")
    with pytest.raises(InputError, match=r"^symbol 'c' in word 'acdb' is not in alphabet"):
        AB.word("acdb")  # the first foreign symbol is named
    with pytest.raises(AlphabetMismatchError):
        AB.word("a") + ZO.word("0")


def test_value_types_are_immutable():
    ab = AB.word("ab")
    code = FiniteCode(AB, ["a", "ab", "b"])
    split = Factorization(ab, AB.words(["a", "b"]))
    partition = Partition.singletons(code)
    lang = regex_to_fsa("a|ab|b", AB)
    instances = [
        AB, ab, lang, code, split, PrimeRelation(split, Factorization(ab, [ab])), partition,
        PFactorization(ab, [(0, ab)]), RegularCode(lang), RegularMonoid.generated_by(lang),
        RegularPartition.from_finite(partition),
    ]
    for obj in instances:
        attr = type(obj).__slots__[0]
        before = getattr(obj, attr)
        message = f"{type(obj).__name__} is immutable"
        with pytest.raises(AttributeError, match=message):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, attr)
        assert getattr(obj, attr) is before


def test_is_factor_examples():
    assert is_factor(ZO.word("01"), ZO.word("0010"))
    assert is_factor(ZO.word(""), ZO.word("0010"))
    assert is_factor(ZO.word(""), ZO.word(""))
    assert not is_factor(ZO.word("11"), ZO.word("0010"))


def test_is_unbordered_examples():
    assert is_unbordered(AB.word("bba"))
    assert not is_unbordered(AB.word("bbb"))
    assert is_unbordered(AB.word("a"))
    with pytest.raises(PreconditionError):
        is_unbordered(AB.word(""))


def test_left_quotient_examples():
    assert left_quotient_word(ZO.word("00"), ZO.word("0010")) == ZO.word("10")
    assert left_quotient_word(ZO.word("0010"), ZO.word("0010")) == ZO.word("")
    assert left_quotient_word(ZO.word("01"), ZO.word("0010")) is None


@given(words, words)
def test_shortlex_total_order(u, v):
    assert (u < v) + (u == v) + (v < u) == 1


@given(words, words, words)
def test_shortlex_transitive(u, v, w):
    if u < v and v < w:
        assert u < w


@given(words, words, words)
def test_is_factor_reflexive_transitive(u, v, w):
    assert is_factor(u, u)
    if is_factor(u, v) and is_factor(v, w):
        assert is_factor(u, w)


@given(words, words)
def test_left_quotient_round_trip(x, s):
    assert left_quotient_word(x, x + s) == s


@given(words)
def test_unbordered_agrees_with_double_loop(w):
    if w.is_empty():
        return
    t = w.text
    expected = True
    for k in range(1, len(t)):
        prefix = t[:k]
        for j in range(len(t)):
            if t[j:] == prefix:
                expected = False
    assert is_unbordered(w) == expected


@given(words, words)
def test_concatenation_length(u, v):
    assert len(u + v) == len(u) + len(v)


@given(texts, texts)
def test_equal_words_have_equal_hashes(s, t):
    # the second alphabet is equal to AB but a separate object
    u = AB.word(s)
    for v in (Alphabet("ab").word(s), AB.word(t)):
        assert (u == v) == (s == v.text)
        if u == v:
            assert hash(u) == hash(v)


def test_words_over_different_alphabets():
    u, v = AB.word("ab"), Alphabet("ba").word("ab")
    assert u != v and v != u
    assert len({u, v}) == 2
    with pytest.raises(AlphabetMismatchError):
        u < v
    with pytest.raises(AlphabetMismatchError):
        v <= u
    # a separately built equal alphabet still orders
    assert AB.word("a") < Alphabet("ab").word("b")
