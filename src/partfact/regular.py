"""Decidable analyses on regular codes and regular submonoids.

Unique decipherability and coding partitions are decided by two runs of
the flower automaton side by side, each starting a new word from an
accepting position: a message is ambiguous iff they part at a word
boundary (or in the class of a letter's word) and both end a word.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence, Union

from . import fsa as A
from .errors import AlphabetMismatchError, PreconditionError, StateCapExceededError
from .finite_code import FiniteCode, Partition, canonical_partition
from .fsa import Fsa
from .words import Alphabet, Word, _Frozen


class RegularCode(_Frozen):
    """Regular language of code words: nonempty, empty word excluded."""

    __slots__ = ("lang",)

    def __init__(self, lang: Fsa):
        lang = A.trim(lang)
        if lang.n_states == 0:
            raise PreconditionError("a code must be a nonempty language")
        if A.accepts(lang, ""):
            raise PreconditionError("a code may not contain the empty word")
        object.__setattr__(self, "lang", lang)

    @property
    def alphabet(self) -> Alphabet:
        return self.lang.alphabet

    @staticmethod
    def from_regex(expr: str, alphabet: Alphabet) -> "RegularCode":
        return RegularCode(A.regex_to_fsa(expr, alphabet))

    @staticmethod
    def from_words(code: Union[FiniteCode, Iterable[Word]], alphabet: Optional[Alphabet] = None) -> "RegularCode":
        if isinstance(code, FiniteCode):
            return RegularCode(A.word_set_fsa(code.alphabet, code.words))
        words = list(code)
        if alphabet is None:
            alphabet = words[0].alphabet
        return RegularCode(A.word_set_fsa(alphabet, words))

    def __repr__(self) -> str:
        return f"RegularCode({self.lang!r})"


class RegularMonoid(_Frozen):
    """Regular submonoid of the free monoid: contains the empty word and
    is closed under concatenation (both checked at construction)."""

    __slots__ = ("lang",)

    def __init__(self, lang: Fsa, _trusted: bool = False):
        lang = A.trim(lang)
        if not _trusted:
            if not A.accepts(lang, ""):
                raise PreconditionError("a submonoid must contain the empty word")
            if not A.includes(lang, A.concat(lang, lang)):
                raise PreconditionError("language is not closed under concatenation")
        object.__setattr__(self, "lang", lang)

    @property
    def alphabet(self) -> Alphabet:
        return self.lang.alphabet

    @staticmethod
    def generated_by(code: Union[RegularCode, Fsa]) -> "RegularMonoid":
        lang = code.lang if isinstance(code, RegularCode) else code
        return RegularMonoid(A.star(lang), _trusted=True)

    def __repr__(self) -> str:
        return f"RegularMonoid({self.lang!r})"


class RegularPartition(_Frozen):
    """Finite family of regular classes partitioning a regular code."""

    __slots__ = ("code", "classes")

    def __init__(self, code: RegularCode, classes: Sequence[Fsa]):
        classes = tuple(classes)
        if not classes:
            raise PreconditionError("a partition needs at least one class")
        views = []  # each class's useful positions and moves, read once
        for c in classes:
            if c.alphabet != code.alphabet:
                raise AlphabetMismatchError("class alphabet differs from the code's")
            v = A._View(c)
            if not v.states:
                raise PreconditionError("partition classes must be nonempty")
            if not v.accepting.isdisjoint(v.initial):
                raise PreconditionError("partition classes may not contain the empty word")
            views.append(v)
        for i, a in enumerate(views):
            for j, b in enumerate(views[i + 1:], i + 1):  # the walk stops at the first word both accept
                if any(p in a.accepting and q in b.accepting for p, q, _i, _c in A._product(a, b, "intersection")):
                    raise PreconditionError(f"classes {i} and {j} overlap")
        side_by_side = A._beside(code.alphabet, [(c.n_states, v) for c, v in zip(classes, views)])
        if not A._same_words(side_by_side, A._View(code.lang)):
            raise PreconditionError("classes do not cover the code exactly")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "classes", classes)

    @staticmethod
    def from_finite(p: Partition) -> "RegularPartition":
        alphabet = p.code.alphabet
        code = RegularCode.from_words(p.code)
        return RegularPartition(code, tuple(A.word_set_fsa(alphabet, c) for c in p.classes))

    def __len__(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Submonoids and bases


def is_submonoid(l: Fsa) -> bool:
    """True iff the language contains the empty word and is closed under
    concatenation."""
    return A.accepts(l, "") and A.includes(l, A.concat(l, l))


def base(m: RegularMonoid) -> RegularCode:
    """The unique minimal generating set of the monoid: the nonempty
    elements that are not products of two nonempty elements, as its
    minimal DFA.

    With N the nonempty words, the base is N minus N·N, and its mirror
    image is rev N minus (rev N)². Each side is exponential where the
    other is small, so they run in turns under a subset limit that starts
    at max(64, |N|) and doubles up to the state cap:

    - forward, the subset construction of N beside N·N, refined by
      Hopcroft's algorithm, which drops its dead subsets;
    - mirrored, the subset construction D of rev N beside (rev N)², then
      the subset construction of rev D, which is minimal (Brzozowski,
      1962), so it has no more states than the forward side has subsets:
      once D closes, that last step runs under the cap alone.

    Both number the states breadth first, so both give the same DFA
    field by field. On ((a|b)*a(a|b)^n)* at n = 11 the forward side
    needs 30 721 subsets for a base of 5119 states and D has 25; on
    ((a|b)^n a(a|b)*)* the forward side needs 49 and D 30 720. The cap
    error names the forward construction, and is raised only when both
    sides pass the cap."""
    nonempty = A.difference(m.lang, A.epsilon_fsa(m.alphabet))
    square = A.concat(nonempty, nonempty)
    cap = A.state_cap()
    limit = min(max(64, nonempty.n_states), cap)
    while True:
        dfa = A._subset_dfa(nonempty, square, limit)
        if dfa is not None:
            b = A._hopcroft(*dfa)
            break
        mirrored = A._subset_dfa(A.reverse(nonempty), A.reverse(square), limit)
        if mirrored is not None:
            dfa = A._subset_dfa(A.reverse(Fsa(*mirrored)), limit=cap)
            if dfa is not None:
                alphabet, n, transitions, initial, accepting = dfa
                b = Fsa(alphabet, n, sorted(transitions), initial, accepting)
                break
        if limit == cap or mirrored is not None:
            raise StateCapExceededError(f"difference needs more than {cap} states")
        limit = min(2 * limit, cap)
    if b.n_states == 0:
        raise PreconditionError("the trivial monoid has no base")
    return RegularCode(b)


def is_base(x: RegularCode) -> bool:
    """True iff x is exactly the base of the monoid it generates."""
    return A.equivalent(x.lang, base(RegularMonoid.generated_by(x)).lang)


# ---------------------------------------------------------------------------
# Density, completeness, witnesses


def is_dense(l: Fsa) -> bool:
    """True iff every word is a factor of some word of the language."""
    return A.is_universal(A.factor_closure(l))


def is_thin(l: Fsa) -> bool:
    return not is_dense(l)


def is_complete(x: RegularCode) -> bool:
    """True iff the generated monoid is dense."""
    return is_dense(A.star(x.lang))


def completeness_witness(x: RegularCode) -> Optional[Word]:
    """Shortlex-least word that is a factor of no message; None iff the
    code is complete."""
    return A.shortest_word(A.full_language_fsa(x.alphabet), A.factor_closure(A.star(x.lang)))


def extension_witness(x: RegularCode) -> Optional[Word]:
    """For an incomplete code, an unbordered non-factor w such that
    adjoining w as a fresh one-word class still yields a coding
    partition, i.e. (X u {w})* splits as a free product and the monoid of
    X is not full. Built as v b^(|v|-1) from the least missing factor v
    and the least letter b differing from v's first letter."""
    if len(x.alphabet) < 2:
        raise PreconditionError("the extension construction needs a second letter")
    v = completeness_witness(x)
    return None if v is None else _extension(x, v)


def _extension(x: RegularCode, v: Word) -> Word:
    """The extension word of :func:`extension_witness` for the missing
    factor v."""
    b = next(s for s in x.alphabet.symbols if s != v.text[0])
    return x.alphabet.word(v.text + b * (len(v) - 1))


# ---------------------------------------------------------------------------
# Unique decipherability and coding partitions


def _two_factorizations(classes: Sequence[Fsa], by_word: bool) -> Optional[Word]:
    """The shortlex-least message with two factorizations into words of
    the classes that differ in a word boundary (``by_word``), or else in
    the class of some letter's word, hence in their blocks; None if none.

    A breadth-first walk of triples (p, q, diverged), a position per side:
    each side reads the next letter inside its word or, from an accepting
    position, starts a new word; the triples one word first reaches are
    expanded together, as in ``fsa._product``, so in shortlex order. Each
    class is read on its subset construction unless that has more states
    than the class, so a many-word alternation keeps one state a side."""
    dfas = [A._subset_dfa(c, limit=min(c.n_states, A.state_cap())) for c in classes]
    parts = [(c.n_states, A._View(c)) if d is None else (d[1], d) for c, d in zip(classes, dfas)]
    v = A._beside(classes[0].alphabet, parts)
    start = v.states[-1] + 1  # a position that reads only first letters
    width = start + 1
    owner = [i for i, (n, _part) in enumerate(parts) for _ in range(n)]
    accepting = [p in v.accepting for p in range(width)]
    moves = {}  # symbol -> position -> [(target, tag)]: the sides diverge where their tags differ
    for c, row in v.rows.items():
        first = [(q, 1 if by_word else owner[q]) for q in sorted({q for i in v.initial for q in row[i]})]
        moves[c] = out = [()] * start + [first]
        for p in v.states:
            if row[p] or accepting[p]:
                out[p] = [(q, 0 if by_word else owner[q]) for q in row[p]] + (first if accepting[p] else [])
    links = {2 * (start * width + start): (None, "")}  # (p * width + q) * 2 + diverged, p >= q
    queue = deque([list(links)])
    while queue:
        group = queue.popleft()
        for c, row in moves.items():  # declared order gives shortlex
            fresh = []
            for src in group:
                p, q = divmod(src // 2, width)
                for p2, s in row[p]:
                    for q2, t in row[q]:
                        diverged = src & 1 or s != t
                        key = 2 * (p2 * width + q2 if p2 >= q2 else q2 * width + p2) + diverged
                        if key not in links:
                            A._check_cap(len(links) + 1, "factorizations")
                            links[key] = (src, c)
                            if diverged and accepting[p2] and accepting[q2]:
                                return Word(classes[0].alphabet, A._spell(links, key))
                            fresh.append(key)
            if fresh:
                queue.append(fresh)
    return None


def regular_is_ud(x: RegularCode) -> bool:
    """Unique decipherability: no message has two factorizations."""
    return ud_ambiguity_witness(x) is None


def ud_ambiguity_witness(x: RegularCode) -> Optional[Word]:
    """The shortlex-least message with two distinct factorizations into
    code words; None when X is UD."""
    return _two_factorizations((x.lang,), by_word=True)


def regular_is_coding(p: RegularPartition) -> bool:
    """Whether no message has two distinct block factorizations."""
    return coding_ambiguity_witness(p) is None


def coding_ambiguity_witness(p: RegularPartition) -> Optional[Word]:
    """The shortlex-least message with two distinct block factorizations;
    None when the partition is coding."""
    return _two_factorizations(p.classes, by_word=False)


def free_product_check(monoids: Sequence[RegularMonoid]) -> bool:
    """True iff the monoid generated by the union is the free product of
    the given monoids: bases must be pairwise disjoint and the base
    partition of the union must be coding. A word in two bases is a
    message with two block factorizations, so one walk checks both."""
    if len(monoids) < 2:
        raise PreconditionError("a free product needs at least two factors")
    alphabet = monoids[0].alphabet
    for m in monoids[1:]:
        if m.alphabet != alphabet:
            raise AlphabetMismatchError("monoids use different alphabets")
    bases = [base(m) for m in monoids]  # raises on a trivial factor
    return _two_factorizations([b.lang for b in bases], by_word=False) is None


# ---------------------------------------------------------------------------
# Maximality and fullness


def is_maximal(x: RegularCode) -> bool:
    """Maximality for thin codes, where it coincides with completeness.
    Dense codes are refused: the equivalence is not available there."""
    if is_dense(x.lang):
        raise PreconditionError("maximality is only decided for thin codes")
    return is_complete(x)


def is_full(m: RegularMonoid) -> bool:
    """Whether the monoid is maximal in the free-product order, decided
    through its base (which must be thin; every regular base is)."""
    return _is_full_base(base(m))


def _is_full_base(b: RegularCode) -> bool:
    """Fullness of the monoid with base b: b is thin and complete."""
    if is_dense(b.lang):
        raise PreconditionError("fullness is only decided for monoids with a thin base")
    return is_complete(b)


def is_maximal_ud(x: RegularCode) -> bool:
    """For a code that is a base: maximal among uniquely decipherable
    codes iff it is uniquely decipherable and generates a full monoid."""
    b = base(RegularMonoid.generated_by(x))
    if not A.equivalent(x.lang, b.lang):
        raise PreconditionError("the code is not a base")
    return regular_is_ud(x) and _is_full_base(b)


def lemma2_check(x: RegularCode, w: Word) -> bool:
    """Nonemptiness of (X* w X*)+ n X* for a thin complete code; the
    completeness theory predicts this always holds."""
    if w.alphabet != x.alphabet:
        raise AlphabetMismatchError("word and code use different alphabets")
    if is_dense(x.lang):
        raise PreconditionError("the code must be thin")
    if not is_complete(x):
        raise PreconditionError("the code must be complete")
    xs = A.star(x.lang)
    sandwiched = A.concat(xs, A.word_fsa(w), xs)
    return not A.is_empty(A.intersection(A.plus(sandwiched), xs))


# ---------------------------------------------------------------------------
# Constructions


def gen_ud(p: RegularPartition, seq: Sequence[int]) -> RegularCode:
    """The code X_{i1}+ X_{i2}+ ... X_{in}+ for a coding partition; such
    products are uniquely decipherable when adjacent indices differ and
    the last differs from the first."""
    if len(p) < 2:
        raise PreconditionError("the partition needs at least two classes")
    if len(seq) < 2:
        raise PreconditionError("the class sequence needs at least two entries")
    for i in seq:
        if not 0 <= i < len(p):
            raise PreconditionError(f"class index {i} out of range")
    for a, b in zip(seq, seq[1:]):
        if a == b:
            raise PreconditionError("adjacent class indices must differ")
    if seq[0] == seq[-1]:
        raise PreconditionError("the last class index must differ from the first")
    if not regular_is_coding(p):
        raise PreconditionError("the partition is not a coding partition")
    return RegularCode(A.concat(*(A.plus(p.classes[i]) for i in seq)))


def _base_partition(m: RegularMonoid) -> tuple[frozenset[Word], list[frozenset[Word]]]:
    """The canonical partition of the monoid's base, which must be finite.
    Each class U generates a factor with base U: U lies in the base and
    U* in the monoid."""
    b = base(m)
    try:
        words = A.enumerate_finite_language(b.lang)
    except PreconditionError:
        raise PreconditionError("the monoid's base is infinite; decomposition is not supported")
    return canonical_partition(FiniteCode(m.alphabet, words))


def canonical_free_factorization(m: RegularMonoid) -> tuple[Optional[Fsa], list[Fsa]]:
    """Canonical decomposition of a finitely generated regular monoid:
    the free component generated by the unambiguous part of the base and
    one freely indecomposable factor per totally ambiguous component.

    Only monoids with a finite base are handled; an infinite base raises.
    """
    unambiguous, ta = _base_partition(m)
    free_component = None
    if unambiguous:
        free_component = A.minimize(A.star(A.word_set_fsa(m.alphabet, unambiguous)))
    indecomposable = [A.minimize(A.star(A.word_set_fsa(m.alphabet, c))) for c in ta]
    return free_component, indecomposable
