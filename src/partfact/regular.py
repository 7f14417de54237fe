"""Decidable analyses on regular codes and regular submonoids.

The workhorse is the block parser: each partition class is compiled to a
deterministic acceptor of its nonempty products, and spontaneous moves
stitch an accepting configuration of one class to the start of every
other class. Accepting runs of the parser are then in bijection with
block factorizations of the message, so "is this partition coding" and
"is this code uniquely decipherable" reduce to run-uniqueness of one
acceptor.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from . import fsa as A
from .errors import AlphabetMismatchError, PreconditionError
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
        for c in classes:
            if c.alphabet != code.alphabet:
                raise AlphabetMismatchError("class alphabet differs from the code's")
            if A.is_empty(c):
                raise PreconditionError("partition classes must be nonempty")
            if A.accepts(c, ""):
                raise PreconditionError("partition classes may not contain the empty word")
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if not A.is_empty(A.intersection(classes[i], classes[j])):
                    raise PreconditionError(f"classes {i} and {j} overlap")
        if not A.equivalent(A.union(*classes), code.lang):
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
    elements that are not products of two nonempty elements."""
    nonempty = A.difference(m.lang, A.epsilon_fsa(m.alphabet))
    # one subset construction, numbered breadth first like determinize's;
    # the refinement drops its dead subsets
    b = A._hopcroft(*A._subset_dfa(nonempty, A.concat(nonempty, nonempty)))
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
# Block parsers: unique decipherability and coding partitions


def _block_parser(classes: Sequence[Fsa]) -> Fsa:
    """Parser whose accepting runs are the block factorizations for the
    partition into the given classes: one deterministic acceptor per class
    language X_i+, with spontaneous moves from accepting configurations of
    class i into the start of every class j != i.

    Class acceptors are determinized first so that different splittings
    of one block into class words do not create spurious runs.
    """
    # state 0 is the hub, then each class in turn
    trans: list = []
    inits: list[int] = []
    accs: list[list[int]] = []
    shift = 1
    for d in (A.minimize(A.plus(c)) for c in classes):
        trans += [(p + shift, a, q + shift) for p, a, q in d.transitions]
        inits.append(next(iter(d.initial)) + shift)
        accs.append([f + shift for f in d.accepting])
        shift += d.n_states
    for i, fs in enumerate(accs):
        trans.append((0, None, inits[i]))
        for j, q in enumerate(inits):
            if i != j:
                trans.extend((f, None, q) for f in fs)
    return Fsa(classes[0].alphabet, shift, trans, (0,), [f for fs in accs for f in fs])


def regular_is_ud(x: RegularCode) -> bool:
    """Unique decipherability: no message has two factorizations."""
    return ud_ambiguity_witness(x) is None


def ud_ambiguity_witness(x: RegularCode) -> Optional[Word]:
    """A message with two distinct factorizations into code words, found
    as a word with two runs of the parser that reads one code word at a
    time through the minimal acceptor of X and marks each boundary with a
    spontaneous move back to its start; None when X is UD."""
    return A.ambiguity_witness(A.plus(A.minimize(x.lang)))


def regular_is_coding(p: RegularPartition) -> bool:
    """Decide whether the partition is coding: accepting runs of the
    block parser are in bijection with block factorizations, so the
    partition is coding iff the parser is run-unambiguous."""
    return coding_ambiguity_witness(p) is None


def coding_ambiguity_witness(p: RegularPartition) -> Optional[Word]:
    """A message with two distinct block factorizations; None when the
    partition is coding."""
    return A.ambiguity_witness(_block_parser(p.classes))


def free_product_check(monoids: Sequence[RegularMonoid]) -> bool:
    """True iff the monoid generated by the union is the free product of
    the given monoids: bases must be pairwise disjoint and the base
    partition of the union must be coding."""
    if len(monoids) < 2:
        raise PreconditionError("a free product needs at least two factors")
    alphabet = monoids[0].alphabet
    for m in monoids[1:]:
        if m.alphabet != alphabet:
            raise AlphabetMismatchError("monoids use different alphabets")
    bases = [base(m) for m in monoids]  # raises on a trivial factor
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            if not A.is_empty(A.intersection(bases[i].lang, bases[j].lang)):
                return False
    return A.is_unambiguous(_block_parser([b.lang for b in bases]))


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
