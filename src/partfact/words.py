"""Alphabets and words: the ground objects every analysis is built on.

An :class:`Alphabet` fixes a finite, ordered set of single-character
symbols; the order declared at construction defines the shortlex order
(length first, then symbol rank) used everywhere results are sorted.
A :class:`Word` is an immutable finite sequence of symbols from one
alphabet; the empty word plays the role of the monoid identity.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from .errors import AlphabetMismatchError, InputError, PreconditionError


class _Frozen:
    """Base of the immutable value types: ``__init__`` sets each slot once
    through ``object.__setattr__``; no slot can be rebound or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Alphabet(_Frozen):
    """Ordered finite set of distinct single-character symbols.

    Immutable after construction. The declared order is the tie-break
    order of shortlex; it need not agree with the characters' code points.
    """

    __slots__ = ("symbols", "_rank")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise InputError("alphabet must contain at least one symbol")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise InputError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(syms)) != len(syms):
            raise InputError(f"alphabet contains duplicate symbols: {''.join(syms)!r}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_rank", {s: i for i, s in enumerate(syms)})

    def rank(self, symbol: str) -> int:
        try:
            return self._rank[symbol]
        except KeyError:
            raise InputError(f"symbol {symbol!r} is not in alphabet {self}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._rank

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Alphabet) and self.symbols == other.symbols)

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def word(self, text: str) -> "Word":
        """Build a word over this alphabet, validating every symbol."""
        return Word(self, text)

    def words(self, texts: Iterable[str]) -> tuple["Word", ...]:
        return tuple(Word(self, t) for t in texts)


def _require_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise AlphabetMismatchError(f"mixed alphabets: {a} vs {b}")


@functools.total_ordering
class Word(_Frozen):
    """Immutable word over a fixed alphabet.

    Comparison operators implement shortlex with respect to the owning
    alphabet's declared symbol order. Words over different alphabets
    compare unequal and cannot be ordered.
    """

    __slots__ = ("alphabet", "text", "_key")

    def __init__(self, alphabet: Alphabet, text: str):
        try:
            ranks = tuple(alphabet._rank[c] for c in text)
        except KeyError as e:
            raise InputError(f"symbol {e.args[0]!r} in word {text!r} is not in alphabet {alphabet}") from None
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "_key", (len(text), ranks))

    def sort_key(self) -> tuple:
        """Shortlex key: (length, symbol ranks)."""
        return self._key

    def __len__(self) -> int:
        return len(self.text)

    def is_empty(self) -> bool:
        return not self.text

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Word) and self.text == other.text and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        # equal words have equal texts
        return hash(self.text)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet is not other.alphabet:
            _require_same_alphabet(self.alphabet, other.alphabet)
        return self._key < other._key

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        _require_same_alphabet(self.alphabet, other.alphabet)
        return Word(self.alphabet, self.text + other.text)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def is_factor(u: Word, z: Word) -> bool:
    """True iff z = x u y for some (possibly empty) words x, y."""
    _require_same_alphabet(u.alphabet, z.alphabet)
    return u.text in z.text


def is_unbordered(w: Word) -> bool:
    """True iff no proper nonempty prefix of w is also a suffix of w.

    Undefined (and rejected) for the empty word.
    """
    if w.is_empty():
        raise PreconditionError("borders are undefined for the empty word")
    t = w.text
    return not any(t[:k] == t[-k:] for k in range(1, len(t)))


def left_quotient_word(x: Word, y: Word) -> Optional[Word]:
    """The word s with y = x s, or None when x is not a prefix of y."""
    _require_same_alphabet(x.alphabet, y.alphabet)
    if y.text.startswith(x.text):
        return Word(y.alphabet, y.text[len(x.text):])
    return None
