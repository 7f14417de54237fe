"""Exact decipherability analysis of finite codes.

Everything here is exact. The residuals of the classical
Sardinas-Patterson iteration are the nodes of the dangling-suffix graph,
whose paths from the source to the end, where the residual empties, are
the prime relations. One reader walks it: forward, nearest first, within
a message length bound, then backward to each residual's fewest letters
to the end. Unique decipherability and the relation search read within
the shortest relation's length or the given bound; the finest coding
partition (the words joined through the internal nodes of their useful
arcs) and :func:`cooccurrence_pairs`, its exact cross-check, read it all.

No step scans the whole code: an index over the sorted code texts finds
the words comparable with a residual by one probe per distinct word
length and one bisect run. The partitions number the words in shortlex
order and the useful residuals by their distance to the end, so no Word
is hashed. :func:`p_factorize` probes each position once per word length.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import defaultdict
from typing import Iterable, Optional, Sequence, Union

from .errors import AlphabetMismatchError, InputError, PreconditionError
from .fsa import _check_cap, _reachable
from .words import Alphabet, Word, _Frozen


class FiniteCode(_Frozen):
    """Finite set of nonempty words over one alphabet."""

    __slots__ = ("alphabet", "words")

    def __init__(self, alphabet: Alphabet, words: Iterable[Union[Word, str]]):
        ws = set()
        for w in words:
            if isinstance(w, str):
                w = alphabet.word(w)
            elif w.alphabet != alphabet:
                raise AlphabetMismatchError(f"word {w!r} is not over alphabet {alphabet}")
            if w.is_empty():
                raise InputError("a code may not contain the empty word")
            ws.add(w)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "words", frozenset(ws))

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=Word.sort_key)

    def texts(self) -> list[str]:
        return [w.text for w in self.sorted_words()]

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteCode) and self.alphabet == other.alphabet and self.words == other.words

    def __hash__(self) -> int:
        return hash((self.alphabet, self.words))

    def __repr__(self) -> str:
        return f"FiniteCode({{{', '.join(self.texts())}}})"


def _require_nonempty(x: FiniteCode) -> None:
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")


class Factorization(_Frozen):
    """A message together with one way of splitting it into code words."""

    __slots__ = ("message", "parts")

    def __init__(self, message: Word, parts: Sequence[Word]):
        parts = tuple(parts)
        if not parts:
            raise InputError("a factorization needs at least one part")
        joined = "".join(p.text for p in parts)
        if joined != message.text:
            raise InputError(f"parts concatenate to {joined!r}, not to {message.text!r}")
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Factorization) and self.parts == other.parts and self.message == other.message

    def __hash__(self) -> int:
        return hash((self.message, self.parts))

    def __repr__(self) -> str:
        return "·".join(p.text for p in self.parts)


class PrimeRelation(_Frozen):
    """Two distinct factorizations of one message that never agree on a
    proper intermediate prefix product."""

    __slots__ = ("left", "right")

    def __init__(self, left: Factorization, right: Factorization):
        if left.message != right.message:
            raise InputError("the two sides factorize different messages")
        if left.parts == right.parts:
            raise InputError("a relation must have two distinct factorizations")
        lcuts = _interior_cuts(left)
        rcuts = _interior_cuts(right)
        if lcuts & rcuts:
            raise InputError("factorizations share an intermediate prefix product; relation is not prime")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def message(self) -> Word:
        return self.left.message

    def support(self) -> frozenset[Word]:
        return frozenset(self.left.parts) | frozenset(self.right.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeRelation) and self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


def _interior_cuts(f: Factorization) -> frozenset[int]:
    cuts = set()
    pos = 0
    for p in f.parts[:-1]:
        pos += len(p)
        cuts.add(pos)
    return frozenset(cuts)


class Partition(_Frozen):
    """Indexed family of disjoint nonempty classes covering a finite code.

    Class order is preserved as given; equality and hashing ignore it.
    """

    __slots__ = ("code", "classes")

    def __init__(self, code: FiniteCode, classes: Iterable[Iterable[Word]]):
        cls = tuple(frozenset(c) for c in classes)
        seen: set[Word] = set()
        for c in cls:
            if not c:
                raise InputError("partition classes must be nonempty")
            if c & seen:
                raise InputError("partition classes overlap")
            seen |= c
        if seen != code.words:
            raise InputError("partition classes do not cover the code exactly")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "classes", cls)

    @staticmethod
    def trivial(code: FiniteCode) -> "Partition":
        _require_nonempty(code)
        return Partition(code, (code.words,))

    @staticmethod
    def singletons(code: FiniteCode) -> "Partition":
        _require_nonempty(code)
        return Partition(code, tuple({w} for w in code.sorted_words()))

    def normalized_classes(self) -> tuple[tuple[Word, ...], ...]:
        """Classes as sorted tuples, ordered by shortlex-least element."""
        return tuple(sorted((tuple(sorted(c, key=Word.sort_key)) for c in self.classes),
                            key=lambda c: c[0].sort_key()))

    def class_index_of(self, w: Word) -> int:
        for i, c in enumerate(self.classes):
            if w in c:
                return i
        raise InputError(f"word {w!r} is not in the partitioned code")

    def __len__(self) -> int:
        return len(self.classes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.code == other.code
            and frozenset(self.classes) == frozenset(other.classes)
        )

    def __hash__(self) -> int:
        return hash((self.code, frozenset(self.classes)))

    def __repr__(self) -> str:
        body = "; ".join("{" + ",".join(w.text for w in sorted(c, key=Word.sort_key)) + "}" for c in self.classes)
        return f"Partition({body})"


class PFactorization(_Frozen):
    """Decomposition of a message into maximal same-class blocks."""

    __slots__ = ("message", "blocks")

    def __init__(self, message: Word, blocks: Sequence[tuple[int, Word]]):
        blocks = tuple(blocks)
        if not blocks:
            raise InputError("a block factorization needs at least one block")
        if "".join(b.text for _k, b in blocks) != message.text:
            raise InputError("blocks do not concatenate to the message")
        for (_k, b) in blocks:
            if b.is_empty():
                raise InputError("blocks must be nonempty")
        for (k1, _), (k2, _) in zip(blocks, blocks[1:]):
            if k1 == k2:
                raise InputError("consecutive blocks must come from distinct classes")
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, PFactorization) and self.message == other.message and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.message, self.blocks))

    def __repr__(self) -> str:
        return " ".join(f"(X{k}:{b.text})" for k, b in self.blocks)


# ---------------------------------------------------------------------------
# Dangling-suffix graph.
#
# Nodes are the nonempty residuals of the Sardinas-Patterson iteration;
# a prime relation is exactly a path from the virtual source (one arc per
# ordered pair of distinct code words, one a proper prefix of the other)
# to the end, where the residual becomes empty. Each arc consumes a code
# word, a source arc two; an arc is useful when it lies on such a path.


class _CodeIndex:
    """The sorted code texts, indexed so that a residual finds the words
    comparable with it without a scan over the whole code."""

    def __init__(self, code: FiniteCode):
        self.words = words = sorted(w.text for w in code.words)
        self.text = {w: w for w in words}
        self.lengths = sorted({len(w) for w in words})

    def extensions(self, u: str) -> list[str]:
        """The words properly extending u, in sorted order: one run just
        past u."""
        words = self.words
        i = j = bisect_right(words, u)
        while j < len(words) and words[j].startswith(u):
            j += 1
        return words[i:j]

    def comparable(self, u: str) -> list[str]:
        """The words u starts with (u itself included), then the words
        extending u: together, in sorted order, every word that is a
        prefix of u or has u as a prefix. Prefixes are probed once per
        distinct word length."""
        prefixes = [self.text.get(u[:m]) for m in self.lengths if m <= len(u)]
        return [w for w in prefixes if w is not None] + self.extensions(u)

    def starts(self) -> list[tuple[str, str, str]]:
        """(x, y, r) for each word x with a proper extension y = x·r."""
        words, out = self.words, []
        for i, x in enumerate(words, 1):
            while i < len(words) and words[i].startswith(x):
                out.append((x, words[i], words[i][len(x):]))
                i += 1
        return out

    def moves(self, u: str) -> list[tuple[str, str]]:
        """(w, r) for each word w comparable with the residual u, in sorted
        order: r is the rest of the longer of u and w past the shorter."""
        return [(w, u[len(w):] if len(w) <= len(u) else w[len(u):]) for w in self.comparable(u)]


def _nearest_first(starts, arcs):
    """Yield (distance, node) for each node reached from the (distance,
    node) ``starts``, nearest first. ``arcs(node)`` lists the (weight, node)
    pairs out of a node, read only when the consumer asks for the next one.
    Dial's queue: a list per pending distance, a heap of the distances."""
    dist: dict = {}
    buckets: dict[int, list] = {}
    pending: list[int] = []

    def reach(base: int, pairs) -> None:
        for weight, node in pairs:
            d = base + weight
            if d < dist.get(node, d + 1):
                dist[node] = d
                if d not in buckets:
                    heapq.heappush(pending, d)
                    buckets[d] = []
                buckets[d].append(node)

    reach(0, starts)
    while pending:
        d = heapq.heappop(pending)
        for node in buckets[d]:  # arcs of weight 0 append to this same list
            if dist[node] == d:  # else it was reached nearer and is done
                yield d, node
                reach(d, arcs(node))
        del buckets[d]


def _read(x: FiniteCode, bound) -> tuple[list, dict, dict, Optional[int]]:
    """Read x's dangling-suffix graph: return its source moves (x, y, r),
    each residual read with its moves, each useful residual's fewest
    letters to the end ("" first, then nearest first) and the bound used.
    A forward pass reads a residual's moves while the fewest letters that
    reach it are within the bound, which the first code word reached sets
    if none is given; if none is, x is UD. A backward pass gives the
    letters to the end over what was read, exact where the two sum to at
    most the bound, as that whole path was read; ``math.inf`` reads all."""
    index = _CodeIndex(x)
    starts = index.starts()
    out: dict[str, list[tuple[str, str]]] = {}  # residual -> its moves, once read

    def read(u: str) -> list[tuple[int, str]]:
        out[u] = moves = index.moves(u)
        return [(len(w) - len(u) if len(w) > len(u) else 0, r) for w, r in moves if r]

    for d, u in _nearest_first([(len(y), r) for _x, y, r in starts], read):
        if bound is None and u in index.text:
            bound = d
        if bound is not None and d > bound:
            break
    if bound is None:
        return starts, out, {}, None
    into = defaultdict(list)  # residual -> (letters added, residual) of its read in-arcs
    for u, moves in out.items():
        for w, r in moves:
            into[r].append((len(w) - len(u) if len(w) > len(u) else 0, u))
    return starts, out, {u: d for d, u in _nearest_first([(0, "")], into.__getitem__)}, bound


def _relation_texts(x: FiniteCode, bound: Optional[int]) -> list:
    """(left parts, right parts, message) of every prime relation whose
    message has at most ``bound`` letters; with no bound, of every
    shortest one: the paths from the source to the empty residual over
    what :func:`_read` read, walked depth-first over (residual, behind,
    ahead, swapped, msg): ``behind`` takes each word, ``swapped`` says it
    is the right side, a longer word overtakes, and each side is a (word,
    rest) link; the left side begins with the shorter first word. Moves
    ranked by the letters they add are read up to the bound. With a bound,
    the states popped and the parts listed count against the state cap:
    {a, ab, ba} has a relation of every odd length, while the shortest are
    finitely many."""
    capped = bound is not None
    starts, out, to_end, bound = _read(x, bound)
    if bound is None:
        return []
    far = bound + 1
    # each read residual's moves by the letters they still add: none into the
    # end, the rest past a trailing word, and the overhang too past an overtaking one
    ranked = {u: sorted((to_end.get(r, far) + (len(r) if len(w) > len(u) else 0) if r else 0, w, r)
                        for w, r in moves) for u, moves in out.items()}

    found = []
    stack = [(r, (x, None), (y, None), False, y) for x, y, r in starts if len(y) + to_end.get(r, far) <= bound]
    count = 0
    while stack:
        u, behind, ahead, swapped, msg = stack.pop()
        count += 1
        for added, w, r in ranked[u]:
            if added > bound - len(msg):
                break
            if not r:
                trailing, leading = _spell((w, behind)), _spell(ahead)
                found.append((leading, trailing, msg) if swapped else (trailing, leading, msg))
                count += len(trailing) + len(leading)
            elif len(w) < len(u):
                stack.append((r, (w, behind), ahead, swapped, msg))
            else:
                stack.append((r, ahead, (w, behind), not swapped, msg + r))
        if capped:
            _check_cap(count, "enumerate_prime_relations")
    return found


def _spell(link) -> tuple[str, ...]:
    """The parts of a (word, rest) link, first to last."""
    parts = []
    while link:
        w, link = link
        parts.append(w)
    return tuple(reversed(parts))


def _prime_relations(x: FiniteCode, found) -> list[PrimeRelation]:
    """The relations of :func:`_relation_texts` sorted by message, then by
    the two part sequences."""
    # one Word per code word and per message, for the sort keys and the output
    code_word = {w.text: w for w in x.words}
    rels = [(x.alphabet.word(msg), [code_word[t] for t in left], [code_word[t] for t in right])
            for left, right, msg in found]

    def keys(words):
        return tuple(w.sort_key() for w in words)

    rels.sort(key=lambda rel: (rel[0].sort_key(), keys(rel[1]), keys(rel[2])))
    return [PrimeRelation(Factorization(m, left), Factorization(m, right)) for m, left, right in rels]


# ---------------------------------------------------------------------------
# Operations


def sp_is_ud(x: FiniteCode) -> tuple[bool, Optional[PrimeRelation]]:
    """Sardinas-Patterson decision with a witness for the negative case.

    The witness is the least prime relation by message (shortlex), then
    by factorizations; residuals beyond its length are never read.
    """
    _require_nonempty(x)
    found = _relation_texts(x, None)
    return (False, _prime_relations(x, found)[0]) if found else (True, None)


def enumerate_prime_relations(x: FiniteCode, max_message_len: int) -> list[PrimeRelation]:
    """Every prime relation with message length at most the bound.

    Each relation appears once, its smaller factorization (shortlex on
    the part sequence) on the left; the list is sorted by message, then
    by the two part sequences. Some codes have a relation of every length,
    so the states walked and the parts listed count against the state cap.
    """
    _require_nonempty(x)
    if max_message_len < 1:
        raise PreconditionError("the message length bound must be at least 1")
    return _prime_relations(x, _relation_texts(x, max_message_len))


def _read_all(x: FiniteCode) -> tuple[list[Word], dict[str, int], list, dict, dict[str, int]]:
    """The words of x in shortlex order, their numbers by text, and all of
    :func:`_read`, the useful residuals numbered in ``to_end`` order."""
    words = x.sorted_words()
    starts, out, to_end, _bound = _read(x, math.inf)
    return words, {w.text: i for i, w in enumerate(words)}, starts, out, {u: k for k, u in enumerate(to_end)}


def cooccurrence_pairs(x: FiniteCode) -> set[tuple[Word, Word]]:
    """Pairs of distinct code words appearing together in some prime
    relation, exact with no length bound: a useful arc of one leaves a
    residual reachable (reflexively) from the head of an arc of the other,
    or they share a source arc."""
    _require_nonempty(x)
    words, number, starts, out, node = _read_all(x)
    fwd: list[list[int]] = [[] for _ in node]
    leaving: list[set[int]] = [set() for _ in node]  # residual -> words of its useful out-arcs
    heads: list[list[int]] = [[] for _ in words]  # word -> heads of the useful arcs consuming it
    pairs: set[tuple[int, int]] = set()
    for i, j, k in [(number[a], number[b], node[r]) for a, b, r in starts if r in node]:
        heads[i].append(k)
        heads[j].append(k)
        pairs.add((i, j))  # a proper prefix comes first in shortlex order
    for u, k in node.items():
        for w, r in out.get(u, ()):
            if r in node:
                fwd[k].append(node[r])
                leaving[k].add(number[w])
                heads[number[w]].append(node[r])
    for i, dsts in enumerate(heads):
        met = set().union(*(leaving[k] for k in _reachable(dsts, fwd)))
        pairs.update((i, j) if i < j else (j, i) for j in met if j != i)
    return {(words[i], words[j]) for i, j in pairs}


def _components(x: FiniteCode, words: list[Word], links: list[list[int]]) -> Partition:
    """The partition of x into ``words``, its words in shortlex order, joined
    through ``links``, a symmetric adjacency over their numbers and helper
    vertices after them; classes in the order of their least word."""
    n = len(words)
    classes: list[frozenset[Word]] = []
    seen: set[int] = set()
    for i in range(n):
        if i not in seen:
            reached = _reachable((i,), links) if links[i] else (i,)
            seen.update(reached)
            classes.append(frozenset(words[j] for j in reached if j < n))
    return Partition(x, classes)


def characteristic_partition(x: FiniteCode) -> Partition:
    """The finest coding partition: words joined through the internal
    nodes of their useful dangling-suffix-graph arcs. Every useful arc lies
    on a path from the source to the end, so two words on arcs meeting at
    a node share a prime relation, directly or through a word on an arc there;
    the classes are the components of :func:`cooccurrence_pairs`."""
    _require_nonempty(x)
    words, number, starts, out, node = _read_all(x)
    n = len(words)
    links: list[list[int]] = [[] for _ in range(n + len(node))]  # residual k is vertex n + k
    for i, j, v in [(number[a], number[b], n + node[r]) for a, b, r in starts if r in node]:
        links[v] += (i, j)
        links[i].append(v)
        links[j].append(v)
    for u, k in node.items():
        for w, r in out.get(u, ()):
            if r in node:  # a useful arc: its word links to its residuals, not to the end
                i = number[w]
                links[i].append(n + k)
                links[n + k].append(i)
                if r:
                    links[i].append(n + node[r])
                    links[n + node[r]].append(i)
    return _components(x, words, links)


def canonical_partition(x: FiniteCode) -> tuple[frozenset[Word], list[frozenset[Word]]]:
    """The canonical decomposition: the union of all singleton classes of
    the finest coding partition (the unambiguous component, possibly
    empty) and the totally ambiguous components, sorted by their least
    word."""
    fine = characteristic_partition(x)
    unambiguous = frozenset(w for c in fine.classes if len(c) == 1 for w in c)
    ta = [c for c in fine.classes if len(c) > 1]
    return unambiguous, ta


def canonical_coding_partition(x: FiniteCode) -> Partition:
    """:func:`canonical_partition` repackaged as a Partition, unambiguous
    component first (when present), then the totally ambiguous components."""
    unambiguous, ta = canonical_partition(x)
    classes = ([unambiguous] if unambiguous else []) + list(ta)
    return Partition(x, classes)


def is_coding(x: FiniteCode, p: Partition) -> bool:
    """Decide whether p is a coding partition of x: every class of the
    finest coding partition must lie inside a single class of p."""
    _require_nonempty(x)
    if p.code != x:
        raise PreconditionError("the partition does not partition this code")
    return _coarsens(p, characteristic_partition(x).classes)


def _owners(p: Partition) -> dict[str, int]:
    """The index of the class of p holding each word, by its text."""
    return {w.text: i for i, c in enumerate(p.classes) for w in c}


def _coarsens(p: Partition, classes: Iterable[frozenset[Word]]) -> bool:
    """Whether each of the classes lies inside a single class of p."""
    owner = _owners(p)
    return all(len({owner[w.text] for w in c}) == 1 for c in classes)


def is_totally_ambiguous(x: FiniteCode) -> bool:
    """More than one word and no coding partition besides the trivial one."""
    _require_nonempty(x)
    return len(x.words) > 1 and len(characteristic_partition(x).classes) == 1


def p_factorize(w: Word, p: Partition) -> PFactorization:
    """The unique decomposition of a message into alternating same-class
    blocks, for a coding partition."""
    if w.is_empty():
        raise PreconditionError("only nonempty messages can be factorized")
    if w.alphabet != p.code.alphabet:
        raise AlphabetMismatchError("word and code use different alphabets")
    if not is_coding(p.code, p):
        raise PreconditionError("the partition is not a coding partition")
    text = w.text
    n = len(text)
    owner = _owners(p)
    lengths = sorted({len(t) for t in owner})
    # back[j] = (i, k): text[i:j] is a word of class k and text[:i] is a
    # message. A coding partition gives a message one block factorization,
    # so any chain of back links spells it once runs of one class merge.
    # The words at i are probed once per distinct word length.
    back: dict[int, Optional[tuple[int, int]]] = {0: None}
    for i in range(n):
        if i in back:
            for m in lengths:
                if i + m > n:
                    break
                k = owner.get(text[i:i + m])
                if k is not None:
                    back.setdefault(i + m, (i, k))
    if n not in back:
        raise PreconditionError(f"{text!r} is not a message of this code")
    spans = []  # (class, start, end) of the blocks, last block first
    j = n
    while j > 0:
        i, k = back[j]
        if spans and spans[-1][0] == k:
            spans[-1] = (k, i, spans[-1][2])
        else:
            spans.append((k, i, j))
        j = i
    return PFactorization(w, [(k, w.alphabet.word(text[i:j])) for k, i, j in reversed(spans)])
