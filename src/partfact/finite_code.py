"""Exact decipherability analysis of finite codes.

Everything here is exact: unique decipherability is decided by the
classical Sardinas-Patterson residual iteration on the dangling-suffix
graph, where prime relations correspond to source-to-terminal paths.
The finest coding partition is read off that graph without any length
bound: its classes are the connected components of the code words
linked through the internal nodes of their useful arcs, which are the
components of word co-occurrence in prime relations. Pairwise
co-occurrence (:func:`cooccurrence_pairs`) is computed by a separate
reachability pass and stays as an exact cross-check.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Iterable, Optional, Sequence, Union

from .errors import AlphabetMismatchError, InputError, PreconditionError
from .fsa import _reachable
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
        return sorted(self.words)

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
        return tuple(sorted((tuple(sorted(c)) for c in self.classes), key=lambda c: c[0].sort_key()))

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
        body = "; ".join("{" + ",".join(w.text for w in sorted(c)) + "}" for c in self.classes)
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
# to the terminal node where the residual becomes empty. Arcs are
# annotated with the code words they consume, so co-occurrence of two
# words in some prime relation reduces to a waypoint query: is there a
# source-to-terminal path using an arc of each annotation?


class _SuffixGraph:
    def __init__(self, code: FiniteCode):
        words = sorted({w.text for w in code.words})
        init_arcs = []  # (residual, (x, y)) with y = x·residual
        for i, x in enumerate(words):
            for y in words:
                if x != y and y.startswith(x):
                    init_arcs.append((y[len(x):], (x, y)))
        node_ids: dict[str, int] = {}
        arcs = []  # (src_id, dst_id, (word,)) with dst TERM when residual empties
        queue = deque()

        def intern(r: str) -> int:
            if r not in node_ids:
                node_ids[r] = len(node_ids)
                queue.append(r)
            return node_ids[r]

        for r, _pair in init_arcs:
            intern(r)
        while queue:
            u = queue.popleft()
            uid = node_ids[u]
            for w in words:
                if w == u:
                    arcs.append((uid, -1, (w,)))  # -1 placeholder for TERM
                elif u.startswith(w):
                    arcs.append((uid, intern(u[len(w):]), (w,)))
                elif w.startswith(u):
                    arcs.append((uid, intern(w[len(u):]), (w,)))

        n = len(node_ids)
        self.term = n
        self.source = n + 1
        full_arcs = [(self.source, node_ids[r], pair) for r, pair in init_arcs]
        full_arcs += [(src, self.term if dst == -1 else dst, ann) for src, dst, ann in arcs]

        fwd = defaultdict(list)
        bwd = defaultdict(list)
        for src, dst, _ann in full_arcs:
            fwd[src].append(dst)
            bwd[dst].append(src)
        useful = _reachable((self.source,), fwd) & _reachable((self.term,), bwd)
        self.has_relation = self.term in useful
        self.arcs = [a for a in full_arcs if a[0] in useful and a[1] in useful]
        self._residual_len = {node_ids[r]: len(r) for r in node_ids}
        self._word_len = {w: len(w) for w in words}

    def _arc_weight(self, src: int, dst: int, ann: tuple[str, ...]) -> int:
        # Contribution of the arc to the message length: initial arcs start
        # the message with the longer word; an arc where the trailing parse
        # overtakes extends the message by the overhang.
        if src == self.source:
            return self._word_len[max(ann, key=len)]
        overhang = self._word_len[ann[0]] - self._residual_len[src]
        return max(0, overhang)

    def min_message_length(self, targets: Sequence[str] = ()) -> Optional[int]:
        """Length of the shortest prime-relation message consuming every
        target word; None when there is none. Dijkstra over (node, set of
        targets consumed so far)."""
        if not self.has_relation:
            return None
        full = (1 << len(targets)) - 1
        out = defaultdict(list)
        for src, dst, ann in self.arcs:
            bits = sum(1 << i for i, t in enumerate(targets) if t in ann)
            out[src].append((dst, ann, bits))
        dist = {(self.source, 0): 0}
        heap = [(0, self.source, 0)]
        while heap:
            d, node, mask = heapq.heappop(heap)
            if dist[(node, mask)] != d:
                continue
            if node == self.term:
                if mask == full:
                    return d
                continue
            for dst, ann, bits in out[node]:
                nd = d + self._arc_weight(node, dst, ann)
                nm = mask | bits
                if nd < dist.get((dst, nm), float("inf")):
                    dist[(dst, nm)] = nd
                    heapq.heappush(heap, (nd, dst, nm))
        return None

    def cooccurring_text_pairs(self) -> set[tuple[str, str]]:
        # Two words co-occur when an arc of one leaves a node reachable
        # (reflexively) from the head of an arc of the other, or when they
        # share a source arc.
        fwd = defaultdict(list)
        heads = defaultdict(list)  # word -> heads of the arcs consuming it
        leaving = defaultdict(set)  # node -> words consumed by its out-arcs
        pairs: set[tuple[str, str]] = set()
        for src, dst, ann in self.arcs:
            fwd[src].append(dst)
            leaving[src].update(ann)
            for w in ann:
                heads[w].append(dst)
            if len(ann) == 2:
                pairs.add(tuple(sorted(ann)))
        for u, dsts in heads.items():
            for node in _reachable(dsts, fwd):
                for v in leaving[node]:
                    if v != u:
                        pairs.add((u, v) if u < v else (v, u))
        return pairs


# ---------------------------------------------------------------------------
# Operations


def sp_is_ud(x: FiniteCode) -> tuple[bool, Optional[PrimeRelation]]:
    """Sardinas-Patterson decision with a witness for the negative case.

    The witness is the prime relation with the shortest message,
    shortlex and then factorization order breaking ties.
    """
    _require_nonempty(x)
    graph = _SuffixGraph(x)
    if not graph.has_relation:
        return True, None
    bound = graph.min_message_length()
    relations = enumerate_prime_relations(x, bound)
    return False, relations[0]


def enumerate_prime_relations(x: FiniteCode, max_message_len: int) -> list[PrimeRelation]:
    """Every prime relation with message length at most the bound.

    Each relation appears once, its smaller factorization (shortlex on
    the part sequence) on the left; the list is sorted by message, then
    by the two part sequences.
    """
    _require_nonempty(x)
    if max_message_len < 1:
        raise PreconditionError("the message length bound must be at least 1")
    strs = sorted({w.text for w in x.words})
    alphabet = x.alphabet
    found: list[tuple[tuple[str, ...], tuple[str, ...], str]] = []

    # Depth-first over the states (parts0, parts1, behind0, blen, msg).
    # parts0 always begins with the shorter first word, hence is the
    # shortlex-smaller side; behind0 says which side still trails, and
    # msg[blen:] is the residual by which the other side leads.
    stack = [
        ((xs,), (ys,), True, len(xs), ys)
        for xs in strs
        for ys in strs
        if xs != ys and ys.startswith(xs) and len(ys) <= max_message_len
    ]
    while stack:
        parts0, parts1, behind0, blen, msg = stack.pop()
        residual = msg[blen:]
        for w in strs:
            if w == residual:
                left = parts0 + (w,) if behind0 else parts0
                right = parts1 if behind0 else parts1 + (w,)
                found.append((left, right, msg))
            elif residual.startswith(w):
                if behind0:
                    stack.append((parts0 + (w,), parts1, True, blen + len(w), msg))
                else:
                    stack.append((parts0, parts1 + (w,), False, blen + len(w), msg))
            elif w.startswith(residual):
                ext = w[len(residual):]
                if len(msg) + len(ext) > max_message_len:
                    continue
                if behind0:
                    stack.append((parts0 + (w,), parts1, False, len(msg), msg + ext))
                else:
                    stack.append((parts0, parts1 + (w,), True, len(msg), msg + ext))

    # one Word per code word and per message, for the sort keys and the output
    code_word = {w.text: w for w in x.words}
    rels = [(alphabet.word(msg), [code_word[t] for t in left], [code_word[t] for t in right])
            for left, right, msg in found]

    def keys(words):
        return tuple(w.sort_key() for w in words)

    rels.sort(key=lambda rel: (rel[0].sort_key(), keys(rel[1]), keys(rel[2])))
    return [PrimeRelation(Factorization(m, left), Factorization(m, right)) for m, left, right in rels]


def cooccurrence_pairs(x: FiniteCode) -> set[tuple[Word, Word]]:
    """Pairs of distinct code words appearing together in some prime
    relation; exact, with no bound on the relation length."""
    _require_nonempty(x)
    word = {w.text: w for w in x.words}
    return {tuple(sorted((word[u], word[v]))) for u, v in _SuffixGraph(x).cooccurring_text_pairs()}


def _components(x: FiniteCode, links) -> Partition:
    """The partition of x into words joined through ``links``, a symmetric
    adjacency over the words and helper vertices; classes in the order of
    their least word."""
    classes: list[frozenset[Word]] = []
    seen: set = set()
    for w in x.sorted_words():
        if w not in seen:
            reached = _reachable((w,), links)
            seen |= reached
            classes.append(x.words & reached)
    return Partition(x, classes)


def characteristic_partition(x: FiniteCode) -> Partition:
    """The finest coding partition: words joined through the internal
    nodes of their useful dangling-suffix-graph arcs. Every useful arc lies
    on a source-to-terminal path, so two words on arcs meeting at a node
    share a prime relation, directly or through a word on an arc there;
    the classes are the components of :func:`cooccurrence_pairs`."""
    _require_nonempty(x)
    graph = _SuffixGraph(x)
    code_word = {w.text: w for w in x.words}
    links = defaultdict(list)
    for src, dst, ann in graph.arcs:
        for node in (src, dst):
            if node != graph.source and node != graph.term:
                for t in ann:
                    links[code_word[t]].append(node)
                    links[node].append(code_word[t])
    return _components(x, links)


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


def _owners(p: Partition) -> dict[Word, int]:
    """The index of the class of p holding each word."""
    return {w: i for i, c in enumerate(p.classes) for w in c}


def _coarsens(p: Partition, classes: Iterable[frozenset[Word]]) -> bool:
    """Whether each of the classes lies inside a single class of p."""
    owner = _owners(p)
    return all(len({owner[w] for w in c}) == 1 for c in classes)


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
    words = [(v.text, k) for k, c in enumerate(p.classes) for v in c]
    # back[j] = (i, k): text[i:j] is a word of class k and text[:i] is a
    # message. A coding partition gives a message one block factorization,
    # so any chain of back links spells it once runs of one class merge.
    back: dict[int, Optional[tuple[int, int]]] = {0: None}
    for i in range(n):
        if i in back:
            for t, k in words:
                if text.startswith(t, i):
                    back.setdefault(i + len(t), (i, k))
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
