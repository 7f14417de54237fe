"""Test-only helpers: a bounded brute-force oracle and relation search
for finite codes, a bounded word enumerator for acceptors, Moore's
minimization, and an audit bound for the co-occurrence analysis.

The brute-force oracle and relation search share no code with the
exact analyses in ``partfact.finite_code``, so the tests can use them as
independent ground truth.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Optional, Sequence

from partfact import FiniteCode, PreconditionError, Word
from partfact.finite_code import _SuffixGraph
from partfact.fsa import Fsa, determinize, eliminate_epsilon


def enumerate_words(f: Fsa, max_len: int) -> list[Word]:
    """All accepted words of length at most ``max_len``, shortlex-sorted."""
    g = eliminate_epsilon(f)
    out = []
    if g.n_states == 0:
        return out
    adj = g.adjacency()
    level = [("", frozenset(g.initial))]
    for length in range(max_len + 1):
        for prefix, subset in level:
            if subset & g.accepting:
                out.append(Word(g.alphabet, prefix))
        if length == max_len:
            break
        nxt = []
        for prefix, subset in level:
            for c in g.alphabet.symbols:
                target = frozenset(q for p in subset for a, q in adj[p] if a == c)
                if target:
                    nxt.append((prefix + c, target))
        level = nxt
    return out


def moore_minimize(f: Fsa) -> Fsa:
    """Minimal trimmed DFA by Moore's partition refinement, one round per
    distinguishing length: the reference for ``partfact.fsa.minimize``.
    Every state of the partial DFA reaches acceptance, so a missing move
    (``-1`` in a signature) sets states apart just as a sink would; each
    round numbers the blocks by their least states."""
    d = determinize(f)
    if d.n_states == 0:
        return d
    succ = [[-1] * len(d.alphabet) for _ in range(d.n_states)]
    for p, a, q in d.transitions:
        succ[p][d.alphabet.rank(a)] = q
    block = [0 if s in d.accepting else 1 for s in range(d.n_states)]
    while True:
        signature = {}
        new_block = []
        for s in range(d.n_states):
            sig = (block[s],) + tuple(-1 if q < 0 else block[q] for q in succ[s])
            if sig not in signature:
                signature[sig] = len(signature)
            new_block.append(signature[sig])
        if new_block == block:
            break
        block = new_block
    trans = sorted({(block[p], a, block[q]) for p, a, q in d.transitions})
    init = {block[s] for s in d.initial}
    acc = {block[s] for s in d.accepting}
    return Fsa(d.alphabet, max(block) + 1, trans, init, acc)


def cooccurrence_witness_bound(x: FiniteCode, u: Word, v: Word) -> Optional[int]:
    """Length of the shortest prime-relation message containing both
    words, or None when the pair never co-occurs. Audit helper for the
    exactness of ``characteristic_partition``."""
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    # Dijkstra over (node, set of the two words consumed so far)
    graph = _SuffixGraph(x)
    targets = (u.text, v.text)
    full = (1 << len(targets)) - 1
    out = defaultdict(list)
    for src, dst, ann in graph.arcs:
        bits = sum(1 << i for i, t in enumerate(targets) if t in ann)
        out[src].append((dst, ann, bits))
    dist = {(graph.source, 0): 0}
    heap = [(0, graph.source, 0)]
    while heap:
        d, node, mask = heapq.heappop(heap)
        if dist[(node, mask)] != d:
            continue
        if node == graph.term:
            if mask == full:
                return d
            continue
        for dst, ann, bits in out[node]:
            nd = d + graph._arc_weight(node, dst, ann)
            nm = mask | bits
            if nd < dist.get((dst, nm), float("inf")):
                dist[(dst, nm)] = nd
                heapq.heappush(heap, (nd, dst, nm))
    return None


def brute_force_oracle(x: FiniteCode, max_message_len: int) -> tuple[bool, set[tuple[Word, Word]]]:
    """Independent bounded oracle used to cross-check the exact analyses.

    Enumerates every message of the code up to the length bound together
    with its factorization count (so the UD verdict is a plain counting
    argument), then for each ambiguous message enumerates the pairs of
    factorizations with no shared intermediate prefix product, re-checks
    the primality condition explicitly, and collects the unordered pairs
    of distinct code words occurring in those prime relations. Any
    ambiguity within the bound is reported: a shortest ambiguous message
    always carries a prime relation, and non-prime relations contribute
    no merges beyond those of their prime segments.
    """
    strs = _checked_texts(x, max_message_len)
    counts = _message_counts(strs, max_message_len)
    ud = all(c < 2 for layer in counts for c in layer.values())

    merge_texts: set[tuple[str, str]] = set()
    for parts_a, parts_b, _m in _relations(counts, strs):
        support = sorted(set(parts_a) | set(parts_b))
        for i, u in enumerate(support):
            for v in support[i + 1:]:
                merge_texts.add((u, v))

    merges = set()
    for u, v in merge_texts:
        wu, wv = x.alphabet.word(u), x.alphabet.word(v)
        merges.add((wu, wv) if wu < wv else (wv, wu))
    return ud, merges


def brute_force_relations(x: FiniteCode, max_message_len: int) -> set[tuple[tuple[str, ...], tuple[str, ...], str]]:
    """Every prime relation whose message has at most ``max_message_len``
    letters, as (left parts, right parts, message) texts, the left side
    beginning with the shorter word: a search over the messages
    themselves, independent of the dangling-suffix graph."""
    strs = _checked_texts(x, max_message_len)
    return _relations(_message_counts(strs, max_message_len), strs)


def _checked_texts(x: FiniteCode, max_message_len: int) -> list[str]:
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    if max_message_len < 1:
        raise PreconditionError("the message length bound must be at least 1")
    return sorted({w.text for w in x.words})


def _message_counts(strs: Sequence[str], max_message_len: int) -> list[dict[str, int]]:
    """The messages of each length up to the bound, with their numbers of
    factorizations."""
    by_len: list[dict[str, int]] = [dict() for _ in range(max_message_len + 1)]
    by_len[0][""] = 1
    for length in range(max_message_len):
        for m, c in by_len[length].items():
            for w in strs:
                l2 = length + len(w)
                if l2 <= max_message_len:
                    layer = by_len[l2]
                    m2 = m + w
                    layer[m2] = layer.get(m2, 0) + c
    return by_len


def _relations(counts: list[dict[str, int]], strs: Sequence[str]) -> set[tuple[tuple[str, ...], tuple[str, ...], str]]:
    """The prime relations of the ambiguous messages among ``counts``,
    oriented as in :func:`brute_force_relations`."""
    rels = set()
    for layer in counts[1:]:
        for m, c in layer.items():
            if c < 2:
                continue
            for parts_a, parts_b in _prime_pairs_of_message(m, strs):
                if _cuts(parts_a) & _cuts(parts_b):  # defensive: primality re-check
                    continue
                rels.add((parts_a, parts_b, m) if len(parts_a[0]) < len(parts_b[0]) else (parts_b, parts_a, m))
    return rels


def _cuts(parts: Sequence[str]) -> frozenset[int]:
    out = set()
    pos = 0
    for p in parts[:-1]:
        pos += len(p)
        out.add(pos)
    return frozenset(out)


def _prime_pairs_of_message(m: str, strs: Sequence[str]):
    """Pairs of factorizations of one message whose interior cut sets are
    disjoint (candidate prime relations)."""
    n = len(m)
    pairs = []

    def go(i: int, j: int, behind: tuple[str, ...], ahead: tuple[str, ...]):
        for w in strs:
            k = i + len(w)
            if k > n or not m.startswith(w, i):
                continue
            if k < j:
                go(k, j, behind + (w,), ahead)
            elif k == j:
                if k == n:
                    pairs.append((behind + (w,), ahead))
                # interior coincidence: not prime, prune
            else:
                go(j, k, ahead, behind + (w,))

    for w1 in strs:
        if not m.startswith(w1):
            continue
        for w2 in strs:
            if w2 != w1 and len(w1) < len(w2) and m.startswith(w2):
                go(len(w1), len(w2), (w1,), (w2,))
    return pairs
