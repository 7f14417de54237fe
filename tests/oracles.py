"""Test-only helpers: a bounded brute-force oracle for finite codes,
a bounded word enumerator for acceptors, and an audit bound for the
co-occurrence analysis.

The brute-force oracle shares no code with the exact analyses in
``partfact.finite_code``, so the tests can use it as independent ground
truth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from partfact import FiniteCode, PreconditionError, Word
from partfact.finite_code import _SuffixGraph
from partfact.fsa import Fsa, eliminate_epsilon


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


def cooccurrence_witness_bound(x: FiniteCode, u: Word, v: Word) -> Optional[int]:
    """Length of the shortest prime-relation message containing both
    words, or None when the pair never co-occurs. Audit helper for the
    exactness of ``characteristic_partition``."""
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    return _SuffixGraph(x).min_message_length((u.text, v.text))


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
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    if max_message_len < 1:
        raise PreconditionError("the message length bound must be at least 1")
    strs = sorted({w.text for w in x.words})

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

    ud = True
    ambiguous = []
    for length in range(1, max_message_len + 1):
        for m, c in by_len[length].items():
            if c >= 2:
                ud = False
                ambiguous.append(m)

    merge_texts: set[tuple[str, str]] = set()
    for m in ambiguous:
        for parts_a, parts_b in _prime_pairs_of_message(m, strs):
            cuts_a = _cuts(parts_a)
            cuts_b = _cuts(parts_b)
            if cuts_a & cuts_b:  # defensive: primality re-check
                continue
            support = sorted(set(parts_a) | set(parts_b))
            for i, u in enumerate(support):
                for v in support[i + 1:]:
                    merge_texts.add((u, v))

    merges = set()
    for u, v in merge_texts:
        wu, wv = x.alphabet.word(u), x.alphabet.word(v)
        merges.add((wu, wv) if wu < wv else (wv, wu))
    return ud, merges


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
