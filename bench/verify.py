"""Answer checks that do not call partfact.

Every function here works on plain strings, sets and the raw transition
table of an acceptor, so a bug in the library cannot hide behind itself.
A failed check raises :class:`WrongAnswer`.
"""

from __future__ import annotations

from collections.abc import Iterable


class WrongAnswer(Exception):
    """The library returned an answer that the independent check refutes."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def count_factorizations(message: str, words: Iterable[str], cap: int = 2) -> int:
    """Number of ways to split ``message`` into words of the set, saturating
    at ``cap``. The empty message has exactly one (empty) factorization."""
    ws = set(words)
    lengths = sorted({len(w) for w in ws})
    ways = [0] * (len(message) + 1)
    ways[0] = 1
    for i in range(len(message)):
        if not ways[i]:
            continue
        for k in lengths:
            if i + k <= len(message) and message[i:i + k] in ws:
                ways[i + k] = min(cap, ways[i + k] + ways[i])
    return ways[len(message)]


def interior_cuts(parts: Iterable[str]) -> set[int]:
    cuts, pos = set(), 0
    parts = list(parts)
    for p in parts[:-1]:
        pos += len(p)
        cuts.add(pos)
    return cuts


def check_relation(left: list[str], right: list[str], message: str, words: set[str]) -> None:
    """Two distinct factorizations of one message into code words that
    share no intermediate cut (a prime relation)."""
    require(left != right, f"relation sides are equal: {left}")
    for side in (left, right):
        require("".join(side) == message, f"{side} does not spell {message!r}")
        require(all(p in words for p in side), f"{side} uses a non-code word")
    require(not interior_cuts(left) & interior_cuts(right), f"{left} = {right} is not prime")


def check_ambiguous(message: str, words: set[str]) -> None:
    require(bool(message), "an ambiguous message must be nonempty")
    require(count_factorizations(message, words) >= 2,
            f"{message!r} does not have two factorizations")


def check_block_factorization(message: str, blocks: list[tuple[int, str]],
                              classes: list[set[str]]) -> None:
    """Blocks spell the message, alternate classes, and each block is a
    product of words of its class."""
    require("".join(b for _k, b in blocks) == message, "blocks do not spell the message")
    ks = [k for k, _b in blocks]
    require(all(a != b for a, b in zip(ks, ks[1:])), f"adjacent blocks share a class: {ks}")
    for k, b in blocks:
        require(bool(b) and count_factorizations(b, classes[k], cap=1) >= 1,
                f"block {b!r} is not a product of class {k}")


def as_classes(classes) -> set[frozenset[str]]:
    """A partition's classes as a set of frozensets of word texts."""
    return {frozenset(w.text if hasattr(w, "text") else w for w in c) for c in classes}


def check_partition_of(classes: set[frozenset[str]], words: set[str]) -> None:
    seen: set[str] = set()
    for c in classes:
        require(bool(c), "empty class")
        require(not (c & seen), "classes overlap")
        seen |= c
    require(seen == words, "classes do not cover the code exactly")


def same_class(classes: set[frozenset[str]], group: Iterable[str]) -> bool:
    group = set(group)
    return any(group <= c for c in classes)


def meet(p1: set[frozenset[str]], p2: set[frozenset[str]]) -> set[frozenset[str]]:
    """Finest common coarsening: components of the class-overlap graph."""
    parent: dict[str, str] = {}

    def find(w: str) -> str:
        while parent.setdefault(w, w) != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for c in list(p1) + list(p2):
        first, *rest = sorted(c)
        for w in rest:
            parent[find(w)] = find(first)
    groups: dict[str, set[str]] = {}
    for c in p1:
        for w in c:
            groups.setdefault(find(w), set()).add(w)
    return {frozenset(g) for g in groups.values()}


def common_refinement(p1: set[frozenset[str]], p2: set[frozenset[str]]) -> set[frozenset[str]]:
    return {a & b for a in p1 for b in p2 if a & b}


def nfa_accepts(f, text: str) -> bool:
    """Membership by direct simulation of the raw transition table."""
    eps: dict[int, list[int]] = {}
    sym: dict[tuple[int, str], list[int]] = {}
    for p, a, q in f.transitions:
        if a is None:
            eps.setdefault(p, []).append(q)
        else:
            sym.setdefault((p, a), []).append(q)

    def close(states: set[int]) -> set[int]:
        stack = list(states)
        while stack:
            for q in eps.get(stack.pop(), ()):
                if q not in states:
                    states.add(q)
                    stack.append(q)
        return states

    current = close(set(f.initial))
    for c in text:
        current = close({q for p in current for q in sym.get((p, c), ())})
        if not current:
            return False
    return bool(current & set(f.accepting))


def _blowup_prefixes(u: str, n: int) -> list[bool]:
    """ok[j]: u[:j] is a product of words whose (n+1)-th letter from the
    end is ``a``, i.e. lies in ((a|b)*a(a|b)^n)*."""
    ok = [False] * (len(u) + 1)
    ok[0] = True
    seen = [True] + [False] * len(u)        # seen[i]: some ok[h] with h <= i
    for j in range(1, len(u) + 1):
        i = j - n - 1
        ok[j] = i >= 0 and u[i] == "a" and seen[i]
        seen[j] = seen[j - 1] or ok[j]
    return ok


def in_blowup_base(u: str, n: int) -> bool:
    """u is in the base of ((a|b)*a(a|b)^n)*: a nonempty element that is
    not the product of two nonempty elements."""
    if not u:
        return False
    prefix = _blowup_prefixes(u, n)
    mirrored = _blowup_prefixes_from_right(u, n)
    return prefix[len(u)] and not any(prefix[i] and mirrored[i] for i in range(1, len(u)))


def _blowup_prefixes_from_right(u: str, n: int) -> list[bool]:
    """ok[i]: u[i:] lies in ((a|b)*a(a|b)^n)*."""
    size = len(u)
    ok = [False] * (size + 1)
    ok[size] = True
    # ends_from[j]: some piece may end at a cut j' >= j with ok[j']
    ends_from = [False] * (size + 2)
    for i in range(size, -1, -1):
        if i < size:
            ok[i] = i + n + 1 <= size and ends_from[i + n + 1]
        ends_here = i >= n + 1 and u[i - n - 1] == "a" and ok[i]
        ends_from[i] = ends_from[i + 1] or ends_here
    return ok


def in_prefix_family(u: str, n: int) -> bool:
    """u is in b*a(a|b)^n."""
    i = u.find("a")
    return i >= 0 and set(u[:i]) <= {"b"} and len(u) - i - 1 == n
