"""Finite-state acceptor engine.

Acceptors are nondeterministic, may carry spontaneous (label ``None``)
transitions, and are immutable once built: every operation allocates a
fresh result, so concurrent use is safe.

The subset and product constructions read a view of each operand on its
own state numbers, built in one pass, and build no spontaneous-move-free
acceptor (that is :func:`eliminate_epsilon`, the view renumbered); acceptors
side by side are read on their views offset, with no union built. They
number each subset, an int, when first reached and step it on each symbol once.
``difference`` and the comparisons (``includes``, ``is_universal``,
``shortest_word``) are one breadth-first walk of (state, subset) pairs
with a parent link per pair, ``equivalent`` a Hopcroft-Karp walk of
subset pairs; they stop at their first counterexample, and a subset that
holds a universal position collapses to it. :func:`minimize` is
Hopcroft's refinement of :func:`determinize`'s subset loop, which also
builds the DFA of one operand minus another. Constructions that can blow
up abort with :class:`StateCapExceededError` once they would allocate
more states than the configured cap, naming the construction (``Fsa``,
``determinize``, ``intersection``, ``difference`` for the walk and for
the DFA of a difference, ``includes``, ``equivalent``, ``shortest_word``,
and ``factorizations`` for the pair walk of ``regular``).

``concat`` and ``union`` build the binary left fold of any number of
operands in one pass, as :func:`regex_to_fsa` folds each group: a word
of n letters compiles in linear time."""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from itertools import chain
from typing import Iterable, Optional

from .errors import (
    AlphabetMismatchError,
    InputError,
    PreconditionError,
    RegexSyntaxError,
    StateCapExceededError,
)
from .words import Alphabet, Word, _Frozen, _require_same_alphabet

DEFAULT_STATE_CAP = 100_000

_state_cap = DEFAULT_STATE_CAP


def state_cap() -> int:
    """Current limit on states allocated by a single construction."""
    return _state_cap


def set_state_cap(cap: int) -> None:
    global _state_cap
    if cap < 1:
        raise InputError("state cap must be positive")
    _state_cap = cap


def _check_cap(n: int, construction: str) -> None:
    if n > _state_cap:
        raise StateCapExceededError(f"{construction} needs more than {_state_cap} states")


class _States(frozenset):
    """A set of states that iterates in ascending order."""

    __slots__ = ()

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self)))


class Fsa(_Frozen):
    """Finite-state acceptor over a fixed alphabet.

    ``transitions`` is a sequence of ``(src, label, dst)`` triples where
    ``label`` is a single alphabet symbol or ``None`` for a spontaneous
    move. States are the integers ``0 .. n_states-1``. ``initial`` and
    ``accepting`` are frozensets that iterate in ascending order. Parallel
    duplicate transitions are kept: the run-counting oracle of the tests
    (``tests/oracles.py``) counts each one as a distinct run step.
    """

    __slots__ = ("alphabet", "n_states", "transitions", "initial", "accepting")

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        transitions: Iterable[tuple[int, Optional[str], int]],
        initial: Iterable[int],
        accepting: Iterable[int],
    ):
        _check_cap(n_states, "Fsa")
        trans = tuple(transitions)
        init = _States(initial)
        acc = _States(accepting)
        symbols = alphabet._rank
        for p, a, q in trans:
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise InputError(f"transition ({p},{a!r},{q}) references a state out of range")
            if a is not None and a not in symbols:
                raise InputError(f"transition symbol {a!r} is not in alphabet {alphabet}")
        for s in init | acc:
            if not 0 <= s < n_states:
                raise InputError(f"state {s} out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "accepting", acc)

    def adjacency(self) -> dict[int, list[tuple[Optional[str], int]]]:
        """state -> list of (label, dst), duplicates kept."""
        adj: dict[int, list[tuple[Optional[str], int]]] = {s: [] for s in range(self.n_states)}
        for p, a, q in self.transitions:
            adj[p].append((a, q))
        return adj

    def __repr__(self) -> str:
        return (
            f"Fsa(states={self.n_states}, transitions={len(self.transitions)}, "
            f"initial={list(self.initial)}, accepting={list(self.accepting)})"
        )


# ---------------------------------------------------------------------------
# Elementary acceptors


def empty_fsa(alphabet: Alphabet) -> Fsa:
    return Fsa(alphabet, 0, (), (), ())


def epsilon_fsa(alphabet: Alphabet) -> Fsa:
    return Fsa(alphabet, 1, (), (0,), (0,))


def word_fsa(word: Word) -> Fsa:
    trans = [(i, c, i + 1) for i, c in enumerate(word.text)]
    return Fsa(word.alphabet, len(word.text) + 1, trans, (0,), (len(word.text),))


def word_set_fsa(alphabet: Alphabet, words: Iterable[Word]) -> Fsa:
    """Trie acceptor for a finite set of words (deterministic)."""
    child: dict[tuple[int, str], int] = {}  # (state, symbol) -> the state it moves to
    trans = []
    accepting = set()
    for w in sorted(set(words)):
        if w.alphabet != alphabet:
            raise AlphabetMismatchError(f"word {w!r} is not over alphabet {alphabet}")
        node = 0
        for c in w.text:
            nxt = child.get((node, c))
            if nxt is None:
                nxt = child[(node, c)] = len(trans) + 1
                trans.append((node, c, nxt))
            node = nxt
        accepting.add(node)
    return Fsa(alphabet, len(trans) + 1, trans, (0,), accepting)


def full_language_fsa(alphabet: Alphabet) -> Fsa:
    """Acceptor for every word over the alphabet."""
    return Fsa(alphabet, 1, tuple((0, c, 0) for c in alphabet), (0,), (0,))


# ---------------------------------------------------------------------------
# Graph traversals shared by the automaton and finite-code layers. They
# keep their own stacks, so no recursion depth grows with the input.


def _reachable(seeds: Iterable, succ) -> set:
    """The seeds and every node reachable from them; ``succ[p]`` lists
    the successors of ``p``."""
    seen = set()
    stack = list(seeds)
    while stack:
        p = stack.pop()
        if p not in seen:
            seen.add(p)
            stack.extend(succ[p])
    return seen


def _postorder(roots: Iterable, succ) -> Optional[list]:
    """Depth-first search from each unvisited root in turn, successors in
    ``succ[p]`` order. Returns the post-order, or None when some node lies
    on a cycle."""
    done: dict = {}  # node -> False while on the stack, True once finished
    order = []
    for root in roots:
        if root in done:
            continue
        done[root] = False
        stack = [(root, iter(succ[root]))]
        while stack:
            p, it = stack[-1]
            for q in it:
                if q not in done:
                    done[q] = False
                    stack.append((q, iter(succ[q])))
                    break
                if not done[q]:
                    return None
            else:
                done[p] = True
                order.append(p)
                stack.pop()
    return order


def _spell(links, node) -> str:
    """The word that reached ``node``, read back along parent links."""
    labels = []
    while node is not None:
        node, label = links[node]
        labels.append(label)
    return "".join(reversed(labels))


class _View:
    """The spontaneous-move-free view of an acceptor on its own state
    numbers: ``states``, ``initial`` and ``accepting`` hold the useful
    positions, and ``rows[c][p]`` lists in ascending order, once each, the
    useful positions that ``p``'s closure reaches by a move on ``c``. A
    walk from the initial states closes each position and records its
    predecessors; a walk back from those that accept keeps the useful ones."""

    __slots__ = ("states", "initial", "accepting", "rows")

    def __init__(self, f: Fsa):
        eps, out = [[] for _ in range(f.n_states)], [[] for _ in range(f.n_states)]  # spontaneous, symbol moves
        for p, a, q in f.transitions:
            (out if a is not None else eps)[p].append((a, q))
        moves, ends, todo = {}, [], list(f.initial)  # moves: position -> the moves of its closure
        preds = [[] for _ in range(f.n_states)]
        for p in todo:  # grows as it goes
            if p in moves:
                continue
            moves[p] = mine = []
            closure, stack = {p}, [p]
            while stack:
                s = stack.pop()
                mine += out[s]
                for _none, t in eps[s]:
                    if t not in closure:
                        closure.add(t)
                        stack.append(t)
            if not f.accepting.isdisjoint(closure):
                ends.append(p)
            for _a, q in mine:
                preds[q].append(p)
                if q not in moves:
                    todo.append(q)
        useful = _reachable(ends, preds)
        self.states = sorted(useful)
        self.initial = [s for s in f.initial if s in useful]
        self.accepting = set(ends)
        self.rows = rows = {c: [[] for _ in range(f.n_states)] for c in f.alphabet.symbols}
        for p in self.states:
            mine = moves[p]
            for a, q in sorted(set(mine)) if len(mine) > 1 else mine:
                if q in useful:
                    rows[a][p].append(q)


def _beside(alphabet: Alphabet, parts) -> _View:
    """The view of the :func:`union` of acceptors side by side, from an
    ``(n_states, part)`` per acceptor: its view, or the :class:`Fsa`
    arguments of its sink-free subset construction, all of whose states
    are useful."""
    v = _View.__new__(_View)
    v.states, v.initial, v.accepting = [], [], set()
    v.rows = rows = {c: [[] for _ in range(sum(n for n, _part in parts))] for c in alphabet.symbols}
    n = 0
    for size, part in parts:
        if isinstance(part, _View):
            states, initial, accepting = part.states, part.initial, part.accepting
            moves = ((p, c, q) for c, row in part.rows.items() for p in states for q in row[p])
        else:
            states, (_alphabet, _n, moves, initial, accepting) = range(size), part
        v.states += [p + n for p in states]
        v.initial += [p + n for p in initial]
        v.accepting.update(p + n for p in accepting)
        for p, c, q in moves:
            rows[c][p + n].append(q + n)
        n += size
    return v


def _meets(subset: int, mask: int) -> bool:
    """Whether the subset holds a position of the bitmask ``mask``."""
    return bool(mask >> ~subset & 1 if subset < 0 else subset & mask)


class _Subsets:
    """A view's subsets as ints: the subset of one position ``states[r]``
    is ``~r``, any other the bitmask with bit ``r`` for each position
    ``states[r]``, so a deterministic view's subsets stay small however
    many positions it has. They are numbered when first reached: the sink
    (0) as 0, the initial one as ``start``. ``sets[i]`` is subset ``i``,
    ``mask`` the bitmask of the accepting positions, and ``step(i, c)``
    the number ``i`` reaches on ``c``: its position's targets, or the OR
    of its positions' targets, bit by bit for up to four positions (or one
    per four bytes of a wide view), else per byte. With ``collapse``, each
    subset holding a universal position is the least one: all accept every word."""

    __slots__ = ("mask", "universal", "start", "sets", "step")

    def __init__(self, v: _View, collapse: bool = False):
        rank = {p: r for r, p in enumerate(v.states)}

        def key(positions) -> int:
            ranks = [rank[p] for p in positions]
            t = ~ranks[0] if len(ranks) == 1 else sum(1 << r for r in ranks)
            return least if universal and _meets(t, universal) else t

        self.mask = sum(1 << rank[p] for p in v.accepting)
        self.universal = universal = 0
        if collapse:  # the greatest set of accepting positions with a target inside on every symbol
            rows, k = list(v.rows.values()), len(v.rows)
            left = [len(row[p]) for p in v.states for row in rows]  # targets per (position, symbol)
            preds = [[] for _ in v.states]
            for e, (p, row) in enumerate((p, row) for p in v.states for row in rows):
                for q in row[p]:
                    preds[rank[q]].append(e)
            inside = [p in v.accepting and 0 not in left[r * k:r * k + k] for r, p in enumerate(v.states)]
            out = [r for r, kept in enumerate(inside) if not kept]
            for q in out:  # grows as it goes
                for e in preds[q]:
                    left[e] -= 1
                    if not left[e] and inside[e // k]:
                        inside[e // k] = False
                        out.append(e // k)
            self.universal = universal = sum(1 << r for r, kept in enumerate(inside) if kept)
        least = ~((universal & -universal).bit_length() - 1)
        index = {0: 0}
        self.start = index.setdefault(key(v.initial), 1)
        self.sets = sets = list(index)  # the sink, then the initial subset unless empty
        n_bytes = (len(v.states) + 7) // 8
        few = max(4, n_bytes // 4)  # a subset this small steps bit by bit
        succ = {  # symbol -> (memo, targets of each position as a subset, OR table per byte of a subset)
            c: ({}, [key(out) if out else 0 for out in map(row.__getitem__, v.states)], [None] * n_bytes)
            for c, row in v.rows.items()
        }

        # step reads no attribute: no cycle keeps the subsets of a walk alive
        def step(i: int, c: str) -> int:
            memo, targets, tables = succ[c]
            j = memo.get(i)
            if j is None:
                s = sets[i]
                if s < 0:
                    t = targets[~s]
                else:
                    t = 0
                    if s.bit_count() <= few:
                        while s:
                            r = s.bit_length() - 1
                            u = targets[r]
                            t |= 1 << ~u if u < 0 else u
                            s ^= 1 << r
                    else:
                        for k, byte in enumerate(s.to_bytes(n_bytes, "little")):
                            if byte:
                                table = tables[k]
                                if table is None:
                                    table = tables[k] = [None] * 256
                                u = table[byte]
                                if u is None:
                                    u = 0
                                    for r in range(8 * k, 8 * k + byte.bit_length()):
                                        if byte >> r - 8 * k & 1:
                                            u |= 1 << ~targets[r] if targets[r] < 0 else targets[r]
                                    table[byte] = u
                                t |= u
                    if t and not t & t - 1:  # one position
                        t = ~(t.bit_length() - 1)
                t = least if universal and _meets(t, universal) else t
                j = memo[i] = index.setdefault(t, len(sets))
                if j == len(sets):
                    sets.append(t)
            return j

        self.step = step


def _product(a: _View, b, construction: str, moves: Optional[list] = None):
    """Breadth-first lockstep walk of the view ``a`` against the subsets
    ``b`` or the positions of the view ``b``. Yields each pair ``(state,
    node)`` when first reached, with its parent link: the number of the
    pair and the symbol that reached it (``None, ""`` at the start). The
    pairs first reached by one word are expanded together, a symbol at a
    time, so pairs are numbered in shortlex order of their words; ``moves``
    collects the numbered moves; ``construction`` names the caller in a cap
    error. A pair is keyed ``node * width + state``."""
    step = b.step if isinstance(b, _Subsets) else None
    width = a.states[-1] + 1 if a.states else 1
    index: dict = {}
    group = [s * width + p for p in a.initial for s in ((b.start,) if step else b.initial)]
    for key in group:
        _check_cap(len(index) + 1, construction)
        index[key] = len(index)
        yield key % width, key // width, None, ""
    queue = deque([group])
    while queue:
        group = queue.popleft()
        for c, row in a.rows.items():  # declared order gives shortlex
            fresh = []
            for src in group:
                targets = row[src % width]
                if not targets:
                    continue
                i = index[src]
                if step:
                    offset = step(src // width, c) * width
                else:  # the keys, targets outer as in itertools.product
                    offset, targets = 0, [n * width + q for q in targets for n in b.rows[c][src // width]]
                for q in targets:
                    key = offset + q
                    j = index.get(key)
                    if j is None:
                        _check_cap(len(index) + 1, construction)
                        j = index[key] = len(index)
                        fresh.append(key)
                        yield key % width, key // width, i, c
                    if moves is not None:
                        moves.append((i, c, j))
            if fresh:
                queue.append(fresh)


def _subset_walk(l: Fsa, r: Fsa, construction: str, moves: Optional[list] = None):
    """The walk of ``l`` against the subsets of ``r``: each pair's parent
    link and whether its state accepts in ``l`` and its subset rejects."""
    _require_same_alphabet(l.alphabet, r.alphabet)
    a, b = _View(l), _Subsets(_View(r), collapse=True)
    for p, s, i, c in _product(a, b, construction, moves):
        yield i, c, p in a.accepting and not _meets(b.sets[s], b.mask)


# ---------------------------------------------------------------------------
# Simulation and structural cleanup


def accepts(f: Fsa, word) -> bool:
    """Membership test; ``word`` may be a Word or a plain string."""
    text = word.text if isinstance(word, Word) else word
    for c in text:
        if c not in f.alphabet:
            raise InputError(f"symbol {c!r} is not in alphabet {f.alphabet}")
    adj = f.adjacency()
    eps = [[q for a, q in adj[p] if a is None] for p in range(f.n_states)]
    current = _reachable(f.initial, eps)
    for c in text:
        nxt = {q for p in current for a, q in adj[p] if a == c}
        if not nxt:
            return False
        current = _reachable(nxt, eps)
    return bool(current & f.accepting)


def trim(f: Fsa) -> Fsa:
    """Restrict to states both reachable and co-reachable.

    Preserves parallel duplicate transitions, so run multiplicities of
    the kept states are untouched.
    """
    succ, pred = [[] for _ in range(f.n_states)], [[] for _ in range(f.n_states)]
    for p, _a, q in f.transitions:
        succ[p].append(q)
        pred[q].append(p)
    useful = _reachable(f.initial, succ) & _reachable(f.accepting, pred)
    order = sorted(useful)
    index = {s: i for i, s in enumerate(order)}
    trans = [(index[p], a, index[q]) for p, a, q in f.transitions if p in useful and q in useful]
    return Fsa(
        f.alphabet,
        len(order),
        trans,
        (index[s] for s in f.initial if s in useful),
        (index[s] for s in f.accepting if s in useful),
    )


def eliminate_epsilon(f: Fsa) -> Fsa:
    """Equivalent spontaneous-move-free acceptor (language only; run
    multiplicities are not preserved): the view, renumbered."""
    v = _View(f)
    number = {s: i for i, s in enumerate(v.states)}
    trans = [(number[p], c, number[q]) for p in v.states for c in sorted(v.rows) for q in v.rows[c][p]]
    return Fsa(f.alphabet, len(number), trans, map(number.get, v.initial), map(number.get, v.accepting))


def _subset_dfa(l: Fsa, r: Optional[Fsa] = None, limit: Optional[int] = None) -> Optional[tuple]:
    """The :class:`Fsa` arguments of the subset construction of ``l``, or
    of ``l`` beside ``r`` for ``l`` minus ``r``, breadth first, no sink, or
    None past ``limit`` states: a subset accepts when it holds an accepting
    position of ``l`` and none of ``r``; one with no position of ``l`` is dead."""
    v = _View(l if r is None else union(l, r))
    subsets = _Subsets(v)
    own = (1 << bisect_left(v.states, l.n_states)) - 1  # the positions of l
    keep, drop = subsets.mask & own, subsets.mask & ~own
    construction = "determinize" if r is None else "difference"
    symbols, sets, step = l.alphabet.symbols, subsets.sets, subsets.step
    trans = []
    i = 1
    while i < len(sets):  # subset i is state i - 1
        for c in symbols:
            j = step(i, c)
            if j:
                trans.append((i - 1, c, j - 1))
        if limit is not None and len(sets) - 1 > limit:
            return None
        _check_cap(len(sets) - 1, construction)
        i += 1
    accepting = [i - 1 for i, s in enumerate(sets) if _meets(s, keep) and not _meets(s, drop)]
    return l.alphabet, len(sets) - 1, trans, (0,) if subsets.start else (), accepting


def determinize(f: Fsa) -> Fsa:
    """Subset construction, states numbered breadth first. A subset with
    no move on a symbol gets no transition on it: there is no sink."""
    return Fsa(*_subset_dfa(f))


def minimize(f: Fsa) -> Fsa:
    """Minimal trimmed DFA for the language."""
    d = determinize(f)
    return _hopcroft(d.alphabet, d.n_states, d.transitions, d.initial, d.accepting)


def _hopcroft(alphabet: Alphabet, n: int, transitions, initial, accepting) -> Fsa:
    """Hopcroft's refinement (Valmari, "Fast brief practical DFA
    minimization", 2012) of a partial DFA without repeated transitions,
    given as the arguments of an :class:`Fsa`, in O(m log n) for m moves
    and n states. A missing move, or one into a state that reaches no
    acceptance, leads into an implicit sink block that never splits
    another block. The blocks are numbered by their least states, so the
    result does not depend on the order of the splits."""
    preds = [[[] for _ in range(n)] for _ in alphabet.symbols]
    for p, a, q in transitions:
        preds[alphabet._rank[a]][q].append(p)
    # block -1 holds the dead states; the live ones start in blocks 0 (accepting) and 1
    live, block = list(accepting), [-1] * n
    for s in live:
        block[s] = 0
    for q in live:  # grows as it goes
        for row in preds:
            for p in row[q]:
                if block[p] < 0:
                    block[p] = 1
                    live.append(p)
    members: list[set[int]] = [set(part) for part in (accepting, live[len(accepting):]) if part]
    # Both starting blocks wait. The part split off a block is never the
    # larger one, and it waits whether or not the block still does.
    waiting = list(range(len(members)))
    while waiting:
        splitter = list(members[waiting.pop()])
        for row in preds:
            touched = defaultdict(list)
            for p in chain.from_iterable(map(row.__getitem__, splitter)):
                touched[block[p]].append(p)
            for b, inside in touched.items():
                kept = members[b]
                if len(inside) == len(kept):
                    continue
                if 2 * len(inside) <= len(kept):
                    kept.difference_update(inside)
                    part = set(inside)
                else:
                    part = kept.difference(inside)
                    members[b] = set(inside)
                for s in part:
                    block[s] = len(members)
                waiting.append(len(members))
                members.append(part)
    number: dict[int, int] = {-1: -1}
    for b in block:
        number.setdefault(b, len(number) - 1)
    cls = [number[b] for b in block]
    trans = sorted({(cls[p], a, cls[q]) for p, a, q in transitions if cls[q] >= 0})
    init = {cls[s] for s in initial if cls[s] >= 0}
    return Fsa(alphabet, len(number) - 1, trans, init, map(cls.__getitem__, accepting))


# ---------------------------------------------------------------------------
# Boolean and monoid combinations


def union(first: Fsa, *rest: Fsa) -> Fsa:
    """Union of the operands side by side, each numbered after the ones
    before it; one pass equal to the binary left fold."""
    if not rest:
        return first
    n, trans, init, acc = first.n_states, list(first.transitions), list(first.initial), list(first.accepting)
    for f in rest:
        _require_same_alphabet(first.alphabet, f.alphabet)
        trans += [(p + n, a, q + n) for p, a, q in f.transitions]
        init += [s + n for s in f.initial]
        acc += [s + n for s in f.accepting]
        n += f.n_states
    return Fsa(first.alphabet, n, trans, init, acc)


def intersection(l: Fsa, r: Fsa) -> Fsa:
    _require_same_alphabet(l.alphabet, r.alphabet)
    a, b = _View(l), _View(r)
    moves: list = []
    pairs = [(p, q) for p, q, _i, _c in _product(a, b, "intersection", moves)]
    acc = [i for i, (p, q) in enumerate(pairs) if p in a.accepting and q in b.accepting]
    return trim(Fsa(l.alphabet, len(pairs), moves, range(len(a.initial) * len(b.initial)), acc))


def difference(l: Fsa, r: Fsa) -> Fsa:
    moves: list = []
    walk = list(_subset_walk(l, r, "difference", moves))
    init = [i for i, (parent, _c, _witness) in enumerate(walk) if parent is None]
    acc = [i for i, (_parent, _c, witness) in enumerate(walk) if witness]
    return trim(Fsa(l.alphabet, len(walk), moves, init, acc))


def concat(first: Fsa, *rest: Fsa) -> Fsa:
    """Concatenation of the operands, numbered as in :func:`union`; one
    pass equal to the binary left fold."""
    if not rest:
        return first
    n, trans, acc = first.n_states, list(first.transitions), first.accepting
    for f in rest:
        _require_same_alphabet(first.alphabet, f.alphabet)
        trans += [(p + n, a, q + n) for p, a, q in f.transitions]
        trans += [(p, None, q + n) for p in acc for q in f.initial]
        acc = [s + n for s in f.accepting]
        n += f.n_states
    return Fsa(first.alphabet, n, trans, first.initial, acc)


def star(f: Fsa) -> Fsa:
    hub = f.n_states
    trans = list(f.transitions)
    trans += [(hub, None, q) for q in f.initial]
    trans += [(p, None, hub) for p in f.accepting]
    return Fsa(f.alphabet, f.n_states + 1, trans, (hub,), (hub,))


def plus(f: Fsa) -> Fsa:
    trans = list(f.transitions)
    trans += [(p, None, q) for p in f.accepting for q in f.initial]
    return Fsa(f.alphabet, f.n_states, trans, f.initial, f.accepting)


def reverse(f: Fsa) -> Fsa:
    """Acceptor for the mirror images of the accepted words."""
    return Fsa(f.alphabet, f.n_states, ((q, a, p) for p, a, q in f.transitions), f.accepting, f.initial)


def factor_closure(f: Fsa) -> Fsa:
    """Acceptor for every factor of every accepted word."""
    g = trim(f)
    everything = range(g.n_states)
    return Fsa(g.alphabet, g.n_states, g.transitions, everything, everything)


# ---------------------------------------------------------------------------
# Decision procedures


def is_empty(f: Fsa) -> bool:
    return trim(f).n_states == 0


def is_universal(f: Fsa) -> bool:
    return includes(f, full_language_fsa(f.alphabet))


def includes(l: Fsa, r: Fsa) -> bool:
    """True iff the language of ``l`` contains the language of ``r``."""
    return not any(witness for _i, _c, witness in _subset_walk(r, l, "includes"))


def equivalent(l: Fsa, r: Fsa) -> bool:
    """True iff ``l`` and ``r`` accept the same words."""
    _require_same_alphabet(l.alphabet, r.alphabet)
    return _same_words(_View(l), _View(r))


def _same_words(l: _View, r: _View) -> bool:
    """Hopcroft and Karp's breadth-first walk of (subset of ``l``, subset of
    ``r``) pairs, skipping pairs already merged by union-find, to the first
    pair where only one side accepts; the cap counts each side's subsets."""
    a, b = _Subsets(l, collapse=True), _Subsets(r, collapse=True)
    parent: dict = {}  # l's subset i is node i, r's subset j node ~j; roots have no entry

    def find(x: int) -> int:
        while x in parent:  # halving the path as it goes
            parent[x] = x = parent.get(parent[x], parent[x])
        return x

    def reach(i: int, j: int) -> bool:  # queues the pair; whether only one side accepts
        pairs.append((i, j))
        return _meets(a.sets[i], a.mask) != _meets(b.sets[j], b.mask)

    pairs: list = []
    if reach(a.start, b.start):
        return False
    for i, j in pairs:  # grows as it goes
        x, y = find(i), find(~j)
        if x != y:
            parent[x] = y
            if any(reach(a.step(i, c), b.step(j, c)) for c in l.rows):
                return False
            _check_cap(max(len(a.sets), len(b.sets)) - 1, "equivalent")
    return True


def shortest_word(f: Fsa, excluded: Optional[Fsa] = None) -> Optional[Word]:
    """Shortlex-least word accepted by ``f`` and not by ``excluded``, or
    None when there is none. The walk stops at that word."""
    links = []
    for i, c, witness in _subset_walk(f, empty_fsa(f.alphabet) if excluded is None else excluded, "shortest_word"):
        links.append((i, c))
        if witness:
            return Word(f.alphabet, _spell(links, len(links) - 1))
    return None


def enumerate_finite_language(f: Fsa) -> list[Word]:
    """All accepted words of a finite language, shortlex-sorted.

    Raises :class:`PreconditionError` when the trimmed acceptor has a
    cycle, i.e. the language is infinite.
    """
    g = eliminate_epsilon(f)
    adj = g.adjacency()
    order = _postorder(range(g.n_states), [[q for _a, q in adj[s]] for s in range(g.n_states)])
    if order is None:
        raise PreconditionError("language is infinite (acceptor has a cycle)")
    suffixes: dict[int, set[str]] = {}
    for s in order:  # reverse topological: successors first
        words = {""} if s in g.accepting else set()
        for a, q in adj[s]:
            words.update(a + w for w in suffixes[q])
        suffixes[s] = words
    texts = set()
    for s in g.initial:
        texts.update(suffixes[s])
    return sorted(Word(g.alphabet, t) for t in texts)


# ---------------------------------------------------------------------------
# Regex dialect: parsing and synthesis


def _require_regex_alphabet(alphabet: Alphabet, error: type) -> None:
    """Raise ``error`` when an alphabet symbol is an operator, ``_`` or
    whitespace, which no regex text can spell as a symbol."""
    reserved = "".join(s for s in alphabet.symbols if s in "|()*+_" or s.isspace())
    if reserved:
        raise error(f"symbols {reserved!r} of alphabet {alphabet} are reserved by the regex dialect")


def regex_to_fsa(expr: str, alphabet: Alphabet) -> Fsa:
    """Compile a regex in the library dialect to a trimmed acceptor.

    Dialect: single-character symbols, ``|`` union, juxtaposition,
    postfix ``*`` and ``+``, parentheses, ``_`` for the empty word;
    whitespace ignored; none of these can be a symbol (:class:`InputError`).
    """
    _require_regex_alphabet(alphabet, InputError)
    # One left-to-right pass. Each open group keeps its finished
    # alternatives and the factors of the current one; the factors are
    # folded where the alternative ends, the alternatives where the
    # group closes, so no recursion depth grows with the nesting.
    groups: list[tuple[list[Fsa], list[Fsa]]] = []
    alts: list[Fsa] = []
    factors: list[Fsa] = []
    pos = 0
    while True:
        while pos < len(expr) and expr[pos].isspace():
            pos += 1
        c = expr[pos] if pos < len(expr) else None
        if c is None or c in "|)":
            if not factors:
                raise RegexSyntaxError("expected a symbol, '(', or '_'", pos)
            alts.append(concat(*factors))
            factors = []
            if c != "|":
                node = union(*alts)
                if not groups:
                    if c is None:
                        return node
                    raise RegexSyntaxError(f"unexpected {c!r}", pos)
                if c is None:
                    raise RegexSyntaxError("expected ')'", pos)
                alts, factors = groups.pop()
                factors.append(node)
        elif c == "(":
            groups.append((alts, factors))
            alts, factors = [], []
        elif c == "_":
            factors.append(epsilon_fsa(alphabet))
        elif c in "*+":
            if not factors:  # nothing to repeat
                raise RegexSyntaxError(f"unexpected {c!r}", pos)
            factors[-1] = star(factors[-1]) if c == "*" else plus(factors[-1])
        elif c not in alphabet:
            raise RegexSyntaxError(f"symbol {c!r} is not in the alphabet", pos)
        else:
            factors.append(Fsa(alphabet, 2, ((0, c, 1),), (0,), (1,)))
        pos += 1


class _Terms:
    """The regex terms of one state elimination, hash-consed: each
    distinct term is an int indexing ``nodes``, so terms compare and hash
    in constant time however deeply they nest. None is the empty
    language. A node is ``("eps", None)``, ``("sym", c)``, ``("alt",
    parts)``, ``("cat", parts)`` or ``("star", x)``, with ``parts`` a
    tuple of terms; ``kids[t]`` lists the terms of node ``t``, and they
    are always smaller than ``t``."""

    EPS = 0

    def __init__(self):
        self.nodes: list[tuple] = [("eps", None)]
        self.kids: list[tuple] = [()]
        self.ids: dict[tuple, int] = {("eps", None): self.EPS}

    def make(self, kind: str, arg) -> int:
        node = (kind, arg)
        term = self.ids.get(node)
        if term is None:
            term = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
            self.kids.append(arg if kind in ("alt", "cat") else (arg,) if kind == "star" else ())
        return term

    def _parts(self, term: int, kind: str) -> tuple:
        node = self.nodes[term]
        return node[1] if node[0] == kind else (term,)

    def alt(self, a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None:
            return b
        if b is None:
            return a
        parts = tuple(dict.fromkeys(self._parts(a, "alt") + self._parts(b, "alt")))
        return parts[0] if len(parts) == 1 else self.make("alt", parts)

    def cat(self, a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None or b is None:
            return None
        if a == self.EPS:
            return b
        if b == self.EPS:
            return a
        return self.make("cat", self._parts(a, "cat") + self._parts(b, "cat"))

    def star(self, a: Optional[int]) -> int:
        if a is None or a == self.EPS:
            return self.EPS
        if self.nodes[a][0] == "star":
            return a
        return self.make("star", a)

    def render(self, root: int) -> str:
        """The dialect text of a term. Each term reachable from the root is
        rendered once, in ascending order, so its parts come first; a part
        is parenthesized where its operator binds looser than the one
        around it."""
        text: dict[int, str] = {}

        def grouped(term: int, looser: tuple) -> str:
            return f"({text[term]})" if self.nodes[term][0] in looser else text[term]

        for term in sorted(_reachable((root,), self.kids)):
            kind, arg = self.nodes[term]
            if kind == "eps":
                text[term] = "_"
            elif kind == "sym":
                text[term] = arg
            elif kind == "alt":
                text[term] = "|".join(text[p] for p in arg)
            elif kind == "cat":
                text[term] = "".join(grouped(p, ("alt",)) for p in arg)
            else:
                text[term] = grouped(arg, ("alt", "cat")) + "*"
        return text[root]


def fsa_to_regex(f: Fsa) -> Optional[str]:
    """Regex (library dialect) for the language; None when it is empty.
    An alphabet with a reserved symbol raises :class:`PreconditionError`."""
    _require_regex_alphabet(f.alphabet, PreconditionError)
    g = trim(f)
    source, sink = g.n_states, g.n_states + 1
    terms = _Terms()
    # the arcs out of and into each node, in the order they were added,
    # which fixes the order of the alternatives in the text
    outs: list[dict[int, int]] = [{} for _ in range(g.n_states + 2)]
    ins: list[dict[int, int]] = [{} for _ in range(g.n_states + 2)]

    def add(i, j, term):
        outs[i][j] = ins[j][i] = terms.alt(outs[i].get(j), term)

    for p, a, q in g.transitions:
        add(p, q, terms.EPS if a is None else terms.make("sym", a))
    for s in g.initial:
        add(source, s, terms.EPS)
    for s in g.accepting:
        add(s, sink, terms.EPS)

    for k in range(g.n_states):
        ins[k].pop(k, None)
        loop = terms.star(outs[k].pop(k, None))
        for i in ins[k]:
            del outs[i][k]
        for j in outs[k]:
            del ins[j][k]
        for i, rin in ins[k].items():
            for j, rout in outs[k].items():
                add(i, j, terms.cat(rin, terms.cat(loop, rout)))

    result = outs[source].get(sink)
    if result is None:
        return None
    return terms.render(result)
