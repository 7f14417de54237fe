"""Test-only helpers: a bounded brute-force oracle and relation search
for finite codes, a bounded word enumerator for acceptors, reference
automaton constructions (the view of an acceptor built per position,
spontaneous-move elimination to an acceptor, subset construction and
product walks over it, Moore's minimization), the checks of a regular
partition on acceptors, the base of a regular monoid by two
differences, the prime-relation search over the whole dangling-suffix
graph, the finest coding partition, the lattice operations and
co-occurrence over Word objects, an audit bound for the co-occurrence
analysis, the run-counting ambiguity search of an acceptor and its
parsers for unique decipherability and coding partitions of regular
codes, and a brute-force search for the least message with two (block)
factorizations.

The brute-force oracle and relation search share no code with the
exact analyses in ``partfact.finite_code``, so the tests can use them as
independent ground truth. The whole-graph search, the co-occurrence
audit bound and the Word-keyed partitions share the oracles' own
dangling-suffix graph: every arc is built breadth first, labelled with
the texts it consumes, and kept when it lies between the source and the
terminal, found by reachability from both ends; each node's residual
text comes with it. The search finds every node's distance to the
terminal before it lists a relation: the reference for the library's
reader, which reads only the residuals within the length bound. The
partitions link Word objects: the reference for the library, which
numbers the words and the useful residuals and links the numbers.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from itertools import chain, combinations, count, product
from typing import Optional, Sequence

from partfact import AlphabetMismatchError, FiniteCode, Partition, PreconditionError, RegularMonoid, Word
from partfact import fsa as A
from partfact.finite_code import PrimeRelation, _CodeIndex, _prime_relations
from partfact.fsa import (
    Fsa,
    _check_cap,
    _reachable,
    _require_same_alphabet,
    _spell,
    empty_fsa,
    factor_closure,
    full_language_fsa,
    star,
    trim,
)


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


# ---------------------------------------------------------------------------
# Reference automaton constructions: each builds the spontaneous-move-free
# acceptor first and runs the subset construction and the product walks
# over it, recomputing every subset step; the references for the view,
# the numbered subsets and the parent-linked walk of ``partfact.fsa``.


def _useful(initial, final, arcs) -> set:
    """The nodes reachable from ``initial`` that reach ``final`` along the
    ``(p, q)`` arcs."""
    fwd = defaultdict(list)
    bwd = defaultdict(list)
    for p, q in arcs:
        fwd[p].append(q)
        bwd[q].append(p)
    return _reachable(initial, fwd) & _reachable(final, bwd)


def view(f: Fsa) -> tuple[list[int], list[int], set[int], dict[str, list[list[int]]]]:
    """The fields ``states``, ``initial``, ``accepting`` and ``rows`` of
    ``partfact.fsa._View``, built per position: a closure of each
    position (an initial state or a symbol target), its set of moves, and
    the useful positions from a forward and a backward reachability over
    every position's moves. The reference for the one-pass view."""
    adj = f.adjacency()
    eps = [[q for a, q in adj[p] if a is None] for p in range(f.n_states)]
    moves, ends = {}, []
    for p in f.initial.union(q for _p, a, q in f.transitions if a is not None):
        closure = _reachable((p,), eps) if eps[p] else (p,)
        moves[p] = {(a, q) for s in closure for a, q in adj[s] if a is not None}
        if not f.accepting.isdisjoint(closure):
            ends.append(p)
    useful = _useful(f.initial, ends, ((p, q) for p, out in moves.items() for _a, q in out))
    states = sorted(useful)
    rows = {c: [[] for _ in range(f.n_states)] for c in f.alphabet.symbols}
    for p in states:
        for a, q in sorted(moves[p]):
            if q in useful:
                rows[a][p].append(q)
    return states, [s for s in f.initial if s in useful], useful.intersection(ends), rows


def eliminate_epsilon(f: Fsa) -> Fsa:
    """Closure of every state, then a trim."""
    adj = f.adjacency()
    eps = [[q for a, q in adj[p] if a is None] for p in range(f.n_states)]
    trans = set()
    accepting = []
    for p in range(f.n_states):
        closure = _reachable((p,), eps)
        trans.update((p, a, q) for m in closure for a, q in adj[m] if a is not None)
        if closure & f.accepting:
            accepting.append(p)
    return trim(Fsa(f.alphabet, f.n_states, sorted(trans), f.initial, accepting))


def _rows(g: Fsa) -> dict[str, list[list[int]]]:
    """``rows[c][p]``: the targets of ``p``'s moves on ``c``, in transition
    order."""
    rows = {c: [[] for _ in range(g.n_states)] for c in g.alphabet.symbols}
    for p, a, q in g.transitions:
        rows[a][p].append(q)
    return rows


def _subset_step(g: Fsa):
    rows = _rows(g)
    return lambda subset, c: frozenset(q for p in subset for q in rows[c][p])


def determinize(f: Fsa) -> Fsa:
    g = eliminate_epsilon(f)
    if g.n_states == 0:
        return g
    step = _subset_step(g)
    index = {frozenset(g.initial): 0}
    queue = deque(index)
    trans = []
    while queue:
        subset = queue.popleft()
        for c in g.alphabet.symbols:
            target = step(subset, c)
            if not target:
                continue
            if target not in index:
                _check_cap(len(index) + 1, "determinize")
                index[target] = len(index)
                queue.append(target)
            trans.append((index[subset], c, index[target]))
    accepting = [i for subset, i in index.items() if subset & g.accepting]
    return Fsa(g.alphabet, len(index), trans, (0,), accepting)


def _product(a: Fsa, starts, step, construction: str, moves: list):
    """Breadth-first lockstep walk of ``a`` against ``step``, each pair
    yielded with its shortlex-least word, the pairs first reached by one
    word expanded together."""
    rows = _rows(a)
    index: dict = {}
    queue = deque([("", [(p, s) for p in sorted(a.initial) for s in starts])])
    for pair in queue[0][1]:
        _check_cap(len(index) + 1, construction)
        index[pair] = len(index)
        yield pair, ""
    while queue:
        word, group = queue.popleft()
        for c in a.alphabet.symbols:
            fresh = []
            for p, s in group:
                targets = rows[c][p]
                for pair in product(targets, step(s, c)) if targets else ():
                    if pair not in index:
                        _check_cap(len(index) + 1, construction)
                        index[pair] = len(index)
                        fresh.append(pair)
                        yield pair, word + c
                    moves.append((index[(p, s)], c, index[pair]))
            if fresh:
                queue.append((word + c, fresh))


def _subset_walk(l: Fsa, r: Fsa, construction: str, moves: list):
    _require_same_alphabet(l.alphabet, r.alphabet)
    a, b = eliminate_epsilon(l), eliminate_epsilon(r)
    step = _subset_step(b)
    walk = _product(a, [frozenset(b.initial)], lambda t, c: (step(t, c),), construction, moves)
    for (p, subset), word in walk:
        yield word, p in a.accepting and not subset & b.accepting


def intersection(l: Fsa, r: Fsa) -> Fsa:
    _require_same_alphabet(l.alphabet, r.alphabet)
    a, b = eliminate_epsilon(l), eliminate_epsilon(r)
    moves: list = []
    brows = _rows(b)
    walk = _product(a, sorted(b.initial), lambda q, c: brows[c][q], "intersection", moves)
    pairs = [pair for pair, _word in walk]
    acc = [i for i, (p, q) in enumerate(pairs) if p in a.accepting and q in b.accepting]
    return trim(Fsa(l.alphabet, len(pairs), moves, range(len(a.initial) * len(b.initial)), acc))


def difference(l: Fsa, r: Fsa) -> Fsa:
    moves: list = []
    walk = list(_subset_walk(l, r, "difference", moves))
    init = [i for i, (word, _witness) in enumerate(walk) if not word]
    acc = [i for i, (_word, witness) in enumerate(walk) if witness]
    return trim(Fsa(l.alphabet, len(walk), moves, init, acc))


def includes(l: Fsa, r: Fsa) -> bool:
    return not any(witness for _word, witness in _subset_walk(r, l, "includes", []))


def equivalent(l: Fsa, r: Fsa) -> bool:
    return includes(l, r) and includes(r, l)


def check_regular_partition(code, classes: Sequence[Fsa]) -> None:
    """The checks of ``partfact.RegularPartition`` made on acceptors: each
    class over the code's alphabet, nonempty and without the empty word,
    an intersection per pair of classes, then the union acceptor of the
    classes against the code. Raises the error ``RegularPartition``
    raises: the reference for its checks on views laid side by side."""
    if not classes:
        raise PreconditionError("a partition needs at least one class")
    for c in classes:
        if c.alphabet != code.alphabet:
            raise AlphabetMismatchError("class alphabet differs from the code's")
        if trim(c).n_states == 0:
            raise PreconditionError("partition classes must be nonempty")
        if A.accepts(c, ""):
            raise PreconditionError("partition classes may not contain the empty word")
    for i, j in combinations(range(len(classes)), 2):
        if intersection(classes[i], classes[j]).n_states:
            raise PreconditionError(f"classes {i} and {j} overlap")
    if not equivalent(A.union(*classes), code.lang):
        raise PreconditionError("classes do not cover the code exactly")


def shortest_word(f: Fsa) -> Optional[Word]:
    walk = _subset_walk(f, empty_fsa(f.alphabet), "shortest_word", [])
    word = next((word for word, witness in walk if witness), None)
    return None if word is None else Word(f.alphabet, word)


def completeness_witness(lang: Fsa) -> Optional[Word]:
    """Shortlex-least word that is a factor of no word of ``lang``*, from
    the whole difference Σ* minus the factor closure."""
    return shortest_word(difference(full_language_fsa(lang.alphabet), factor_closure(star(lang))))


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


def base(m: RegularMonoid) -> Fsa:
    """The base of ``m`` as the minimal DFA of its nonempty words N minus
    N·N, built by the library's walk of the determinized N against the
    subsets of N·N: the reference for ``partfact.regular.base``. That
    builds either the subset construction of N beside N·N, refined, or
    the subset construction D of rev N beside rev(N·N) and then that of
    rev D, unrefined, whichever closes first under a limit that doubles
    from max(64, |N|) to the state cap. On ((a|b)*a(a|b)^11)* D has 25
    states and the base 5119, where the forward side needs 30 721 subsets
    and this reference a 4097-state ``determinize(N)``."""
    nonempty = A.difference(m.lang, A.epsilon_fsa(m.alphabet))
    return A.minimize(A.difference(A.determinize(nonempty), A.concat(nonempty, nonempty)))


# ---------------------------------------------------------------------------
# Run counting: whether an acceptor reads some word along two accepting
# runs, spontaneous moves and parallel duplicate transitions included, and
# such a word, found breadth first. The parsers below turn unique
# decipherability and coding partitions of regular codes into this
# question: the reference for the pair walk of ``partfact.regular``.


def _postorder(roots, succ) -> tuple[Optional[list], Optional[object]]:
    """Depth-first search from each unvisited root in turn, successors in
    ``succ[p]`` order. Returns ``(post-order, None)``, or ``(None, q)``
    for the first node ``q`` found to lie on a cycle."""
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
                    return None, q
            else:
                done[p] = True
                order.append(p)
                stack.pop()
    return order, None


def _bfs(seeds, succ):
    """Breadth-first search from lazily generated ``(node, word)`` seeds;
    ``succ(u)`` lists the ``(label, v)`` edges of ``u`` and is called only
    after ``u`` is yielded. Yields each node once, when first reached,
    with the parent links so far: ``links[v]`` is ``(u, label)`` for the
    edge that first reached ``v``, or ``(None, word)`` for a seed."""
    links: dict = {}
    queue = deque()
    for node, word in seeds:
        if node not in links:
            links[node] = (None, word)
            queue.append(node)
            yield node, links
    while queue:
        u = queue.popleft()
        for label, v in succ(u):
            if v not in links:
                links[v] = (u, label)
                queue.append(v)
                yield v, links


def is_unambiguous(f: Fsa) -> bool:
    """True iff every accepted word has exactly one accepting run.

    A run is the full sequence of transitions taken, spontaneous moves
    included, so parallel duplicate transitions and alternative
    spontaneous routes count as distinct runs.
    """
    return _find_ambiguous_word(f) is None


def ambiguity_witness(f: Fsa) -> Optional[Word]:
    """Some word accepted by at least two distinct runs, or None when the
    acceptor is run-unambiguous."""
    text = _find_ambiguous_word(f)
    return None if text is None else Word(f.alphabet, text)


def _raw_word(f: Fsa, seeds, target: int, reverse: bool) -> str:
    """A shortest word (by arc count) from a seed to ``target`` following
    raw transitions; with ``reverse``, from ``target`` into a seed."""
    adj = defaultdict(list)
    for p, a, q in f.transitions:
        src, dst = (q, p) if reverse else (p, q)
        adj[src].append(("" if a is None else a, dst))
    for v, links in _bfs(((s, "") for s in seeds), adj.__getitem__):
        if v == target:
            return _spell(links, v)[::-1] if reverse else _spell(links, v)


def _find_ambiguous_word(f: Fsa) -> Optional[str]:
    f = trim(f)
    n = f.n_states
    eps_out = defaultdict(list)
    sym_by_src = defaultdict(list)
    for p, a, q in f.transitions:
        if a is None:
            eps_out[p].append(q)
        else:
            sym_by_src[p].append((a, q))

    def completion(state: int) -> str:
        return _raw_word(f, f.accepting, state, reverse=True)

    # Any spontaneous cycle among useful states yields unboundedly many
    # runs for some accepted word.
    topo, cycle = _postorder(range(n), eps_out)
    if topo is None:
        return _raw_word(f, f.initial, cycle, reverse=False) + completion(cycle)

    # Saturating count (0, 1, >=2) of distinct spontaneous paths p -> q,
    # kept only for the q where a run can stop or read a symbol: the
    # counts below read no other q, and a long spontaneous chain stays
    # linear in size.
    exits = f.accepting | sym_by_src.keys()
    npaths = [defaultdict(int) for _ in range(n)]
    for s in topo:  # successors already done
        if s in exits:
            npaths[s][s] = 1
        for q in eps_out[s]:
            for t, c in npaths[q].items():
                npaths[s][t] = min(2, npaths[s][t] + c)

    # Spontaneous paths into acceptance, per state.
    tails = [min(2, sum(c for t, c in npaths[s].items() if t in f.accepting)) for s in range(n)]

    # A "position" is a state a run occupies between consumed symbols:
    # an initial state or the target of a symbol transition. A move
    # folds one spontaneous path and one symbol transition together.
    def moves_from(p: int) -> dict[tuple[str, int], int]:
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for m, k in npaths[p].items():
            for a, q in sym_by_src.get(m, ()):
                counts[(a, q)] = min(2, counts[(a, q)] + k)
        return counts

    # Breadth first over positions; a position's moves are computed, and
    # checked, when it is first reached.
    access: dict[int, str] = {}
    reads: dict[int, dict[tuple[str, int], int]] = {}  # position -> moves_from
    moves: dict[int, dict[str, list[int]]] = {}
    for p, links in _bfs(((p, "") for p in f.initial), lambda p: reads[p]):
        u, a = links[p]
        access[p] = word = a if u is None else access[u] + a
        if tails[p] >= 2:
            return word  # two spontaneous routes into acceptance
        reads[p] = moves_from(p)
        moves[p] = defaultdict(list)
        for (a, q), k in reads[p].items():
            if k >= 2:
                return word + a + completion(q)  # duplicated move
            moves[p][a].append(q)

    # Two runs over the same word: unordered diverged state pairs, breadth
    # first. The seeds are generated lazily, so the first pair where both
    # diverged runs accept is found without building the rest.
    def pair(p: int, q: int) -> tuple[int, int]:
        return (p, q) if p <= q else (q, p)

    def pair_moves(key: tuple[int, int]):
        p, q = key
        for a, ptargets in moves[p].items():
            qtargets = moves[q].get(a, ())
            for p2 in ptargets:
                for q2 in qtargets:
                    yield a, pair(p2, q2)

    forks = chain(  # (word, states) where several runs part: the start, then every move
        [("", list(f.initial))],
        ((access[p] + a, ts) for p, by in moves.items() for a, ts in by.items()),
    )
    seeds = ((pair(q1, q2), word) for word, ts in forks for i, q1 in enumerate(ts) for q2 in ts[i + 1:])
    for (p, q), links in _bfs(seeds, pair_moves):
        if tails[p] >= 1 and tails[q] >= 1:
            return _spell(links, (p, q))
    return None


def _block_parser(classes: Sequence[Fsa]) -> Fsa:
    """Parser whose accepting runs are the block factorizations for the
    partition into the given classes: one minimal DFA per class language
    X_i+, with spontaneous moves from accepting configurations of class i
    into the start of every class j != i. Class acceptors are
    determinized, so different splittings of one block into class words
    make no spurious runs: the run-counting reference for
    ``partfact.regular.coding_ambiguity_witness``."""
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


def ud_run_witness(x: Fsa) -> Optional[Word]:
    """A word with two runs of the parser that reads one code word at a
    time through the minimal acceptor of the code ``x`` and marks each
    boundary with a spontaneous move back to its start: the run-counting
    reference for ``partfact.regular.ud_ambiguity_witness``."""
    return ambiguity_witness(A.plus(A.minimize(x)))


def coding_run_witness(classes: Sequence[Fsa]) -> Optional[Word]:
    """A word with two runs of the block parser of the classes."""
    return ambiguity_witness(_block_parser(classes))


def least_two_factorizations(
    classes: Sequence[Sequence[str]], max_len: int, by_word: bool, symbols: Sequence[str]
) -> Optional[str]:
    """By brute force over every message of at most ``max_len`` letters,
    the least one, in shortlex order on the declared ``symbols``, with two
    factorizations into words of the classes (given as texts) that differ
    in their words (``by_word``) or in their block factorizations, read as
    the class of each letter's word; None when there is none that short."""
    rank = {c: i for i, c in enumerate(symbols)}
    levels: list[dict[str, set]] = [{"": {()}}]  # per length: message -> up to two distinct signatures
    for n in range(1, max_len + 1):
        level: dict[str, set] = {}
        for i, words in enumerate(classes):
            for w in words:
                tail = (w,) if by_word else (i,) * len(w)
                for m, found in levels[n - len(w)].items() if len(w) <= n else ():
                    mine = level.setdefault(m + w, set())
                    for sig in found:
                        if len(mine) < 2:
                            mine.add(sig + tail)
        ambiguous = [m for m, found in level.items() if len(found) >= 2]
        if ambiguous:
            return min(ambiguous, key=lambda m: [rank[c] for c in m])
        levels.append(level)
    return None


def _arc_weight(residual: list[str], src, ann: tuple[str, ...]) -> int:
    # Contribution of the arc to the message length: initial arcs start
    # the message with the longer word; an arc where the trailing parse
    # overtakes extends the message by the overhang.
    if src == "start":
        return max(len(t) for t in ann)
    return max(0, len(ann[0]) - len(residual[src]))


def _to_end(arcs: list, residual: list[str]) -> dict:
    """The fewest letters a relation still adds from each useful node to
    the terminal: one backward Dijkstra over the useful arcs. The value at
    the source is the shortest relation message length."""
    into = defaultdict(list)
    for src, dst, ann in arcs:
        into[dst].append((src, _arc_weight(residual, src, ann)))
    dist = {"end": 0}
    tie = count()  # the nodes are ints and two names, which do not compare
    heap = [(0, next(tie), "end")]
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for src, weight in into[node]:
            nd = d + weight
            if src not in dist or nd < dist[src]:
                dist[src] = nd
                heapq.heappush(heap, (nd, next(tie), src))
    return dist


def _graph_relation_texts(arcs: list, residual: list[str], to_end: dict, max_message_len: int) -> list:
    """(left parts, right parts, message) of every prime relation whose
    message has at most max_message_len letters: depth-first along the
    useful arcs from the source over the states (node, behind, ahead,
    swapped, msg), where ``behind`` is the trailing side, which takes each
    arc's word, and ``swapped`` says that it is the right side. A state is
    dropped once the letters it must still add take the message past the
    bound."""
    out = defaultdict(list)
    for src, dst, ann in arcs:
        out[src].append((dst, ann))
    found = []
    stack = [(dst, (x,), (y,), False, y) for dst, (x, y) in out["start"]
             if len(y) + to_end[dst] <= max_message_len]
    while stack:
        node, behind, ahead, swapped, msg = stack.pop()
        for dst, (w,) in out[node]:
            if dst == "end":
                found.append((ahead, behind + (w,), msg) if swapped else (behind + (w,), ahead, msg))
            elif len(w) < len(residual[node]):
                if len(msg) + to_end[dst] <= max_message_len:
                    stack.append((dst, behind + (w,), ahead, swapped, msg))
            elif len(msg) + len(residual[dst]) + to_end[dst] <= max_message_len:
                stack.append((dst, ahead, behind + (w,), not swapped, msg + residual[dst]))
    return found


def graph_sp_is_ud(x: FiniteCode) -> tuple[bool, Optional[PrimeRelation]]:
    """``sp_is_ud`` by the search over the whole dangling-suffix graph:
    the graph, its useful arcs and every node's distance to the terminal
    are built first, and the relations are listed within the source's
    distance, the shortest relation length."""
    arcs, residual = _useful_text_arcs(x)
    to_end = _to_end(arcs, residual)
    if "start" not in to_end:  # no source-to-terminal path
        return True, None
    return False, _prime_relations(x, _graph_relation_texts(arcs, residual, to_end, to_end["start"]))[0]


def graph_prime_relations(x: FiniteCode, max_message_len: int) -> list[PrimeRelation]:
    """``enumerate_prime_relations`` by the search over the whole
    dangling-suffix graph, with no cap on the walk."""
    arcs, residual = _useful_text_arcs(x)
    return _prime_relations(x, _graph_relation_texts(arcs, residual, _to_end(arcs, residual), max_message_len))


def cooccurrence_witness_bound(x: FiniteCode, u: Word, v: Word) -> Optional[int]:
    """Length of the shortest prime-relation message containing both
    words, or None when the pair never co-occurs. Audit helper for the
    exactness of ``characteristic_partition``."""
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    # Dijkstra over (node, set of the two words consumed so far)
    arcs, residual = _useful_text_arcs(x)
    targets = (u.text, v.text)
    full = (1 << len(targets)) - 1
    out = defaultdict(list)
    for src, dst, ann in arcs:
        bits = sum(1 << i for i, t in enumerate(targets) if t in ann)
        out[src].append((dst, ann, bits))
    dist = {("start", 0): 0}
    tie = count()
    heap = [(0, next(tie), "start", 0)]
    while heap:
        d, _, node, mask = heapq.heappop(heap)
        if dist[(node, mask)] != d:
            continue
        if node == "end":
            if mask == full:
                return d
            continue
        for dst, ann, bits in out[node]:
            nd = d + _arc_weight(residual, node, ann)
            nm = mask | bits
            if nd < dist.get((dst, nm), float("inf")):
                dist[(dst, nm)] = nd
                heapq.heappush(heap, (nd, next(tie), dst, nm))
    return None


def _useful_text_arcs(x: FiniteCode) -> tuple[list, list[str]]:
    """The useful arcs (src, dst, texts consumed) of the whole
    dangling-suffix graph, with the source "start" and the terminal "end",
    and the residual text of each node: every arc is built, then the nodes
    reachable from the source that reach the terminal are kept."""
    index = _CodeIndex(x)
    node_ids: dict[str, int] = {}
    residual: list[str] = []

    def intern(r: str) -> int:
        if r not in node_ids:
            node_ids[r] = len(residual)
            residual.append(r)
        return node_ids[r]

    arcs = [("start", intern(r), (short, y)) for short, y, r in index.starts()]
    uid = 0
    while uid < len(residual):
        for w, r in index.moves(residual[uid]):
            arcs.append((uid, intern(r) if r else "end", (w,)))
        uid += 1
    useful = _useful(("start",), ("end",), ((src, dst) for src, dst, _ann in arcs))
    return [a for a in arcs if a[0] in useful and a[1] in useful], residual


def _components(x: FiniteCode, links) -> Partition:
    """The words of x joined through ``links``, a symmetric adjacency over
    the Word objects and helper vertices; classes in the order of their
    least word."""
    classes: list[frozenset[Word]] = []
    seen: set = set()
    for w in sorted(x.words):
        if w not in seen:
            reached = _reachable((w,), links)
            seen |= reached
            classes.append(x.words & reached)
    return Partition(x, classes)


def characteristic_partition(x: FiniteCode) -> Partition:
    """The finest coding partition: the words joined through the internal
    nodes of their useful arcs, over the whole graph."""
    if not x.words:
        raise PreconditionError("analysis of the empty code is undefined")
    code_word = {w.text: w for w in x.words}
    links = defaultdict(list)
    for src, dst, ann in _useful_text_arcs(x)[0]:
        for node in (src, dst):
            if node not in ("start", "end"):
                for t in ann:
                    links[code_word[t]].append(node)
                    links[node].append(code_word[t])
    return _components(x, links)


def coding_meet(p1: Partition, p2: Partition) -> Partition:
    """The words joined through the classes of either partition."""
    links = defaultdict(list)
    for k, p in enumerate((p1, p2)):
        for i, c in enumerate(p.classes):
            for w in c:
                links[w].append((k, i))
                links[(k, i)].append(w)
    return _components(p1.code, links)


def coding_join(p1: Partition, p2: Partition) -> Partition:
    """The classes of the finest coding partition grouped by the classes of
    p1 and p2 that hold them."""
    o1, o2 = ({w: i for i, c in enumerate(p.classes) for w in c} for p in (p1, p2))
    groups: dict = {}
    for atom in characteristic_partition(p1.code).classes:
        probe = next(iter(atom))
        groups.setdefault((o1[probe], o2[probe]), set()).update(atom)
    return Partition(p1.code, groups.values())


def cooccurrence_pairs(x: FiniteCode) -> set[tuple[Word, Word]]:
    """Pairs of words on useful arcs of the whole graph where an arc of one
    leaves a node reachable (reflexively) from the head of an arc of the
    other, or that share a source arc."""
    fwd = defaultdict(list)
    heads = defaultdict(list)
    leaving = defaultdict(set)
    pairs = set()
    for src, dst, ann in _useful_text_arcs(x)[0]:
        fwd[src].append(dst)
        leaving[src].update(ann)
        for t in ann:
            heads[t].append(dst)
        if len(ann) == 2:
            pairs.add(ann)
    for u, dsts in heads.items():
        for node in _reachable(dsts, fwd):
            pairs.update((u, v) for v in leaving[node] if v != u)
    word = {w.text: w for w in x.words}
    return {tuple(sorted((word[u], word[v]))) for u, v in pairs}


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
