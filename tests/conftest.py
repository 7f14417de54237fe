"""Shared generators and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import random

from partfact import Alphabet, FiniteCode, Partition, characteristic_partition
from partfact.fsa import Fsa, accepts
from oracles import enumerate_words


def random_finite_code(rng: random.Random, max_words: int = 6, max_len: int = 4,
                       max_symbols: int = 3) -> FiniteCode:
    """Random nonempty code within the corpus bounds used by the
    acceptance suite: at most 6 words of length at most 4 over at most 3
    symbols."""
    k = rng.randint(1, max_symbols)
    alphabet = Alphabet("abc"[:k])
    n = rng.randint(1, max_words)
    words = set()
    for _ in range(n):
        length = rng.randint(1, max_len)
        words.add("".join(rng.choice(alphabet.symbols) for _ in range(length)))
    return FiniteCode(alphabet, words)


def random_coding_partition(rng: random.Random, code: FiniteCode) -> Partition:
    """A uniformly grouped coarsening of the finest coding partition."""
    atoms = list(characteristic_partition(code).classes)
    rng.shuffle(atoms)
    groups: list[set] = []
    for atom in atoms:
        if groups and rng.random() < 0.5:
            rng.choice(groups).update(atom)
        else:
            groups.append(set(atom))
    return Partition(code, [frozenset(g) for g in groups])


def random_fsa(rng: random.Random, alphabet: Alphabet, max_states: int = 5,
               eps_prob: float = 0.15) -> Fsa:
    n = rng.randint(1, max_states)
    trans = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        label = None if rng.random() < eps_prob else rng.choice(alphabet.symbols)
        trans.append((rng.randrange(n), label, rng.randrange(n)))
    initial = rng.sample(range(n), rng.randint(1, min(2, n)))
    accepting = rng.sample(range(n), rng.randint(0, n))
    return Fsa(alphabet, n, trans, initial, accepting)


def random_regex(rng, depth):
    """AST: "a", "b", "_" (empty word), or (op, operand...) for op in
    alt, cat, star, plus."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(("a", "b", "_"))
    op = rng.choice(("alt", "cat", "cat", "star", "plus"))
    if op in ("star", "plus"):
        return (op, random_regex(rng, depth - 1))
    return (op, random_regex(rng, depth - 1), random_regex(rng, depth - 1))


def dialect_text(node, rng, level=0):
    # level 0: alternation context, 1: concatenation, 2: repetition operand
    def space():
        return rng.choice(("", "", " "))

    if isinstance(node, str):
        text, grouped = node, False
    elif node[0] == "alt":
        text = dialect_text(node[1], rng) + space() + "|" + space() + dialect_text(node[2], rng)
        grouped = level >= 1
    elif node[0] == "cat":
        text = dialect_text(node[1], rng, 1) + space() + dialect_text(node[2], rng, 1)
        grouped = level >= 2
    else:
        text = dialect_text(node[1], rng, 2) + space() + ("*" if node[0] == "star" else "+")
        grouped = False
    if grouped or rng.random() < 0.1:
        text = "(" + space() + text + space() + ")"
    return text


def all_texts(alphabet: Alphabet, max_len: int):
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet.symbols, repeat=length):
            yield "".join(tup)


def language_set(f: Fsa, max_len: int) -> set[str]:
    """Language snapshot up to a length bound."""
    return {w.text for w in enumerate_words(f, max_len)}


def count_runs(f: Fsa, text: str, cap: int = 3) -> int:
    """Number of accepting runs of a word, counted as transition
    sequences with spontaneous moves included; saturates at ``cap``.

    Layered saturating DP over (state, consumed) configurations: a run of
    s steps is counted once, at its final configuration; spontaneous
    cycles saturate within the step budget.
    """
    adj = f.adjacency()
    # budget: every run fits in len(text) symbol steps plus one simple
    # spontaneous path (<= n states) around each of them; cycles saturate.
    max_steps = (len(text) + 1) * (f.n_states + 1) + 1
    layer = {(s, 0): 1 for s in f.initial}
    total = 0
    for s in f.initial:
        if not text and s in f.accepting:
            total += 1
    for _step in range(max_steps):
        nxt: dict[tuple[int, int], int] = {}
        for (state, pos), ways in layer.items():
            for label, dst in adj[state]:
                if label is None:
                    key = (dst, pos)
                elif pos < len(text) and label == text[pos]:
                    key = (dst, pos + 1)
                else:
                    continue
                nxt[key] = min(cap, nxt.get(key, 0) + ways)
                if key[1] == len(text) and key[0] in f.accepting:
                    total = min(cap, total + ways)
        if total >= cap:
            return total
        layer = nxt
        if not layer:
            break
    return total


def has_ambiguous_word(f: Fsa, max_len: int) -> bool:
    """Some accepted word of length <= max_len has two accepting runs."""
    return any(count_runs(f, w.text, cap=2) >= 2 for w in enumerate_words(f, max_len))
