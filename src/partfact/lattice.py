"""The complete lattice of coding partitions of a finite code.

Every coding partition coarsens the finest one, and every coarsening of
the finest one is coding, so the lattice is the ordinary partition
lattice over the classes of the finest coding partition. Meets are
common coarsenings: the connected components of the words linked
through the classes of either operand. Joins are common refinements
computed on that quotient. Each lattice call builds the finest coding
partition once and checks both operands against it.
"""

from __future__ import annotations

from .errors import PreconditionError
from .finite_code import FiniteCode, Partition, _coarsens, _components, _owners, characteristic_partition

MAX_ENUMERABLE_CLASSES = 8  # Bell(9) = 21147 partitions is past useful


def _require_comparable(p1: Partition, p2: Partition) -> None:
    if p1.code != p2.code:
        raise PreconditionError("partitions of different codes are not comparable")


def _fine_classes(p1: Partition, p2: Partition) -> tuple[frozenset, ...]:
    """The classes of the finest coding partition of the common code,
    once both operands are checked to coarsen it."""
    _require_comparable(p1, p2)
    fine = characteristic_partition(p1.code).classes
    if not (_coarsens(p1, fine) and _coarsens(p2, fine)):
        raise PreconditionError("operand is not a coding partition")
    return fine


def leq(p1: Partition, p2: Partition) -> bool:
    """True iff p2 refines p1, i.e. every class of p2 lies inside a class
    of p1 (the order in which the trivial partition is least)."""
    _require_comparable(p1, p2)
    return _coarsens(p1, p2.classes)


def coding_meet(p1: Partition, p2: Partition) -> Partition:
    """Greatest lower bound: the finest common coarsening, i.e. the words
    joined through the classes of either operand."""
    _fine_classes(p1, p2)
    words = p1.code.sorted_words()
    number = {w.text: i for i, w in enumerate(words)}
    # one vertex after the words for each class of either operand
    links = [[] for _ in words] + [[number[w.text] for w in c] for c in p1.classes + p2.classes]
    for vertex in range(len(words), len(links)):
        for i in links[vertex]:
            links[i].append(vertex)
    return _components(p1.code, words, links)


def coding_join(p1: Partition, p2: Partition) -> Partition:
    """Least upper bound among coding partitions: the common refinement
    of the partitions induced on the classes of the finest coding
    partition."""
    atoms = _fine_classes(p1, p2)
    o1, o2 = _owners(p1), _owners(p2)
    groups = {}  # the atoms come in the order of their least word, so do the groups
    for atom in atoms:
        probe = next(iter(atom))  # atoms never straddle coding classes
        key = (o1[probe.text], o2[probe.text])
        groups.setdefault(key, set()).update(atom)
    return Partition(p1.code, groups.values())


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def all_coding_partitions(x: FiniteCode) -> list[Partition]:
    """Every coding partition of x: all coarsenings of the finest one.

    Refuses codes whose finest coding partition has more than
    ``MAX_ENUMERABLE_CLASSES`` classes (Bell-number blowup).
    """
    atoms = list(characteristic_partition(x).classes)
    if len(atoms) > MAX_ENUMERABLE_CLASSES:
        raise PreconditionError(
            f"too many classes to enumerate ({len(atoms)} > {MAX_ENUMERABLE_CLASSES})"
        )
    out = []
    for grouping in _set_partitions(atoms):
        classes = [frozenset().union(*group) for group in grouping]
        classes.sort(key=lambda c: min(c).sort_key())
        out.append(Partition(x, classes))
    out.sort(key=lambda p: (len(p.classes), [[w.sort_key() for w in c] for c in p.normalized_classes()]))
    return out
