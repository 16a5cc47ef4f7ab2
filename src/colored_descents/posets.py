"""Colored posets and their colored linear extensions.

A colored poset is a strict partial order on a set of colored letters
drawn from the zero letters 0_1, ..., 0_{r-1} (always present, always a
chain) together with nonzero letters of pairwise distinct values.  Its
linear extensions are plain words: shuffles of a colored word with the
zero chain.  Splitting such a word at the zero letters and lowering the
colors of the i-th block by i produces colored words whose shuffles are
the colored linear extensions.

Nonzero letters may use any distinct values in 1..n, not necessarily all
of them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .group import ColoredLetter, ColoredPermutation, SizeCapExceeded, Word, _gather

DEFAULT_MAX_EXTENSIONS = 1_000_000


def _zero_letters(r: int) -> tuple[ColoredLetter, ...]:
    return tuple(ColoredLetter(k, 0) for k in range(1, r))


@dataclass(frozen=True)
class ColoredPoset:
    """A strict partial order on zero letters plus distinct-valued letters.

    ``less`` is the full transitive closure.  ``unsatisfiable`` flags the
    r=1 boundary case where a relation demands a letter above the anchor:
    such a poset has no linear extensions.
    """

    r: int
    n: int
    elements: frozenset[ColoredLetter]
    less: frozenset[tuple[ColoredLetter, ColoredLetter]]
    unsatisfiable: bool = False

    @cached_property
    def nonzero(self) -> tuple[ColoredLetter, ...]:
        return tuple(sorted(x for x in self.elements if x.value != 0))

    def covers(self) -> list[tuple[ColoredLetter, ColoredLetter]]:
        """Transitive reduction of ``less``, sorted."""
        out = []
        for a, b in self.less:
            if not any((a, c) in self.less and (c, b) in self.less for c in self.elements):
                out.append((a, b))
        return sorted(out)

    def __str__(self) -> str:
        rel = ", ".join(f"{a} < {b}" for a, b in self.covers())
        return f"ColoredPoset(r={self.r}, {{{rel}}})"


def make_poset(
    r: int,
    n: int,
    elements: Iterable[ColoredLetter],
    cover_relations: Iterable[tuple[ColoredLetter, ColoredLetter]] = (),
) -> ColoredPoset:
    """Build a colored poset from nonzero letters and cover relations.

    The zero chain is adjoined automatically and the strict order is the
    transitive closure of the given covers.  Raises ValueError on duplicate
    absolute values, illegal letters, or cycles.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    elems = {ColoredLetter(*e) for e in elements}
    elems.update(_zero_letters(r))
    values = [e.value for e in elems if e.value != 0]
    if len(values) != len(set(values)):
        raise ValueError("nonzero elements must have distinct values")
    for e in elems:
        if e.value == 0:
            if not 1 <= e.color < r:
                raise ValueError(f"illegal zero letter {e}")
        elif not (1 <= e.value <= n and 0 <= e.color < r):
            raise ValueError(f"illegal letter {e} for (r={r}, n={n})")

    pairs = {(ColoredLetter(*a), ColoredLetter(*b)) for a, b in cover_relations}
    zeros = _zero_letters(r)
    pairs.update(zip(zeros, zeros[1:]))
    for a, b in pairs:
        if a not in elems or b not in elems:
            raise ValueError(f"relation {a} < {b} mentions an unknown element")

    # Transitive closure (Warshall): admit each element in turn as a midpoint.
    above: dict[ColoredLetter, set[ColoredLetter]] = {e: set() for e in elems}
    for a, b in pairs:
        above[a].add(b)
    for k in elems:
        for a in elems:
            if k in above[a]:
                above[a] |= above[k]
    for e in elems:
        if e in above[e]:
            raise ValueError(f"cycle detected through {e}")
    less = frozenset((a, b) for a, bs in above.items() for b in bs)
    return ColoredPoset(r, n, frozenset(elems), less)


def _expand(poset: ColoredPoset, colored: bool) -> list[tuple[int, Word, tuple[int, ...]]]:
    """Every linear extension as a ``(placed mask, prefix, cuts)`` triple, in
    lexicographic order, one letter per level over the order ideals.  Plain,
    the prefix is the word; colored, it holds the nonzero letters lowered by
    their block index, and the cuts its length at each zero letter."""
    if poset.unsatisfiable:
        return []
    cap = DEFAULT_MAX_EXTENSIONS
    elems = sorted(poset.elements)
    index = {e: i for i, e in enumerate(elems)}
    pred = [0] * len(elems)
    for a, b in poset.less:
        pred[index[b]] |= 1 << index[a]
    zeros = sum(1 << i for i, e in enumerate(elems) if not e.value)

    def child(mask: int, i: int, e: ColoredLetter) -> tuple:
        if not colored:
            return mask | 1 << i, (e,), ()
        if e.value:
            block = (mask & zeros).bit_count()
            return mask | 1 << i, (((e.color - block) % poset.r, e.value),), ()
        return mask | 1 << i, (), ((mask & ~zeros).bit_count(),)

    level = [(0, (), ())]
    for _ in elems:
        kids = {  # the letters an ideal admits, listed once per ideal
            mask: [
                child(mask, i, e)
                for i, e in enumerate(elems)
                if not (mask >> i & 1 or pred[i] & ~mask)
            ]
            for mask in {mask for mask, _, _ in level}
        }
        level = [
            (placed, prefix + add, cuts + cut)
            for mask, prefix, cuts in level
            for placed, add, cut in kids[mask]
        ]
        # every prefix extends, so a level never outgrows the last one
        if len(level) > cap:
            raise SizeCapExceeded(f"more than {cap} linear extensions")
    return level


def linear_extensions(poset: ColoredPoset) -> list[Word]:
    """All words extending the poset, zero letters included, in
    lexicographic order."""
    return [word for _, word, _ in _expand(poset, False)]


@lru_cache(maxsize=1024)
def _interleavings(cuts: tuple[int, ...], m: int) -> tuple[Callable[[Word], Word], ...]:
    """One getter per interleaving of the blocks ``word[a:b]`` between
    consecutive bounds ``0, *cuts, m``: ``g(word)`` is the shuffle.  Listed
    in the order of the recursive definition, taking the lowest-indexed
    nonempty block first."""
    cap = DEFAULT_MAX_EXTENSIONS
    ends = cuts + (m,)
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), (0,) + cuts)]
    for _ in range(m):
        level = [
            (picked + (nxt[b],), nxt[:b] + (nxt[b] + 1,) + nxt[b + 1 :])
            for picked, nxt in level
            for b in range(len(ends))
            if nxt[b] < ends[b]
        ]
        if len(level) > cap:
            raise SizeCapExceeded(f"more than {cap} colored extensions")
    return tuple(_gather(picked) for picked, _ in level)


def colored_linear_extensions(poset: ColoredPoset) -> list[Word]:
    """Concatenated shuffles of the blocks of every linear extension.

    Duplicates arising from different anchored words are retained: the
    result is a list with multiplicity.
    """
    cap = DEFAULT_MAX_EXTENSIONS
    states = _expand(poset, True)
    m = len(poset.nonzero)
    tables = [_interleavings(cuts, m) for _, _, cuts in states]
    if sum(map(len, tables)) > cap:
        raise SizeCapExceeded(f"more than {cap} colored extensions")
    return [g(prefix) for (_, prefix, _), table in zip(states, tables) for g in table]


def _anchored_chain(
    I: Iterable[int], pi: ColoredPermutation, reverse: bool
) -> ColoredPoset:
    """The chain pi(1) < ... < pi(n) < 0_1 with the relations at positions
    of I reversed or dropped.  For r = 1 the anchor is a maximum and not an
    element: its relation is dropped, and reversing it cannot be realized."""
    I = frozenset(I)
    if not I <= set(range(1, pi.n + 1)):
        raise ValueError("I must be a subset of [n]")
    above = pi.letters[1:] + ((ColoredLetter(1, 0),) if pi.r >= 2 else ())
    rels = [
        (y, x) if i in I else (x, y)
        for i, (x, y) in enumerate(zip(pi.letters, above), start=1)
        if reverse or i not in I
    ]
    poset = make_poset(pi.r, pi.n, pi.letters, rels)
    if reverse and pi.r == 1 and pi.n in I:
        return replace(poset, unsatisfiable=True)
    return poset


def zigzag_poset(I: Iterable[int], pi: ColoredPermutation) -> ColoredPoset:
    """Chain on pi's letters, reversed exactly at the positions of I."""
    return _anchored_chain(I, pi, reverse=True)


def chain_poset(I: Iterable[int], pi: ColoredPermutation) -> ColoredPoset:
    """Chain on pi's letters with the relations at positions of I dropped."""
    return _anchored_chain(I, pi, reverse=False)


def detached_chain_poset(pi: ColoredPermutation) -> ColoredPoset:
    """The chain pi(1) < ... < pi(n) disjoint from the zero chain."""
    rels = [(pi.letters[i - 1], pi.letters[i]) for i in range(1, pi.n)]
    return make_poset(pi.r, pi.n, pi.letters, rels)


def disjoint_union(p1: ColoredPoset, p2: ColoredPoset) -> ColoredPoset:
    """Union of elements and relations; the zero chains merge.

    The union is re-closed transitively: the shared zero letters can chain
    a relation of one poset into a relation of the other.
    """
    if p1.r != p2.r:
        raise ValueError("posets must share the same r")
    v1 = {x.value for x in p1.nonzero}
    v2 = {x.value for x in p2.nonzero}
    if v1 & v2:
        raise ValueError(f"overlapping absolute values {sorted(v1 & v2)}")
    n = max(p1.n, p2.n)
    return make_poset(p1.r, n, p1.nonzero + p2.nonzero, p1.less | p2.less)


def poset_to_json(poset: ColoredPoset) -> dict:
    return {
        "r": poset.r,
        "n": poset.n,
        "elements": [[x.value, x.color] for x in poset.nonzero],
        "covers": [
            [[a.value, a.color], [b.value, b.color]] for a, b in poset.covers()
        ],
    }
