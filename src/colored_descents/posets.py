"""Colored posets and their colored linear extensions.

A colored poset is a strict partial order on a set of colored letters
drawn from the zero letters 0_1, ..., 0_{r-1} (always present, always a
chain) together with nonzero letters of pairwise distinct values.  Its
linear extensions are plain words: shuffles of a colored word with the
zero chain.  Splitting such a word at the zero letters and lowering the
colors of the i-th block by i produces colored words whose shuffles are
the colored linear extensions.

Nonzero letters are allowed to use any distinct positive values, not just
1..n; words produced here become group elements after order-preserving
value relabeling (see standardize_word).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .group import ColoredLetter, ColoredPermutation, SizeCapExceeded, Word

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

    @cached_property
    def predecessors(self) -> dict[ColoredLetter, frozenset[ColoredLetter]]:
        pred: dict[ColoredLetter, set[ColoredLetter]] = {e: set() for e in self.elements}
        for a, b in self.less:
            pred[b].add(a)
        return {e: frozenset(s) for e, s in pred.items()}

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

    # Transitive closure by repeated squaring over adjacency sets.
    above: dict[ColoredLetter, set[ColoredLetter]] = {e: set() for e in elems}
    for a, b in pairs:
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in elems:
            extra = set()
            for b in above[a]:
                extra |= above[b] - above[a]
            if extra:
                above[a] |= extra
                changed = True
    for e in elems:
        if e in above[e]:
            raise ValueError(f"cycle detected through {e}")
    less = frozenset((a, b) for a, bs in above.items() for b in bs)
    return ColoredPoset(r, n, frozenset(elems), less)


def linear_extensions(poset: ColoredPoset) -> list[Word]:
    """All words extending the poset, zero letters included, in
    lexicographic order."""
    if poset.unsatisfiable:
        return []
    cap = DEFAULT_MAX_EXTENSIONS
    elems = sorted(poset.elements)
    pred = poset.predecessors
    out: list[Word] = []
    placed: set[ColoredLetter] = set()
    word: list[ColoredLetter] = []

    def rec() -> None:
        if len(word) == len(elems):
            if len(out) >= cap:
                raise SizeCapExceeded(f"more than {cap} linear extensions")
            out.append(tuple(word))
            return
        for e in elems:
            if e not in placed and pred[e] <= placed:
                placed.add(e)
                word.append(e)
                rec()
                placed.discard(e)
                word.pop()

    rec()
    return out


def decompose_anchored(r: int, word: Word) -> tuple[Word, ...]:
    """Split a linear extension at its zero letters into r blocks, lowering
    colors blockwise.

    Block i holds the letters between 0_i and 0_{i+1} with every color
    lowered by i modulo r.
    """
    blocks: list[list] = [[] for _ in range(r)]
    i = 0
    for c, v in word:
        if v == 0:
            i += 1
        else:
            blocks[i].append(((c - i) % r, v))
    return tuple(map(tuple, blocks))


def shuffles(words: Sequence[Word]) -> Iterator[Word]:
    """All interleavings of words with pairwise disjoint letters."""
    parts = tuple(tuple(w) for w in words if w)

    def go(pos: list[int]) -> Iterator[Word]:
        exhausted = True
        for wi, w in enumerate(parts):
            i = pos[wi]
            if i < len(w):
                exhausted = False
                pos[wi] += 1
                for rest in go(pos):
                    yield (w[i],) + rest
                pos[wi] -= 1
        if exhausted:
            yield ()

    yield from go([0] * len(parts))


def colored_linear_extensions(poset: ColoredPoset) -> list[Word]:
    """Concatenated shuffles of the blocks of every linear extension.

    Duplicates arising from different anchored words are retained: the
    result is a list with multiplicity.
    """
    out: list[Word] = []
    cap = DEFAULT_MAX_EXTENSIONS
    for w in linear_extensions(poset):
        for shuffled in shuffles(decompose_anchored(poset.r, w)):
            if len(out) >= cap:
                raise SizeCapExceeded(f"more than {cap} colored extensions")
            out.append(shuffled)
    return out


def standardize_word(r: int, word: Word) -> ColoredPermutation:
    """Relabel values order-preservingly to 1..len(word)."""
    ranks = {v: i for i, v in enumerate(sorted(x[1] for x in word), start=1)}
    return ColoredPermutation(
        r, tuple(ColoredLetter(c, ranks[v]) for c, v in word)
    )


def _boundary_relations(
    pi: ColoredPermutation, reversed_at: frozenset[int]
) -> tuple[list[tuple[ColoredLetter, ColoredLetter]], bool]:
    """Chain relations pi(i) ~ pi(i+1) with pi(n+1) the anchor 0_1.

    Positions in ``reversed_at`` point downward.  For r = 1 the anchor
    plays the role of a maximum: a reversed relation at position n cannot
    be realized, which is reported via the second component.
    """
    rels = []
    unsat = False
    anchor = ColoredLetter(1, 0)
    for i in range(1, pi.n + 1):
        x = pi.letters[i - 1]
        if i < pi.n:
            y = pi.letters[i]
        elif pi.r >= 2:
            y = anchor
        else:
            if i in reversed_at:
                unsat = True
            continue
        rels.append((y, x) if i in reversed_at else (x, y))
    return rels, unsat


def zigzag_poset(I: Iterable[int], pi: ColoredPermutation) -> ColoredPoset:
    """Chain on pi's letters, reversed exactly at the positions of I."""
    I = frozenset(I)
    if not I <= set(range(1, pi.n + 1)):
        raise ValueError("I must be a subset of [n]")
    rels, unsat = _boundary_relations(pi, I)
    poset = make_poset(pi.r, pi.n, pi.letters, rels)
    return replace(poset, unsatisfiable=unsat) if unsat else poset


def chain_poset(I: Iterable[int], pi: ColoredPermutation) -> ColoredPoset:
    """Chain on pi's letters with the relations at positions of I dropped."""
    I = frozenset(I)
    if not I <= set(range(1, pi.n + 1)):
        raise ValueError("I must be a subset of [n]")
    anchor = ColoredLetter(1, 0)
    rels = []
    for i in range(1, pi.n + 1):
        if i in I:
            continue
        x = pi.letters[i - 1]
        if i < pi.n:
            rels.append((x, pi.letters[i]))
        elif pi.r >= 2:
            rels.append((x, anchor))
    return make_poset(pi.r, pi.n, pi.letters, rels)


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


def poset_from_json(data: dict) -> ColoredPoset:
    try:
        elements = [ColoredLetter(c, v) for v, c in data["elements"]]
        covers = [
            (ColoredLetter(ac, av), ColoredLetter(bc, bv))
            for (av, ac), (bv, bc) in data["covers"]
        ]
        r, n = int(data["r"]), int(data["n"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed poset record: {exc}") from exc
    return make_poset(r, n, elements, covers)
