"""Colored permutation groups and their descent statistics.

An r-colored permutation of {1,...,n} is a word of n letters, each a value
in {1,...,n} (every value exactly once) carrying a color in {0,...,r-1}.
Letters compare color-first:

    1_0 < 2_0 < ... < n_0 < 1_1 < ... < n_1 < ... < 1_{r-1} < ... < n_{r-1}

The word determines a bijection of the full colored alphabet via the
color-shift rule, and composition is function composition; colors add
modulo r along the way, so the same two words compose differently for
different r.  The descent set is read against the order above, with a
final letter of nonzero color counting as a descent at position n.
"""
from __future__ import annotations

import functools
import itertools
import math
from operator import eq, gt, itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

DEFAULT_MAX_GROUP_SIZE = 10_000_000


class SizeCapExceeded(RuntimeError):
    """An enumeration or product would exceed the configured size cap."""


class ColoredLetter(NamedTuple):
    """A colored value; tuple order (color, value) is the comparison order."""

    color: int
    value: int

    def __str__(self) -> str:
        return f"{self.value}_{self.color}"


# A word is a tuple of (color, value) letters.  group_words, GroupTable.word
# and the compose/inverse helpers yield plain tuples; ColoredPermutation and
# the posets hold ColoredLetter.  The two forms hash and compare equal.
Word = tuple[ColoredLetter, ...]


def parse_letter(token: str) -> ColoredLetter:
    """Parse a ``value_color`` token such as ``2_1``."""
    value, sep, color = token.partition("_")
    if not sep or not value.isdigit() or not color.isdigit():
        raise ValueError(f"malformed letter {token!r}")
    return ColoredLetter(int(color), int(value))


def word_str(word: Word) -> str:
    """Space-separated ``value_color`` tokens, as ``str(ColoredLetter)``."""
    return " ".join([f"{v}_{c}" for c, v in word])


def _letter_codes(n: int, word: Word) -> tuple[int, ...]:
    """The word in integer letters c·n + v − 1 for an alphabet of values
    1..n: letter v_c becomes one int in 0..r·n − 1, in the color-first
    order of the letters."""
    return tuple([c * n + v - 1 for c, v in word])


def _code_word(n: int, codes: Sequence[int]) -> Word:
    """The word of integer letters ``codes``; inverse of ``_letter_codes``."""
    return tuple([(x // n, x % n + 1) for x in codes])


class _Record:
    """Base of the package's immutable records, in place of a frozen
    dataclass, whose import alone costs every CLI process ~10 ms.

    A subclass's ``_fields`` are its constructor's parameters, in order,
    read off ``__init__`` when the class is made; ``__init__`` stores them
    straight into ``vars(self)``, and equality, hashing and the repr read
    them.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Instances keep their ``__dict__``, so
    ``cached_property`` works and default pickling restores them without
    calling ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _key(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ColoredPermutation(_Record):
    """An element of the r-colored permutation group in one-line notation."""

    def __init__(self, r: int, letters: Word) -> None:
        if r < 1:
            raise ValueError("r must be at least 1")
        letters = tuple(ColoredLetter(*x) for x in letters)
        n = len(letters)
        if sorted(x.value for x in letters) != list(range(1, n + 1)):
            raise ValueError(f"values of {word_str(letters)!r} are not 1..{n}")
        for x in letters:
            if not 0 <= x.color < r:
                raise ValueError(f"color of {x} out of range for r={r}")
        vars(self).update(r=r, letters=letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def underlying(self) -> tuple[int, ...]:
        """The value word, colors stripped."""
        return tuple(x.value for x in self.letters)

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(x.color for x in self.letters)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Key realizing the canonical enumeration order."""
        return (self.underlying, self.colors)

    def __str__(self) -> str:
        return word_str(self.letters)

    def __mul__(self, other: "ColoredPermutation") -> "ColoredPermutation":
        return compose(self, other)

    def inverse(self) -> "ColoredPermutation":
        return inverse(self)


def identity(r: int, n: int) -> ColoredPermutation:
    """The identity word ``1_0 2_0 ... n_0``."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    return ColoredPermutation(r, tuple(ColoredLetter(0, v) for v in range(1, n + 1)))


def _compose_words(r: int, sigma: Word, pi: Word) -> Word:
    out = []
    for pc, pv in pi:
        sc, sv = sigma[pv - 1]
        out.append(((pc + sc) % r, sv))
    return tuple(out)


def compose(sigma: ColoredPermutation, pi: ColoredPermutation) -> ColoredPermutation:
    """The product sigma*pi (pi applied first)."""
    if sigma.r != pi.r or sigma.n != pi.n:
        raise ValueError("cannot compose elements of different groups")
    return ColoredPermutation(sigma.r, _compose_words(sigma.r, sigma.letters, pi.letters))


def _inverse_word(r: int, word: Word) -> Word:
    out: list = [None] * len(word)
    for i, (c, v) in enumerate(word, start=1):
        out[v - 1] = ((-c) % r, i)
    return tuple(out)


def inverse(pi: ColoredPermutation) -> ColoredPermutation:
    return ColoredPermutation(pi.r, _inverse_word(pi.r, pi.letters))


def group_order(r: int, n: int) -> int:
    return r**n * math.factorial(n)


def _check_order(r: int, n: int, max_size: int) -> None:
    """Reject an invalid (r, n), or a group of order above max_size."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if group_order(r, n) > max_size:
        raise SizeCapExceeded(
            f"group of order {group_order(r, n)} exceeds cap {max_size}"
        )


def _letter_walk(
    r: int, n: int, letter: Callable[[int, int], object] = lambda v, c: (c, v)
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple]]]:
    """The one walk of the canonical order: each value permutation, in
    lexicographic order, with the iterator of its words, whose color
    vectors count in base r with the least significant digit at position n.
    A word is the tuple of ``letter(value, color)`` over its positions;
    every letter is made once, and shared by the words that hold it."""
    pools = {v: tuple(letter(v, c) for c in range(r)) for v in range(1, n + 1)}
    for values in itertools.permutations(range(1, n + 1)):
        yield values, itertools.product(*map(pools.__getitem__, values))


def group_words(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> Iterator[Word]:
    """Stream the words of all r^n * n! group elements in canonical order,
    the order of ``_letter_walk``.  The order is checked against the cap at
    the call, before any word."""
    _check_order(r, n, max_size)
    return itertools.chain.from_iterable(words for _, words in _letter_walk(r, n))


def _word_stats(
    r: int, n: int, stat: Callable[[Word], object],
    max_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> Iterator:
    """``map(stat, group_words(r, n, max_size))`` for a stat that reads only
    the colors and the value descents between neighbours of equal color.

    Color-first, letters i and i+1 compare by their values only when their
    colors are equal, and a frame letter 0_a or 0_b meets only the first or
    last color; so every descent set, descent count and run composition is
    a function of the run composition: the color vector, and the value
    descents at the positions where it repeats a color.  stat runs once per
    run composition, r·(r+1)^(n-1) calls against r^n·n! words.  The row of
    a permutation's statistics is built once per value-descent flags, and
    yielded again for every later permutation with the same flags.  The
    order is checked against the cap at the call, before any word.
    """
    _check_order(r, n, max_size)
    bits = [1 << i for i in range(n - 1)]
    # bit i of same[c]: letters i and i+1 share a color, for the color
    # vectors in _letter_walk's order
    same = [sum(itertools.compress(bits, map(eq, c, c[1:])))
            for c in itertools.product(range(r), repeat=n)]
    seen: dict[tuple[int, int], object] = {}
    rows: dict[tuple[bool, ...], list] = {}

    def row(values: tuple[int, ...], words: Iterator[Word]) -> list:
        flags = tuple(map(gt, values, values[1:]))
        stats = rows.get(flags)
        if stats is None:
            descents = sum(itertools.compress(bits, flags))
            stats = rows[flags] = []
            for key, word in zip(enumerate(descents & m for m in same), words):
                if key not in seen:
                    seen[key] = stat(word)
                stats.append(seen[key])
        return stats

    return itertools.chain.from_iterable(itertools.starmap(row, _letter_walk(r, n)))


def enumerate_group(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> Iterator[ColoredPermutation]:
    """Every group element, in ``group_words`` order."""
    for word in group_words(r, n, max_size):
        yield ColoredPermutation(r, word)


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A getter of ``tuple(seq[i] for i in indices)``, for any number of indices."""
    if len(indices) > 1:  # of one index, itemgetter returns the bare item
        return itemgetter(*indices)
    return lambda seq: tuple(map(seq.__getitem__, indices))


class GroupTable:
    """Integer multiplication table of G(r, n) = (Z_r)^n ⋊ S_n.

    An element's rank is its position in ``group_words`` order: the
    lexicographic index p of its value permutation times r^n plus the
    base-r index c of its color vector.  For s = (p, c) and t = (q, d),
    ``compose`` gives s*t the value permutation p∘q and the color vector
    d + (c permuted by q), so the product is read off three small tables:
    value products (n! x n!), color vectors permuted by a value
    permutation (r^n x n!) and color addition mod r (r^n x r^n).  Their
    rows are built on first use, so only the rows that some left factor
    reaches are built.  Product rows are gathered from shared lists of the
    rank ints, one block per value permutation, so building a row
    allocates no int objects; the blocks are built with the first row.
    """

    def __init__(self, r: int, n: int) -> None:
        if r < 1 or n < 0:
            raise ValueError("need r >= 1 and n >= 0")
        self.r, self.n = r, n
        self._perms = list(itertools.permutations(range(1, n + 1)))
        self._colors = list(itertools.product(range(r), repeat=n))
        self._perm_index = {p: i for i, p in enumerate(self._perms)}
        self._color_index = {c: i for i, c in enumerate(self._colors)}
        # each row is built on first use, once
        self._value_row = functools.cache(self._value_row)
        self._shift_row = functools.cache(self._shift_row)
        self._sum_gather = functools.cache(self._sum_gather)

    def __len__(self) -> int:
        return len(self._perms) * len(self._colors)

    def rank(self, word: Word) -> int:
        """Position of word in ``group_words`` order."""
        perm = self._perm_index[tuple(v for _, v in word)]
        return perm * len(self._colors) + self._color_index[tuple(c for c, _ in word)]

    def word(self, rank: int) -> Word:
        """The word of the given rank; inverse of ``rank``."""
        p, c = divmod(rank, len(self._colors))
        return tuple(zip(self._colors[c], self._perms[p]))

    def inverse(self, s: int) -> int:
        """The rank of the inverse of the element of rank s: value v goes
        back to its position, and its color is negated mod r."""
        p, c = divmod(s, len(self._colors))
        back = sorted(range(self.n), key=self._perms[p].__getitem__)
        colors = tuple(-self._colors[c][i] % self.r for i in back)
        perm = self._perm_index[tuple(i + 1 for i in back)]
        return perm * len(self._colors) + self._color_index[colors]

    def left_row(self, s: int, blocks: Sequence[Sequence] = ()) -> list:
        """``[rank(s*t) for t in range(len(self))]``, or with ``blocks``,
        which hold a value per rank cut into the rank blocks below,
        ``[value(s*t) for t in range(len(self))]``."""
        p, c = divmod(s, len(self._colors))
        blocks = blocks or self._blocks
        row: list = []
        for v, shifted in zip(self._value_row(p), self._shift_row(c)):
            row.extend(self._sum_gather(shifted)(blocks[v]))
        return row

    @functools.cached_property
    def _blocks(self) -> list[list[int]]:
        """The rank of (p, d) is ``_blocks[p][d]``."""
        size = len(self._colors)
        return [list(range(p * size, (p + 1) * size)) for p in range(len(self._perms))]

    def _value_row(self, p: int) -> list[int]:
        """Index of the value permutation p∘q, for every q."""
        sigma = self._perms[p]
        return [self._perm_index[tuple(sigma[v - 1] for v in q)] for q in self._perms]

    def _shift_row(self, c: int) -> list[int]:
        """Index of color vector c permuted by q, for every q."""
        colors = self._colors[c]
        return [self._color_index[tuple(colors[v - 1] for v in q)] for q in self._perms]

    def _sum_gather(self, c: int) -> Callable[[Sequence], tuple]:
        """Gathers ``block[i]``, i being the index of color vector c + d
        mod r, for every d: the base-r digits of i, first position most
        significant, are built from the last position up."""
        r, row = self.r, [0]
        for a in reversed(self._colors[c]):
            row = [((a + x) % r) * len(row) + rest for x in range(r) for rest in row]
        return _gather(row)


@functools.lru_cache(maxsize=8)
def group_table(r: int, n: int) -> GroupTable:
    """The shared multiplication table of G(r, n)."""
    return GroupTable(r, n)


def _descent_flags(word: Word, a: int = 0, b: int = 1) -> Iterator[bool]:
    """Whether x_i > x_{i+1} color-first, for i = 0..n, reading the word
    framed as x_0 = 0_a, x_1..x_n = word, x_{n+1} = 0_b."""
    framed = ((a, 0), *word, (b, 0))
    return map(gt, framed, framed[1:])


def descent_positions(word: Word, a: int = 0, b: int = 1) -> frozenset[int]:
    """Positions i in [0, n] where the word framed by 0_a and 0_b descends.

    The default frame (0_0, 0_1) gives the descent set: 0 never occurs, and
    n occurs exactly when the last color is nonzero.
    """
    return frozenset(itertools.compress(itertools.count(), _descent_flags(word, a, b)))


def word_des(word: Word) -> int:
    return sum(_descent_flags(word))


class DescentProfile(_Record):
    """Descent set of a word together with its internal restriction."""

    def __init__(
        self, descent_set: frozenset[int], internal_descent_set: frozenset[int]
    ) -> None:
        vars(self).update(
            descent_set=descent_set, internal_descent_set=internal_descent_set
        )

    @property
    def des(self) -> int:
        return len(self.descent_set)

    @property
    def intdes(self) -> int:
        return len(self.internal_descent_set)


def descent_profile(pi: ColoredPermutation) -> DescentProfile:
    full = descent_positions(pi.letters)
    return DescentProfile(full, full - {pi.n})


class ColoredComposition(_Record):
    """Lengths and colors of the maximal increasing monochromatic runs."""

    def __init__(self, parts: tuple[tuple[int, int], ...]) -> None:
        vars(self).update(parts=parts)

    @property
    def n(self) -> int:
        return sum(length for length, _ in self.parts)

    def __str__(self) -> str:
        return "|".join(f"{length}^{color}" for length, color in self.parts)


def _run_parts(word: Word) -> tuple[tuple[int, int], ...]:
    """(length, color) of each run, cut after every color change or
    same-color value descent."""
    parts = []
    run = 0
    for (color, value), nxt in itertools.zip_longest(word, word[1:]):
        run += 1
        if nxt is None or color != nxt[0] or value > nxt[1]:
            parts.append((run, color))
            run = 0
    return tuple(parts)


def mr_key(pi: ColoredPermutation) -> ColoredComposition:
    """The run composition of pi."""
    return ColoredComposition(_run_parts(pi.letters))


def parse_one_line(text: str, r: int) -> ColoredPermutation:
    """Parse space-separated ``value_color`` tokens; inverse of str()."""
    tokens = text.split()
    return ColoredPermutation(r, tuple(parse_letter(t) for t in tokens))


def permutation_to_json(pi: ColoredPermutation) -> dict:
    return {
        "r": pi.r,
        "n": pi.n,
        "letters": [[x.value, x.color] for x in pi.letters],
    }
