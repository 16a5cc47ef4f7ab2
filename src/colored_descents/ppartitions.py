"""Counting colored P-partitions and order polynomials, exactly.

A colored P-partition of a colored poset P with parts bounded by j is a
map f from P into [0,r-1] x [0,j] (ordered color-first) such that

  (i)   every zero letter 0_k maps to (k, 0);
  (ii)  f(a) <= f(b) whenever a < b in P;
  (iii) if f(a) and f(b) land in the same color block k, a < b in P forces
        f(a) < f(b) when a exceeds b after lowering both colors by k;
  (iv)  only a letter of color k may map to the top value (k, j).

The brute-force counter searches the maps depth first, on bitmasks of
images, testing every condition on every map it counts and dropping a
partial map at its first failure; one setup serves every j of a range.
It uses no extension theorem and no closed form, and is the oracle for
every closed form in this module.  All arithmetic is exact
integer arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from functools import reduce
from itertools import compress
from operator import and_, getitem
from typing import Callable, Iterator, Optional

from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredLetter,
    ColoredPermutation,
    SizeCapExceeded,
    Word,
    _word_stats,
    descent_positions,
    word_des,
)
from .posets import (
    ColoredPoset,
    _zero_letters,
    make_poset,
)

DEFAULT_MAX_MAPS = 10_000_000


def binom(m: int, k: int) -> int:
    """Binomial coefficient, zero whenever m < k (multichoose convention)."""
    return math.comb(m, k) if m >= k else 0


def _shift_gt(a: ColoredLetter, b: ColoredLetter, k: int, r: int) -> bool:
    """Whether a exceeds b after lowering both colors by k."""
    return ((a.color - k) % r, a.value) > ((b.color - k) % r, b.value)


def _bits(mask: int) -> Iterator[bool]:
    """Whether each bit of a mask is set, lowest first, up to its top bit."""
    return map("1".__eq__, bin(mask)[:1:-1])


@functools.lru_cache(maxsize=64)
def _relation_table(
    r: int, base: int, up: bool, strict: tuple[bool, ...]
) -> tuple[int, ...]:
    """The images that (ii) and (iii) leave the deeper letter of a relation
    a < b, for each image x of the shallower one: x and above if the deeper
    letter is b, x and below if it is a, x itself only where the color
    block of x does not force strictness."""
    full = (1 << r * base) - 1
    return tuple(
        full >> x + s << x + s if up else (1 << x + 1 - s) - 1
        for x, s in enumerate(strict[x // base] for x in range(r * base))
    )


def _ppartition_counter(
    poset: ColoredPoset, j_max: int, max_maps: int
) -> Callable[[int], int]:
    """Set up the search on the image grid of ``j_max``, once; the returned
    function counts the colored P-partitions at one j in 0..j_max.

    Image (k, v) is the integer k*(j_max+1) + v, so integer order is the
    color-first order and a set of images is a bitmask.  A relation with a
    zero letter, pinned by (i), bounds the other letter's mask; a relation
    of two free letters is a table (``_relation_table``).  A j masks the
    grid to v <= j, and keeps (k, j) for the letters of color k only (iv).
    The letters are assigned depth first, each from the AND of its mask and
    its tables at the images chosen, so a partial map is dropped at its
    first failure; the last three are counted with ``map`` and
    ``int.bit_count``.  The cap bounds the (r(j_max+1))^|free| candidate
    maps and is checked before any relation is read.
    """
    if j_max < 0:
        raise ValueError("j must be nonnegative")
    if poset.unsatisfiable:
        return lambda j: 0
    r = poset.r
    free = poset.nonzero
    base = j_max + 1
    n_images = r * base
    if n_images**len(free) > max_maps:
        raise SizeCapExceeded(
            f"{n_images}^{len(free)} candidate maps exceed cap {max_maps}"
        )

    full = (1 << n_images) - 1
    last = len(free) - 1
    depth = {x: d for d, x in enumerate(free)}
    static = [full] * len(free)
    # shallower[d] and tables[d]: the shallower letters related to letter d,
    # and their tables; the tables among the last three letters are read per
    # image instead, by (deeper, shallower)
    shallower: list[list[int]] = [[] for _ in free]
    tables: list[list[tuple[int, ...]]] = [[] for _ in free]
    among: dict[tuple[int, int], tuple[int, ...]] = {}
    for a, b in poset.less:
        da, db = depth.get(a), depth.get(b)
        if da is None and db is None:  # both pinned by (i)
            if a.color > b.color or (a.color == b.color and _shift_gt(a, b, a.color, r)):
                return lambda j: 0
        elif da is None:  # f(b) >= (a.color, 0), strictly by (iii)
            low = a.color * base + _shift_gt(a, b, a.color, r)
            static[db] &= full >> low << low
        elif db is None:  # f(a) <= (b.color, 0), strictly by (iii)
            static[da] &= (1 << b.color * base + 1 - _shift_gt(a, b, b.color, r)) - 1
        else:
            strict = tuple(_shift_gt(a, b, k, r) for k in range(r))
            table = _relation_table(r, base, da < db, strict)
            e, d = sorted((da, db))
            if e < last - 2:
                shallower[d].append(e)
                tables[d].append(table)
            else:
                among[d, e] = table

    # fewer than three letters are padded in front with letters whose single
    # image is 0; an unrelated pair reads all images
    ones = (full,) * n_images
    to_second, to_last, pair = (
        among.get(key, ones)
        for key in ((last - 1, last - 2), (last, last - 2), (last, last - 1))
    )
    stripe = sum(1 << k * base for k in range(r))
    tops = [1 << x.color * base for x in free]
    f = [0] * len(free)
    fget = f.__getitem__

    def mask(d: int, allowed: list[int]) -> int:
        """Letter d's images, given the images f of the shallower letters."""
        return reduce(and_, map(getitem, tables[d], map(fget, shallower[d])), allowed[d])

    def last_two(second: int, rest: int) -> int:
        """The maps of the last two letters, given their masks."""
        if pair is ones:
            return second.bit_count() * rest.bit_count()
        return sum(map(int.bit_count, map(rest.__and__, compress(pair, _bits(second)))))

    def last_three(third: int, second: int, rest: int) -> int:
        """The maps of the last three letters, given their masks before the
        tables among them."""
        return sum(map(
            last_two,
            map(second.__and__, compress(to_second, _bits(third))),
            map(rest.__and__, compress(to_last, _bits(third))),
        ))

    def count(j: int) -> int:
        below = ((1 << j) - 1) * stripe  # v < j in every color block
        allowed = [m & (below | top << j) for m, top in zip(static, tops)]
        if last < 3:
            return last_three(*[1] * (2 - last), *allowed)
        total = 0
        pending = [compress(itertools.count(), _bits(mask(0, allowed)))]
        while pending:  # one iterator of images per assigned letter
            d = len(pending) - 1
            for image in pending[d]:
                f[d] = image
                if d + 3 == last:
                    total += last_three(
                        mask(last - 2, allowed), mask(last - 1, allowed), mask(last, allowed)
                    )
                else:
                    pending.append(compress(itertools.count(), _bits(mask(d + 1, allowed))))
                    break
            else:
                pending.pop()
        return total

    return count


def count_ppartitions_bruteforce(
    poset: ColoredPoset, j: int, max_maps: int = DEFAULT_MAX_MAPS
) -> int:
    """Count colored P-partitions with parts in [0, j] by exhaustive search
    over the maps, as ``_ppartition_counter`` sets it up.  The cap bounds the
    (r(j+1))^|free| candidate maps and is checked before any search."""
    return _ppartition_counter(poset, j, max_maps)(j)


def _ppartition_counts(
    poset: ColoredPoset, j_max: int, max_maps: int = DEFAULT_MAX_MAPS
) -> list[int]:
    """``count_ppartitions_bruteforce`` at every j in 0..j_max, from one
    setup; the cap is checked once, at j_max."""
    return list(map(_ppartition_counter(poset, j_max, max_maps), range(j_max + 1)))


def omega_word(word: Word, j: int) -> int:
    """Order polynomial of the total chain of a word: C(j + n - des, n)."""
    n = len(word)
    return binom(j + n - word_des(word), n)


def omega_pi(pi: ColoredPermutation, j: int) -> int:
    """Number of weakly increasing fillings of the chain of pi, descents strict."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    return omega_word(pi.letters, j)


def omega_Ppi(pi: ColoredPermutation, j: int) -> int:
    """Order polynomial of the chain of pi detached from the zero chain."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    n = pi.n
    return binom(pi.r * j + n - len(descent_positions(pi.letters) - {n}), n)


def descent_counts(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> list[int]:
    """Histogram of descent numbers over the whole group, indices 0..n."""
    counts = Counter(_word_stats(r, n, word_des, max_size))
    return [counts[d] for d in range(n + 1)]


def descent_class_sizes(r: int, n: int) -> list[int]:
    """Histogram of descent numbers, indices 0..n, without a group walk.

    Steingrimsson's identity (rx+1)^n = sum_d |C_d| C(x+n-d, n) for
    x = 0..n is lower unitriangular in (x, d): the binomial is 0 for d > x
    and 1 for d = x.  So forward substitution gives each |C_x|, in integers.
    ``descent_counts`` is the group walk that checks it.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    sizes: list[int] = []
    for x in range(n + 1):
        below = sum(size * binom(x + n - d, n) for d, size in enumerate(sizes))
        sizes.append((r * x + 1) ** n - below)
    return sizes


def eulerian_polynomial(r: int, n: int) -> tuple[int, ...]:
    """Descent-number generating polynomial, trailing zeros trimmed.  The
    coefficients are the closed class sizes, so no group is walked."""
    counts = descent_class_sizes(r, n)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def verify_steingrimsson(
    r: int, n: int, J: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> bool:
    """Check (rj+1)^n = sum_d #{des=d} C(j+n-d, n) for 0 <= j <= J."""
    counts = descent_counts(r, n, max_size)
    return all(
        (r * j + 1) ** n
        == sum(counts[d] * binom(j + n - d, n) for d in range(n + 1))
        for j in range(J + 1)
    )


@functools.lru_cache(maxsize=64)
def _compartment_shapes(pi: ColoredPermutation, k: int) -> Counter:
    """How often each compartment shape occurs over the placements of k
    bars: the last compartment's word together with the sorted
    (length, intdes) of the nonempty others."""
    n, letters = pi.n, pi.letters
    # internal[i]: descents between consecutive letters among the first i+1
    descents = descent_positions(letters)
    internal = list(itertools.accumulate((i in descents for i in range(1, n)), initial=0))
    shapes: Counter = Counter()
    # a placement is a multiset of k positions in 0..n, a bar at i standing
    # after the first i letters; I is the set of its positions i >= 1, so
    # each (I, placement) pair is one multiset
    for bars in itertools.combinations_with_replacement(range(n + 1), k):
        cuts = [0, *bars]
        others = tuple(sorted(
            (b - a, internal[b - 1] - internal[a])
            for a, b in zip(cuts, cuts[1:])
            if b > a
        ))
        shapes[letters[cuts[-1]:], others] += 1
    return shapes


def barred_chain_total(pi: ColoredPermutation, j: int, k: int) -> int:
    """Sum over all I of barred relaxed-chain counts with k bars.

    Every subset I of [n] contributes one chain poset (relations dropped at
    I); bars go one-or-more into each space of I, any number at the left
    end, splitting pi into k+1 compartments.  Each compartment is counted
    by its detached-chain order polynomial, except the rightmost one which
    stays anchored.  The grand total is returned as counted; by the paper
    it equals C(rjk + j + k + n - des(pi), n), which the ``barred`` suite
    checks.  The placements are walked once per (pi, k) into compartment
    shapes, and each j is counted from those.
    """
    r = pi.r
    total = 0
    for (last, others), count in _compartment_shapes(pi, k).items():
        product = count * omega_word(last, j)
        for m, d in others:
            product *= binom(r * j + m - d, m)
        total += product
    return total


def random_colored_poset(
    rng: random.Random,
    max_r: int = 3,
    max_values: int = 4,
    r: Optional[int] = None,
    value_offset: int = 0,
) -> ColoredPoset:
    """Seeded random colored poset for oracle testing.

    Samples a DAG against a random topological order of the nonzero letters
    interleaved with the zero chain, then closes transitively.  A value
    offset shifts the sampled values, which keeps two draws disjoint for
    product-rule checks.
    """
    r = r if r is not None else rng.randint(1, max_r)
    ell = rng.randint(0, max_values)
    values = [v + value_offset for v in rng.sample(range(1, max_values + 3), ell)]
    letters = [ColoredLetter(rng.randrange(r), v) for v in values]
    order: list[ColoredLetter] = list(_zero_letters(r))
    for letter in letters:
        order.insert(rng.randint(0, len(order)), letter)
    covers = []
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if a.value == 0 and b.value == 0:
                continue
            if rng.random() < 0.4:
                covers.append((a, b))
    n = max(values, default=0)
    return make_poset(r, n, letters, covers)
