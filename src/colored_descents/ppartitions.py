"""Counting colored P-partitions and order polynomials, exactly.

A colored P-partition of a colored poset P with parts bounded by j is a
map f from P into [0,r-1] x [0,j] (ordered color-first) such that

  (i)   every zero letter 0_k maps to (k, 0);
  (ii)  f(a) <= f(b) whenever a < b in P;
  (iii) if f(a) and f(b) land in the same color block k, a < b in P forces
        f(a) < f(b) when a exceeds b after lowering both colors by k;
  (iv)  only a letter of color k may map to the top value (k, j).

The brute-force counter searches the maps depth first, testing every
condition on every map it counts and dropping a partial map at its first
failure.  It uses no extension theorem and no closed form, and is the
oracle for every closed form in this module.  All arithmetic is exact
integer arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import gt
from typing import Iterator, Optional

from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredLetter,
    ColoredPermutation,
    SizeCapExceeded,
    Word,
    group_words,
    word_des,
    word_intdes,
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


def count_ppartitions_bruteforce(
    poset: ColoredPoset, j: int, max_maps: int = DEFAULT_MAX_MAPS
) -> int:
    """Count colored P-partitions with parts in [0, j] by exhaustive search.

    An image (k, v) is the integer k*(j+1) + v, so integer order is the
    color-first order.  Zero letters are pinned by (i), and each free letter
    ranges over the images that (iv) allows.  The free letters are assigned
    depth first.  Every relation is tested by (ii) and (iii) at the deeper
    of its two letters, as soon as both images are known: it bounds the
    deeper letter's images, so a partial map is dropped at its first
    failure.  The cap bounds the (r(j+1))^|free| candidate maps and is
    checked before any search.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if poset.unsatisfiable:
        return 0
    r = poset.r
    free = poset.nonzero
    n_images = r * (j + 1)
    if n_images**len(free) > max_maps:
        raise SizeCapExceeded(
            f"{n_images}^{len(free)} candidate maps exceed cap {max_maps}"
        )

    base = j + 1
    depth = {x: d for d, x in enumerate(free)}
    # lo[d]..hi[d]: the images that relations with zero letters leave letter
    # d; below[d] / above[d]: shallower letters e with e < d / d < e, and
    # whether each color forces strictness, read at the image of e
    lo = [0] * len(free)
    hi = [n_images - 1] * len(free)
    below: list[list[tuple[int, tuple[bool, ...]]]] = [[] for _ in free]
    above: list[list[tuple[int, tuple[bool, ...]]]] = [[] for _ in free]
    for a, b in poset.less:
        strict = tuple(_shift_gt(a, b, k, r) for k in range(r))
        da, db = depth.get(a), depth.get(b)
        if da is None and db is None:  # both pinned by (i)
            fa, fb = a.color * base, b.color * base
            if fa > fb or (fa == fb and strict[a.color]):
                return 0
        elif da is None:
            fa = a.color * base
            lo[db] = max(lo[db], fa + strict[a.color])
        elif db is None:
            fb = b.color * base
            hi[da] = min(hi[da], fb - strict[b.color])
        elif da < db:
            below[db].append((da, strict))
        else:
            above[da].append((db, strict))
    if not free:
        return 1
    # condition (iv): the top value (k, j) only for a letter of color k
    allowed = [
        [i for i in range(n_images) if i % base != j or i // base == x.color]
        for x in free
    ]

    f = [0] * len(free)

    def choices(d: int) -> list[int]:
        low, high = lo[d], hi[d]
        for e, strict in below[d]:
            fe = f[e]
            low = max(low, fe + strict[fe // base])
        for e, strict in above[d]:
            fe = f[e]
            high = min(high, fe - strict[fe // base])
        row = allowed[d]
        return row[bisect_left(row, low) : bisect_right(row, high)]

    # depth first with one iterator of choices per assigned letter; the
    # last letter's choices are counted, not visited
    last = len(free) - 1
    if last == 0:
        return len(choices(0))
    count = 0
    pending = [iter(choices(0))]
    while pending:
        d = len(pending) - 1
        for image in pending[d]:
            f[d] = image
            if d + 1 == last:
                count += len(choices(last))
            else:
                pending.append(iter(choices(d + 1)))
                break
        else:
            pending.pop()
    return count


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
    return binom(pi.r * j + n - word_intdes(pi.letters), n)


def descent_counts(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> list[int]:
    """Histogram of descent numbers over the whole group, indices 0..n."""
    counts = Counter(map(word_des, group_words(r, n, max_size)))
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


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0 or total < 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total + parts - 2 - prev)
        yield tuple(comp)


@functools.lru_cache(maxsize=64)
def _compartment_shapes(pi: ColoredPermutation, k: int) -> Counter:
    """How often each compartment shape occurs over the placements of k
    bars: the last compartment's word together with the sorted
    (length, intdes) of the nonempty others."""
    n, letters = pi.n, pi.letters
    # internal[i]: descents between consecutive letters among the first i+1
    internal = [0, *itertools.accumulate(map(gt, letters, letters[1:]))]
    shapes: Counter = Counter()
    # bars[i] bars stand after the first i letters; I is the set of i >= 1
    # with bars[i] > 0, so each (I, placement) pair is one weak composition
    for bars in _weak_compositions(k, n + 1):
        cuts = [0] + [i for i, b in enumerate(bars) for _ in range(b)]
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
