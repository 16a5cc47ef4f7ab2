"""Exact rational group algebra of the colored permutation groups.

Elements are sparse formal sums of group elements with Fraction (or int)
coefficients.  The module builds the descent-number class sums C_0..C_n,
the run-composition class sums, checks whether products of class sums stay
in the span of a partition's class sums, and constructs the orthogonal
idempotents that arise from expanding the structure polynomial

    phi(x) = sum_pi C(x + n - des(pi), n) pi

at the substitution x -> (x - 1)/r.  Binomials with rational argument are
falling factorials divided by n!, the unique polynomial extension.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import add, eq, mul
from typing import Mapping, Optional, Sequence, Union

from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredPermutation,
    GroupTable,
    SizeCapExceeded,
    Word,
    _descent_flags,
    _gather,
    _Record,
    _run_parts,
    _word_stats,
    descent_positions,
    group_order,
    group_table,
    group_words,
    identity,
    word_des,
    word_str,
)

Scalar = Union[int, Fraction]

DEFAULT_MAX_PAIRS = 250_000_000


def _require_exact(q: Scalar) -> Scalar:
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"exact arithmetic only; got {type(q).__name__}")
    return q


def rational_binom(y: Scalar, n: int) -> Fraction:
    """Falling factorial y(y-1)...(y-n+1)/n! over exact rationals."""
    _require_exact(y)
    out = Fraction(1)
    for m in range(n):
        out *= Fraction(y) - m
    return out / math.factorial(n)


class GroupAlgebraElement(_Record):
    """Sparse exact-rational formal sum of group elements.

    Keys of ``coeffs`` are one-line letter words; zero coefficients are
    never stored.  Instances are treated as immutable values.
    """

    def __init__(self, r: int, n: int, coeffs: dict[Word, Scalar]) -> None:
        coeffs = {w: c for w, c in coeffs.items() if c != 0}
        vars(self).update(r=r, n=n, coeffs=coeffs)

    def coefficient(self, pi: Union[ColoredPermutation, Word]) -> Scalar:
        key = pi.letters if isinstance(pi, ColoredPermutation) else tuple(pi)
        return self.coeffs.get(key, 0)

    def terms(self) -> list[tuple[Word, Scalar]]:
        """Support sorted in canonical group order."""

        def key(w: Word) -> tuple:
            return (tuple(x[1] for x in w), tuple(x[0] for x in w))

        return sorted(self.coeffs.items(), key=lambda item: key(item[0]))

    def support_size(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return algebra_add(self, other)

    def __mul__(self, other) -> "GroupAlgebraElement":
        if isinstance(other, GroupAlgebraElement):
            return algebra_multiply(self, other)
        return algebra_scale(self, other)

    def __rmul__(self, other) -> "GroupAlgebraElement":
        return algebra_scale(self, other)

    def __str__(self) -> str:
        parts = [f"({c})[{word_str(w)}]" for w, c in self.terms()]
        return " + ".join(parts) if parts else "0"


def algebra_zero(r: int, n: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(r, n, {})


def algebra_unit(r: int, n: int) -> GroupAlgebraElement:
    return delta(identity(r, n))


def delta(pi: ColoredPermutation) -> GroupAlgebraElement:
    return GroupAlgebraElement(pi.r, pi.n, {pi.letters: 1})


def _check_same_group(a: GroupAlgebraElement, b: GroupAlgebraElement) -> None:
    if (a.r, a.n) != (b.r, b.n):
        raise ValueError("elements live in different group algebras")


def algebra_add(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    _check_same_group(a, b)
    coeffs = dict(a.coeffs)
    for w, c in b.coeffs.items():
        coeffs[w] = coeffs.get(w, 0) + c
    return GroupAlgebraElement(a.r, a.n, coeffs)


def algebra_scale(a: GroupAlgebraElement, q: Scalar) -> GroupAlgebraElement:
    _require_exact(q)
    return GroupAlgebraElement(a.r, a.n, {w: q * c for w, c in a.coeffs.items()})


def algebra_multiply(
    a: GroupAlgebraElement, b: GroupAlgebraElement
) -> GroupAlgebraElement:
    """Convolution product: coefficient of pi is sum over st = pi of a[s] b[t].

    Write a = a' + u S and b = b' + v S, where S is the sum of the whole
    group and u, v are the operands' most common coefficients over the
    group.  Since x S = S x = e(x) S, e being the coefficient sum,

        a b = a' b' + (v e(a) + u e(b')) S,

    so only the supports of a' and b' are convolved.  Those are grouped by
    coefficient value, and the coefficient of p in a' b' is the sum of
    c * d * #{(s, t) : st = p, a'[s] = c, b'[t] = d}, the counts coming
    from ``_convolve``.
    """
    _check_same_group(a, b)
    size = group_order(a.r, a.n)
    (u, left_size), (v, right_size) = _common_value(a, size), _common_value(b, size)
    if left_size * right_size > DEFAULT_MAX_PAIRS:
        raise SizeCapExceeded(
            f"product support {left_size}x{right_size} exceeds cap"
        )
    table = group_table(a.r, a.n)
    right = _value_groups(table, b, v)
    right_ranks = [ranks for _, ranks in right]
    coeffs: dict[int, Scalar] = {}
    for c, left in _value_groups(table, a, u):
        for (d, _), counts in zip(right, _convolve(table, left, right_ranks)):
            cd = c * d
            for p, m in counts.items():
                coeffs[p] = coeffs.get(p, 0) + cd * m
    total = v * sum(a.coeffs.values()) + u * (sum(b.coeffs.values()) - v * size)
    if total:
        coeffs = {p: coeffs.get(p, 0) + total for p in range(size)}
    return GroupAlgebraElement(
        a.r, a.n, {table.word(p): c for p, c in coeffs.items()}
    )


def _common_value(a: GroupAlgebraElement, size: int) -> tuple[Scalar, int]:
    """a's most common coefficient u over a group of the given order, with
    elements outside the support counting as 0 and 0 winning ties, and the
    number of elements whose coefficient is not u."""
    counts = Counter({0: size - len(a.coeffs)})
    counts.update(a.coeffs.values())
    u = max(counts, key=counts.__getitem__)
    return u, size - counts[u]


def _value_groups(
    table: GroupTable, a: GroupAlgebraElement, u: Scalar
) -> list[tuple[Scalar, list[int]]]:
    """The support of a - u S as ranks, grouped by coefficient value."""
    coeffs = {table.rank(w): c for w, c in a.coeffs.items()}
    # u != 0 is the most common value, so the support of a covers over half
    # the group and walking every rank costs no more than walking it
    items = ((p, coeffs.get(p, 0)) for p in range(len(table))) if u else coeffs.items()
    groups: dict[Scalar, list[int]] = {}
    for p, c in items:
        if c != u:
            groups.setdefault(c - u, []).append(p)
    return list(groups.items())


def _convolve(
    table: GroupTable, left: Sequence[int], rights: Sequence[Sequence[int]]
) -> list[Counter]:
    """For each rank set T in rights, how often s*t = p over s in left, t in T.

    Each left row is built once and every right set is gathered from it,
    so the per-pair work runs in C.
    """
    counts = [Counter() for _ in rights]
    gathers = [_gather(ranks) for ranks in rights]
    for s in left:
        row = table.left_row(s)
        for count, gather in zip(counts, gathers):
            count.update(gather(row))
    return counts


class ClassInfo(_Record):
    """One class: its members as ``GroupTable`` ranks, ascending."""

    def __init__(self, label: object, ranks: tuple[int, ...]) -> None:
        vars(self).update(label=label, ranks=ranks)

    @property
    def size(self) -> int:
        return len(self.ranks)


class ClassPartition(_Record):
    """A set partition of the group with stable class indexing.

    Blocks are nonempty and sorted by label.
    """

    def __init__(
        self, r: int, n: int, kind: str, classes: tuple[ClassInfo, ...]
    ) -> None:
        vars(self).update(r=r, n=n, kind=kind, classes=classes)

    @functools.cached_property
    def order(self) -> tuple[Word, ...]:
        """The whole group in canonical enumeration order, which is
        ``GroupTable`` rank order, so ``order[p]`` is the word of rank p.
        Made once, on first use; the partition already passed its cap."""
        return tuple(group_words(self.r, self.n, group_order(self.r, self.n)))


def _class_element(partition: ClassPartition, coords: Mapping) -> GroupAlgebraElement:
    """Every member of a class weighted by ``coords[label]``; a label missing
    from coords weights its class by 0."""
    order = partition.order
    return GroupAlgebraElement(partition.r, partition.n, {
        order[p]: coords[info.label]
        for info in partition.classes if info.label in coords
        for p in info.ranks
    })


def partition_by(
    r: int,
    n: int,
    kind: str,
    label_fn,
    max_size: int = DEFAULT_MAX_GROUP_SIZE,
) -> ClassPartition:
    """Classes of the words of G(r, n) with equal ``label_fn(word)``, read
    off one walk of the group in rank order and sorted by label.

    label_fn must read only the colors and where the values descend, as
    every descent statistic does: ``group._word_stats`` calls it once per
    (value-descent flags, color vector), not once per word."""
    by_label: dict[object, list[int]] = {}
    for rank, label in enumerate(_word_stats(r, n, label_fn, max_size)):
        by_label.setdefault(label, []).append(rank)
    classes = tuple(
        ClassInfo(label, tuple(ranks)) for label, ranks in sorted(by_label.items())
    )
    return ClassPartition(r, n, kind, classes)


def des_partition(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> ClassPartition:
    return partition_by(r, n, "des", word_des, max_size)


def class_sums_des(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> tuple[ClassPartition, list[GroupAlgebraElement]]:
    """The partition by descent number and the sums C_0..C_n.

    Unrealized descent numbers (only possible at r = 1) yield the zero
    element, so the list always has n + 1 entries.
    """
    partition = des_partition(r, n, max_size)
    return partition, [_class_element(partition, {d: 1}) for d in range(n + 1)]


def mr_partition(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> ClassPartition:
    return partition_by(r, n, "mr", _run_parts, max_size)


def class_sums_mr(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> tuple[ClassPartition, list[GroupAlgebraElement]]:
    """One class sum per realized run composition, in label order."""
    partition = mr_partition(r, n, max_size)
    return partition, [
        _class_element(partition, {info.label: 1}) for info in partition.classes
    ]


def desset_partition(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> ClassPartition:
    def label(w: Word) -> tuple:
        return tuple(sorted(descent_positions(w)))

    return partition_by(r, n, "desset", label, max_size)


def variant_partition(
    r: int, n: int, a: int, b: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> ClassPartition:
    """Partition by the descent count read with boundary letters 0_a, 0_b."""

    def label(w: Word) -> int:
        return sum(_descent_flags(w, a, b))

    return partition_by(r, n, f"desvar({a},{b})", label, max_size)


class SpanCheck(_Record):
    """Result of testing membership in the span of a partition's class sums."""

    def __init__(
        self,
        vector: Optional[tuple[Scalar, ...]],
        witness: Optional[tuple[Word, Word, Scalar, Scalar]],
    ) -> None:
        vars(self).update(vector=vector, witness=witness)

    @property
    def in_span(self) -> bool:
        return self.vector is not None


def is_in_span(a: GroupAlgebraElement, partition: ClassPartition) -> SpanCheck:
    """Per-class coefficient vector if a is constant on every class.

    Otherwise returns the first witness pair (two members of one class
    carrying different coefficients).
    """
    if (a.r, a.n) != (partition.r, partition.n):
        raise ValueError("element and partition live on different groups")
    order = partition.order
    scan = _span_scan([[order[p] for p in info.ranks] for info in partition.classes])
    vector, witness = scan(a.coeffs)
    return SpanCheck(None if vector is None else tuple(vector), witness)


class ClosureFailure(_Record):
    """A product of the left and right classes' sums that leaves the span."""

    def __init__(
        self, left: int, right: int, witness: tuple[Word, Word, Scalar, Scalar]
    ) -> None:
        vars(self).update(left=left, right=right, witness=witness)

    def to_json(self) -> dict:
        w1, w2, c1, c2 = self.witness
        return {
            "left_class": self.left,
            "right_class": self.right,
            "word1": word_str(w1),
            "word2": word_str(w2),
            "coeff1": str(c1),
            "coeff2": str(c2),
        }


class ClosureReport(_Record):
    """Outcome of a closure check.

    ``tensor`` holds the structure constants read off the checked products,
    ``tensor[j][k]`` being the span vector of class_sum_j * class_sum_k; it
    is None unless every product lies in the span.  ``products`` counts the
    pairs of group elements actually composed.  ``generator`` is the label
    of the class that generated the span, or None when every pair was
    checked.  Equality and hashing read ``failures`` only.
    """

    def __init__(
        self,
        failures: tuple[ClosureFailure, ...],
        tensor: Optional[list[list[list[int]]]] = None,
        products: int = 0,
        generator: object = None,
    ) -> None:
        vars(self).update(
            failures=failures, tensor=tensor, products=products, generator=generator
        )

    def _key(self) -> tuple:
        return (self.failures,)

    @property
    def passed(self) -> bool:
        return not self.failures


def _pairs_cap(products: int) -> int:
    """products, or SizeCapExceeded above the pairs cap."""
    if products > DEFAULT_MAX_PAIRS:
        raise SizeCapExceeded(f"{products} products exceed cap {DEFAULT_MAX_PAIRS}")
    return products


def closure_products(sizes: Sequence[int]) -> int:
    """(|G| - max |C|)^2, the compositions ``verify_closure`` makes for
    classes of these sizes; raises SizeCapExceeded above the pairs cap."""
    return _pairs_cap((sum(sizes) - max(sizes)) ** 2)


def generated_products(sizes: Sequence[int]) -> int:
    """The compositions ``generated_closure`` makes on nonempty classes of
    these sizes when, as for the descent classes, its first candidate of
    more than one element generates; SizeCapExceeded above the pairs cap."""
    sizes = sorted(size for size in sizes if size)
    tried = next((i + 1 for i, size in enumerate(sizes) if size > 1), len(sizes))
    return _pairs_cap(sum(sizes) * sum(sizes[:tried]))


def generated_closure(partition: ClassPartition) -> ClosureReport:
    """``verify_closure`` for a span V that one class sum C_g generates.

    If the identity's class is {e}, C_g V lies in V and the powers 1, C_g,
    ..., C_g^(K-1) have rank K, then V = Q[C_g] is a commutative subalgebra,
    and C_j = sum_i a[j][i] C_g^i gives every C_j C_k from the products
    C_g C_k.  Candidates g go in ascending (size, label) order, each
    checked against the pairs cap before its first row; the first of rank
    K generates.  acc[p] packs every (C_g C_k)(p) as the sum over s in C_g
    of 2^(bits class(s^-1 p)), so C_g V lies in V iff acc is constant on
    each class.  Otherwise, or if no candidate reaches rank K, the report
    is ``verify_closure``'s, with the compositions of both routes.
    """
    classes = [info.ranks for info in partition.classes]
    K, table = len(classes), group_table(partition.r, partition.n)
    label = [0] * len(table)
    for k, ranks in enumerate(classes):
        for p in ranks:
            label[p] = k
    step = partition.r ** partition.n  # the rank blocks of GroupTable.left_row
    label_blocks = [label[i:i + step] for i in range(0, len(label), step)]
    unit, products = label[0], 0
    candidates = sorted(range(K), key=lambda k: len(classes[k]))
    for g in candidates if len(classes[unit]) == 1 else ():
        products = _pairs_cap(products + len(table) * len(classes[g]))
        bits = len(classes[g]).bit_length()
        weights = [1 << (bits * k) for k in range(K)]
        blocks = [list(map(weights.__getitem__, block)) for block in label_blocks]
        acc = [0] * len(table)
        for s in sorted(map(table.inverse, classes[g])):
            acc = list(map(add, acc, table.left_row(s, blocks)))
        if len(set(zip(label, acc))) != K:
            break
        L = [[acc[ranks[0]] >> (bits * k) & ((1 << bits) - 1) for ranks in classes]
             for k in range(K)]
        powers = [[[int(i == j) for j in range(K)] for i in range(K)]]
        for _ in range(1, K):
            powers.append([[sum(map(mul, row, column)) for column in zip(*L)]
                           for row in powers[-1]])
        rank, a = _rank_inverse([power[unit] for power in powers])
        if rank == K:
            tensor = [[[sum(a[j][i] * powers[i][k][l] for i in range(K))
                        for l in range(K)] for k in range(K)] for j in range(K)]
            assert all(x.denominator == 1 for m in tensor for row in m for x in row)
            tensor = [[list(map(int, row)) for row in m] for m in tensor]
            return ClosureReport((), tensor, products, partition.classes[g].label)
    report = verify_closure(partition)
    return ClosureReport(report.failures, report.tensor, products + report.products)


def _rank_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, Optional[list]]:
    """The rank of a square matrix over Q by Gauss-Jordan elimination, and
    its inverse when the rank is full, else None."""
    K = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(K)]
            for i, row in enumerate(rows)]
    rank = 0
    for col in range(K):
        pivot = next((i for i in range(rank, K) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = [x / work[rank][col] for x in work[rank]]
        work = [top if i == rank else [x - row[col] * y for x, y in zip(row, top)]
                for i, row in enumerate(work)]
        rank += 1
    return rank, [row[K:] for row in work] if rank == K else None


def verify_closure(partition: ClassPartition) -> ClosureReport:
    """Check every product of two class sums against the span of the sums.

    Let K be the largest class, the first on ties.  Only left classes
    j != K are convolved, one at a time, and only against right classes
    k != K: (|G| - |C_K|)^2 compositions in all.  The rest follows from
    C_j S = S C_j = |C_j| S, S being the sum of the group, which is the sum
    of all classes.  For every p,

        (C_j C_K)(p) = |C_j| - sum_{k != K} (C_j C_k)(p),
        (C_K C_k)(p) = |C_k| - sum_{j != K} (C_j C_k)(p),
        (C_K C_K)(p) = 2 |C_K| - |G| + sum_{j, k != K} (C_j C_k)(p),

    the sums over j kept as one running accumulator per k.  Each product
    is tested for constancy on every class.  A failing pair reports the
    first differing member of its first non-constant class.  When all
    pairs pass, their span vectors form the structure-constant tensor
    carried on the report.
    """
    classes = [info.ranks for info in partition.classes]
    big = max(range(len(classes)), key=lambda k: len(classes[k]))
    products = closure_products([len(ranks) for ranks in classes])
    table = group_table(partition.r, partition.n)
    others = [k for k in range(len(classes)) if k != big]
    rest = [classes[k] for k in others]
    columns = [Counter() for _ in others]
    corner = Counter()
    tensor = [[None] * len(classes) for _ in classes]
    failures = []
    scan = _span_scan(classes)

    def check(j: int, k: int, counts: Counter, base: int = 0, sign: int = 1) -> None:
        """Test C_j C_k, whose coefficient of p is base + sign * counts[p]."""
        vector, witness = scan(counts)
        if witness is None:
            tensor[j][k] = [base + sign * m for m in vector]
        else:
            s, t, cs, ct = witness
            failures.append(ClosureFailure(
                j, k, (table.word(s), table.word(t), base + sign * cs, base + sign * ct)
            ))

    for j in others:
        row = Counter()
        for k, column, counts in zip(others, columns, _convolve(table, classes[j], rest)):
            check(j, k, counts)
            row.update(counts)
            column.update(counts)
        check(j, big, row, len(classes[j]), -1)
        corner.update(row)
    for k, column in zip(others, columns):
        check(big, k, column, len(classes[k]), -1)
    check(big, big, corner, 2 * len(classes[big]) - len(table))
    failures.sort(key=lambda f: (f.left, f.right))
    return ClosureReport(tuple(failures), None if failures else tensor, products)


def _span_scan(classes: Sequence[Sequence]):
    """A constancy test over the given classes of keys (words or ranks
    alike).  ``scan(coeffs)`` takes a mapping that stores no zero and
    returns ``(vector, None)`` if ``coeffs.get(key, 0)`` is constant on
    every class, else ``(None, (key1, key2, coeff1, coeff2))`` for the
    first differing member of the first non-constant class."""
    label = {key: i for i, members in enumerate(classes) for key in members}
    sizes = list(map(len, classes))
    indices = range(len(classes))

    def scan(coeffs: Mapping) -> tuple:
        # constant iff each class meeting the support lies inside it with
        # one value; this reads only the support
        labels = list(map(label.__getitem__, coeffs))
        inside = Counter(labels)
        values = dict(zip(labels, coeffs.values()))
        if len(set(zip(labels, coeffs.values()))) == len(values) and all(
            map(eq, inside.values(), map(sizes.__getitem__, inside))
        ):
            return list(map(values.get, indices, repeat(0))), None
        for members in classes:
            ref = coeffs.get(members[0], 0)
            for key in members:
                c = coeffs.get(key, 0)
                if c != ref:
                    return None, (members[0], key, ref, c)

    return scan


def collapsed_product(
    x: Sequence[Scalar], y: Sequence[Scalar], tensor: list[list[list[int]]]
) -> tuple:
    """Coordinates of the product of two span elements via the tensor."""
    K = len(tensor)
    out = [Fraction(0)] * K
    for j in range(K):
        if x[j] == 0:
            continue
        for k in range(K):
            if y[k] == 0:
                continue
            coeff = x[j] * y[k]
            row = tensor[j][k]
            for i in range(K):
                if row[i]:
                    out[i] += coeff * row[i]
    return tuple(out)


def structure_poly_eval(
    r: int, n: int, x: Scalar, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> GroupAlgebraElement:
    """phi(x): every group element weighted by C(x + n - des, n).

    Integer x >= 0 keeps integer coefficients; rational x uses the falling
    factorial extension.
    """
    by_des = _phi_class_coefficients(n, x)
    return _class_element(des_partition(r, n, max_size), by_des)


def _phi_class_coefficients(n: int, x: Scalar) -> dict[int, Scalar]:
    _require_exact(x)
    if isinstance(x, int) and x >= 0:
        return {d: math.comb(x + n - d, n) for d in range(n + 1)}
    return {d: rational_binom(Fraction(x) + n - d, n) for d in range(n + 1)}


def idempotent_class_table(r: int, n: int) -> list[list[Fraction]]:
    """alpha[i][d]: coefficient of x^i in C((x-1)/r + n - d, n).

    r^n n! C((x-1)/r + n - d, n) is the integer polynomial
    P_d = prod_{u=1-d..n-d} (x - 1 + r u).  P_0 is one product, and
    P_{d+1} = P_d (x - 1 - r d) / (x - 1 + r(n - d)), one exact synthetic
    division; the table is divided by r^n n! only at the end.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")

    def times(poly: list[int], c: int) -> list[int]:  # poly (x + c), constant first
        return [c * a + b for a, b in zip(poly + [0], [0] + poly)]

    column = [1]
    for u in range(1, n + 1):
        column = times(column, r * u - 1)
    columns = [column]
    for d in range(n):
        product = times(column, -1 - r * d)
        e = r * (n - d) - 1  # product = (x + e) column, solved top coefficient first
        column, carry = [0] * (n + 1), 0
        for i in range(n, -1, -1):
            carry = column[i] = product[i + 1] - e * carry
        assert product[0] == e * carry, "synthetic division left a remainder"
        columns.append(column)
    scale = r**n * math.factorial(n)
    return [[Fraction(column[i], scale) for column in columns] for i in range(n + 1)]


def eulerian_idempotents(
    r: int, n: int, max_size: int = DEFAULT_MAX_GROUP_SIZE
) -> list[GroupAlgebraElement]:
    """The n+1 orthogonal idempotents c_i = sum_d alpha[i][d] C_d."""
    partition = des_partition(r, n, max_size)
    return [
        _class_element(partition, dict(enumerate(row)))
        for row in idempotent_class_table(r, n)
    ]


def tensor_mass_check(
    tensor: list[list[list[int]]], sizes: Sequence[int]
) -> bool:
    """Counting factorizations two ways: sum_i m[j][k][i] |class i| = |j| |k|."""
    K = len(tensor)
    return all(
        sum(tensor[j][k][i] * sizes[i] for i in range(K)) == sizes[j] * sizes[k]
        for j in range(K)
        for k in range(K)
    )
