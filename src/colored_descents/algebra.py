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
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

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

if TYPE_CHECKING:  # a Fraction is imported only where one is built
    from fractions import Fraction
Scalar = Union[int, "Fraction"]

DEFAULT_MAX_PAIRS = 250_000_000


def _require_exact(q: Scalar) -> Scalar:
    if not isinstance(q, int):  # an int passes without importing fractions
        from fractions import Fraction
        if not isinstance(q, Fraction):
            raise TypeError(f"exact arithmetic only; got {type(q).__name__}")
    return q


def rational_binom(y: Scalar, n: int) -> Fraction:
    """Falling factorial y(y-1)...(y-n+1)/n! over exact rationals."""
    from fractions import Fraction
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
    c * d * #{(s, t) : st = p, a'[s] = c, b'[t] = d}.  Each left row is
    built once and every right value group is gathered from it, so the
    per-pair work runs in C.
    """
    _check_same_group(a, b)
    size = group_order(a.r, a.n)
    (u, left_size), (v, _) = _common_value(a, size), _common_value(b, size)
    _pairs_cap(left_size * size)  # a row of |G| compositions per element of a'
    table = group_table(a.r, a.n)
    right = [(d, _gather(ranks)) for d, ranks in _value_groups(table, b, v)]
    coeffs: dict[int, Scalar] = {}
    for c, left in _value_groups(table, a, u):
        counts = [Counter() for _ in right]
        for s in left:
            row = table.left_row(s)
            for count, (_, gather) in zip(counts, right):
                count.update(gather(row))
        for (d, _), count in zip(right, counts):
            cd = c * d
            for p, m in count.items():
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

    label_fn must read only the colors and the value descents between
    neighbours of equal color, as every descent statistic does:
    ``group._word_stats`` calls it once per run composition,
    r·(r+1)^(n-1) times, not once per word."""
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
    values = [a.coeffs.get(w, 0) for w in partition.order]
    witness = _first_difference(partition, values)
    vector = tuple(values[info.ranks[0]] for info in partition.classes)
    return SpanCheck(None if witness else vector, witness)


def _first_difference(partition: ClassPartition, values: Sequence) -> Optional[tuple]:
    """``(word s, word t, values[s], values[t])`` for the first member t of
    the first class whose per-rank values differ from its first member s;
    None if the values are constant on every class."""
    for info in partition.classes:
        s = info.ranks[0]
        for t in info.ranks:
            if values[t] != values[s]:
                return partition.order[s], partition.order[t], values[s], values[t]
    return None


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


def generated_products(sizes: Sequence[int]) -> int:
    """The compositions ``generated_closure`` makes on nonempty classes of
    these sizes when, as for the descent classes, its first candidate of
    more than one element generates; SizeCapExceeded above the pairs cap."""
    sizes = sorted(size for size in sizes if size)
    tried = next((i + 1 for i, size in enumerate(sizes) if size > 1), len(sizes))
    return _pairs_cap(sum(sizes) * sum(sizes[:tried]))


def _class_rows(partition: ClassPartition) -> tuple[list[int], Callable]:
    """Each rank's class index, and the packed class-product kernel.

    ``class_row(ranks, bits)`` is the list acc with acc[p] the sum over s
    in ranks of 2^(bits class(s^-1 p)).  For ranks the members of C_j and
    bits = |C_j|.bit_length(), the field k of acc[p], ``bits`` wide, is
    #{s in C_j : s^-1 p in C_k} = (C_j C_k)(p), so one pass over the left
    rows of C_j^-1 gives every C_j C_k.  The labels are cut once into the
    rank blocks of ``GroupTable.left_row``, and each pass weights them.
    """
    table = group_table(partition.r, partition.n)
    label = [0] * len(table)
    for k, info in enumerate(partition.classes):
        for p in info.ranks:
            label[p] = k
    step = partition.r ** partition.n  # the rank blocks of GroupTable.left_row
    label_blocks = [label[i:i + step] for i in range(0, len(label), step)]

    def class_row(ranks: Sequence[int], bits: int) -> list[int]:
        weights = [1 << (bits * k) for k in range(len(partition.classes))]
        blocks = [list(map(weights.__getitem__, block)) for block in label_blocks]
        acc = [0] * len(table)
        for s in sorted(map(table.inverse, ranks)):
            acc = list(map(add, acc, table.left_row(s, blocks)))
        return acc

    return label, class_row


def _fields(values: Sequence[int], bits: int, K: int) -> list[list[int]]:
    """Field k of each value, for k < K, the fields ``bits`` wide from the lowest."""
    mask = (1 << bits) - 1
    return [[v >> (bits * k) & mask for v in values] for k in range(K)]


def generated_closure(partition: ClassPartition) -> ClosureReport:
    """``verify_closure`` for a span V that one class sum C_g generates.

    If the identity's class is {e}, C_g V lies in V and the powers 1, C_g,
    ..., C_g^(K-1) have rank K, then V = Q[C_g] is a commutative subalgebra,
    and C_j = sum_i adj[j][i] C_g^i / det gives every C_j C_k from the
    products C_g C_k, an exact division by det.  Candidates g go in
    ascending (size, label) order, each checked against the pairs cap
    before its first row; the first of rank K generates.  ``_class_rows``
    packs every (C_g C_k)(p) into one acc[p], so C_g V lies in V iff acc
    is constant on each class.  Otherwise, or if no candidate reaches rank
    K, the report is ``verify_closure``'s, with the compositions of both
    routes.
    """
    classes = [info.ranks for info in partition.classes]
    K = len(classes)
    label, class_row = _class_rows(partition)
    unit, products = label[0], 0
    candidates = sorted(range(K), key=lambda k: len(classes[k]))
    for g in candidates if len(classes[unit]) == 1 else ():
        products = _pairs_cap(products + len(label) * len(classes[g]))
        bits = len(classes[g]).bit_length()
        acc = class_row(classes[g], bits)
        if len(set(zip(label, acc))) != K:
            break
        L = _fields([acc[ranks[0]] for ranks in classes], bits, K)
        powers = [[[int(i == j) for j in range(K)] for i in range(K)]]
        for _ in range(1, K):
            powers.append([[sum(map(mul, row, column)) for column in zip(*L)]
                           for row in powers[-1]])
        rank, inverse = _rank_inverse([power[unit] for power in powers])
        if rank == K:
            det, adj = inverse
            tensor = [[[sum(map(mul, a, column)) for column in zip(*rows)]
                       for rows in zip(*powers)] for a in adj]
            if any(x % det for m in tensor for row in m for x in row):
                raise ArithmeticError("structure constants are not integers")
            tensor = [[[x // det for x in row] for row in m] for m in tensor]
            return ClosureReport((), tensor, products, partition.classes[g].label)
    report = verify_closure(partition)
    return ClosureReport(report.failures, report.tensor, products + report.products)


def _rank_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, Optional[tuple]]:
    """The rank of a square integer matrix P and, at full rank, (det P,
    det P * P^-1), else None, by fraction-free Gauss-Jordan elimination
    (Bareiss): every entry stays a minor of [P | I], so each division by the
    previous pivot is exact, and the last pivot is det P up to swap signs."""
    K = len(rows)
    work = [list(row) + [int(i == j) for j in range(K)] for i, row in enumerate(rows)]
    rank, prev, sign = 0, 1, 1
    for col in range(K):
        pivot = next((i for i in range(rank, K) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot], sign = work[pivot], work[rank], -sign
        top = work[rank]
        work = [top if i == rank else
                [(top[col] * x - row[col] * y) // prev for x, y in zip(row, top)]
                for i, row in enumerate(work)]
        rank, prev = rank + 1, top[col]
    adj = [[sign * x for x in row[K:]] for row in work]
    return rank, (sign * prev, adj) if rank == K else None


def verify_closure(partition: ClassPartition) -> ClosureReport:
    """Check every product of two class sums against the span of the sums.

    For each left class j, one ``_class_rows`` pass packs every C_j C_k,
    |G| |C_j| compositions, |G|^2 in all, checked against the pairs cap
    before any row.  The pairs (j, k) all pass iff the packed row is
    constant on every class.  Otherwise each field k is unpacked, and a
    failing pair reports the first differing member of its first
    non-constant class.  When all pairs pass, their span vectors form the
    structure-constant tensor carried on the report.
    """
    classes = [info.ranks for info in partition.classes]
    K = len(classes)
    products = _pairs_cap(sum(map(len, classes)) ** 2)
    label, class_row = _class_rows(partition)
    tensor, failures = [], []
    for j, ranks in enumerate(classes):
        bits = len(ranks).bit_length()
        acc = class_row(ranks, bits)
        if len(set(zip(label, acc))) == K:
            tensor.append(_fields([acc[members[0]] for members in classes], bits, K))
            continue
        for k, field in enumerate(_fields(acc, bits, K)):
            witness = _first_difference(partition, field)
            if witness is not None:
                failures.append(ClosureFailure(j, k, witness))
    return ClosureReport(tuple(failures), None if failures else tensor, products)


def collapsed_product(
    x: Sequence[Scalar], y: Sequence[Scalar], tensor: list[list[list[int]]]
) -> tuple:
    """Coordinates of the product of two span elements via the tensor."""
    K = len(tensor)
    out = [0] * K
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
    return {d: rational_binom(x + n - d, n) for d in range(n + 1)}


def idempotent_class_table(r: int, n: int) -> list[list[Fraction]]:
    """alpha[i][d]: coefficient of x^i in C((x-1)/r + n - d, n)."""
    from fractions import Fraction
    rows, scale = _idempotent_numerators(r, n)
    return [[Fraction(x, scale) for x in row] for row in rows]


def _idempotent_numerators(r: int, n: int) -> tuple[list[list[int]], int]:
    """``idempotent_class_table`` over its scale r^n n!: rows[i][d] is the
    coefficient of x^i in P_d = r^n n! C((x-1)/r + n - d, n) = prod_{u=1-d..n-d}
    (x - 1 + r u).  P_0 is one product, and P_{d+1} = P_d (x - 1 - r d) /
    (x - 1 + r(n - d)), one exact synthetic division."""
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
        if product[0] != e * carry:
            raise ArithmeticError("synthetic division left a remainder")
        columns.append(column)
    return [list(row) for row in zip(*columns)], r**n * math.factorial(n)


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
