"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single status line (visible with pytest -s or in the
captured output) and enforces its runtime budget.
"""
import itertools
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from colored_descents.group import (
    ColoredPermutation,
    compose,
    descent_positions,
    descent_profile,
    enumerate_group,
    group_order,
    identity,
    inverse,
    parse_one_line,
    word_des,
    word_str,
)
from colored_descents.posets import (
    chain_poset,
    colored_linear_extensions,
    detached_chain_poset,
    zigzag_poset,
)
from colored_descents.ppartitions import (
    barred_chain_total,
    binom,
    count_ppartitions_bruteforce,
    eulerian_polynomial,
    omega_Ppi,
    random_colored_poset,
    verify_steingrimsson,
)
from colored_descents.algebra import (
    algebra_add,
    algebra_multiply,
    algebra_unit,
    algebra_zero,
    class_sums_des,
    collapsed_product,
    des_partition,
    desset_partition,
    eulerian_idempotents,
    idempotent_class_table,
    is_in_span,
    structure_poly_eval,
    tensor_mass_check,
    variant_partition,
    verify_closure,
)

IDEMPOTENT_GROUPS = ((1, 3), (2, 3), (3, 3), (5, 3))


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if failed is None else "FAIL"
        print(f"criterion {criterion}: {status} ({elapsed:.2f}s / {seconds:.0f}s cap)",
              file=sys.stderr)
        if failed is None:
            assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s"


def test_c01_idempotent_table_reproduction():
    expected = {
        0: (504, -36, 24, -66),
        1: (218, 23, -22, 83),
        2: (27, 12, -3, -18),
        3: (1, 1, 1, 1),
    }
    with budget("01 idempotent table", 5):
        table = idempotent_class_table(5, 3)
        for i, nums in expected.items():
            assert [table[i][d] for d in range(4)] == [
                Fraction(v, 750) for v in nums
            ], f"row {i}"
        idems = eulerian_idempotents(5, 3)
        partition, sums = class_sums_des(5, 3)
        for i, nums in expected.items():
            reconstructed = algebra_zero(5, 3)
            for d, v in enumerate(nums):
                reconstructed = algebra_add(
                    reconstructed, Fraction(v, 750) * sums[d]
                )
            assert idems[i] == reconstructed


def test_c02_idempotency_and_orthogonality():
    with budget("02 orthogonal idempotents", 120):
        for r, n in IDEMPOTENT_GROUPS:
            partition = des_partition(r, n)
            closure = verify_closure(partition)
            assert closure.passed, (r, n)
            tensor = closure.tensor
            idems = eulerian_idempotents(r, n)
            coords = [is_in_span(c, partition).vector for c in idems]
            zero = tuple(Fraction(0) for _ in partition.classes)
            for i in range(n + 1):
                for j in range(n + 1):
                    prod = collapsed_product(coords[i], coords[j], tensor)
                    want = (
                        tuple(Fraction(v) for v in coords[i]) if i == j else zero
                    )
                    assert tuple(prod) == want, (r, n, i, j)
            total = algebra_zero(r, n)
            for c in idems:
                total = algebra_add(total, c)
            assert total == algebra_unit(r, n), (r, n)
            top = idems[n]
            assert top.support_size() == group_order(r, n)
            assert all(
                c == Fraction(1, group_order(r, n)) for c in top.coeffs.values()
            )


def test_c03_functional_equation():
    with budget("03 functional equation", 60):
        for r, n in IDEMPOTENT_GROUPS:
            for j in range(3):
                for k in range(3):
                    left = algebra_multiply(
                        structure_poly_eval(r, n, j), structure_poly_eval(r, n, k)
                    )
                    right = structure_poly_eval(r, n, r * j * k + j + k)
                    assert left == right, (r, n, j, k)


def test_c04_subalgebra_closure():
    groups = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)] + [(4, 3)]
    with budget("04 descent-class closure", 300):
        for r, n in groups:
            partition = des_partition(r, n)
            closure = verify_closure(partition)
            assert closure.passed, (r, n, [f.to_json() for f in closure.failures])
            tensor = closure.tensor
            sizes = [info.size for info in partition.classes]
            assert tensor_mass_check(tensor, sizes), (r, n)


def test_c05_main_coefficient_identity():
    r, n = 2, 3
    with budget("05 product coefficient identity", 60):
        group = list(enumerate_group(r, n))
        inverses = {pi: inverse(pi) for pi in group}
        for pi in group:
            d = word_des(pi.letters)
            for j in range(4):
                for k in range(4):
                    closed = binom(r * j * k + j + k + n - d, n)
                    conv = sum(
                        binom(j + n - word_des(s.letters), n)
                        * binom(
                            k + n - word_des(compose(inverses[s], pi).letters), n
                        )
                        for s in group
                    )
                    assert closed == conv, (str(pi), j, k)
                    assert closed == barred_chain_total(pi, j, k), (str(pi), j, k)


def test_c06_ftcpp_oracle():
    with budget("06 extension-sum oracle", 120):
        rng = random.Random(2024)
        for case in range(100):
            poset = random_colored_poset(rng)
            for j in range(4):
                brute = count_ppartitions_bruteforce(poset, j)
                ell = len(poset.nonzero)
                via = sum(
                    binom(j + ell - word_des(w), ell)
                    for w in colored_linear_extensions(poset)
                )
                assert brute == via, (case, j)


def test_c07_order_polynomial_theorem():
    with budget("07 detached-chain order polynomial", 120):
        for pi in enumerate_group(3, 3):
            for j in range(4):
                brute = count_ppartitions_bruteforce(detached_chain_poset(pi), j)
                assert brute == omega_Ppi(pi, j) == binom(
                    3 * j + 3 - descent_profile(pi).intdes, 3
                ), (str(pi), j)


def test_c08_zigzag_and_chain_lemmas():
    with budget("08 zig-zag and chain lemmas", 120):
        for r in (1, 2, 3):
            for n in (1, 2, 3):
                group = list(enumerate_group(r, n))
                inverses = {pi: inverse(pi) for pi in group}
                for pi in group:
                    for size in range(n + 1):
                        for I in itertools.combinations(range(1, n + 1), size):
                            Iset = frozenset(I)
                            z = [
                                ColoredPermutation(r, w)
                                for w in colored_linear_extensions(
                                    zigzag_poset(Iset, pi)
                                )
                            ]
                            want_z = {
                                s
                                for s in group
                                if descent_positions(
                                    compose(inverses[s], pi).letters
                                )
                                == Iset
                            }
                            assert len(z) == len(set(z))
                            assert set(z) == want_z, (r, n, str(pi), I)
                            c = [
                                ColoredPermutation(r, w)
                                for w in colored_linear_extensions(
                                    chain_poset(Iset, pi)
                                )
                            ]
                            want_c = {
                                s
                                for s in group
                                if descent_positions(
                                    compose(inverses[s], pi).letters
                                )
                                <= Iset
                            }
                            assert len(c) == len(set(c))
                            assert set(c) == want_c, (r, n, str(pi), I)
        # printed worked instance: r=3, pi = 2_1 1_2 3_2, I = {1}
        pi = parse_one_line("2_1 1_2 3_2", 3)
        z_words = {
            word_str(w)
            for w in colored_linear_extensions(zigzag_poset({1}, pi))
        }
        assert z_words == {
            "1_2 2_0 3_2",
            "1_2 2_1 3_2",
            "1_2 2_2 3_2",
            "1_2 3_2 2_0",
            "1_2 3_2 2_1",
            "1_2 3_2 2_2",
            "2_0 1_2 3_2",
            "2_2 1_2 3_2",
        }
        c_words = {
            word_str(w)
            for w in colored_linear_extensions(chain_poset({1}, pi))
        }
        assert c_words == z_words | {"2_1 1_2 3_2"}
        assert len(c_words) == 9


def test_c09_steingrimsson_identity():
    with budget("09 power-sum identity", 60):
        for r in (1, 2, 3, 4):
            for n in (0, 1, 2, 3, 4):
                assert verify_steingrimsson(r, n, 4), (r, n)
        coeffs = eulerian_polynomial(2, 2)
        assert coeffs == (1, 6, 1)
        for j, value in enumerate([1, 9, 25]):
            assert (2 * j + 1) ** 2 == value
            assert value == sum(
                coeffs[d] * binom(j + 2 - d, 2) for d in range(3)
            )


def test_c10_negative_results():
    with budget("10 negative results", 10):
        report = verify_closure(desset_partition(2, 2))
        assert not report.passed
        witness = report.failures[0].to_json()
        assert witness["word1"] and witness["coeff1"] != witness["coeff2"]

        standard_blocks = {
            frozenset(info.ranks) for info in des_partition(2, 2).classes
        }
        outcomes = []
        for a in range(2):
            for b in range(2):
                partition = variant_partition(2, 2, a, b)
                same = {
                    frozenset(info.ranks) for info in partition.classes
                } == standard_blocks
                closed = verify_closure(partition).passed
                outcomes.append(((a, b), same, closed))
                assert closed == same, (a, b)
        assert any(same for (_, same, _) in outcomes)


def test_c11_classical_reduction():
    with budget("11 one-color reduction", 10):
        for pi in enumerate_group(1, 4):
            values = pi.underlying
            classical = frozenset(
                i for i in range(1, 4) if values[i - 1] > values[i]
            )
            profile = descent_profile(pi)
            assert profile.descent_set == classical
            assert profile.internal_descent_set == classical
        partition, sums = class_sums_des(1, 3)
        assert sums[3] == algebra_zero(1, 3)
        assert len(partition.classes) == 3
        assert eulerian_polynomial(1, 3) == (1, 4, 1)
