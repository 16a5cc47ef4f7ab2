import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_descents.group import (
    ColoredLetter,
    ColoredPermutation,
    compose,
    enumerate_group,
    identity,
    inverse,
    parse_one_line,
    word_des,
)
from colored_descents.posets import (
    chain_poset,
    colored_linear_extensions,
    detached_chain_poset,
    disjoint_union,
    make_poset,
    zigzag_poset,
)
from colored_descents.ppartitions import (
    SizeCapExceeded,
    barred_chain_total,
    barred_zigzag_count,
    binom,
    count_ppartitions_bruteforce,
    eulerian_polynomial,
    omega_Ppi,
    omega_pi,
    omega_via_extensions,
    omega_word,
    random_colored_poset,
    verify_steingrimsson,
)

L = ColoredLetter


def hasse_example():
    return make_poset(
        4,
        3,
        [L(0, 1), L(1, 2), L(1, 3)],
        [
            (L(2, 0), L(0, 1)),
            (L(0, 1), L(1, 3)),
            (L(1, 3), L(3, 0)),
            (L(1, 2), L(0, 1)),
        ],
    )


class TestBinom:
    def test_zero_below_diagonal(self):
        assert binom(1, 2) == 0
        assert binom(-3, 2) == 0

    def test_ordinary(self):
        assert binom(5, 2) == 10
        assert binom(12, 2) == 66


class TestBruteForce:
    def test_anchored_chain_matches_multichoose(self):
        for text, r in [("2_1 1_1", 2), ("1_0 2_1", 2), ("3_2 1_0 2_1", 3)]:
            pi = parse_one_line(text, r)
            d = word_des(pi.letters)
            for j in range(4):
                count = count_ppartitions_bruteforce(zigzag_poset(frozenset(), pi), j)
                assert count == binom(j + pi.n - d, pi.n)

    def test_zero_chain_only(self):
        assert count_ppartitions_bruteforce(make_poset(3, 0, [], []), 2) == 1

    def test_hasse_example_equals_extension_sum(self):
        poset = hasse_example()
        total = sum(
            binom(1 + 3 - word_des(w), 3) for w in colored_linear_extensions(poset)
        )
        assert count_ppartitions_bruteforce(poset, 1) == total == 3

    def test_cap(self):
        poset = make_poset(3, 4, [L(0, v) for v in (1, 2, 3, 4)], [])
        with pytest.raises(SizeCapExceeded):
            count_ppartitions_bruteforce(poset, 3, max_maps=10)

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            count_ppartitions_bruteforce(make_poset(2, 0, [], []), -1)


class TestOmegaPi:
    def test_identity(self):
        for j in range(4):
            assert omega_pi(identity(3, 2), j) == binom(j + 2, 2)

    def test_two_descents(self):
        assert omega_pi(parse_one_line("2_1 1_1", 2), 2) == 1

    def test_vanishes_below_descent_count(self):
        pi = parse_one_line("2_1 1_1", 2)
        assert omega_pi(pi, 0) == 0
        assert omega_pi(pi, 1) == 0

    def test_agrees_with_bruteforce_exhaustive(self):
        for pi in enumerate_group(2, 2):
            for j in range(4):
                assert omega_pi(pi, j) == count_ppartitions_bruteforce(
                    zigzag_poset(frozenset(), pi), j
                )


class TestOmegaViaExtensions:
    def test_chain(self):
        pi = parse_one_line("2_0 1_1 3_1", 2)
        for j in range(3):
            chain = zigzag_poset(frozenset(), pi)
            assert omega_via_extensions(chain, j) == omega_pi(pi, j)

    def test_singleton_union_zero_chain(self):
        for r in (2, 3, 4):
            for color in range(r):
                poset = make_poset(r, 1, [L(color, 1)], [])
                for j in range(4):
                    assert omega_via_extensions(poset, j) == r * j + 1
                    assert count_ppartitions_bruteforce(poset, j) == r * j + 1

    def test_antichain(self):
        poset = make_poset(2, 2, [L(0, 1), L(0, 2)], [])
        assert omega_via_extensions(poset, 1) == (2 * 1 + 1) ** 2 == 9

    def test_extension_cap(self, monkeypatch):
        # the one extension cap is posets' own, read at call time
        poset = make_poset(2, 2, [L(0, 1), L(0, 2)], [])
        monkeypatch.setattr("colored_descents.posets.DEFAULT_MAX_EXTENSIONS", 2)
        with pytest.raises(SizeCapExceeded, match="more than 2 linear extensions"):
            omega_via_extensions(poset, 1)


class TestOmegaDetachedChain:
    def test_monochromatic(self):
        for pi in [parse_one_line("2_1 1_1 3_1", 3), parse_one_line("3_2 2_2 1_2", 3)]:
            for j in range(3):
                brute = count_ppartitions_bruteforce(detached_chain_poset(pi), j)
                assert brute == omega_Ppi(pi, j)

    def test_classical_reduction(self):
        assert omega_Ppi(identity(1, 3), 2) == binom(2 + 3, 3)

    def test_two_letters_four_colors(self):
        pi = parse_one_line("2_0 1_3", 4)
        assert omega_Ppi(pi, 1) == binom(6, 2) == 15
        assert count_ppartitions_bruteforce(detached_chain_poset(pi), 1) == 15

    def test_exhaustive_g23(self):
        for pi in enumerate_group(2, 3):
            for j in range(3):
                brute = count_ppartitions_bruteforce(detached_chain_poset(pi), j)
                assert brute == omega_Ppi(pi, j)


class TestEulerianPolynomial:
    def test_one_color(self):
        assert eulerian_polynomial(1, 3).coefficients == (1, 4, 1)

    def test_two_colors(self):
        assert eulerian_polynomial(2, 2).coefficients == (1, 6, 1)

    def test_empty_word(self):
        assert eulerian_polynomial(7, 0).coefficients == (1,)

    def test_counts_sum_to_group_order(self):
        assert sum(eulerian_polynomial(3, 3).coefficients) == 27 * 6


class TestSteingrimsson:
    def test_spot_values(self):
        # (2j+1)^2 = 1, 9, 25 against the histogram 1 + 6t + t^2
        coeffs = eulerian_polynomial(2, 2).coefficients
        for j in range(3):
            assert (2 * j + 1) ** 2 == sum(
                coeffs[d] * binom(j + 2 - d, 2) for d in range(len(coeffs))
            )
        assert verify_steingrimsson(2, 2, 2)

    def test_single_letter(self):
        assert verify_steingrimsson(1, 1, 3)

    def test_three_colors(self):
        assert verify_steingrimsson(3, 2, 3)


class TestBarredZigzag:
    def test_too_few_bars(self):
        pi = parse_one_line("2_1 1_2 3_2", 3)
        assert barred_zigzag_count({1, 3}, pi, j=2, k=1) == 0

    def test_no_bars_reduces_to_order_polynomial(self):
        pi = parse_one_line("2_0 1_1 3_0", 2)
        for j in range(3):
            assert barred_zigzag_count(set(), pi, j, 0) == omega_via_extensions(
                zigzag_poset(set(), pi), j
            )

    def test_worked_example(self):
        pi = parse_one_line("2_1 1_2 3_2", 3)
        words = colored_linear_extensions(zigzag_poset({1}, pi))
        expected = sum(
            omega_word(w, 1)
            * binom(
                1 + 3 - word_des(compose(inverse(ColoredPermutation(3, w)), pi).letters),
                3,
            )
            for w in words
        )
        assert barred_zigzag_count({1}, pi, 1, 1) == expected == 3

    def test_sum_over_subsets_is_convolution(self):
        pi = parse_one_line("2_1 1_0", 2)
        group = list(enumerate_group(2, 2))
        for j in range(3):
            for k in range(3):
                lhs = sum(
                    barred_zigzag_count(I, pi, j, k)
                    for I in [set(), {1}, {2}, {1, 2}]
                )
                rhs = sum(
                    omega_pi(s, j) * omega_pi(compose(inverse(s), pi), k)
                    for s in group
                )
                assert lhs == rhs


class TestBarredChain:
    def test_no_bars(self):
        pi = parse_one_line("2_1 1_0 3_1", 2)
        d = word_des(pi.letters)
        for j in range(3):
            assert barred_chain_total(pi, j, 0) == binom(j + 3 - d, 3)

    def test_identity_word(self):
        pi = identity(3, 2)
        for j, k in [(0, 0), (1, 2), (2, 1), (2, 3)]:
            assert barred_chain_total(pi, j, k) == binom(3 * j * k + j + k + 2, 2)

    def test_six_barred_posets_instance(self):
        pi = parse_one_line("2_1 1_3", 4)
        assert barred_chain_total(pi, 1, 2) == binom(12, 2) == 66

    def test_matches_closed_form_on_grid(self):
        for pi in enumerate_group(2, 2):
            for j in range(3):
                for k in range(3):
                    total = barred_chain_total(pi, j, k)
                    d = word_des(pi.letters)
                    assert total == binom(2 * j * k + j + k + 2 - d, 2)


class TestRandomCorpus:
    def test_oracle_agreement(self):
        rng = random.Random(42)
        for _ in range(40):
            poset = random_colored_poset(rng)
            for j in range(3):
                assert count_ppartitions_bruteforce(
                    poset, j
                ) == omega_via_extensions(poset, j)

    def test_product_rule(self):
        rng = random.Random(7)
        for _ in range(15):
            r = rng.randint(1, 3)
            p1 = random_colored_poset(rng, r=r)
            p2 = random_colored_poset(rng, r=r, value_offset=10)
            union = disjoint_union(p1, p2)
            for j in range(3):
                assert count_ppartitions_bruteforce(
                    union, j
                ) == count_ppartitions_bruteforce(p1, j) * count_ppartitions_bruteforce(
                    p2, j
                )

    def test_reproducible(self):
        a = random_colored_poset(random.Random(3))
        b = random_colored_poset(random.Random(3))
        assert a.elements == b.elements and a.less == b.less


@given(st.integers(0, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_omega_matches_bruteforce_random(j, data):
    r = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 3))
    values = data.draw(st.permutations(list(range(1, n + 1))))
    colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    pi = ColoredPermutation(r, tuple(L(c, v) for v, c in zip(values, colors)))
    assert omega_pi(pi, j) == count_ppartitions_bruteforce(
        zigzag_poset(frozenset(), pi), j
    )
