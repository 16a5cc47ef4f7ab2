import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_descents import ppartitions
from colored_descents.cli import main
from colored_descents.group import (
    ColoredLetter,
    ColoredPermutation,
    enumerate_group,
    group_order,
    identity,
    parse_one_line,
    word_des,
    word_intdes,
)
from colored_descents.posets import (
    ColoredPoset,
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
    binom,
    count_ppartitions_bruteforce,
    descent_class_sizes,
    descent_counts,
    eulerian_polynomial,
    omega_Ppi,
    omega_pi,
    omega_word,
    random_colored_poset,
    verify_steingrimsson,
)
from colored_descents.verify import CLOSURE_DES_SWEEP, _ftcpp_case

L = ColoredLetter


# Reference counter: the full-product filter the package used before its
# pruned search.  It builds every map into [0, r-1] x [0, j] and tests
# conditions (ii)-(iv) on each one.

def _shift_gt(a, b, k, r):
    return ((a.color - k) % r, a.value) > ((b.color - k) % r, b.value)


def reference_count(poset: ColoredPoset, j: int) -> int:
    if poset.unsatisfiable:
        return 0
    r = poset.r
    free = poset.nonzero
    fixed = {x: (x.color, 0) for x in poset.elements if x.value == 0}
    images = [(k, v) for k in range(r) for v in range(j + 1)]
    pairs = [
        (a, b, [_shift_gt(a, b, k, r) for k in range(r)])
        for a, b in poset.less
    ]
    index = {x: i for i, x in enumerate(free)}

    count = 0
    for assignment in itertools.product(images, repeat=len(free)):
        ok = True
        for x in free:
            fk, fv = assignment[index[x]]
            if fv == j and fk != x.color:  # condition (iv)
                ok = False
                break
        if not ok:
            continue
        for a, b, strict_at in pairs:
            fa = fixed.get(a) or assignment[index[a]]
            fb = fixed.get(b) or assignment[index[b]]
            if fa > fb or (fa == fb and strict_at[fa[0]]):
                ok = False
                break
        if ok:
            count += 1
    return count


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

    def test_cap_is_checked_before_any_search(self, monkeypatch):
        # 12^30 candidate maps: the refusal must come before any relation
        # is looked at, let alone a map
        letters = [L(v % 3, v) for v in range(1, 31)]
        poset = make_poset(3, 30, letters, list(zip(letters, letters[1:])))

        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr("colored_descents.ppartitions._shift_gt", no_search)
        with pytest.raises(SizeCapExceeded, match=r"^12\^30 candidate maps exceed cap 10$"):
            count_ppartitions_bruteforce(poset, 3, max_maps=10)

    def test_large_one_color_antichain(self):
        # 1^3000 candidate maps pass the cap; the search must not recurse
        poset = make_poset(1, 3000, [L(0, v) for v in range(1, 3001)], [])
        assert count_ppartitions_bruteforce(poset, 0) == 1
        assert count_ppartitions_bruteforce(poset, 0, max_maps=1) == 1


class TestAgainstReference:
    """The pruned search equals the full-product filter."""

    def test_every_zigzag_chain_and_detached_chain_poset(self):
        posets = set()  # a quarter of them coincide, e.g. the antichains
        for r in (1, 2, 3):
            for pi in enumerate_group(r, 3):
                posets.add(detached_chain_poset(pi))
                for size in range(4):
                    for I in itertools.combinations(range(1, 4), size):
                        posets.update((zigzag_poset(I, pi), chain_poset(I, pi)))
        for poset in posets:
            for j in range(4):
                assert count_ppartitions_bruteforce(poset, j) == reference_count(poset, j)

    def test_unsatisfiable_poset_counts_zero(self):
        poset = zigzag_poset({2}, parse_one_line("1_0 2_0", 1))
        assert poset.unsatisfiable
        assert count_ppartitions_bruteforce(poset, 2) == reference_count(poset, 2) == 0


@st.composite
def small_posets(draw):
    """Random colored posets with r <= 4 and up to 5 values, or zig-zag
    posets, which include the unsatisfiable r = 1 boundary."""
    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        return random_colored_poset(rng, max_values=5, r=r)
    n = draw(st.integers(1, 4))
    values = draw(st.permutations(list(range(1, n + 1))))
    colors = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    pi = ColoredPermutation(r, tuple(L(c, v) for v, c in zip(values, colors)))
    return zigzag_poset(draw(st.sets(st.integers(1, n))), pi)


@given(small_posets(), st.data())
@settings(max_examples=80, deadline=None)
def test_pruned_search_matches_reference_random(poset, data):
    # j <= 3, as far as the reference's full product stays under 10^5 maps
    ell = len(poset.nonzero)
    j_top = max(
        j for j in range(4) if j == 0 or (poset.r * (j + 1)) ** ell <= 10**5
    )
    j = data.draw(st.integers(0, j_top))
    assert count_ppartitions_bruteforce(poset, j) == reference_count(poset, j)


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
    """The fundamental theorem's extension sum, as ``verify ftcpp`` runs it:
    ``_ftcpp_case`` reports the brute-force counts and a failure wherever
    the sum over colored linear extensions differs."""

    def test_chain(self):
        pi = parse_one_line("2_0 1_1 3_1", 2)
        res = _ftcpp_case(0, zigzag_poset(frozenset(), pi), 2)
        assert res["failures"] == []
        assert res["counts"] == [str(omega_pi(pi, j)) for j in range(3)]

    def test_singleton_union_zero_chain(self):
        for r in (2, 3, 4):
            for color in range(r):
                poset = make_poset(r, 1, [L(color, 1)], [])
                res = _ftcpp_case(0, poset, 3)
                assert res["failures"] == []
                assert res["counts"] == [str(r * j + 1) for j in range(4)]

    def test_antichain(self):
        poset = make_poset(2, 2, [L(0, 1), L(0, 2)], [])
        res = _ftcpp_case(0, poset, 1)
        assert res["failures"] == []
        assert res["counts"][1] == str((2 * 1 + 1) ** 2) == "9"

    def test_extension_cap(self, monkeypatch):
        # the one extension cap is posets' own, read at call time
        poset = make_poset(2, 2, [L(0, 1), L(0, 2)], [])
        monkeypatch.setattr("colored_descents.posets.DEFAULT_MAX_EXTENSIONS", 2)
        with pytest.raises(SizeCapExceeded, match="more than 2 linear extensions"):
            _ftcpp_case(0, poset, 1)


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
        assert eulerian_polynomial(1, 3) == (1, 4, 1)

    def test_two_colors(self):
        assert eulerian_polynomial(2, 2) == (1, 6, 1)

    def test_empty_word(self):
        assert eulerian_polynomial(7, 0) == (1,)

    def test_counts_sum_to_group_order(self):
        assert sum(eulerian_polynomial(3, 3)) == 27 * 6

    def test_reads_closed_sizes_without_a_group_walk(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the group was walked")

        monkeypatch.setattr(ppartitions, "group_words", fail)
        assert eulerian_polynomial(2, 6) == (
            1, 722, 10543, 23548, 10543, 722, 1,
        )
        assert eulerian_polynomial(1, 4) == (1, 11, 11, 1)

    def test_no_group_cap(self, capsys):
        # the closed sizes walk no group, so no group cap bounds them
        coeffs = eulerian_polynomial(5, 20)
        assert len(coeffs) == 21
        assert sum(coeffs) == 5**20 * math.factorial(20)
        argv = ["eulerian-poly", "--r", "2", "--n", "6", "--max-group-size", "100"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "[1, 722, 10543, 23548, 10543, 722, 1]\n"
        with pytest.raises(ValueError):
            eulerian_polynomial(0, 2)


class TestClosedClassSizes:
    """The closed sizes against the group walk, an independent count."""

    @pytest.mark.parametrize(
        "r, n", [*CLOSURE_DES_SWEEP, (2, 5), (4, 4)], ids=lambda v: str(v)
    )
    def test_match_group_walk(self, r, n):
        assert descent_class_sizes(r, n) == descent_counts(r, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 8))
    def test_match_group_walk_random(self, r, n):
        if group_order(r, n) > 50_000:
            return
        assert descent_class_sizes(r, n) == descent_counts(r, n)

    def test_far_beyond_enumeration(self):
        # C_0 = {e}; a word descending everywhere lists its values in
        # decreasing order once each is given a nonzero color: (r-1)^n words
        for r, n in ((1, 6), (2, 12), (5, 20)):
            sizes = descent_class_sizes(r, n)
            assert sum(sizes) == group_order(r, n)
            assert (sizes[0], sizes[n]) == (1, (r - 1) ** n)


class TestSteingrimsson:
    def test_spot_values(self):
        # (2j+1)^2 = 1, 9, 25 against the histogram 1 + 6t + t^2
        coeffs = eulerian_polynomial(2, 2)
        for j in range(3):
            assert (2 * j + 1) ** 2 == sum(
                coeffs[d] * binom(j + 2 - d, 2) for d in range(len(coeffs))
            )
        assert verify_steingrimsson(2, 2, 2)

    def test_oracle_walks_the_group(self, monkeypatch):
        # a wrong histogram from the group walk must fail the check, so
        # the oracle does not read the closed sizes it is meant to test
        monkeypatch.setattr(ppartitions, "descent_counts", lambda r, n, max_size: [1, 5, 2])
        assert not verify_steingrimsson(2, 2, 2)

    def test_single_letter(self):
        assert verify_steingrimsson(1, 1, 3)

    def test_three_colors(self):
        assert verify_steingrimsson(3, 2, 3)


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
        # k runs past n, where not every bar count fits one bar per space
        groups = [(2, 2), (1, 3), (2, 3), (3, 3)]
        for pi in itertools.chain.from_iterable(enumerate_group(*g) for g in groups):
            r, n, d = pi.r, pi.n, word_des(pi.letters)
            for j in range(4):
                for k in range(n + 3):
                    total = barred_chain_total(pi, j, k)
                    assert total == binom(r * j * k + j + k + n - d, n)

    def test_shapes_match_a_direct_walk(self):
        # one product per bar placement, each compartment cut out of pi
        def direct(pi, j, k):
            r, n, letters = pi.r, pi.n, pi.letters
            total = 0
            for bars in ppartitions._weak_compositions(k, n + 1):
                comps = [[]]
                for i in range(1, n + 1):
                    comps.extend([] for _ in range(bars[i - 1]))
                    comps[-1].append(letters[i - 1])
                comps.extend([] for _ in range(bars[n]))
                product = omega_word(tuple(comps[-1]), j)
                for comp in comps[:-1]:
                    m = len(comp)
                    product *= binom(r * j + m - word_intdes(tuple(comp)), m)
                total += product
            return total

        for pi in enumerate_group(2, 3):
            for j in range(4):
                for k in range(4):
                    assert barred_chain_total(pi, j, k) == direct(pi, j, k)


class TestRandomCorpus:
    def test_oracle_agreement(self):
        rng = random.Random(42)
        for _ in range(40):
            assert _ftcpp_case(0, random_colored_poset(rng), 2)["failures"] == []

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
