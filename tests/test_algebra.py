import math
import pickle
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colored_descents.algebra
from colored_descents.group import (
    GroupTable,
    SizeCapExceeded,
    _compose_words,
    _run_parts,
    compose,
    descent_positions,
    enumerate_group,
    group_order,
    identity,
    inverse,
    parse_one_line,
    word_des,
)
from colored_descents.verify import CLOSURE_DES_SWEEP
from colored_descents.algebra import (
    ClassInfo,
    ClassPartition,
    ClosureFailure,
    ClosureReport,
    GroupAlgebraElement,
    SpanCheck,
    algebra_add,
    algebra_multiply,
    algebra_scale,
    algebra_unit,
    algebra_zero,
    class_sums_des,
    class_sums_mr,
    collapsed_product,
    delta,
    des_partition,
    desset_partition,
    eulerian_idempotents,
    generated_closure,
    generated_products,
    idempotent_class_table,
    is_in_span,
    mr_partition,
    rational_binom,
    structure_poly_eval,
    tensor_mass_check,
    variant_partition,
    verify_closure,
)


class TestRationalBinom:
    def test_matches_integer_binomial(self):
        assert rational_binom(5, 2) == 10
        assert rational_binom(3, 3) == 1

    def test_falling_factorial_extension(self):
        assert rational_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert rational_binom(-1, 2) == 1


class TestElementArithmetic:
    def test_add_zero(self):
        a = delta(parse_one_line("2_1 1_0", 2))
        assert algebra_add(a, algebra_zero(2, 2)) == a

    def test_scale_to_zero(self):
        a = delta(parse_one_line("2_1 1_0", 2))
        assert algebra_scale(a, 0) == algebra_zero(2, 2)

    def test_scale_class_sums(self):
        _, sums = class_sums_des(2, 2)
        total = algebra_scale(algebra_add(sums[0], sums[1]), Fraction(1, 750))
        assert all(c == Fraction(1, 750) for c in total.coeffs.values())

    def test_mismatched_groups_rejected(self):
        with pytest.raises(ValueError):
            algebra_add(algebra_zero(2, 2), algebra_zero(3, 2))

    def test_floats_rejected(self):
        a = delta(parse_one_line("2_1 1_0", 2))
        with pytest.raises(TypeError):
            algebra_scale(a, 0.5)
        with pytest.raises(TypeError):
            structure_poly_eval(2, 2, 1.5)
        with pytest.raises(TypeError):
            rational_binom(0.5, 2)

    def test_element_record(self):
        e, w = identity(2, 2).letters, parse_one_line("2_1 1_0", 2).letters
        a = GroupAlgebraElement(2, 2, {w: 0, e: Fraction(1, 2)})
        assert a.coeffs == {e: Fraction(1, 2)}  # zeros are dropped
        assert a == GroupAlgebraElement(2, 2, {e: Fraction(1, 2)})
        assert a != GroupAlgebraElement(3, 2, {e: Fraction(1, 2)})
        with pytest.raises(AttributeError):
            a.coeffs = {}
        with pytest.raises(TypeError):  # its coeffs are a dict
            hash(a)
        clone = pickle.loads(pickle.dumps(a))
        assert clone == a and clone.coeffs == a.coeffs


def naive_product(a, b):
    """The word-level convolution: one composition per pair of support words."""
    coeffs = {}
    for ws, cs in a.coeffs.items():
        for wt, ct in b.coeffs.items():
            w = _compose_words(a.r, ws, wt)
            coeffs[w] = coeffs.get(w, 0) + cs * ct
    return GroupAlgebraElement(a.r, a.n, coeffs)


@st.composite
def element_pair(draw):
    """Two elements of one G(r, n).  Coefficients are drawn from a few
    values of both signs, so that products cancel; or all distinct, so that
    grouping the support by value saves nothing; or the support is the whole
    group, every element carrying one nonzero value except a few drawn
    ones, so that the most common coefficient is not 0."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    words = [pi.letters for pi in enumerate_group(r, n)]
    fractions = st.fractions(-5, 5, max_denominator=6)

    def element():
        mode = draw(st.sampled_from(["few", "distinct", "full"]))
        if mode == "few":
            values = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)])
            unique_by = itemgetter(0)
        else:
            values = fractions
            unique_by = (itemgetter(0), itemgetter(1))
        terms = draw(st.lists(st.tuples(st.sampled_from(words), values),
                              unique_by=unique_by, max_size=len(words)))
        coeffs = {}
        if mode == "full":
            base = draw(fractions.filter(bool))
            coeffs = dict.fromkeys(words, base)
            terms = terms[: len(words) // 2]
        coeffs.update(terms)
        return GroupAlgebraElement(r, n, coeffs)

    return element(), element()


class TestMultiply:
    def test_unit_law(self):
        for pi in enumerate_group(2, 2):
            assert algebra_multiply(algebra_unit(2, 2), delta(pi)) == delta(pi)
            assert algebra_multiply(delta(pi), algebra_unit(2, 2)) == delta(pi)

    def test_deltas_compose(self):
        sigma = parse_one_line("3_1 1_1 5_0 2_1 4_3", 4)
        pi = parse_one_line("2_0 1_3 3_1 5_2 4_2", 4)
        prod = algebra_multiply(delta(sigma), delta(pi))
        assert prod == delta(parse_one_line("1_1 3_0 5_1 4_1 2_3", 4))
        sigma5 = parse_one_line("3_1 1_1 5_0 2_1 4_3", 5)
        pi5 = parse_one_line("2_0 1_3 3_1 5_2 4_2", 5)
        assert algebra_multiply(delta(sigma5), delta(pi5)) == delta(
            parse_one_line("1_1 3_4 5_1 4_0 2_3", 5)
        )

    def test_descent_free_class_squares_to_identity(self):
        # one color, two letters: the zero-descent class is the identity alone
        _, sums = class_sums_des(1, 2)
        square = algebra_multiply(sums[0], sums[0])
        assert square == algebra_unit(1, 2)
        assert square.coefficient(parse_one_line("2_0 1_0", 1)) == 0

    def test_full_group_sum_is_absorbing(self):
        _, sums = class_sums_des(1, 2)
        total = algebra_add(sums[0], sums[1])
        assert algebra_multiply(total, total) == algebra_scale(total, 2)

    def test_common_coefficient_is_not_convolved(self, monkeypatch):
        # a multiple of the group sum S splits as 0 + u S, so S S = |G| S
        # needs no composition at all
        def fail(self, s):
            raise AssertionError("a row was built")

        monkeypatch.setattr(GroupTable, "left_row", fail)
        total = GroupAlgebraElement(3, 3, dict.fromkeys(
            (pi.letters for pi in enumerate_group(3, 3)), Fraction(1, 2)))
        assert algebra_multiply(total, total) == algebra_scale(total, 81)

    @given(element_pair())
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_product(self, pair):
        a, b = pair
        assert algebra_multiply(a, b) == naive_product(a, b)

    def test_cancellation_drops_zero_terms(self):
        # (s - s') * (t + t') with s t = s' t': the common product cancels
        s, s2, t = (
            parse_one_line(w, 3) for w in ("2_1 1_0 3_2", "3_0 1_1 2_1", "1_2 3_0 2_1")
        )
        t2 = compose(inverse(s2), compose(s, t))
        a = algebra_add(delta(s), algebra_scale(delta(s2), -1))
        b = algebra_add(delta(t), delta(t2))
        product = algebra_multiply(a, b)
        assert product == naive_product(a, b)
        assert product.support_size() == 2
        assert product.coefficient(compose(s, t)) == 0


class TestClassSums:
    def test_five_color_sizes(self):
        partition, sums = class_sums_des(5, 3)
        sizes = [info.size for info in partition.classes]
        assert len(sizes) == 4 and sum(sizes) == 750

    def test_one_color_empty_top_class(self):
        _, sums = class_sums_des(1, 2)
        assert sums[0] == delta(identity(1, 2))
        assert sums[1] == delta(parse_one_line("2_0 1_0", 1))
        assert sums[2] == algebra_zero(1, 2)

    def test_two_color_sizes(self):
        partition, _ = class_sums_des(2, 2)
        assert [info.size for info in partition.classes] == [1, 6, 1]


class TestMrClassSums:
    def test_one_color(self):
        partition, sums = class_sums_mr(1, 2)
        assert len(sums) == 2

    def test_single_letter(self):
        partition, sums = class_sums_mr(2, 1)
        assert len(sums) == 2

    def test_two_colors_two_letters(self):
        # realized run compositions: 2 of length one, 4 of length two
        partition, sums = class_sums_mr(2, 2)
        assert len(sums) == 6
        assert sum(info.size for info in partition.classes) == 8

    def test_descent_classes_split_into_mr_classes(self):
        for r, n in [(2, 2), (3, 2)]:
            mr = mr_partition(r, n)
            for info in mr.classes:
                assert len({word_des(mr.order[p]) for p in info.ranks}) == 1


class TestSpan:
    def test_basis_element(self):
        partition, sums = class_sums_des(2, 2)
        check = is_in_span(sums[1], partition)
        assert check.in_span
        assert check.vector == (0, 1, 0)

    def test_single_permutation_not_in_span(self):
        partition, _ = class_sums_des(2, 2)
        check = is_in_span(delta(parse_one_line("2_0 1_0", 2)), partition)
        assert not check.in_span
        w1, w2, c1, c2 = check.witness
        assert c1 != c2
        # the first differing member of the first non-constant class
        assert check.witness == (
            parse_one_line("1_0 2_1", 2).letters,
            parse_one_line("2_0 1_0", 2).letters,
            0,
            1,
        )

    def test_products_stay_in_span(self):
        for r, n in [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)]:
            partition, sums = class_sums_des(r, n)
            for a in sums:
                for b in sums:
                    assert is_in_span(algebra_multiply(a, b), partition).in_span

    def test_span_check_record(self):
        partition, sums = class_sums_des(2, 2)
        check = is_in_span(sums[1], partition)
        assert check == SpanCheck((0, 1, 0), None)
        assert hash(check) == hash(((0, 1, 0), None))
        assert pickle.loads(pickle.dumps(check)) == check
        with pytest.raises(AttributeError):
            check.vector = None


class TestPartitionRanks:
    @pytest.mark.parametrize("r, n", [(1, 3), (2, 0), (2, 3), (3, 2)])
    def test_classes_tile_the_group_in_rank_order(self, r, n):
        order = tuple(pi.letters for pi in enumerate_group(r, n))
        partitions = [
            (des_partition(r, n), word_des),
            (mr_partition(r, n), _run_parts),
            (desset_partition(r, n), lambda w: tuple(sorted(descent_positions(w)))),
        ]
        partitions += [
            (variant_partition(r, n, a, b),
             lambda w, a=a, b=b: len(descent_positions(w, a, b)))
            for a in range(r) for b in range(r)
        ]
        for partition, label in partitions:
            assert partition.order == order
            ranks = []
            for info in partition.classes:
                # the words of the class's ranks are the whole class, ascending
                assert info.ranks == tuple(
                    p for p, w in enumerate(order) if label(w) == info.label
                )
                ranks.extend(info.ranks)
            assert sorted(ranks) == list(range(len(order)))

    def test_cap_is_checked_before_the_table(self, monkeypatch):
        def fail(r, n):
            raise AssertionError(f"group_table({r}, {n}) built")

        monkeypatch.setattr(colored_descents.algebra, "group_table", fail)
        message = "group of order 29160 exceeds cap 100"
        with pytest.raises(SizeCapExceeded, match=message):
            des_partition(3, 5, max_size=100)

    def test_partition_records(self):
        partition = des_partition(2, 2)
        order = partition.order
        assert partition.order is order  # cached on the instance
        assert partition == ClassPartition(2, 2, "des", partition.classes)
        assert hash(partition) == hash((2, 2, "des", partition.classes))
        assert partition != ClassPartition(2, 2, "mr", partition.classes)
        clone = pickle.loads(pickle.dumps(partition))
        assert clone == partition and clone.order == order
        info = partition.classes[1]
        assert info == ClassInfo(1, info.ranks) and info.size == len(info.ranks)
        with pytest.raises(AttributeError):
            partition.kind = "mr"
        with pytest.raises(AttributeError):
            info.ranks = ()


def reference_closure_failures(partition):
    """The failures of the closure check, from every pair's product counted
    by composing words over the whole of |G|^2, scanned class by class."""
    failures = []
    classes = [
        [partition.order[p] for p in info.ranks] for info in partition.classes
    ]
    for j, left in enumerate(classes):
        for k, right in enumerate(classes):
            counts = Counter(
                _compose_words(partition.r, s, t) for s in left for t in right
            )
            for members in classes:
                ref = counts[members[0]]
                other = next((w for w in members if counts[w] != ref), None)
                if other is not None:
                    failures.append(ClosureFailure(
                        j, k, (members[0], other, ref, counts[other])
                    ))
                    break
    return tuple(failures)


class TestClosure:
    def test_descent_partition_closed(self):
        report = verify_closure(des_partition(2, 2))
        assert report.passed

    def test_descent_set_partition_fails(self):
        report = verify_closure(desset_partition(2, 2))
        assert not report.passed
        failure = report.failures[0].to_json()
        assert failure["coeff1"] != failure["coeff2"]

    def test_mr_partition_closed(self):
        assert verify_closure(mr_partition(2, 2)).passed
        assert verify_closure(mr_partition(3, 2)).passed

    @pytest.mark.parametrize("r, n", CLOSURE_DES_SWEEP + ((4, 4), (2, 5)))
    def test_tensor_matches_factorisation_count(self, r, n):
        # both routes read the word-level count, not each other: they share
        # one packed class-product kernel
        partition = des_partition(r, n)
        expected = factorisation_count_tensor(partition)
        report = verify_closure(partition)
        assert report.tensor == expected
        assert report.products == group_order(r, n) ** 2
        # the generated route reaches rank K, with no fallback, and reads
        # the tensor off one generator class
        generated = generated_closure(partition)
        assert generated.generator is not None
        assert generated.tensor == expected
        sizes = [info.size for info in partition.classes]
        assert generated.products == generated_products(sizes)

    def test_singleton_candidates_fall_short_of_rank(self, monkeypatch):
        # G(2, 4): C_0 = {e} and C_4 have one element each, and their powers
        # reach rank 1 and 2 of 5; C_1, of 76 elements, generates
        ranks = []
        rank_inverse = colored_descents.algebra._rank_inverse

        def recording(rows):
            ranks.append(rank_inverse(rows)[0])
            return rank_inverse(rows)

        monkeypatch.setattr(colored_descents.algebra, "_rank_inverse", recording)
        report = generated_closure(des_partition(2, 4))
        assert ranks == [1, 2, 5]
        assert report.generator == 1 and report.products == 384 * (1 + 1 + 76)

    def test_rank_short_candidates_never_pass(self, monkeypatch):
        # with every candidate short of rank K the route has proved nothing:
        # the pair check decides, and no generator is named
        def short(rows):
            return len(rows) - 1, None

        monkeypatch.setattr(colored_descents.algebra, "_rank_inverse", short)
        partition = des_partition(2, 3)
        report = generated_closure(partition)
        full = verify_closure(partition)
        assert report.passed and report.generator is None
        assert report.tensor == full.tensor
        assert report.products == 48 * (1 + 1 + 23 + 23) + full.products

    @pytest.mark.parametrize("r, n", [(2, 3), (3, 3), (2, 4)])
    def test_moved_member_fails_like_the_pair_check(self, r, n):
        # one member of C_2 moved into C_1 breaks C_1 V in V
        classes = list(des_partition(r, n).classes)
        moved, *rest = classes[2].ranks
        classes[1] = ClassInfo(1, tuple(sorted(classes[1].ranks + (moved,))))
        classes[2] = ClassInfo(2, tuple(rest))
        partition = ClassPartition(r, n, "des", tuple(classes))
        report = generated_closure(partition)
        full = verify_closure(partition)
        assert not report.passed and report.generator is None
        assert report == full
        assert report.failures == reference_closure_failures(partition)
        assert [f.to_json() for f in report.failures] == [
            f.to_json() for f in full.failures
        ]

    @pytest.mark.parametrize("r, n", [(2, 2), (2, 3), (3, 3)])
    def test_identity_class_larger_than_e_goes_to_the_pair_check(self, r, n):
        # with C_0 merged into C_1 the identity is no class sum, so no power
        # basis is read off the class holding it
        first, second, *rest = des_partition(r, n).classes
        merged = ClassInfo(1, tuple(sorted(first.ranks + second.ranks)))
        partition = ClassPartition(r, n, "des", (merged, *rest))
        report = generated_closure(partition)
        full = verify_closure(partition)
        assert report.generator is None and report.products == full.products
        assert report == full and report.tensor == full.tensor
        assert report.failures == reference_closure_failures(partition)

    def test_unclosed_desset_fails_with_the_pair_check_witnesses(self):
        partition = desset_partition(2, 2)
        report = generated_closure(partition)
        full = verify_closure(partition)
        assert not report.passed and report.generator is None
        assert report.failures == reference_closure_failures(partition)
        assert [f.to_json() for f in report.failures] == [
            f.to_json() for f in full.failures
        ]

    def test_route_checks_the_cap_before_each_candidate(self, monkeypatch):
        # G(2, 3), 48 elements: a cap of 96 lets C_0 and C_3 through, one
        # row each, and refuses C_1 before its first row
        rows = []
        left_row = GroupTable.left_row

        def counting(self, s, *blocks):
            rows.append(s)
            return left_row(self, s, *blocks)

        partition = des_partition(2, 3)
        monkeypatch.setattr(GroupTable, "left_row", counting)
        monkeypatch.setattr(colored_descents.algebra, "DEFAULT_MAX_PAIRS", 96)
        with pytest.raises(SizeCapExceeded, match="^1200 products exceed cap 96$"):
            generated_closure(partition)
        assert len(rows) == 2

    def test_route_products_refuse_g_2_7(self):
        # 645120 elements times the candidates C_0, C_7 and C_1 up to the
        # generator; G(2, 6) needs 46080 (1 + 1 + 722)
        sizes = [1, 2179, 60657, 259723, 259723, 60657, 2179, 1]
        with pytest.raises(SizeCapExceeded, match="^1407006720 products exceed"):
            generated_products(sizes)
        assert generated_products([1, 722, 10543, 23548, 10543, 722, 1]) == 46080 * 724

    @pytest.mark.parametrize("partition", [
        desset_partition(2, 2),
        desset_partition(2, 3),
        desset_partition(2, 4),
        mr_partition(2, 2),
        *(variant_partition(3, 2, a, b) for a in range(3) for b in range(3)),
        *(variant_partition(2, 3, a, b) for a in range(2) for b in range(2)),
    ], ids=lambda p: f"{p.kind}-{p.r}-{p.n}")
    def test_failures_match_full_reference(self, partition):
        assert verify_closure(partition).failures == reference_closure_failures(
            partition
        )

    def test_cap_is_checked_before_any_row(self, monkeypatch):
        # |G|^2 = 46080^2 compositions at G(2, 6)
        partition = des_partition(2, 6)

        def fail(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(GroupTable, "left_row", fail)
        with pytest.raises(SizeCapExceeded, match="^2123366400 products exceed cap"):
            verify_closure(partition)

    def test_report_equality_ignores_tensor_and_products(self):
        report = verify_closure(des_partition(2, 2))
        bare = ClosureReport(())
        assert (bare.tensor, bare.products) == (None, 0)
        assert report.tensor is not None and report.products > 0
        assert report == bare and hash(report) == hash(bare) == hash(((),))
        failing = verify_closure(desset_partition(2, 2))
        assert failing != report
        failure = failing.failures[0]
        assert failure == ClosureFailure(failure.left, failure.right, failure.witness)
        clone = pickle.loads(pickle.dumps(failing))
        assert clone == failing and clone.products == failing.products
        assert [f.to_json() for f in clone.failures] == [
            f.to_json() for f in failing.failures
        ]
        with pytest.raises(AttributeError):
            report.products = 0
        with pytest.raises(AttributeError):
            failure.left = 0


def factorisation_count_tensor(partition):
    """m[j][k][i] = #{s : class(s) = j, class(s^-1 rep_i) = k}, by enumeration."""
    r, n = partition.r, partition.n
    classes = [
        [partition.order[p] for p in info.ranks] for info in partition.classes
    ]
    label = {w: i for i, members in enumerate(classes) for w in members}
    K = len(classes)
    tensor = [[[0] * K for _ in range(K)] for _ in range(K)]
    group = [(s.letters, inverse(s).letters) for s in enumerate_group(r, n)]
    for i, members in enumerate(classes):
        for s, s_inverse in group:
            t = _compose_words(r, s_inverse, members[0])
            tensor[label[s]][label[t]][i] += 1
    return tensor


class TestStructureConstants:
    def test_matches_factorisation_count(self):
        for partition in (
            des_partition(1, 3),
            des_partition(2, 3),
            des_partition(3, 2),
            mr_partition(2, 2),
        ):
            assert verify_closure(partition).tensor == factorisation_count_tensor(
                partition
            ), (partition.kind, partition.r, partition.n)

    def test_trivial_group(self):
        tensor = verify_closure(des_partition(1, 1)).tensor
        assert tensor == [[[1]]]

    def test_mass_identity(self):
        partition = des_partition(3, 2)
        tensor = verify_closure(partition).tensor
        sizes = [info.size for info in partition.classes]
        assert tensor_mass_check(tensor, sizes)

    @pytest.mark.parametrize("r, n", CLOSURE_DES_SWEEP)
    def test_descent_tensor_is_commutative(self, r, n):
        # the descent-class algebra is spanned by orthogonal idempotents
        tensor = verify_closure(des_partition(r, n)).tensor
        K = len(tensor)
        assert all(tensor[j][k] == tensor[k][j] for j in range(K) for k in range(K))

    def test_mr_tensor_is_not_commutative(self):
        # the Mantaci-Reutenauer algebra is not, so the check can fail
        tensor = verify_closure(mr_partition(2, 2)).tensor
        K = len(tensor)
        assert any(tensor[j][k] != tensor[k][j] for j in range(K) for k in range(K))

    def test_refuses_unclosed_partition(self):
        assert verify_closure(desset_partition(2, 2)).tensor is None

    def test_collapsed_matches_naive(self):
        partition, sums = class_sums_des(2, 3)
        tensor = verify_closure(partition).tensor
        idems = eulerian_idempotents(2, 3)
        coords = [is_in_span(c, partition).vector for c in idems]
        for i in range(4):
            for j in range(4):
                naive = algebra_multiply(idems[i], idems[j])
                check = is_in_span(naive, partition)
                assert check.in_span
                assert tuple(
                    Fraction(v) for v in collapsed_product(coords[i], coords[j], tensor)
                ) == tuple(Fraction(v) for v in check.vector)


def phi_equation_holds(r, n, pairs):
    """phi(x) phi(y) = phi(r x y + x + y) for every pair, as products of words."""
    return all(
        algebra_multiply(structure_poly_eval(r, n, x), structure_poly_eval(r, n, y))
        == structure_poly_eval(r, n, r * Fraction(x) * Fraction(y) + x + y)
        for x, y in pairs
    )


class TestStructurePolynomial:
    def test_at_zero(self):
        assert structure_poly_eval(2, 3, 0) == algebra_unit(2, 3)

    def test_matches_order_polynomial(self):
        from colored_descents.ppartitions import omega_pi

        for r, n in [(2, 2), (1, 3), (3, 2)]:
            for j in (0, 1, 2):
                element = structure_poly_eval(r, n, j)
                for pi in enumerate_group(r, n):
                    assert element.coefficient(pi) == omega_pi(pi, j)
        # a rational argument has no order polynomial; compare the binomial
        x = Fraction(-2, 3)
        element = structure_poly_eval(3, 2, x)
        for pi in enumerate_group(3, 2):
            assert element.coefficient(pi) == rational_binom(
                x + 2 - word_des(pi.letters), 2
            )

    def test_functional_equation_small(self):
        assert phi_equation_holds(2, 2, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])

    def test_functional_equation_rational_arguments(self):
        assert phi_equation_holds(
            2, 2, [(Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 3), 1)]
        )

    def test_unit_absorbs(self):
        phi3 = structure_poly_eval(3, 2, 3)
        assert algebra_multiply(structure_poly_eval(3, 2, 0), phi3) == phi3


class TestIdempotents:
    def test_reference_table(self):
        table = idempotent_class_table(5, 3)
        expected = {
            0: (504, -36, 24, -66),
            1: (218, 23, -22, 83),
            2: (27, 12, -3, -18),
            3: (1, 1, 1, 1),
        }
        for i, nums in expected.items():
            assert [table[i][d] for d in range(4)] == [
                Fraction(v, 750) for v in nums
            ]

    @pytest.mark.parametrize("r, n", [(0, 2), (1, -1), (-2, 3)])
    def test_table_rejects_bad_input(self, r, n):
        with pytest.raises(ValueError, match=r"^need r >= 1 and n >= 0$"):
            idempotent_class_table(r, n)

    def test_table_evaluates_to_the_binomial(self):
        # sum_i alpha[i][d] x^i = C((x-1)/r + n - d, n) at n + 1 points
        # fixes the degree-n polynomial
        for r in range(1, 6):
            for n in range(9):
                table = idempotent_class_table(r, n)
                for d in range(n + 1):
                    for x in range(n + 1):
                        value = sum(table[i][d] * x**i for i in range(n + 1))
                        assert value == rational_binom(
                            Fraction(x - 1, r) + n - d, n
                        ), (r, n, d, x)

    @pytest.mark.parametrize("r, n", [
        (1, 0), (3, 0), (1, 1), (1, 4), (2, 3), (3, 3), (5, 3), (4, 6), (2, 10), (5, 20),
    ])
    def test_column_recurrence_matches_the_product(self, r, n):
        # oracle: each column r^n n! C((x-1)/r + n - d, n) as its own product
        # prod_{m<n} (x - 1 + r(n - d - m)), with no division
        scale = r**n * math.factorial(n)
        columns = []
        for d in range(n + 1):
            poly = [1]
            for m in range(n):
                c = r * (n - d - m) - 1
                poly = [c * a + b for a, b in zip(poly + [0], [0] + poly)]
            columns.append(poly)
        assert idempotent_class_table(r, n) == [
            [Fraction(column[i], scale) for column in columns] for i in range(n + 1)
        ]

    def test_top_idempotent_is_uniform_average(self):
        for r, n in [(1, 3), (2, 2), (5, 3)]:
            top = eulerian_idempotents(r, n)[n]
            assert top.support_size() == group_order(r, n)
            assert all(
                c == Fraction(1, group_order(r, n)) for c in top.coeffs.values()
            )

    def test_sum_is_identity(self):
        for r, n in [(1, 3), (2, 2), (3, 2)]:
            idems = eulerian_idempotents(r, n)
            total = algebra_zero(r, n)
            for c in idems:
                total = algebra_add(total, c)
            assert total == algebra_unit(r, n)

    def test_orthogonality_naive_small(self):
        idems = eulerian_idempotents(2, 2)
        for i in range(3):
            for j in range(3):
                prod = algebra_multiply(idems[i], idems[j])
                assert prod == (idems[i] if i == j else algebra_zero(2, 2))

    def test_matches_class_sum_combination(self):
        # c_i accumulated term by term from the class sums C_d
        for r, n in [(1, 3), (2, 2), (3, 2), (5, 3)]:
            table = idempotent_class_table(r, n)
            _, sums = class_sums_des(r, n)
            for i, element in enumerate(eulerian_idempotents(r, n)):
                expected = algebra_zero(r, n)
                for d in range(n + 1):
                    expected = algebra_add(expected, algebra_scale(sums[d], table[i][d]))
                assert element == expected, (r, n, i)

    def test_empty_class_handling_one_color(self):
        idems = eulerian_idempotents(1, 3)
        total = algebra_zero(1, 3)
        for c in idems:
            total = algebra_add(total, c)
        assert total == algebra_unit(1, 3)
        assert idems[3].support_size() == 6


class TestVariantPartitions:
    def test_standard_pair_matches_des_partition(self):
        standard = des_partition(2, 2)
        variant = variant_partition(2, 2, 0, 1)
        assert {frozenset(i.ranks) for i in standard.classes} == {
            frozenset(i.ranks) for i in variant.classes
        }

    def test_scan_two_colors(self):
        standard_blocks = {
            frozenset(i.ranks) for i in des_partition(2, 2).classes
        }
        for a in range(2):
            for b in range(2):
                partition = variant_partition(2, 2, a, b)
                same = {
                    frozenset(i.ranks) for i in partition.classes
                } == standard_blocks
                closed = verify_closure(partition).passed
                assert closed == same
                if (a, b) == (0, 1):
                    assert same

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_equal_frames_make_one_class_at_n1(self, r):
        # 0_a x 0_a descends exactly once whatever x is
        for a in range(r):
            partition = variant_partition(r, 1, a, a)
            assert [info.size for info in partition.classes] == [r]
            assert verify_closure(partition).passed
