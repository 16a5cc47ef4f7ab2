import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colored_descents.group import (
    ColoredLetter,
    ColoredPermutation,
    GroupTable,
    SizeCapExceeded,
    compose,
    descent_positions,
    descent_profile,
    enumerate_group,
    group_order,
    group_words,
    identity,
    inverse,
    mr_key,
    parse_one_line,
    permutation_to_json,
    word_intdes,
    word_str,
)
from colored_descents.group import _gather, _run_parts


def perm(text, r):
    return parse_one_line(text, r)


class TestIdentity:
    def test_small(self):
        assert str(identity(3, 2)) == "1_0 2_0"

    def test_empty(self):
        assert identity(1, 0).letters == ()

    def test_longer(self):
        assert str(identity(4, 5)) == "1_0 2_0 3_0 4_0 5_0"

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            identity(0, 3)

    def test_neutral(self):
        for r in (1, 2, 3):
            for n in (0, 1, 2, 3):
                e = identity(r, n)
                for pi in enumerate_group(r, n):
                    assert compose(e, pi) == pi
                    assert compose(pi, e) == pi


class TestCompose:
    def test_four_colors(self):
        sigma = perm("3_1 1_1 5_0 2_1 4_3", 4)
        pi = perm("2_0 1_3 3_1 5_2 4_2", 4)
        assert str(compose(sigma, pi)) == "1_1 3_0 5_1 4_1 2_3"

    def test_same_words_five_colors(self):
        sigma = perm("3_1 1_1 5_0 2_1 4_3", 5)
        pi = perm("2_0 1_3 3_1 5_2 4_2", 5)
        assert str(compose(sigma, pi)) == "1_1 3_4 5_1 4_0 2_3"

    def test_mismatched_groups_rejected(self):
        with pytest.raises(ValueError):
            compose(identity(2, 2), identity(3, 2))
        with pytest.raises(ValueError):
            compose(identity(2, 2), identity(2, 3))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(3, 3)) == identity(3, 3)

    def test_involution_example(self):
        pi = perm("2_1 1_1", 2)
        assert inverse(pi) == pi
        assert compose(inverse(pi), pi) == identity(2, 2)

    def test_second_example(self):
        pi = perm("1_1 2_0", 2)
        assert inverse(pi) == pi

    def test_exhaustive_small_groups(self):
        for r, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
            e = identity(r, n)
            for pi in enumerate_group(r, n):
                assert compose(inverse(pi), pi) == e
                assert compose(pi, inverse(pi)) == e


class TestEnumeration:
    @pytest.mark.parametrize(
        "r,n,size", [(1, 3, 6), (2, 2, 8), (5, 3, 750), (1, 0, 1)]
    )
    def test_sizes(self, r, n, size):
        elements = list(enumerate_group(r, n))
        assert len(elements) == size == group_order(r, n)
        assert len(set(elements)) == size

    def test_canonical_order(self):
        elements = list(enumerate_group(2, 2))
        assert [str(p) for p in elements[:4]] == [
            "1_0 2_0",
            "1_0 2_1",
            "1_1 2_0",
            "1_1 2_1",
        ]
        assert elements == sorted(elements, key=lambda p: p.sort_key())

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            list(enumerate_group(10, 10, max_size=1000))

    def test_word_stream_checks_cap_at_the_call(self):
        # the call itself raises; no word has to be drawn first
        with pytest.raises(SizeCapExceeded):
            group_words(10, 10, max_size=1000)


def test_word_str_matches_letter_str():
    for r, n in ((1, 0), (2, 3), (4, 2)):
        for w in group_words(r, n):
            assert word_str(w) == " ".join(str(ColoredLetter(*x)) for x in w)
    assert word_str(((3, 12), (0, 1))) == "12_3 1_0"


class TestDescents:
    def test_four_letter_example(self):
        profile = descent_profile(perm("3_1 1_1 4_0 2_3", 4))
        assert profile.descent_set == frozenset({1, 2, 4})
        assert profile.des == 3
        assert profile.internal_descent_set == frozenset({1, 2})
        assert profile.intdes == 2

    def test_identity_has_none(self):
        assert descent_profile(identity(3, 4)).descent_set == frozenset()

    def test_both_positions(self):
        assert descent_profile(perm("2_1 1_1", 2)).descent_set == frozenset({1, 2})

    def test_classical_reduction(self):
        # one color: the descent set is the classical one, never at n
        for pi in enumerate_group(1, 4):
            values = pi.underlying
            classical = {
                i for i in range(1, 4) if values[i - 1] > values[i]
            }
            assert descent_profile(pi).descent_set == frozenset(classical)


def framed_descents(word, a, b):
    """Positions 0..n where the word framed by 0_a and 0_b descends,
    compared letter by letter."""
    padded = (ColoredLetter(a, 0),) + word + (ColoredLetter(b, 0),)
    return frozenset(i for i in range(len(word) + 1) if padded[i] > padded[i + 1])


class TestDescentRule:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_framed_rule(self, r):
        for n in range(5):
            for pi in enumerate_group(r, n):
                w = pi.letters
                for a in range(r):
                    for b in range(r):
                        assert descent_positions(w, a, b) == framed_descents(w, a, b)
                # the default frame: internal descents, plus n for a final
                # letter of nonzero color
                internal = {i for i in range(1, n) if w[i - 1] > w[i]}
                final = {n} if n and w[-1].color else set()
                assert descent_positions(w) == internal | final
                assert word_intdes(w) == len(internal)


class TestDescentVariants:
    def test_standard_boundary(self):
        pi = perm("2_1 1_1", 2)
        assert descent_positions(pi.letters, 0, 1) == frozenset({1, 2})

    def test_low_boundary_forces_final_descent(self):
        # the final letter always exceeds the all-zero boundary letter
        assert descent_positions(perm("1_0 2_0", 2).letters, 1, 0) == frozenset({0, 2})

    def test_identity_standard(self):
        assert descent_positions(identity(2, 2).letters, 0, 1) == frozenset()

    def test_agrees_with_profile(self):
        for pi in enumerate_group(2, 3):
            variant = descent_positions(pi.letters, 0, 1)
            assert 0 not in variant
            assert variant & set(range(1, 4)) == descent_profile(pi).descent_set


class TestMrKey:
    def test_single_run(self):
        assert mr_key(identity(3, 4)).parts == ((4, 0),)

    def test_five_letters(self):
        assert mr_key(perm("2_0 1_3 3_1 5_2 4_2", 4)).parts == (
            (1, 0),
            (1, 3),
            (1, 1),
            (1, 2),
            (1, 2),
        )

    def test_same_color_descent(self):
        assert mr_key(perm("2_1 1_1", 2)).parts == ((1, 1), (1, 1))

    def test_descent_profile_constant_on_classes(self):
        for r, n in [(1, 4), (2, 3), (3, 3), (2, 4)]:
            by_key = {}
            for pi in enumerate_group(r, n):
                by_key.setdefault(mr_key(pi), set()).add(descent_profile(pi))
            assert all(len(profiles) == 1 for profiles in by_key.values())

    def test_descent_profile_constant_on_classes_r3_n4(self):
        by_key = {}
        for pi in enumerate_group(3, 4):
            by_key.setdefault(mr_key(pi), set()).add(descent_profile(pi))
        assert all(len(profiles) == 1 for profiles in by_key.values())


@st.composite
def small_group_element(draw, r_max=3, n_max=3):
    r = draw(st.integers(1, r_max))
    n = draw(st.integers(0, n_max))
    values = draw(st.permutations(list(range(1, n + 1))))
    colors = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    letters = tuple(ColoredLetter(c, v) for v, c in zip(values, colors))
    return ColoredPermutation(r, letters)


@st.composite
def same_group_triple(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))

    def element():
        values = draw(st.permutations(list(range(1, n + 1))))
        colors = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
        return ColoredPermutation(
            r, tuple(ColoredLetter(c, v) for v, c in zip(values, colors))
        )

    return element(), element(), element()


def mr_parts_reference(pi):
    """The run-composition loop over a validated permutation, kept as the
    reference for the word-level rule."""
    parts = []
    run = 0
    for i, letter in enumerate(pi.letters):
        run += 1
        last = i + 1 == pi.n
        if not last:
            nxt = pi.letters[i + 1]
            cut = letter.color != nxt.color or letter.value > nxt.value
        if last or cut:
            parts.append((run, letter.color))
            run = 0
    return tuple(parts)


@given(small_group_element(r_max=4, n_max=5))
@example(identity(1, 0))
@settings(max_examples=200, deadline=None)
def test_run_parts_match_reference(pi):
    assert _run_parts(pi.letters) == mr_parts_reference(pi)
    # hot loops pass raw (color, value) tuples
    assert _run_parts(tuple(map(tuple, pi.letters))) == mr_parts_reference(pi)
    assert mr_key(pi).parts == mr_parts_reference(pi)


@given(same_group_triple())
@settings(max_examples=60, deadline=None)
def test_associativity(triple):
    a, b, c = triple
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(small_group_element())
@settings(max_examples=60, deadline=None)
def test_inverse_law(pi):
    e = identity(pi.r, pi.n)
    assert compose(pi, inverse(pi)) == e
    assert compose(inverse(pi), pi) == e


@given(small_group_element())
@settings(max_examples=60, deadline=None)
def test_text_and_json_round_trip(pi):
    assert parse_one_line(str(pi), pi.r) == pi
    data = permutation_to_json(pi)
    letters = tuple(ColoredLetter(c, v) for v, c in data["letters"])
    assert (data["r"], data["n"]) == (pi.r, pi.n)
    assert ColoredPermutation(data["r"], letters) == pi


@given(small_group_element(r_max=4))
@example(identity(1, 0))
@example(identity(1, 1))
@example(identity(1, 3))
@settings(max_examples=60, deadline=None)
def test_group_table_matches_compose(s):
    table = GroupTable(s.r, s.n)
    elements = list(enumerate_group(s.r, s.n))
    # ranks are enumeration positions, and word() inverts rank()
    assert [table.rank(pi.letters) for pi in elements] == list(range(len(elements)))
    assert [table.word(i) for i in range(len(table))] == [pi.letters for pi in elements]
    assert list(group_words(s.r, s.n)) == [table.word(p) for p in range(len(table))]
    assert table.word(table.rank(s.letters)) == s.letters
    row = table.left_row(table.rank(s.letters))
    assert row == [table.rank(compose(s, t).letters) for t in elements]


@pytest.mark.parametrize("indices", [(), (2,), (3, 0, 3)], ids=len)
def test_gather_returns_a_tuple_for_any_index_count(indices):
    # itemgetter alone returns a bare item for one index and fails for none
    for seq in (["a", "b", "c", "d"], ("a", "b", "c", "d")):
        assert _gather(indices)(seq) == tuple(seq[i] for i in indices)


class TestValidation:
    def test_duplicate_value(self):
        with pytest.raises(ValueError):
            ColoredPermutation(2, (ColoredLetter(0, 1), ColoredLetter(1, 1)))
        # values must be exactly 1..n, so a word skipping values fails too
        with pytest.raises(ValueError):
            ColoredPermutation(2, (ColoredLetter(0, 2), ColoredLetter(1, 5)))

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            parse_one_line("1_2 2_0", 2)
