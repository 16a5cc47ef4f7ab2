import functools
import inspect
import itertools
import operator
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colored_descents import algebra, posets
from colored_descents.group import (
    ColoredComposition,
    ColoredLetter,
    ColoredPermutation,
    DescentProfile,
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
    word_des,
    word_str,
)
from colored_descents.group import _gather, _Record, _run_parts, _word_stats


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


WORD_STATS_GROUPS = [(r, n) for r in range(1, 5) for n in range(5)] + [(2, 5), (3, 5)]


def _descent_stats(r):
    """Every statistic the factor walk serves: des, runs, the descent set
    label and the framed descent positions for each frame 0_a, 0_b."""
    stats = {
        "des": word_des,
        "runs": _run_parts,
        "desset": lambda w: tuple(sorted(descent_positions(w))),
    }
    for a, b in itertools.product(range(r), repeat=2):
        stats[f"frame({a},{b})"] = functools.partial(descent_positions, a=a, b=b)
    return stats


class TestWordStats:
    @pytest.mark.parametrize("r,n", WORD_STATS_GROUPS, ids=str)
    def test_matches_a_stat_of_every_word(self, r, n):
        for name, stat in _descent_stats(r).items():
            walked = list(_word_stats(r, n, stat))
            assert walked == list(map(stat, group_words(r, n))), name

    def test_a_stat_that_reads_a_value_disagrees(self):
        # the walk reuses one word's result for every permutation with the
        # same flags, so a stat of the values is not served
        def first_letter(w):
            return w[0]

        walked = list(_word_stats(2, 3, first_letter))
        assert walked != list(map(first_letter, group_words(2, 3)))

    def test_a_stat_that_reads_a_descent_between_colors_disagrees(self):
        # the walk reuses one word's result for every word with the same
        # colors and the same value descents between equal colors, so a
        # stat of the value descents between different colors is not served
        def flags(w):
            values = [v for _, v in w]
            return tuple(map(operator.gt, values, values[1:]))

        walked = list(_word_stats(2, 3, flags))
        assert walked != list(map(flags, group_words(2, 3)))

    @pytest.mark.parametrize("r,n", WORD_STATS_GROUPS, ids=str)
    def test_calls_the_stat_once_per_run_composition(self, r, n):
        calls = []

        def counting(w):
            calls.append(w)
            return word_des(w)

        assert sum(1 for _ in _word_stats(r, n, counting)) == group_order(r, n)
        compositions = {_run_parts(w) for w in group_words(r, n)}
        assert len(calls) == len(compositions) == (r * (r + 1) ** (n - 1) if n else 1)

    def test_checks_cap_at_the_call(self):
        with pytest.raises(SizeCapExceeded):
            _word_stats(10, 10, word_des, max_size=1000)


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
    # the rank-level inverse is the word inverse's rank
    assert table.word(table.inverse(table.rank(s.letters))) == inverse(s).letters


@pytest.mark.parametrize("r, n", [(1, 3), (2, 4), (3, 3), (5, 3)])
def test_color_sum_rows_match_the_tuple_definition(r, n):
    # the digit-wise row against the index of each summed color vector
    table = GroupTable(r, n)
    colors = list(itertools.product(range(r), repeat=n))
    index = {c: i for i, c in enumerate(colors)}
    block = list(range(len(colors)))
    for c in colors:
        want = [index[tuple((a + b) % r for a, b in zip(c, d))] for d in colors]
        assert list(table._sum_gather(index[c])(block)) == want
    assert [table.inverse(p) for p in range(len(table))] == [
        table.rank(inverse(pi).letters) for pi in enumerate_group(r, n)
    ]


@pytest.mark.parametrize("indices", [(), (2,), (3, 0, 3)], ids=len)
def test_gather_returns_a_tuple_for_any_index_count(indices):
    # itemgetter alone returns a bare item for one index and fails for none
    for seq in (["a", "b", "c", "d"], ("a", "b", "c", "d")):
        assert _gather(indices)(seq) == tuple(seq[i] for i in indices)


def _group_records():
    pi = perm("2_1 1_0 3_2", 3)
    return [pi, descent_profile(pi), mr_key(pi)]


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

    def test_letters_are_normalised(self):
        pi = ColoredPermutation(2, ((1, 2), (0, 1)))
        assert all(type(x) is ColoredLetter for x in pi.letters)
        assert pi == perm("2_1 1_0", 2)
        with pytest.raises(ValueError, match="r must be at least 1"):
            ColoredPermutation(0, ())

    @pytest.mark.parametrize(
        "record, name", zip(_group_records(), ["letters", "descent_set", "parts"])
    )
    def test_frozen(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record", _group_records(), ids=lambda x: type(x).__name__)
    def test_pickle_round_trip(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert vars(clone) == vars(record)

    def test_equality_and_hash_read_the_fields(self):
        pi, profile, composition = _group_records()
        assert pi == ColoredPermutation(3, pi.letters)
        assert hash(pi) == hash((3, pi.letters))
        assert pi != ColoredPermutation(4, pi.letters)
        assert pi != (3, pi.letters)  # a record never equals a plain tuple
        assert profile == DescentProfile(frozenset({1, 3}), frozenset({1}))
        assert hash(profile) == hash((frozenset({1, 3}), frozenset({1})))
        assert composition == ColoredComposition(((1, 1), (1, 0), (1, 2)))
        assert hash(composition) == hash((((1, 1), (1, 0), (1, 2)),))
        assert len({pi, perm("2_1 1_0 3_2", 3)}) == 1

    def test_fields_are_the_constructor_parameters(self):
        # a record that defines only __init__ compares, hashes and prints
        # by every parameter it stores, and by no other local of __init__
        class Pair(_Record):
            def __init__(self, left, right=0):
                scratch = (left, right)
                vars(self).update(left=scratch[0], right=scratch[1])

        assert Pair._fields == ("left", "right")
        assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
        assert Pair(1, 2) != Pair(1, 3) and Pair(1, 2) != Pair(0, 2)
        assert repr(Pair(1)) == "Pair(left=1, right=0)"

    @pytest.mark.parametrize("record", [
        ColoredPermutation, DescentProfile, ColoredComposition, posets.ColoredPoset,
        algebra.GroupAlgebraElement, algebra.ClassInfo, algebra.ClassPartition,
        algebra.SpanCheck, algebra.ClosureFailure, algebra.ClosureReport,
    ], ids=lambda cls: cls.__name__)
    def test_every_record_declares_its_fields_once(self, record):
        assert record._fields == tuple(inspect.signature(record).parameters)

    def test_repr_names_the_fields(self):
        assert repr(identity(2, 1)) == (
            "ColoredPermutation(r=2, letters=(ColoredLetter(color=0, value=1),))"
        )
        assert repr(ColoredComposition(((2, 0),))) == "ColoredComposition(parts=((2, 0),))"
