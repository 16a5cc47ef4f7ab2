import itertools
import pickle
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from colored_descents import posets
from colored_descents.group import (
    ColoredLetter,
    ColoredPermutation,
    SizeCapExceeded,
    Word,
    _compose_words,
    compose,
    descent_positions,
    enumerate_group,
    identity,
    inverse,
    parse_one_line,
    word_str,
)
from colored_descents.posets import (
    ColoredPoset,
    _anchored_extensions,
    _interleavings,
    _zero_letters,
    chain_poset,
    colored_linear_extensions,
    disjoint_union,
    linear_extensions,
    make_poset,
    poset_to_json,
    zigzag_poset,
)
from colored_descents.ppartitions import random_colored_poset

L = ColoredLetter


# Reference pipeline: the object-per-extension version the package used
# before its streams became plain words.  Every extension is validated as an
# AnchoredWord and every letter is rebuilt when its color is lowered.

@dataclass(frozen=True)
class AnchoredWord:
    """A shuffle of a colored word with the zero chain 0_1 ... 0_{r-1}."""

    r: int
    word: Word

    def __post_init__(self) -> None:
        word = tuple(ColoredLetter(*x) for x in self.word)
        object.__setattr__(self, "word", word)
        zeros = tuple(x for x in word if x.value == 0)
        if zeros != _zero_letters(self.r):
            raise ValueError("zero letters must be exactly 0_1 ... 0_{r-1} in order")
        values = [x.value for x in word if x.value != 0]
        if len(values) != len(set(values)):
            raise ValueError("nonzero letters must have distinct values")


def reference_linear_extensions(poset):
    if poset.unsatisfiable:
        return []
    elems = sorted(poset.elements)
    pred = {e: {a for a, b in poset.less if b == e} for e in elems}
    out = []
    placed = set()
    word = []

    def rec():
        if len(word) == len(elems):
            out.append(AnchoredWord(poset.r, tuple(word)))
            return
        for e in elems:
            if e not in placed and pred[e] <= placed:
                placed.add(e)
                word.append(e)
                rec()
                placed.discard(e)
                word.pop()

    rec()
    return out


def reference_decompose(w):
    blocks = [[] for _ in range(w.r)]
    i = 0
    for letter in w.word:
        if letter.value == 0:
            i += 1
        else:
            blocks[i].append(ColoredLetter((letter.color - i) % w.r, letter.value))
    return tuple(tuple(b) for b in blocks)


def reference_shuffles(words):
    parts = tuple(tuple(w) for w in words if w)

    def go(pos):
        exhausted = True
        for wi, w in enumerate(parts):
            i = pos[wi]
            if i < len(w):
                exhausted = False
                pos[wi] += 1
                for rest in go(pos):
                    yield (w[i],) + rest
                pos[wi] -= 1
        if exhausted:
            yield ()

    yield from go([0] * len(parts))


def reference_colored_extensions(poset):
    return [
        shuffled
        for w in reference_linear_extensions(poset)
        for shuffled in reference_shuffles(reference_decompose(w))
    ]


def assert_matches_reference(poset):
    anchored = reference_linear_extensions(poset)
    assert linear_extensions(poset) == [w.word for w in anchored]
    assert colored_linear_extensions(poset) == reference_colored_extensions(poset)


@pytest.fixture
def hasse_example():
    # 4-colored poset: 0_1 < 0_2 < 1_0 < 3_1 < 0_3 together with 2_1 < 1_0
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


class TestMakePoset:
    def test_six_elements(self, hasse_example):
        assert len(hasse_example.elements) == 6
        assert (L(1, 2), L(3, 0)) in hasse_example.less  # transitivity

    def test_zero_chain_alone(self):
        poset = make_poset(3, 0, [], [])
        assert poset.elements == frozenset({L(1, 0), L(2, 0)})
        assert (L(1, 0), L(2, 0)) in poset.less

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            make_poset(2, 2, [L(0, 1), L(0, 2)], [(L(0, 1), L(0, 2)), (L(0, 2), L(0, 1))])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            make_poset(2, 2, [L(0, 1), L(1, 1)], [])

    def test_illegal_letter_rejected(self):
        with pytest.raises(ValueError):
            make_poset(2, 2, [L(0, 3)], [])

    def test_frozen_hashable_and_picklable(self, hasse_example):
        nonzero = hasse_example.nonzero  # cached on the instance
        with pytest.raises(AttributeError):
            hasse_example.unsatisfiable = True
        assert hash(hasse_example) == hash(
            (4, 3, hasse_example.elements, hasse_example.less, False)
        )
        clone = pickle.loads(pickle.dumps(hasse_example))
        assert clone == hasse_example and hash(clone) == hash(hasse_example)
        assert clone.nonzero == nonzero and clone.unsatisfiable is False


class TestLinearExtensions:
    def test_hasse_example(self, hasse_example):
        words = [word_str(w) for w in linear_extensions(hasse_example)]
        assert sorted(words) == sorted(
            [
                "0_1 0_2 2_1 1_0 3_1 0_3",
                "0_1 2_1 0_2 1_0 3_1 0_3",
                "2_1 0_1 0_2 1_0 3_1 0_3",
            ]
        )
        # lexicographic output order, color-first letter comparisons
        assert words == sorted(words, key=lambda s: [  # parse back to letters
            (int(t.split("_")[1]), int(t.split("_")[0])) for t in s.split()
        ])

    def test_total_chain_single_extension(self):
        pi = parse_one_line("2_1 1_0 3_2", 3)
        poset = zigzag_poset(frozenset(), pi)
        words = linear_extensions(poset)
        assert len(words) == 1
        assert words[0][:3] == pi.letters

    def test_zero_chain_word(self):
        poset = make_poset(2, 0, [], [])
        assert [word_str(w) for w in linear_extensions(poset)] == ["0_1"]


class TestDecompose:
    """The reference pipeline's block split, which the colored extensions
    are compared against, on literal words."""

    def test_shifted_block(self):
        w = (L(1, 0), L(2, 0), L(1, 2), L(0, 1), L(1, 3), L(3, 0))
        parts = reference_decompose(AnchoredWord(4, w))
        assert parts == ((), (), (L(3, 2), L(2, 1), L(3, 3)), ())

    def test_leading_word_unshifted(self):
        pi = parse_one_line("2_1 1_0", 3)
        w = AnchoredWord(3, pi.letters + (L(1, 0), L(2, 0)))
        assert reference_decompose(w) == (pi.letters, (), ())

    def test_trailing_word_fully_shifted(self):
        pi = parse_one_line("2_1 1_0", 3)
        parts = reference_decompose(AnchoredWord(3, (L(1, 0), L(2, 0)) + pi.letters))
        assert parts == ((), (), tuple(L((x.color - 2) % 3, x.value) for x in pi.letters))


class TestAgainstReference:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_random_posets(self, r):
        for seed in range(40):
            assert_matches_reference(random_colored_poset(random.Random(seed), r=r))

    def test_unsatisfiable_and_bare_zero_chains(self):
        unsat = zigzag_poset({2}, parse_one_line("1_0 2_0", 1))
        assert unsat.unsatisfiable
        for poset in [unsat, make_poset(1, 0, [], []), make_poset(3, 0, [], [])]:
            assert_matches_reference(poset)

    def test_every_zigzag_and_chain_poset_of_g33(self):
        for pi in enumerate_group(3, 3):
            for size in range(4):
                for I in itertools.combinations(range(1, 4), size):
                    assert_matches_reference(zigzag_poset(I, pi))
                    assert_matches_reference(chain_poset(I, pi))


def interleave(words):
    """The shuffles of ``words`` through the cached interleaving table."""
    flat = tuple(itertools.chain.from_iterable(words))
    cuts = tuple(itertools.accumulate(map(len, words)))[:-1]
    return [g(flat) for g in _interleavings(cuts, len(flat))]


class TestExtensionCap:
    """The caps trip exactly when the reference's counts exceed them, the
    linear-extension cap first."""

    @pytest.mark.parametrize(
        "poset",
        [
            chain_poset({1, 3}, parse_one_line("2_1 3_0 1_2", 3)),
            zigzag_poset({2}, parse_one_line("3_1 1_1 2_0", 3)),
            random_colored_poset(random.Random(6), r=3),
        ],
    )
    def test_cap_parity(self, poset, monkeypatch):
        n_linear = len(reference_linear_extensions(poset))
        n_colored = len(reference_colored_extensions(poset))
        assert n_colored > n_linear > 1
        for cap in (n_linear - 1, n_linear, n_colored - 1, n_colored):
            monkeypatch.setattr(posets, "DEFAULT_MAX_EXTENSIONS", cap)
            linear = f"more than {cap} linear extensions"
            colored = linear if n_linear > cap else f"more than {cap} colored extensions"
            if n_linear > cap:
                with pytest.raises(SizeCapExceeded) as exc:
                    linear_extensions(poset)
                assert str(exc.value) == linear
            else:
                assert len(linear_extensions(poset)) == n_linear
            if n_colored > cap:
                with pytest.raises(SizeCapExceeded) as exc:
                    colored_linear_extensions(poset)
                assert str(exc.value) == colored
            else:
                assert len(colored_linear_extensions(poset)) == n_colored

    def test_one_interleaving_table_over_the_cap(self, monkeypatch):
        # four one-letter blocks: 4! shuffles of a single linear extension
        monkeypatch.setattr(posets, "DEFAULT_MAX_EXTENSIONS", 23)
        with pytest.raises(SizeCapExceeded, match="^more than 23 colored extensions$"):
            _interleavings.__wrapped__((1, 2, 3), 4)
        monkeypatch.setattr(posets, "DEFAULT_MAX_EXTENSIONS", 24)
        assert len(_interleavings.__wrapped__((1, 2, 3), 4)) == 24


class TestShuffles:
    def test_counts_are_multinomial(self):
        a = (L(0, 1), L(0, 2))
        b = (L(1, 3),)
        for words, count in [([a, b], 3), ([a, b, (L(2, 4),)], 12), ([(), a, (), b], 3)]:
            got = interleave(words)
            assert len(got) == count
            assert got == list(reference_shuffles(words))

    def test_single_word(self):
        assert interleave([(L(0, 1),)]) == [(L(0, 1),)]
        assert interleave([(L(0, 1), L(1, 2)), ()]) == [(L(0, 1), L(1, 2))]

    def test_empty(self):
        assert interleave([]) == list(reference_shuffles([])) == [()]
        assert interleave([(), ()]) == [()]


class TestColoredExtensions:
    def test_hasse_example(self, hasse_example):
        words = sorted(word_str(w) for w in colored_linear_extensions(hasse_example))
        assert words == sorted(
            [
                "1_2 2_0 3_3",
                "1_2 2_1 3_3",
                "1_2 3_3 2_0",
                "1_2 3_3 2_1",
                "2_0 1_2 3_3",
                "2_1 1_2 3_3",
                "2_3 1_2 3_3",
            ]
        )

    def test_chain_gives_back_pi(self):
        pi = parse_one_line("3_2 1_0 2_1", 3)
        assert colored_linear_extensions(zigzag_poset(frozenset(), pi)) == [pi.letters]

    def test_antichain_gives_whole_group(self):
        poset = make_poset(2, 2, [L(0, 1), L(0, 2)], [])
        words = colored_linear_extensions(poset)
        got = {ColoredPermutation(2, w) for w in words}
        assert len(words) == 8
        assert got == set(enumerate_group(2, 2))


class TestZigzagAndChain:
    def test_worked_zigzag(self):
        pi = parse_one_line("2_1 1_2 3_2", 3)
        poset = zigzag_poset({1}, pi)
        assert (pi.letters[1], pi.letters[0]) in poset.less  # 1_2 < 2_1 reversed
        words = colored_linear_extensions(poset)
        assert sorted(word_str(w) for w in words) == [
            "1_2 2_0 3_2",
            "1_2 2_1 3_2",
            "1_2 2_2 3_2",
            "1_2 3_2 2_0",
            "1_2 3_2 2_1",
            "1_2 3_2 2_2",
            "2_0 1_2 3_2",
            "2_2 1_2 3_2",
        ]
        quotients = {
            str(compose(inverse(ColoredPermutation(3, w)), pi)) for w in words
        }
        assert quotients == {
            "2_0 1_0 3_0",
            "3_0 1_0 2_0",
            "1_1 2_0 3_0",
            "2_1 1_0 3_0",
            "3_1 1_0 2_0",
            "1_2 2_0 3_0",
            "2_2 1_0 3_0",
            "3_2 1_0 2_0",
        }

    def test_worked_chain(self):
        pi = parse_one_line("2_1 1_2 3_2", 3)
        z_words = colored_linear_extensions(zigzag_poset({1}, pi))
        c_words = colored_linear_extensions(chain_poset({1}, pi))
        assert set(c_words) == set(z_words) | {pi.letters}
        extra = compose(inverse(pi), pi)
        assert str(extra) == "1_0 2_0 3_0"

    def test_empty_index_set_matches(self):
        pi = parse_one_line("2_0 1_1", 2)
        assert zigzag_poset(set(), pi).less == chain_poset(set(), pi).less

    def test_full_index_set_chain_is_discrete(self):
        pi = parse_one_line("2_0 1_1", 2)
        poset = chain_poset({1, 2}, pi)
        assert poset.less == frozenset()  # r=2: zero chain is a single letter

    def test_lemma_exhaustive_small(self):
        for r, n in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
            group = list(enumerate_group(r, n))
            for pi in group:
                for size in range(n + 1):
                    for I in itertools.combinations(range(1, n + 1), size):
                        Iset = frozenset(I)
                        z_words = colored_linear_extensions(zigzag_poset(Iset, pi))
                        z = [ColoredPermutation(r, w) for w in z_words]
                        want_z = {
                            s
                            for s in group
                            if descent_positions(compose(inverse(s), pi).letters)
                            == Iset
                        }
                        assert len(z) == len(set(z))
                        assert set(z) == want_z
                        c_words = colored_linear_extensions(chain_poset(Iset, pi))
                        c = [ColoredPermutation(r, w) for w in c_words]
                        want_c = {
                            s
                            for s in group
                            if descent_positions(compose(inverse(s), pi).letters)
                            <= Iset
                        }
                        assert len(c) == len(set(c))
                        assert set(c) == want_c
                        assert want_z <= set(c)


class TestDisjointUnion:
    def test_singleton_with_zero_chain(self):
        single = make_poset(3, 1, [L(0, 1)], [])
        words = colored_linear_extensions(single)
        assert sorted(word_str(w) for w in words) == ["1_0", "1_1", "1_2"]

    def test_union_with_empty(self):
        p = make_poset(2, 2, [L(0, 1), L(1, 2)], [(L(0, 1), L(1, 2))])
        empty = make_poset(2, 0, [], [])
        assert disjoint_union(p, empty).less == p.less

    def test_two_singletons(self):
        a = make_poset(2, 1, [L(0, 1)], [])
        b = make_poset(2, 2, [L(0, 2)], [])
        union = disjoint_union(a, b)
        assert len(colored_linear_extensions(union)) == 8

    def test_overlap_rejected(self):
        a = make_poset(2, 1, [L(0, 1)], [])
        with pytest.raises(ValueError):
            disjoint_union(a, a)

    def test_r_mismatch_rejected(self):
        a = make_poset(2, 1, [L(0, 1)], [])
        b = make_poset(3, 2, [L(0, 2)], [])
        with pytest.raises(ValueError):
            disjoint_union(a, b)

    def test_union_closes_through_zero_letters(self):
        # a < 0_1 in one poset and 0_1 < b in the other chain together
        a = make_poset(3, 1, [L(0, 1)], [(L(0, 1), L(1, 0))])
        b = make_poset(3, 2, [L(2, 2)], [(L(1, 0), L(2, 2))])
        union = disjoint_union(a, b)
        assert (L(0, 1), L(2, 2)) in union.less


class TestSubAlphabets:
    def test_extensions_standardize_into_group(self):
        poset = make_poset(2, 6, [L(0, 2), L(1, 5)], [(L(0, 2), L(1, 5))])
        group = set(enumerate_group(2, 2))
        for w in colored_linear_extensions(poset):
            # relabel the values order-preservingly to 1..len(w)
            rank = {v: i for i, v in enumerate(sorted(v for _, v in w), start=1)}
            assert ColoredPermutation(2, tuple((c, rank[v]) for c, v in w)) in group


def index_sets(n):
    """Every I within [n], by size, as the shape table lists them."""
    return [
        frozenset(I)
        for size in range(n + 1)
        for I in itertools.combinations(range(1, n + 1), size)
    ]


class TestAnchoredTemplates:
    """The cached shape table gives the generic route's colored
    extensions of every zig-zag and chain poset, as multisets."""

    MAKE = {True: zigzag_poset, False: chain_poset}

    @pytest.fixture(autouse=True)
    def fresh_shapes(self):
        posets._anchored_shapes.cache_clear()
        yield
        posets._anchored_shapes.cache_clear()

    GROUPS = [(1, 1), (1, 4), (2, 0), (2, 3), (3, 2), (3, 3), (4, 2)]

    @pytest.mark.parametrize("r, n", GROUPS)
    def test_match_the_generic_route(self, r, n):
        for pi in enumerate_group(r, n):
            for I in index_sets(n):
                for reverse, make in self.MAKE.items():
                    got = _anchored_extensions(I, pi, reverse)
                    want = colored_linear_extensions(make(I, pi))
                    assert Counter(got) == Counter(want), (str(pi), sorted(I), reverse)

    @pytest.mark.parametrize("r, n", GROUPS)
    def test_generic_route_is_pi_times_the_identity_route(self, r, n):
        # Ext(pi, I) = pi·Ext(e, I) as multisets, so sigma^-1·pi runs over
        # the inverses of Ext(e, I) whatever pi is: a lemma's check at
        # (pi, I) is its check at (e, I)
        e = identity(r, n)
        for I in index_sets(n):
            for reverse, make in self.MAKE.items():
                at_e = colored_linear_extensions(make(I, e))
                for pi in enumerate_group(r, n):
                    want = Counter(_compose_words(r, pi.letters, t) for t in at_e)
                    got = Counter(colored_linear_extensions(make(I, pi)))
                    assert got == want, (str(pi), sorted(I), reverse)

    def test_unsatisfiable_anchor_and_empty_group(self):
        pi = parse_one_line("1_0 2_0", 1)
        assert _anchored_extensions({2}, pi, True) == []
        assert _anchored_extensions({2}, pi, False) == [((0, 1), (0, 2))]
        empty = ColoredPermutation(2, ())
        assert _anchored_extensions((), empty, True) == [()]

    @pytest.mark.parametrize("I", [{0}, {3}, {1, 3}])
    @pytest.mark.parametrize("reverse", [True, False])
    def test_index_set_outside_n_rejected(self, I, reverse):
        with pytest.raises(ValueError, match="subset"):
            _anchored_extensions(I, parse_one_line("2_1 1_0", 2), reverse)

    @pytest.mark.parametrize(
        "pi, reverse", [("2_1 3_0 1_2", False), ("3_1 1_1 2_0", True)]
    )
    def test_cap_messages_match_the_generic_route(self, monkeypatch, pi, reverse):
        # all shapes of a group are built at once, so the first shape in
        # index-set order to exceed the cap is the one reported
        pi = parse_one_line(pi, 3)
        shapes = [self.MAKE[reverse](I, pi) for I in index_sets(3)]
        counts = [
            (len(reference_linear_extensions(p)), len(reference_colored_extensions(p)))
            for p in shapes
        ]
        caps = {c + d for pair in counts for c in pair for d in (-1, 0)}
        for cap in sorted(caps):
            monkeypatch.setattr(posets, "DEFAULT_MAX_EXTENSIONS", cap)
            posets._anchored_shapes.cache_clear()
            want = None
            for n_linear, n_colored in counts:
                if n_linear > cap:
                    want = f"more than {cap} linear extensions"
                elif n_colored > cap:
                    want = f"more than {cap} colored extensions"
                if want:
                    break
            if want is None:
                got = _anchored_extensions({2}, pi, reverse)
                want = colored_linear_extensions(self.MAKE[reverse]({2}, pi))
                assert Counter(got) == Counter(want)
            else:
                with pytest.raises(SizeCapExceeded) as exc:
                    _anchored_extensions({2}, pi, reverse)
                assert str(exc.value) == want


class TestUnsatisfiableBoundary:
    def test_one_color_reversed_at_end(self):
        pi = parse_one_line("1_0 2_0", 1)
        poset = zigzag_poset({2}, pi)
        assert poset.unsatisfiable
        assert colored_linear_extensions(poset) == []

    def test_one_color_chain_never_unsatisfiable(self):
        pi = parse_one_line("2_0 1_0", 1)
        assert not chain_poset({1, 2}, pi).unsatisfiable

    def test_unsatisfiable_copy_keeps_the_order(self):
        pi = parse_one_line("1_0 2_0", 1)
        poset = zigzag_poset({2}, pi)
        plain = make_poset(1, 2, pi.letters, [(L(0, 1), L(0, 2))])
        assert colored_linear_extensions(plain) == [pi.letters]
        assert poset != plain
        assert poset == ColoredPoset(1, 2, plain.elements, plain.less, unsatisfiable=True)
        assert poset.nonzero == plain.nonzero == pi.letters
        assert pickle.loads(pickle.dumps(poset)) == poset


class TestJson:
    def test_round_trip(self, hasse_example):
        data = poset_to_json(hasse_example)
        elements = [L(c, v) for v, c in data["elements"]]
        covers = [(L(ac, av), L(bc, bv)) for (av, ac), (bv, bc) in data["covers"]]
        clone = make_poset(data["r"], data["n"], elements, covers)
        assert clone == hasse_example

    def test_documented_shape(self, hasse_example):
        data = poset_to_json(hasse_example)
        assert data["r"] == 4 and data["n"] == 3
        assert [1, 0] in data["elements"]
        assert all(len(cover) == 2 for cover in data["covers"])
