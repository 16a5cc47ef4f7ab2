import concurrent.futures
import itertools
import json
import os
from collections import Counter

import pytest

import colored_descents.algebra
from colored_descents import posets, verify
from colored_descents.algebra import (
    ClassPartition,
    ClosureFailure,
    ClosureReport,
    algebra_multiply,
    des_partition,
    generated_closure,
    partition_by,
    structure_poly_eval,
    verify_closure,
)
from colored_descents.cli import main
from colored_descents.group import (
    GroupTable,
    _code_word,
    _compose_words,
    _gather,
    _inverse_word,
    _letter_codes,
    enumerate_group,
    group_words,
    parse_one_line,
    word_des,
    word_str,
)
from colored_descents.posets import (
    _extension_table,
    chain_poset,
    colored_linear_extensions,
)
from colored_descents.verify import (
    IDEMPOTENT_GROUPS,
    LEMMA_SWEEP,
    run_suite,
    suite_closure_mr,
)


def test_idempotents_build_one_partition_per_group(monkeypatch):
    calls = []
    original = colored_descents.algebra.partition_by

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(colored_descents.algebra, "partition_by", counting)
    report = run_suite("idempotents", r=3, n=3)
    assert report.passed and report.checks == 18
    assert calls == [(3, 3)]


def test_phi_builds_one_partition_per_group(monkeypatch):
    calls = []
    original = colored_descents.algebra.partition_by

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(colored_descents.algebra, "partition_by", counting)
    report = run_suite("phi", j_max=1)
    assert report.passed and report.checks == 4 * len(IDEMPOTENT_GROUPS)
    assert calls == list(IDEMPOTENT_GROUPS)


@pytest.mark.parametrize("r, n", IDEMPOTENT_GROUPS + ((2, 4),))
def test_phi_suite_agrees_with_word_products(r, n):
    # the suite multiplies class coordinates on the closure tensor; the
    # reference multiplies phi(x) and phi(y) as whole-group elements
    report = run_suite("phi", r=r, n=n, j_max=3)
    assert report.passed and report.checks == 16
    for x, y in report.params["pairs"]:
        left = algebra_multiply(structure_poly_eval(r, n, x), structure_poly_eval(r, n, y))
        assert left == structure_poly_eval(r, n, r * x * y + x + y), (x, y)


def test_phi_names_its_first_failing_pair(monkeypatch):
    # at G(2, 2), phi(x) has C(x + 1, 2) on C_1 and C(x, 2) on C_2, so a
    # miscounted C_1 C_2 enters phi(x) phi(y) from x = 1, y = 2 on
    def miscounted(partition):
        report = generated_closure(partition)
        report.tensor[1][2][0] += 1
        return report

    monkeypatch.setattr(verify, "generated_closure", miscounted)
    report = run_suite("phi", r=2, n=2)
    assert report.checks == 9 and not report.passed
    assert report.failures == [{"r": 2, "n": 2, "x": 1, "y": 2}]


@pytest.mark.parametrize("suite", ["phi", "idempotents"])
def test_an_unclosed_group_is_recorded_and_the_next_still_checked(
    monkeypatch, capsys, suite
):
    # G(2, 3) fails its closure check: the suite records that group alone,
    # makes no check on it, and goes on to G(3, 3) and G(5, 3)
    def unclosed_at_2_3(partition):
        if (partition.r, partition.n) == (2, 3):
            return ClosureReport((ClosureFailure(1, 1, ((), (), 0, 1)),))
        return generated_closure(partition)

    closed = {(r, n): run_suite(suite, r=r, n=n).checks for r, n in IDEMPOTENT_GROUPS}
    monkeypatch.setattr(verify, "generated_closure", unclosed_at_2_3)
    report = run_suite(suite)
    assert report.failures == [{"r": 2, "n": 3, "closure": False}]
    assert report.checks == sum(closed.values()) - closed[2, 3]
    assert main(["verify", suite, "--j", "2", "--format", "json"]) == 3
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["failures"] == report.failures and results["checks"] == report.checks


def test_closed_partition_checks_make_no_word(monkeypatch):
    # a closed partition's checks read ranks only; words are made where one
    # leaves the program, as a witness or an algebra element
    partition = des_partition(3, 3)
    assert verify_closure(partition).passed
    assert "order" not in vars(partition)

    def fail(*args):
        raise AssertionError("a word was made")

    monkeypatch.setattr(GroupTable, "word", fail)
    monkeypatch.setattr(ClassPartition, "order", property(fail))
    assert verify_closure(des_partition(3, 3)).passed
    assert generated_closure(des_partition(3, 3)).generator == 3
    assert run_suite("closure-des", r=3, n=3).passed
    assert run_suite("idempotents", r=3, n=3).passed
    assert run_suite("phi", r=3, n=3).passed


def test_closure_mr_fails_when_descents_are_not_measurable(monkeypatch):
    # one class holding the whole group is closed (S S = |G| S), but it
    # mixes descent numbers 0, 1 and 2
    def one_class(r, n, max_size):
        return partition_by(r, n, "mr", lambda w: 0, max_size)

    monkeypatch.setattr(verify, "mr_partition", one_class)
    report = suite_closure_mr(r=2, n=2)
    [record] = report.details["groups"]
    assert record["passed"] and record["des_measurable"] is False
    assert report.failures == [record] and not report.passed


def _ortho(i, j, *product):
    return {"r": 2, "n": 2, "i": i, "j": j, "product": list(product)}


SUM = {"r": 2, "n": 2, "sum": "not identity"}
TOP = {"r": 2, "n": 2, "top": "not uniform"}


@pytest.mark.parametrize("entry,records", [
    # off the diagonal: orthogonality fails, and the column sum
    ((0, 1), [
        _ortho(0, 0, "111/392", "11/392", "111/392"),
        _ortho(0, 2, "3/28", "3/28", "3/28"),
        _ortho(2, 0, "3/28", "3/28", "3/28"),
        SUM,
    ]),
    # on the diagonal: the column sum fails, and orthogonality
    ((1, 1), [
        _ortho(0, 1, "-3/28", "1/28", "-3/28"),
        _ortho(1, 0, "-3/28", "1/28", "-3/28"),
        _ortho(1, 1, "61/98", "4/49", "-37/98"),
        _ortho(1, 2, "3/28", "3/28", "3/28"),
        _ortho(2, 1, "3/28", "3/28", "3/28"),
        SUM,
    ]),
    # in the top row: it is no longer uniform
    ((2, 1), [
        _ortho(0, 2, "-3/28", "1/28", "-3/28"),
        _ortho(2, 0, "-3/28", "1/28", "-3/28"),
        _ortho(2, 2, "181/392", "165/392", "181/392"),
        SUM,
        TOP,
    ]),
])
def test_idempotents_catch_a_perturbed_table(monkeypatch, entry, records):
    # the records are those of checking the idempotents as whole-group
    # elements, built from the same perturbed table; 1/7 is added to the
    # entry as scale over 7 * scale
    original = verify._idempotent_numerators

    def perturbed(r, n):
        rows, scale = original(r, n)
        rows = [[7 * x for x in row] for row in rows]
        i, d = entry
        rows[i][d] += scale
        return rows, 7 * scale

    monkeypatch.setattr(verify, "_idempotent_numerators", perturbed)
    report = run_suite("idempotents", r=2, n=2)
    assert report.checks == 11
    assert report.failures == records


def test_idempotents_reference_mismatch_is_not_matched(monkeypatch):
    assert run_suite("idempotents", r=5, n=3).details["reference_table"] == "matched"
    rows = dict(verify.REFERENCE_IDEMPOTENTS_5_3)
    rows[1] = (219, 23, -22, 83)
    monkeypatch.setattr(verify, "REFERENCE_IDEMPOTENTS_5_3", rows)
    report = run_suite("idempotents", r=5, n=3)
    assert not report.passed
    assert report.failures == [{"r": 5, "n": 3, "table_row": 1}]
    assert "reference_table" not in report.details


@pytest.mark.parametrize("mode, extensions", [("zigzag", 64), ("chain", 136)])
def test_lemma_reports_count_extensions(mode, extensions):
    # G(2, 2) has 8 elements and descent-set sizes 0, 1, 2 for 1, 6, 1 of
    # them.  Each pi's zigzag posets split G by descent set: 8 * 8 words.  A
    # chain poset on I takes every sigma with Des <= I: 8 * (4 + 2*6 + 1).
    assert run_suite(mode, r=2, n=2).details["extensions"] == extensions


def test_jobs_are_capped_by_cases_and_cpus(monkeypatch):
    started = []
    chunks = []

    class FakeExecutor:
        """Records max_workers and maps in-process; starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            return map(fn, *iterables)

    # verify imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    serial = run_suite("order-poly", r=2, n=2, jobs=1).to_json()
    # G(2, 2) has 8 elements, so order-poly runs 8 cases; one usable worker
    # (cpu_count unknown) runs them in-process
    for cpus in (64, 3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_suite("order-poly", r=2, n=2, jobs=10_000).to_json() == serial
    # G(3, 2) has 18 elements, so chain runs 18 cases; two workers take
    # about four chunks each, of ceil(18 / 8) = 3 cases
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    chain = run_suite("chain", r=3, n=2, jobs=2).to_json()
    assert chain == run_suite("chain", r=3, n=2, jobs=1).to_json()
    assert started == [8, 3, 2]
    # ceil(8 / 32) and ceil(8 / 12) for order-poly
    assert chunks == [1, 1, 3]


@pytest.mark.parametrize("mode, r, n, order", [("zigzag", 2, 2, 8), ("chain", 3, 2, 18)])
def test_lemma_suites_run_one_case_per_group_element(monkeypatch, mode, r, n, order):
    sizes = []
    run_cases = verify._run_cases

    def recording(report, worker, cases, jobs):
        sizes.append(len(cases))
        return run_cases(report, worker, cases, jobs)

    monkeypatch.setattr(verify, "_run_cases", recording)
    assert run_suite(mode, r=r, n=n).passed
    assert sizes == [order]


def test_closure_records_count_products():
    # G(3, 4): 1944 elements, and the candidates C_0 and C_4, of 1 and 16
    # elements, tried up to the generator C_4; G(2, 2): 8 elements, every
    # pair checked, |G|^2 compositions
    report = run_suite("closure-des", r=3, n=4)
    assert [g["products"] for g in report.details["groups"]] == [1944 * 17]
    assert [g["generator"] for g in report.details["groups"]] == [4]
    assert run_suite("closure-des", r=3, n=4, jobs=2).to_json() == report.to_json()
    desset = run_suite("closure-desset", r=2, n=2)
    assert desset.details["closure"]["products"] == 8**2
    assert [f["products"] for f in desset.failures] == [8**2]
    assert desset.details["closure"]["generator"] is None


def _drop(got, r, n):
    return got[:-1] if got else None


def _duplicate(got, r, n):
    # in place of the last one, so the size still matches
    return got[:-1] + [got[0]] if len(got) > 1 else None


def _wrong_class(got, r, n):
    # the extensions are a union of quotient classes, so a group word
    # outside them is a word of another class
    inside = set(got)
    outside = next((w for w in group_words(r, n) if w not in inside), None)
    return [outside] + got[1:] if got and outside else None


def _non_group(got, r, n):
    return got + [((0, 1),) * n]


def _non_group_in_place(got, r, n):
    return got[:-1] + [((0, 1),) * n] if got else None


@pytest.mark.parametrize(
    "perturb", [_drop, _duplicate, _wrong_class, _non_group, _non_group_in_place]
)
@pytest.mark.parametrize("mode", ["zigzag", "chain"])
@pytest.mark.parametrize("r, n", [(2, 2), (3, 2)])
def test_lemma_check_catches_perturbed_extensions(monkeypatch, perturb, mode, r, n):
    # every perturbed extension list is reported with the true class union
    # as expected, and no other (pi, I) is
    perturbed = []

    def extensions(pi, reverse):
        # the check reads I's extensions as shapes[I](words); a perturbed
        # list is appended to words, and I's gather reads it there
        words, shapes = _extension_table(pi, reverse)
        words, shapes = list(words), dict(shapes)
        for I, shape in shapes.items():
            got = [_code_word(n, w) for w in shape(words)]
            bad = perturb(got, r, n)
            if bad is None:
                continue
            perturbed.append((sorted(map(word_str, bad)), sorted(map(word_str, got))))
            shapes[I] = _gather(range(len(words), len(words) + len(bad)))
            words += [_letter_codes(n, w) for w in bad]
        return words, shapes

    monkeypatch.setattr(verify, "_extension_table", extensions)
    failures = [
        f for pi in enumerate_group(r, n) for f in verify._lemma_case(pi, mode)["failures"]
    ]
    assert perturbed
    assert [(f["extensions"], f["expected"]) for f in failures] == perturbed
    assert all(f.keys() == {"r", "n", "pi", "I", "extensions", "expected"}
               for f in failures)


@pytest.fixture
def fresh_shapes():
    """An empty shape-table cache before and after the test, so neither a
    patched walk nor a patched cap leaks into another test."""
    posets._anchored_shapes.cache_clear()
    yield
    posets._anchored_shapes.cache_clear()


@pytest.mark.parametrize("mode", ["zigzag", "chain"])
@pytest.mark.parametrize("r, n", [(2, 2), (3, 2)])
def test_lemma_suite_fails_on_an_off_by_one_color_lowering(
    monkeypatch, capsys, fresh_shapes, mode, r, n
):
    # one shape's words read each letter lowered one color too far
    words = posets._anchored_words

    def off_by_one(r, n, I, reverse):
        got = words(r, n, I, reverse)
        if I != {1}:
            return got
        return [tuple(x - x % r + (x + 1) % r for x in w) for w in got]

    argv = ["verify", mode, "--r", str(r), "--n", str(n), "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    posets._anchored_shapes.cache_clear()
    monkeypatch.setattr(posets, "_anchored_words", off_by_one)
    assert main(argv) == 3
    failures = json.loads(capsys.readouterr().out)["results"]["failures"]
    assert failures and {tuple(f["I"]) for f in failures} == {(1,)}


@pytest.mark.parametrize("r, n", [(2, 3), (3, 3)])
def test_lemma_check_fails_every_index_set_holding_a_corrupt_shared_word(
    monkeypatch, fresh_shapes, r, n
):
    # the chain table builds each distinct word once per pi and shares it
    # among the index sets that hold it; lowering its first letter one
    # color too far must fail each of those (pi, I), and no other
    words = posets._anchored_words
    sets = [frozenset(I) for k in range(n + 1)
            for I in itertools.combinations(range(1, n + 1), k)]
    target = words(r, n, frozenset({1}), False)[-1]
    holders = [I for I in sets if target in words(r, n, I, False)]
    assert 1 < len(holders) < len(sets)
    bad = ((target[0] + 1) % r + target[0] - target[0] % r,) + target[1:]

    def corrupt(r, n, I, reverse):
        return [bad if w == target else w for w in words(r, n, I, reverse)]

    monkeypatch.setattr(posets, "_anchored_words", corrupt)
    for pi in enumerate_group(r, n):
        failures = verify._lemma_case(pi, "chain")["failures"]
        assert [f["I"] for f in failures] == [sorted(I) for I in holders], str(pi)


@pytest.mark.parametrize("r, n", [*LEMMA_SWEEP, (2, 4), (3, 4)])
def test_integer_rank_map_matches_the_group_table(r, n):
    # the lemma check's rank map, keyed by integer letters c*n + v - 1,
    # against the table's rank read off value and color indices
    rank_of = verify._quotient_side(r, n)[1]
    table = GroupTable(r, n)
    words = list(group_words(r, n))
    assert len(rank_of) == len(words)
    for w in words:
        assert rank_of[tuple(c * n + v - 1 for c, v in w)] == table.rank(w)


@pytest.mark.parametrize(
    "mode, r, n, checks, extensions",
    [
        ("zigzag", 3, 3, 1298, 26_244),
        ("chain", 3, 3, 1297, 71_604),
        ("zigzag", 2, 4, 6146, 147_456),
        ("chain", 2, 4, 6145, 651_648),
    ],
)
def test_lemma_suites_pin_checks_and_extensions(mode, r, n, checks, extensions):
    report = run_suite(mode, r=r, n=n)
    assert report.passed
    assert (report.checks, report.details["extensions"]) == (checks, extensions)


@pytest.mark.parametrize("r, n", [(2, 3), (3, 2)])
def test_lemma_suites_walk_each_shape_once(monkeypatch, fresh_shapes, r, n):
    walks = []
    expand = posets._expand

    def counting(pred, *args):
        walks.append(len(pred))
        return expand(pred, *args)

    monkeypatch.setattr(posets, "_expand", counting)
    for mode in ("zigzag", "chain"):
        walks.clear()
        assert run_suite(mode, r=r, n=n).passed
        # one walk per shape I, and the worked example's on the generic
        # route: its poset holds 3 letters and 2 zero letters
        assert Counter(walks) == Counter({n + r - 1: 2**n}) + Counter({5: 1})


@pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 3)])
def test_des_pairs_read_off_a_table_row_match_word_products(r, n):
    for pi in enumerate_group(r, n):
        words = Counter(
            (word_des(s), word_des(_compose_words(r, _inverse_word(r, s), pi.letters)))
            for s in group_words(r, n)
        )
        assert verify._des_pairs(pi) == words, str(pi)


def test_ftcpp_catches_a_dropped_extension(monkeypatch):
    # the chain 1_0 < 2_1 < 0_1 has one extension, of des 1: dropping it
    # loses C(j + 2 - 1, 2) from each j >= 1
    poset = chain_poset((), parse_one_line("1_0 2_1", 2))
    assert verify._ftcpp_case(0, poset, 3)["failures"] == []
    monkeypatch.setattr(
        verify, "colored_linear_extensions", lambda p: colored_linear_extensions(p)[1:]
    )
    res = verify._ftcpp_case(0, poset, 3)
    assert [f["j"] for f in res["failures"]] == [1, 2, 3]
    assert [f["extension_sum"] for f in res["failures"]] == ["0", "0", "0"]


@pytest.mark.parametrize(
    "argv", [["ftcpp", "--cases", "50"], ["order-poly", "--r", "2", "--n", "3"]]
)
def test_oracle_suites_catch_an_oracle_without_strictness(monkeypatch, capsys, argv):
    # an oracle that drops condition (iii) counts too many maps: both suites
    # fail, and each failure names its j
    monkeypatch.setattr(
        "colored_descents.ppartitions._shift_gt", lambda a, b, k, r: False
    )
    assert main(["verify", *argv, "--format", "json"]) == 3
    failures = json.loads(capsys.readouterr().out)["results"]["failures"]
    assert failures and all(0 <= f["j"] <= 3 for f in failures)
    assert all(int(f["bruteforce"]) > int(f.get("closed", f.get("extension_sum"))) for f in failures)


def test_ftcpp_refuses_a_poset_before_generating_its_extensions(monkeypatch, capsys):
    # the first poset of seed 9 has four letters in two colors: at --j 0..30
    # its 62^4 candidate maps exceed the map cap, which trips at the top j
    # before the extension cap can be reached
    def no_extensions(poset):
        raise AssertionError("extensions generated for a refused poset")

    monkeypatch.setattr(verify, "colored_linear_extensions", no_extensions)
    argv = ["verify", "ftcpp", "--cases", "1", "--seed", "9", "--j", "0..30"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: 62^4 candidate maps exceed cap 10000000\n"
