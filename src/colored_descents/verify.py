"""Named verification suites over configurable group ranges.

Every suite runs a family of exact checks and reports machine-readable
witnesses for failures.  Suites with many independent cases accept a jobs
count; results are merged in case order, so output does not depend on the
worker count.
"""
from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .algebra import (
    ClassPartition,
    _phi_class_coefficients,
    closure_products,
    collapsed_product,
    des_partition,
    desset_partition,
    idempotent_class_table,
    mr_partition,
    tensor_mass_check,
    variant_partition,
    verify_closure,
)
from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredPermutation,
    _check_order,
    _compose_words,
    _gather,
    _inverse_word,
    descent_positions,
    enumerate_group,
    group_order,
    group_table,
    group_words,
    parse_one_line,
    word_des,
    word_str,
)
from .posets import (
    ColoredPoset,
    chain_poset,
    colored_linear_extensions,
    detached_chain_poset,
    poset_to_json,
    zigzag_poset,
)
from .ppartitions import (
    barred_chain_total,
    binom,
    count_ppartitions_bruteforce,
    descent_class_sizes,
    omega_Ppi,
    random_colored_poset,
    verify_steingrimsson,
)

IDEMPOTENT_GROUPS = ((1, 3), (2, 3), (3, 3), (5, 3))
CLOSURE_DES_SWEEP = tuple(
    (r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)
) + ((4, 3),)
CLOSURE_MR_SWEEP = ((2, 2), (3, 2))
LEMMA_SWEEP = tuple((r, n) for r in (1, 2, 3) for n in (1, 2, 3))

# Reference idempotent table for the 5-colored group on 3 letters:
# numerators of the coefficient of each descent class sum, all over 750.
REFERENCE_IDEMPOTENTS_5_3 = {
    0: (504, -36, 24, -66),
    1: (218, 23, -22, 83),
    2: (27, 12, -3, -18),
    3: (1, 1, 1, 1),
}
REFERENCE_DENOMINATOR_5_3 = 750

# Worked 3-colored instance with n = 3, pi = 2_1 1_2 3_2, I = {1}.
WORKED_EXAMPLE = {
    "r": 3,
    "pi": "2_1 1_2 3_2",
    "I": (1,),
    "cl_zigzag": frozenset(
        {
            "1_2 2_0 3_2",
            "1_2 2_1 3_2",
            "1_2 2_2 3_2",
            "1_2 3_2 2_0",
            "1_2 3_2 2_1",
            "1_2 3_2 2_2",
            "2_0 1_2 3_2",
            "2_2 1_2 3_2",
        }
    ),
    "quotients": frozenset(
        {
            "2_0 1_0 3_0",
            "3_0 1_0 2_0",
            "1_1 2_0 3_0",
            "2_1 1_0 3_0",
            "3_1 1_0 2_0",
            "1_2 2_0 3_0",
            "2_2 1_0 3_0",
            "3_2 1_0 2_0",
        }
    ),
    "chain_extra": "2_1 1_2 3_2",
}


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.checks > 0 and not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _groups(r: int | None, n: int | None, sweep: tuple) -> list[tuple[int, int]]:
    """The single group G(r, n), or the suite's default sweep when neither
    is given."""
    if r is None and n is None:
        return list(sweep)
    if r is None or n is None:
        raise ValueError("give both --r and --n, or neither for the default sweep")
    return [(r, n)]


def _run_cases(
    report: SuiteReport, worker, cases: list[tuple], jobs: int
) -> list[dict]:
    """Run ``worker(*case)`` for every case in case order, in-process or over
    at most ``jobs`` worker processes, no more than there are cases or CPUs,
    in about four chunks per worker; merge checks and failures into the report."""
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers <= 1:
        results = [worker(*case) for case in cases]
    else:
        # imported here: the pool pulls in multiprocessing, which a
        # single-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-len(cases) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, *zip(*cases), chunksize=chunk))
    for res in results:
        report.checks += res["checks"]
        report.failures.extend(res["failures"])
    return results


# ---------------------------------------------------------------------------
# ftcpp: brute-force counts against sums over colored linear extensions.

def _ftcpp_case(index: int, poset: ColoredPoset, j_max: int) -> dict:
    failures = []
    counts = []
    m = len(poset.nonzero)  # the length of every extension
    for j in range(j_max + 1):
        brute = count_ppartitions_bruteforce(poset, j)
        if j == 0:  # once per poset; after the first count, so caps trip in order
            by_des = Counter(map(word_des, colored_linear_extensions(poset)))
        via = sum(count * binom(j + m - d, m) for d, count in by_des.items())
        counts.append(str(brute))
        if brute != via:
            failures.append(
                {
                    "case": index,
                    "poset": poset_to_json(poset),
                    "j": j,
                    "bruteforce": str(brute),
                    "extension_sum": str(via),
                }
            )
    return {"checks": j_max + 1, "counts": counts, "failures": failures}


def suite_ftcpp(
    r: int | None = None,
    seed: int = 0,
    cases: int = 100,
    j_max: int = 3,
    jobs: int = 1,
    **_: object,
) -> SuiteReport:
    rng = random.Random(seed)
    case_list = [
        (i, random_colored_poset(rng, max_r=r or 3), j_max) for i in range(cases)
    ]
    report = SuiteReport(
        "ftcpp", {"r_max": r or 3, "seed": seed, "cases": cases, "j_max": j_max}
    )
    results = _run_cases(report, _ftcpp_case, case_list, jobs)
    report.details["counts"] = [res["counts"] for res in results]
    return report


# ---------------------------------------------------------------------------
# order-poly: brute force on the detached chain of pi against the closed form.

def _order_poly_case(pi: ColoredPermutation, j_max: int) -> dict:
    failures = []
    poset = detached_chain_poset(pi)
    for j in range(j_max + 1):
        brute = count_ppartitions_bruteforce(poset, j)
        closed = omega_Ppi(pi, j)
        if brute != closed:
            failures.append(
                {"pi": str(pi), "j": j, "bruteforce": str(brute), "closed": str(closed)}
            )
    return {"checks": j_max + 1, "failures": failures}


def suite_order_poly(
    r: int | None = None,
    n: int | None = None,
    j_max: int = 3,
    jobs: int = 1,
    max_group_size: int = DEFAULT_MAX_GROUP_SIZE,
    **_: object,
) -> SuiteReport:
    r, n = r or 3, n if n is not None else 3
    report = SuiteReport("order-poly", {"r": r, "n": n, "j_max": j_max})
    case_list = [(pi, j_max) for pi in enumerate_group(r, n, max_group_size)]
    _run_cases(report, _order_poly_case, case_list, jobs)
    return report


# ---------------------------------------------------------------------------
# The quotient side of zigzag, chain and barred, read off table rows.

@lru_cache(maxsize=2)
def _quotient_side(r: int, n: int) -> tuple[list, list, list, Callable]:
    """The words of G(r, n) in rank order, their descent sets and descent
    numbers, and a gather of ``left_row(rank pi)`` that reads, for every
    rank tau, the rank of sigma = pi tau^-1; then sigma^-1 pi = tau."""
    table = group_table(r, n)
    words = list(group_words(r, n))
    inv = [table.rank(_inverse_word(r, w)) for w in words]
    dsets = [descent_positions(w) for w in words]
    return words, dsets, list(map(len, dsets)), _gather(inv)


# ---------------------------------------------------------------------------
# zigzag / chain: extension sets against descent conditions on quotients.

@lru_cache(maxsize=2)
def _class_union_sizes(r: int, n: int, matches) -> dict[frozenset, int]:
    """Each I within [n], by size, with how many words w have matches(Des w, I)."""
    return {
        I: sum(matches(D, I) for D in _quotient_side(r, n)[1])
        for size in range(n + 1)
        for I in map(frozenset, itertools.combinations(range(1, n + 1), size))
    }


def _lemma_case(pi: ColoredPermutation, mode: str) -> dict:
    # zigzag extensions have quotient descent set exactly I, chain ones within I
    matches = frozenset.__eq__ if mode == "zigzag" else frozenset.__le__
    make = zigzag_poset if mode == "zigzag" else chain_poset
    words, labels, _, quotient_ranks = _quotient_side(pi.r, pi.n)
    table = group_table(pi.r, pi.n)
    row = table.left_row(table.rank(pi.letters))
    label_of = dict(zip(map(words.__getitem__, quotient_ranks(row)), labels))
    extensions = 0
    failures = []
    for I, want_size in _class_union_sizes(pi.r, pi.n, matches).items():
        got = colored_linear_extensions(make(I, pi))
        extensions += len(got)
        # the right size, no repeats and every word in a matching class
        # hold together exactly when the extensions are the class union;
        # a word outside the group has no label
        got_labels = set(map(label_of.get, got))
        if (
            not want_size == len(got) == len(set(got))
            or None in got_labels
            or not all(matches(D, I) for D in got_labels)
        ):
            want = [w for w, D in label_of.items() if matches(D, I)]
            failures.append(
                {
                    "r": pi.r,
                    "n": pi.n,
                    "pi": str(pi),
                    "I": sorted(I),
                    "extensions": sorted(word_str(w) for w in got),
                    "expected": sorted(word_str(w) for w in want),
                }
            )
    return {"checks": 2**pi.n, "failures": failures, "extensions": extensions}


def _lemma_suite(
    mode: str, r=None, n=None, jobs=1, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    combos = _groups(r, n, LEMMA_SWEEP)
    report = SuiteReport(mode, {"groups": combos})
    case_list = [
        (pi, mode) for group in combos for pi in enumerate_group(*group, max_group_size)
    ]
    results = _run_cases(report, _lemma_case, case_list, jobs)
    # colored extensions generated, in case order so --jobs cannot change it
    report.details["extensions"] = sum(res["extensions"] for res in results)
    _check_worked_example(report, mode)
    return report


def _check_worked_example(report: SuiteReport, mode: str) -> None:
    ex = WORKED_EXAMPLE
    pi = parse_one_line(ex["pi"], ex["r"])
    make = zigzag_poset if mode == "zigzag" else chain_poset
    words = colored_linear_extensions(make(frozenset(ex["I"]), pi))
    got = {word_str(w) for w in words}
    want = ex["cl_zigzag"]
    if mode == "chain":
        want = want | {ex["chain_extra"]}
    report.checks += 1
    if got != want or len(words) != len(want):
        report.failures.append({"worked_example": mode, "got": sorted(got)})
    if mode == "zigzag":
        quotients = {
            word_str(_compose_words(pi.r, _inverse_word(pi.r, w), pi.letters))
            for w in words
        }
        report.checks += 1
        if quotients != ex["quotients"]:
            report.failures.append(
                {"worked_example": "quotients", "got": sorted(quotients)}
            )
    report.details["worked_example"] = {"extensions": sorted(got)}


# ---------------------------------------------------------------------------
# barred: the product identity via convolution and via barred chain posets.

def _des_pairs(pi: ColoredPermutation) -> Counter:
    """How often each (des(s), des(s^-1 pi)) occurs over the group.  As s
    runs over the group so does t = s^-1 pi, and s = pi t^-1 is read off
    pi's table row."""
    _, _, des, quotient_ranks = _quotient_side(pi.r, pi.n)
    table = group_table(pi.r, pi.n)
    row = table.left_row(table.rank(pi.letters))
    return Counter(zip(map(des.__getitem__, quotient_ranks(row)), des))


def _barred_case(pi: ColoredPermutation, j_max: int, k_max: int) -> dict:
    r, n = pi.r, pi.n
    # the convolution needs nothing but the (des, des) histogram
    des_pairs = _des_pairs(pi)
    checks = 0
    failures = []
    for j in range(j_max + 1):
        for k in range(k_max + 1):
            closed = binom(r * j * k + j + k + n - word_des(pi.letters), n)
            conv = sum(
                m * binom(j + n - ds, n) * binom(k + n - dq, n)
                for (ds, dq), m in des_pairs.items()
            )
            barred = barred_chain_total(pi, j, k)
            checks += 1
            if not (closed == conv == barred):
                failures.append(
                    {
                        "pi": str(pi),
                        "j": j,
                        "k": k,
                        "closed": str(closed),
                        "convolution": str(conv),
                        "barred": str(barred),
                    }
                )
    return {"checks": checks, "failures": failures}


def suite_barred(
    r=None, n=None, j_max=3, k_max=3, jobs=1,
    max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    r, n = r or 2, n if n is not None else 3
    report = SuiteReport("barred", {"r": r, "n": n, "j_max": j_max, "k_max": k_max})
    case_list = [
        (pi, j_max, k_max) for pi in enumerate_group(r, n, max_group_size)
    ]
    _run_cases(report, _barred_case, case_list, jobs)
    return report


# ---------------------------------------------------------------------------
# steingrimsson: power sums against the descent histogram.

def suite_steingrimsson(
    r=None, n=None, j_max=4, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    r_values = [r] if r else [1, 2, 3, 4]
    n_values = [n] if n is not None else [0, 1, 2, 3, 4]
    report = SuiteReport(
        "steingrimsson", {"r_values": r_values, "n_values": n_values, "J": j_max}
    )
    for rr in r_values:
        for nn in n_values:
            report.checks += 1
            if not verify_steingrimsson(rr, nn, j_max, max_group_size):
                report.failures.append({"r": rr, "n": nn, "J": j_max})
    return report


# ---------------------------------------------------------------------------
# closure suites.

def _closable_des_partition(r: int, n: int, max_group_size: int) -> ClassPartition:
    """``des_partition(r, n)``, refused before any word of it is built when
    its closure check would exceed the pairs cap: the closed class sizes
    give the pairs.  The group cap is checked first, so a run over both
    caps is refused for its group order."""
    _check_order(r, n, max_group_size)
    closure_products(descent_class_sizes(r, n))
    return des_partition(r, n, max_group_size)


def _closure_record(partition: ClassPartition) -> tuple[dict, object]:
    rep = verify_closure(partition)
    K = len(partition.classes)
    failed_pairs = {(f.left, f.right) for f in rep.failures}
    record = {
        "partition": partition.kind,
        "r": partition.r,
        "n": partition.n,
        "classes": K,
        "class_sizes": [info.size for info in partition.classes],
        "passed": rep.passed,
        "pair_status": [
            [(j, k) not in failed_pairs for k in range(K)] for j in range(K)
        ],
        "witnesses": [f.to_json() for f in rep.failures[:3]],
        "products": rep.products,
    }
    return record, rep


def suite_closure_des(
    r=None, n=None, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    combos = _groups(r, n, CLOSURE_DES_SWEEP)
    report = SuiteReport("closure-des", {"groups": combos})
    for rr, nn in combos:
        partition = _closable_des_partition(rr, nn, max_group_size)
        record, rep = _closure_record(partition)
        if not rep.passed:
            report.failures.append(record)
            report.checks += 1
            continue
        mass_ok = tensor_mass_check(rep.tensor, record["class_sizes"])
        record["mass_check"] = mass_ok
        report.checks += 2
        if not mass_ok:
            report.failures.append(record)
        report.details.setdefault("groups", []).append(record)
    return report


def suite_closure_mr(
    r=None, n=None, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    combos = _groups(r, n, CLOSURE_MR_SWEEP)
    report = SuiteReport("closure-mr", {"groups": combos})
    for rr, nn in combos:
        partition = mr_partition(rr, nn, max_group_size)
        record, rep = _closure_record(partition)
        # descent number must be constant on every run-composition class
        order = partition.order
        des_constant = all(
            len({word_des(order[p]) for p in info.ranks}) == 1
            for info in partition.classes
        )
        record["des_measurable"] = des_constant
        report.checks += 2
        if not rep.passed or not des_constant:
            report.failures.append(record)
        report.details.setdefault("groups", []).append(record)
    return report


def suite_closure_desset(
    r=None, n=None, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    rr, nn = r or 2, n if n is not None else 2
    report = SuiteReport("closure-desset", {"r": rr, "n": nn})
    partition = desset_partition(rr, nn, max_group_size)
    record, rep = _closure_record(partition)
    report.checks += 1
    report.details["closure"] = record
    if not rep.passed:
        report.failures.append(record)
    return report


# ---------------------------------------------------------------------------
# phi and idempotents.

def suite_phi(
    r=None, n=None, j_max=2, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    combos = _groups(r, n, IDEMPOTENT_GROUPS)
    pairs = [(x, y) for x in range(j_max + 1) for y in range(j_max + 1)]
    report = SuiteReport("phi", {"groups": combos, "pairs": pairs})
    for rr, nn in combos:
        partition = _closable_des_partition(rr, nn, max_group_size)
        closure = verify_closure(partition)
        if not closure.passed:
            report.failures.append({"r": rr, "n": nn, "closure": False})
            continue

        # phi(x) in class coordinates: C(x + n - d, n) on each realized class C_d
        def phi(x: int) -> tuple:
            by_des = _phi_class_coefficients(nn, x)
            return tuple(by_des[info.label] for info in partition.classes)

        report.checks += len(pairs)
        for x, y in pairs:
            if collapsed_product(phi(x), phi(y), closure.tensor) != phi(rr * x * y + x + y):
                # the first failing pair is the group's witness
                report.failures.append({"r": rr, "n": nn, "x": x, "y": y})
                break
    return report


def suite_idempotents(
    r=None, n=None, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    combos = _groups(r, n, IDEMPOTENT_GROUPS)
    report = SuiteReport("idempotents", {"groups": combos})
    for rr, nn in combos:
        partition = _closable_des_partition(rr, nn, max_group_size)
        closure = verify_closure(partition)
        if not closure.passed:
            report.failures.append({"r": rr, "n": nn, "closure": False})
            continue
        # c_i in class coordinates: alpha[i][d] on each realized class C_d
        table = idempotent_class_table(rr, nn)
        coords = [tuple(row[info.label] for info in partition.classes) for row in table]
        zero = tuple(Fraction(0) for _ in partition.classes)
        for i in range(nn + 1):
            for j in range(nn + 1):
                prod = collapsed_product(coords[i], coords[j], closure.tensor)
                want = coords[i] if i == j else zero
                report.checks += 1
                if prod != want:
                    report.failures.append(
                        {"r": rr, "n": nn, "i": i, "j": j, "product": [str(v) for v in prod]}
                    )
        # sum c_i = e iff the class holding e (rank 0) is {e} and the column
        # sums of coords are that class's indicator
        unit = [int(0 in info.ranks) for info in partition.classes]
        report.checks += 1
        if [sum(column) for column in zip(*coords)] != unit or (
            partition.classes[unit.index(1)].size != 1
        ):
            report.failures.append({"r": rr, "n": nn, "sum": "not identity"})
        # the top idempotent is the uniform average over the group; the
        # classes tile the group, so each realized class carries 1/|G|
        uniform = Fraction(1, group_order(rr, nn))
        report.checks += 1
        if any(c != uniform for c in coords[nn]):
            report.failures.append({"r": rr, "n": nn, "top": "not uniform"})
        if (rr, nn) == (5, 3):
            report.checks += 1
            failed = len(report.failures)
            for i, nums in REFERENCE_IDEMPOTENTS_5_3.items():
                if [table[i][d] for d in range(4)] != [
                    Fraction(v, REFERENCE_DENOMINATOR_5_3) for v in nums
                ]:
                    report.failures.append({"r": 5, "n": 3, "table_row": i})
            if len(report.failures) == failed:
                report.details["reference_table"] = "matched"
    return report


# ---------------------------------------------------------------------------
# variants: scan boundary-letter descent definitions.

def suite_variants(
    r=None, n=None, max_group_size=DEFAULT_MAX_GROUP_SIZE, **_
) -> SuiteReport:
    rr, nn = r or 2, n if n is not None else 2
    report = SuiteReport("variants", {"r": rr, "n": nn})
    standard = des_partition(rr, nn, max_group_size)
    standard_blocks = {frozenset(info.ranks) for info in standard.classes}
    results = []
    for a in range(rr):
        for b in range(rr):
            partition = variant_partition(rr, nn, a, b, max_group_size)
            blocks = {frozenset(info.ranks) for info in partition.classes}
            same = blocks == standard_blocks
            closed = verify_closure(partition).passed
            results.append(
                {"a": a, "b": b, "equals_standard": same, "closure": closed}
            )
            report.checks += 1
            if closed != same:
                report.failures.append(results[-1])
    report.details["scan"] = results
    return report


_SUITES = {
    "ftcpp": suite_ftcpp,
    "order-poly": suite_order_poly,
    "zigzag": partial(_lemma_suite, "zigzag"),
    "chain": partial(_lemma_suite, "chain"),
    "barred": suite_barred,
    "steingrimsson": suite_steingrimsson,
    "closure-des": suite_closure_des,
    "closure-mr": suite_closure_mr,
    "closure-desset": suite_closure_desset,
    "phi": suite_phi,
    "idempotents": suite_idempotents,
    "variants": suite_variants,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](**kwargs)

