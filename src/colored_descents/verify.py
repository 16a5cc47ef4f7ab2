"""Named verification suites over configurable group ranges.

Every suite runs a family of exact checks and reports machine-readable
witnesses for failures.  Suites with many independent cases accept a jobs
count; results are merged in case order, so output does not depend on the
worker count.
"""
from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    ClassPartition,
    algebra_add,
    algebra_unit,
    algebra_zero,
    collapse,
    collapsed_product,
    des_partition,
    desset_partition,
    eulerian_idempotents,
    idempotent_class_table,
    mr_partition,
    structure_constants,
    tensor_mass_check,
    variant_partition,
    verify_closure,
    verify_phi_identity,
)
from .group import (
    ColoredPermutation,
    compose,
    descent_positions,
    enumerate_group,
    group_order,
    inverse,
    parse_one_line,
    word_des,
    word_str,
)
from .posets import (
    chain_poset,
    colored_linear_extensions,
    poset_from_json,
    poset_to_json,
    zigzag_poset,
)
from .ppartitions import (
    barred_chain_total,
    binom,
    count_ppartitions_bruteforce,
    omega_via_extensions,
    random_colored_poset,
    verify_steingrimsson,
)

SUITE_NAMES = (
    "ftcpp",
    "order-poly",
    "zigzag",
    "chain",
    "barred",
    "steingrimsson",
    "closure-des",
    "closure-mr",
    "closure-desset",
    "phi",
    "idempotents",
    "variants",
)

IDEMPOTENT_GROUPS = ((1, 3), (2, 3), (3, 3), (5, 3))
CLOSURE_DES_SWEEP = tuple(
    (r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)
) + ((4, 3),)
CLOSURE_MR_SWEEP = ((2, 2), (3, 2))

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
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": self.checks,
            "passed": self.passed,
            "failures": self.failures,
            "details": self.details,
        }


def _map_cases(worker: str, cases: list[dict], jobs: int) -> list[dict]:
    """Run the named worker over the cases, preserving case order."""
    if jobs <= 1 or len(cases) <= 1:
        return [_WORKERS[worker](case) for case in cases]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_dispatch, [(worker, case) for case in cases]))


def _dispatch(job: tuple[str, dict]) -> dict:
    worker, case = job
    return _WORKERS[worker](case)


# ---------------------------------------------------------------------------
# ftcpp: brute-force counts against sums over colored linear extensions.

def _ftcpp_case(case: dict) -> dict:
    poset = poset_from_json(case["poset"])
    failures = []
    counts = []
    for j in range(case["j_max"] + 1):
        brute = count_ppartitions_bruteforce(poset, j)
        via = omega_via_extensions(poset, j)
        counts.append(brute)
        if brute != via:
            failures.append(
                {
                    "case": case["case"],
                    "poset": case["poset"],
                    "j": j,
                    "bruteforce": str(brute),
                    "extension_sum": str(via),
                }
            )
    return {
        "case": case["case"],
        "checks": case["j_max"] + 1,
        "counts": [str(c) for c in counts],
        "failures": failures,
    }


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
        {
            "case": i,
            "poset": poset_to_json(random_colored_poset(rng, max_r=r or 3)),
            "j_max": j_max,
        }
        for i in range(cases)
    ]
    report = SuiteReport(
        "ftcpp", {"r_max": r or 3, "seed": seed, "cases": cases, "j_max": j_max}
    )
    results = _map_cases("ftcpp", case_list, jobs)
    for res in results:
        report.checks += res["checks"]
        report.failures.extend(res["failures"])
    report.details["counts"] = [res["counts"] for res in results]
    return report


# ---------------------------------------------------------------------------
# order-poly: brute force on the detached chain of pi against the closed form.

def _order_poly_case(case: dict) -> dict:
    from .posets import detached_chain_poset
    from .ppartitions import omega_Ppi

    pi = parse_one_line(case["pi"], case["r"])
    failures = []
    for j in range(case["j_max"] + 1):
        brute = count_ppartitions_bruteforce(detached_chain_poset(pi), j)
        closed = omega_Ppi(pi, j)
        if brute != closed:
            failures.append(
                {"pi": case["pi"], "j": j, "bruteforce": str(brute), "closed": str(closed)}
            )
    return {"checks": case["j_max"] + 1, "failures": failures}


def suite_order_poly(
    r: int | None = None,
    n: int | None = None,
    j_max: int = 3,
    jobs: int = 1,
    max_group_size: int = 10_000_000,
    **_: object,
) -> SuiteReport:
    r, n = r or 3, n if n is not None else 3
    report = SuiteReport("order-poly", {"r": r, "n": n, "j_max": j_max})
    case_list = [
        {"r": r, "pi": str(pi), "j_max": j_max}
        for pi in enumerate_group(r, n, max_group_size)
    ]
    for res in _map_cases("order-poly", case_list, jobs):
        report.checks += res["checks"]
        report.failures.extend(res["failures"])
    return report


# ---------------------------------------------------------------------------
# zigzag / chain: extension sets against descent conditions on quotients.

def _lemma_case(case: dict) -> dict:
    r, n = case["r"], case["n"]
    mode = case["mode"]
    # zigzag extensions have quotient descent set exactly I, chain ones within I
    matches = frozenset.__eq__ if mode == "zigzag" else frozenset.__le__
    group = list(enumerate_group(r, n, case["max_group_size"]))
    inverses = {pi: inverse(pi) for pi in group}
    checks = 0
    failures = []
    for pi in group:
        quotient_des = {
            s: descent_positions(compose(inverses[s], pi).letters) for s in group
        }
        for size in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), size):
                Iset = frozenset(I)
                poset = (
                    zigzag_poset(Iset, pi) if mode == "zigzag" else chain_poset(Iset, pi)
                )
                words = colored_linear_extensions(poset)
                got = [ColoredPermutation(r, w) for w in words]
                want = {s for s, D in quotient_des.items() if matches(D, Iset)}
                checks += 1
                if len(got) != len(set(got)) or set(got) != want:
                    failures.append(
                        {
                            "r": r,
                            "n": n,
                            "pi": str(pi),
                            "I": sorted(Iset),
                            "extensions": sorted(str(g) for g in got),
                            "expected": sorted(str(w) for w in want),
                        }
                    )
    return {"checks": checks, "failures": failures}


def _lemma_suite(mode: str, r, n, jobs, max_group_size) -> SuiteReport:
    if r is not None and n is not None:
        combos = [(r, n)]
    else:
        combos = [(rr, nn) for rr in (1, 2, 3) for nn in (1, 2, 3)]
    report = SuiteReport(mode, {"groups": combos})
    case_list = [
        {"r": rr, "n": nn, "mode": mode, "max_group_size": max_group_size}
        for rr, nn in combos
    ]
    for res in _map_cases("lemma", case_list, jobs):
        report.checks += res["checks"]
        report.failures.extend(res["failures"])
    if mode == "zigzag":
        _check_worked_zigzag(report)
    else:
        _check_worked_chain(report)
    return report


def _check_worked_zigzag(report: SuiteReport) -> None:
    ex = WORKED_EXAMPLE
    pi = parse_one_line(ex["pi"], ex["r"])
    words = colored_linear_extensions(zigzag_poset(frozenset(ex["I"]), pi))
    got = {word_str(w) for w in words}
    quotients = {
        str(compose(inverse(ColoredPermutation(ex["r"], w)), pi)) for w in words
    }
    report.checks += 2
    if got != ex["cl_zigzag"] or len(words) != len(ex["cl_zigzag"]):
        report.failures.append({"worked_example": "zigzag", "got": sorted(got)})
    if quotients != ex["quotients"]:
        report.failures.append({"worked_example": "quotients", "got": sorted(quotients)})
    report.details["worked_example"] = {"extensions": sorted(got)}


def _check_worked_chain(report: SuiteReport) -> None:
    ex = WORKED_EXAMPLE
    pi = parse_one_line(ex["pi"], ex["r"])
    words = colored_linear_extensions(chain_poset(frozenset(ex["I"]), pi))
    got = {word_str(w) for w in words}
    want = ex["cl_zigzag"] | {ex["chain_extra"]}
    report.checks += 1
    if got != want or len(words) != len(want):
        report.failures.append({"worked_example": "chain", "got": sorted(got)})
    report.details["worked_example"] = {"extensions": sorted(got)}


def suite_zigzag(r=None, n=None, jobs=1, max_group_size=10_000_000, **_) -> SuiteReport:
    return _lemma_suite("zigzag", r, n, jobs, max_group_size)


def suite_chain(r=None, n=None, jobs=1, max_group_size=10_000_000, **_) -> SuiteReport:
    return _lemma_suite("chain", r, n, jobs, max_group_size)


# ---------------------------------------------------------------------------
# barred: the product identity via convolution and via barred chain posets.

def _barred_case(case: dict) -> dict:
    r, n = case["r"], case["n"]
    pi = parse_one_line(case["pi"], r)
    # (des(s), des(s^-1 pi)) over the group; the convolution needs nothing else
    des_pairs = [
        (word_des(s.letters), word_des(compose(inverse(s), pi).letters))
        for s in enumerate_group(r, n)
    ]
    checks = 0
    failures = []
    for j in range(case["j_max"] + 1):
        for k in range(case["k_max"] + 1):
            closed = binom(r * j * k + j + k + n - word_des(pi.letters), n)
            conv = sum(
                binom(j + n - ds, n) * binom(k + n - dq, n) for ds, dq in des_pairs
            )
            barred = barred_chain_total(pi, j, k)
            checks += 1
            if not (closed == conv == barred):
                failures.append(
                    {
                        "pi": case["pi"],
                        "j": j,
                        "k": k,
                        "closed": str(closed),
                        "convolution": str(conv),
                        "barred": str(barred),
                    }
                )
    return {"checks": checks, "failures": failures}


def suite_barred(
    r=None, n=None, j_max=3, k_max=3, jobs=1, max_group_size=10_000_000, **_
) -> SuiteReport:
    r, n = r or 2, n if n is not None else 3
    report = SuiteReport("barred", {"r": r, "n": n, "j_max": j_max, "k_max": k_max})
    case_list = [
        {"r": r, "n": n, "pi": str(pi), "j_max": j_max, "k_max": k_max}
        for pi in enumerate_group(r, n, max_group_size)
    ]
    for res in _map_cases("barred", case_list, jobs):
        report.checks += res["checks"]
        report.failures.extend(res["failures"])
    return report


# ---------------------------------------------------------------------------
# steingrimsson: power sums against the descent histogram.

def suite_steingrimsson(
    r=None, n=None, j_max=4, max_group_size=10_000_000, **_
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

def _closure_record(partition: ClassPartition, max_pairs: int) -> tuple[dict, object]:
    rep = verify_closure(partition, max_pairs)
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
    }
    return record, rep


def suite_closure_des(r=None, n=None, max_group_size=10_000_000, **_) -> SuiteReport:
    combos = [(r, n)] if r is not None and n is not None else list(CLOSURE_DES_SWEEP)
    report = SuiteReport("closure-des", {"groups": combos})
    for rr, nn in combos:
        partition = des_partition(rr, nn, max_group_size)
        record, rep = _closure_record(partition, max_group_size)
        if not rep.passed:
            report.failures.append(record)
            report.checks += 1
            continue
        sizes = [info.size for info in partition.classes]
        mass_ok = tensor_mass_check(structure_constants(partition, rep), sizes)
        record["mass_check"] = mass_ok
        report.checks += 2
        if not mass_ok:
            report.failures.append(record)
        report.details.setdefault("groups", []).append(record)
    return report


def suite_closure_mr(r=None, n=None, max_group_size=10_000_000, **_) -> SuiteReport:
    combos = [(r, n)] if r is not None and n is not None else list(CLOSURE_MR_SWEEP)
    report = SuiteReport("closure-mr", {"groups": combos})
    for rr, nn in combos:
        partition = mr_partition(rr, nn, max_group_size)
        record, rep = _closure_record(partition, max_group_size)
        # descent number must be constant on every run-composition class
        des_constant = all(
            len({word_des(w) for w in info.members}) == 1
            for info in partition.classes
        )
        record["des_measurable"] = des_constant
        report.checks += 2
        if not rep.passed or not des_constant:
            report.failures.append(record)
        report.details.setdefault("groups", []).append(record)
    return report


def suite_closure_desset(r=None, n=None, max_group_size=10_000_000, **_) -> SuiteReport:
    rr, nn = r or 2, n if n is not None else 2
    report = SuiteReport("closure-desset", {"r": rr, "n": nn})
    partition = desset_partition(rr, nn, max_group_size)
    record, rep = _closure_record(partition, max_group_size)
    report.checks += 1
    report.details["closure"] = record
    if not rep.passed:
        report.failures.append(record)
    return report


# ---------------------------------------------------------------------------
# phi and idempotents.

def suite_phi(r=None, n=None, j_max=2, max_group_size=10_000_000, **_) -> SuiteReport:
    combos = [(r, n)] if r is not None and n is not None else list(IDEMPOTENT_GROUPS)
    pairs = [(x, y) for x in range(j_max + 1) for y in range(j_max + 1)]
    report = SuiteReport("phi", {"groups": combos, "pairs": pairs})
    for rr, nn in combos:
        report.checks += len(pairs)
        if not verify_phi_identity(rr, nn, pairs, max_group_size):
            report.failures.append({"r": rr, "n": nn})
    return report


def suite_idempotents(r=None, n=None, max_group_size=10_000_000, **_) -> SuiteReport:
    combos = [(r, n)] if r is not None and n is not None else list(IDEMPOTENT_GROUPS)
    report = SuiteReport("idempotents", {"groups": combos})
    for rr, nn in combos:
        partition = des_partition(rr, nn, max_group_size)
        closure = verify_closure(partition, max_group_size)
        if not closure.passed:
            report.failures.append({"r": rr, "n": nn, "closure": False})
            continue
        tensor = structure_constants(partition, closure)
        idems = eulerian_idempotents(rr, nn, max_group_size)
        coords = [collapse(c, partition) for c in idems]
        zero = tuple(Fraction(0) for _ in partition.classes)
        for i in range(nn + 1):
            for j in range(nn + 1):
                prod = collapsed_product(coords[i], coords[j], tensor)
                want = tuple(Fraction(v) for v in coords[i]) if i == j else zero
                report.checks += 1
                if tuple(prod) != want:
                    report.failures.append(
                        {"r": rr, "n": nn, "i": i, "j": j, "product": [str(v) for v in prod]}
                    )
        total = algebra_zero(rr, nn)
        for c in idems:
            total = algebra_add(total, c)
        report.checks += 1
        if total != algebra_unit(rr, nn):
            report.failures.append({"r": rr, "n": nn, "sum": "not identity"})
        # top idempotent is the uniform average over the group
        uniform = Fraction(1, group_order(rr, nn))
        report.checks += 1
        if any(c != uniform for c in idems[nn].coeffs.values()) or (
            idems[nn].support_size() != group_order(rr, nn)
        ):
            report.failures.append({"r": rr, "n": nn, "top": "not uniform"})
        if (rr, nn) == (5, 3):
            table = idempotent_class_table(5, 3)
            report.checks += 1
            for i, nums in REFERENCE_IDEMPOTENTS_5_3.items():
                if [table[i][d] for d in range(4)] != [
                    Fraction(v, REFERENCE_DENOMINATOR_5_3) for v in nums
                ]:
                    report.failures.append({"r": 5, "n": 3, "table_row": i})
            report.details["reference_table"] = "matched"
    return report


# ---------------------------------------------------------------------------
# variants: scan boundary-letter descent definitions.

def suite_variants(r=None, n=None, max_group_size=10_000_000, **_) -> SuiteReport:
    rr, nn = r or 2, n if n is not None else 2
    report = SuiteReport("variants", {"r": rr, "n": nn})
    standard = des_partition(rr, nn, max_group_size)
    standard_blocks = {frozenset(info.members) for info in standard.classes}
    results = []
    for a in range(rr):
        for b in range(rr):
            partition = variant_partition(rr, nn, a, b, max_group_size)
            blocks = {frozenset(info.members) for info in partition.classes}
            same = blocks == standard_blocks
            closed = verify_closure(partition, max_group_size).passed
            results.append(
                {"a": a, "b": b, "equals_standard": same, "closure": closed}
            )
            if (rr, nn) == (2, 2):
                report.checks += 1
                if closed != same:
                    report.failures.append(results[-1])
    report.details["scan"] = results
    return report


_WORKERS = {
    "ftcpp": _ftcpp_case,
    "order-poly": _order_poly_case,
    "lemma": _lemma_case,
    "barred": _barred_case,
}

_SUITES = {
    "ftcpp": suite_ftcpp,
    "order-poly": suite_order_poly,
    "zigzag": suite_zigzag,
    "chain": suite_chain,
    "barred": suite_barred,
    "steingrimsson": suite_steingrimsson,
    "closure-des": suite_closure_des,
    "closure-mr": suite_closure_mr,
    "closure-desset": suite_closure_desset,
    "phi": suite_phi,
    "idempotents": suite_idempotents,
    "variants": suite_variants,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name](**kwargs)

