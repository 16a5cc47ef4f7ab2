"""Output checks for the benchmark's commands.

Nothing here imports ``colored_descents``: every expected value is either
recomputed from first principles (descent statistics, Steingrimsson's
closed form for the descent histogram, binomials) or read from a reference
stored at a known-good commit.  A check returns ``None`` when the output is
correct and a one-line description of the first problem otherwise.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

Problem = Optional[str]


def parse_word(text: str) -> list[tuple[int, int]]:
    """``"2_1 1_0"`` -> ``[(1, 2), (0, 1)]``: (color, value) letters."""
    letters = []
    for token in text.split():
        value, _, color = token.partition("_")
        letters.append((int(color), int(value)))
    return letters


def word_problem(letters: list[tuple[int, int]], r: int, n: int) -> Problem:
    if sorted(v for _, v in letters) != list(range(1, n + 1)):
        return f"values of {letters} are not a permutation of 1..{n}"
    if any(not 0 <= c < r for c, _ in letters):
        return f"a color of {letters} lies outside [0, {r})"
    return None


def descent_set(letters: list[tuple[int, int]]) -> list[int]:
    """Positions i with letter i > letter i+1 (color first), plus n when the
    last letter has a nonzero color."""
    n = len(letters)
    out = [i for i in range(1, n) if letters[i - 1] > letters[i]]
    if n and letters[-1][0] != 0:
        out.append(n)
    return out


def run_composition(letters: list[tuple[int, int]]) -> list[list[int]]:
    """Maximal increasing monochromatic runs as [length, color] parts."""
    parts: list[list[int]] = []
    for i, (color, value) in enumerate(letters):
        if i and letters[i - 1][0] == color and letters[i - 1][1] < value:
            parts[-1][0] += 1
        else:
            parts.append([1, color])
    return parts


def binom(m: int, k: int) -> int:
    return math.comb(m, k) if m >= k else 0


def eulerian_closed_form(r: int, n: int) -> list[int]:
    """Coefficients of A_{r,n}(t) = (1-t)^{n+1} sum_j (rj+1)^n t^j, d = 0..n
    (Steingrimsson, Europ. J. Combin. 1994)."""
    return [
        sum((-1) ** i * math.comb(n + 1, i) * (r * (d - i) + 1) ** n for i in range(d + 1))
        for d in range(n + 1)
    ]


def _load(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def subset_mismatch(want, got, path: str = "results") -> Problem:
    """First place where ``got`` differs from ``want``.

    Dicts may carry extra keys (later work counters); every key of ``want``
    must be present with an equal value.  Lists and scalars compare exactly.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path} is not an object"
        for key, value in want.items():
            if key not in got:
                return f"{path}.{key} is missing"
            problem = subset_mismatch(value, got[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path} differs in length"
        for i, (w, g) in enumerate(zip(want, got)):
            problem = subset_mismatch(w, g, f"{path}[{i}]")
            if problem:
                return problem
        return None
    return None if want == got and type(want) is type(got) else f"{path}: {got!r} != {want!r}"


# ---------------------------------------------------------------------------
# verify reports


def check_verify(
    text: str, checks: int, reference: Optional[dict], expect_pass: bool = True,
    cases: Optional[int] = None,
) -> Problem:
    envelope, problem = _load(text)
    if problem:
        return problem
    results = envelope.get("results") if isinstance(envelope, dict) else None
    if not isinstance(results, dict):
        return "report has no results object"
    if results.get("passed") is not expect_pass:
        return f"passed is {results.get('passed')!r}, expected {expect_pass}"
    if results.get("checks") != checks:
        return f"checks is {results.get('checks')!r}, expected {checks}"
    if not expect_pass:
        failures = results.get("failures") or []
        if not any(f.get("witnesses") for f in failures if isinstance(f, dict)):
            return "failing report carries no witness"
    if cases is not None:
        counts = (results.get("details") or {}).get("counts")
        if not isinstance(counts, list) or len(counts) != cases:
            return f"details.counts does not hold {cases} cases"
    if reference is not None:
        return subset_mismatch(reference, results)
    return None


# ---------------------------------------------------------------------------
# enumerate


def _check_records(rows: list[tuple], r: int, n: int) -> Problem:
    """rows: (rank, word, descent_set, des, intdes, run_composition)."""
    order = math.factorial(n) * r**n
    if len(rows) != order:
        return f"{len(rows)} records, expected r^n*n! = {order}"
    histogram = [0] * (n + 1)
    seen = set()
    for expected_rank, (rank, word, dset, des, intdes, runs) in enumerate(rows):
        if rank != expected_rank:
            return f"rank {rank} at position {expected_rank}"
        letters = parse_word(word)
        problem = word_problem(letters, r, n)
        if problem:
            return problem
        seen.add(word)
        want = descent_set(letters)
        if dset != want or des != len(want):
            return f"{word}: descent set {dset} / des {des}, expected {want}"
        if intdes != len([i for i in want if i < n]):
            return f"{word}: intdes {intdes}"
        if runs != run_composition(letters):
            return f"{word}: run composition {runs}"
        histogram[des] += 1
    if len(seen) != order:
        return "repeated words"
    if histogram != eulerian_closed_form(r, n):
        return f"des histogram {histogram} != closed form {eulerian_closed_form(r, n)}"
    return None


def check_enumerate_json(text: str, r: int, n: int) -> Problem:
    records, problem = _load(text)
    if problem:
        return problem
    rows = []
    for rec in records:
        letters = [[v, c] for c, v in parse_word(rec["word"])]
        if rec["permutation"] != {"r": r, "n": n, "letters": letters}:
            return f"{rec['word']}: permutation record {rec['permutation']}"
        rows.append(
            (rec["rank"], rec["word"], rec["descent_set"], rec["des"], rec["intdes"], rec["mr_key"])
        )
    return _check_records(rows, r, n)


def check_enumerate_csv(text: str, r: int, n: int) -> Problem:
    lines = text.splitlines()
    if not lines or lines[0] != "rank,word,descent_set,des,intdes,mr_key":
        return "missing or wrong CSV header"
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            return f"malformed CSV line {line!r}"
        rank, word, dset, des, intdes, runs = fields
        parts = [[int(x) for x in p.split("^")] for p in runs.split("|")]
        rows.append(
            (int(rank), word, [int(x) for x in dset.split()], int(des), int(intdes), parts)
        )
    return _check_records(rows, r, n)


# ---------------------------------------------------------------------------
# eulerian-poly, idempotents, order-poly


def check_eulerian_json(text: str, r: int, n: int) -> Problem:
    record, problem = _load(text)
    if problem:
        return problem
    want = eulerian_closed_form(r, n)
    while len(want) > 1 and want[-1] == 0:
        want.pop()
    got = record.get("t_coeffs")
    if got != [str(c) for c in want]:
        return f"t_coeffs {got} != closed form {want}"
    return None


def check_idempotents_json(text: str, r: int, n: int) -> Problem:
    table, problem = _load(text)
    if problem:
        return problem
    rows = table.get("idempotents", [])
    if (table.get("r"), table.get("n"), len(rows)) != (r, n, n + 1):
        return "table has the wrong shape"
    alpha = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(rows):
        if row["i"] != i or [c["des"] for c in row["by_des_class"]] != list(range(n + 1)):
            return f"row {i} is out of order"
        for d, cell in enumerate(row["by_des_class"]):
            alpha[i][d] = Fraction(int(cell["num"]), int(cell["den"]))
    for d in range(n + 1):
        total = sum(alpha[i][d] for i in range(n + 1))
        if total != (1 if d == 0 else 0):
            return f"column {d} sums to {total}"
    uniform = Fraction(1, r**n * math.factorial(n))
    if any(a != uniform for a in alpha[n]):
        return f"top row is not uniformly {uniform}"
    common = math.lcm(*(a.denominator for row in alpha for a in row))
    if table.get("common_denominator") != str(common):
        return f"common_denominator {table.get('common_denominator')} != {common}"
    return None


def check_order_poly_json(text: str, word: str, r: int, j_max: int) -> Problem:
    records, problem = _load(text)
    if problem:
        return problem
    letters = parse_word(word)
    n, des = len(letters), len(descent_set(letters))
    if len(records) != j_max + 1:
        return f"{len(records)} values, expected {j_max + 1}"
    for j, rec in enumerate(records):
        if rec["params"] != {"r": r, "pi": word, "j": j}:
            return f"params {rec['params']} at j={j}"
        if rec["count"] != str(binom(j + n - des, n)):
            return f"j={j}: {rec['count']} != C({j}+{n}-{des}, {n})"
    return None
