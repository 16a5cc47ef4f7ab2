"""The benchmark's workloads: pinned command lines and their output checks.

Every command pins (r, n) and every flag that shapes the work (``--j``,
``--k``, ``--cases``, ``--seed``), and passes ``--jobs 1``,
``--max-group-size`` and ``--format`` explicitly, so neither a suite's
default sweep nor an inherited ``COLORED_DESCENTS_*`` preset can change
what a pass does.  ``--cache`` is never passed.  The seed sets the
``ftcpp --seed`` value and draws the ``order-poly`` words; group sizes are
fixed, so the cost of a pass does not depend on it.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

MAX_GROUP_SIZE = 10_000_000
REFERENCE_FILE = Path(__file__).with_name("reference.json")

WHY = {
    "closure": "descent-class closure, structure constants and idempotents: "
    "algebra-bound, no schema work",
    "lemmas": "brute-force oracles: compose/inverse, posets and P-partition "
    "enumeration; algebra never called",
    "emit": "megabytes of JSON/CSV: group enumeration, per-record schema "
    "validation and json.dumps; short commands expose start-up",
}


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], checks.Problem]


def _flags(fmt: str) -> tuple[str, ...]:
    return ("--jobs", "1", "--max-group-size", str(MAX_GROUP_SIZE), "--format", fmt)


@functools.lru_cache(maxsize=None)
def reference() -> dict:
    """``results`` of every unseeded verify command at a known-good commit."""
    with open(REFERENCE_FILE) as handle:
        return json.load(handle)


def _verify(suite: str, r: int, n: int | None, checks_: int, expect_exit: int = 0,
            cases: int | None = None, seed: int | None = None) -> Command:
    argv = ("verify", suite, "--r", str(r)) + (("--n", str(n)) if n is not None else ())
    argv += ("--j", "0..3", "--k", "3")
    if cases is not None:
        argv += ("--cases", str(cases), "--seed", str(seed))
    argv += _flags("json")
    name = f"verify {suite} r={r}" + (f" n={n}" if n is not None else "")
    if cases is not None:  # seeded: no stored reference
        check = functools.partial(checks.check_verify, checks=checks_, reference=None,
                                  cases=cases)
    elif expect_exit == 0:
        def check(text: str) -> checks.Problem:
            return checks.check_verify(text, checks_, reference()[name])
    else:  # a negative result: the witness matters, not which one is found first
        check = functools.partial(checks.check_verify, checks=checks_, reference=None,
                                  expect_pass=False)
    return Command(name, argv, expect_exit, check)


def random_word(rng: random.Random, r: int, n: int) -> str:
    values = rng.sample(range(1, n + 1), n)
    return " ".join(f"{v}_{rng.randrange(r)}" for v in values)


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one pass of ``workload``."""
    if workload == "closure":
        return [
            _verify("closure-des", 3, 4, 2),
            _verify("idempotents", 3, 3, 18),
            _verify("idempotents", 5, 3, 19),
            _verify("phi", 2, 4, 16),
            _verify("closure-mr", 3, 2, 2),
            _verify("closure-desset", 2, 2, 1, expect_exit=3),
        ]
    if workload == "lemmas":
        return [
            _verify("zigzag", 3, 3, 1298),
            _verify("chain", 3, 3, 1297),
            _verify("ftcpp", 3, None, 1200, cases=300, seed=seed),
            _verify("barred", 2, 3, 768),
            _verify("order-poly", 3, 3, 648),
        ]
    if workload == "emit":
        out = [
            Command("enumerate r=4 n=4 json",
                    ("enumerate", "--r", "4", "--n", "4") + _flags("json"), 0,
                    functools.partial(checks.check_enumerate_json, r=4, n=4)),
            Command("enumerate r=3 n=5 csv",
                    ("enumerate", "--r", "3", "--n", "5") + _flags("csv"), 0,
                    functools.partial(checks.check_enumerate_csv, r=3, n=5)),
            Command("eulerian-poly r=2 n=6 json",
                    ("eulerian-poly", "--r", "2", "--n", "6") + _flags("json"), 0,
                    functools.partial(checks.check_eulerian_json, r=2, n=6)),
            Command("idempotents r=5 n=20 json",
                    ("idempotents", "--r", "5", "--n", "20") + _flags("json"), 0,
                    functools.partial(checks.check_idempotents_json, r=5, n=20)),
        ]
        rng = random.Random(seed)
        for i in range(4):
            word = random_word(rng, 3, 6)
            out.append(
                Command(f"order-poly #{i}",
                        ("order-poly", "--pi", word, "--r", "3", "--j", "0..30")
                        + _flags("json"), 0,
                        functools.partial(checks.check_order_poly_json,
                                          word=word, r=3, j_max=30))
            )
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def outcome(cmd: Command, exit_code: int | None, stdout: str) -> checks.Problem:
    """Why a command counts as failed, or None if it succeeded.  An exit code
    of None means the command was stopped at its timeout."""
    if exit_code is None:
        return "timed out"
    if exit_code != cmd.expect_exit:
        return f"exit code {exit_code}, expected {cmd.expect_exit}"
    try:
        return cmd.check(stdout)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
