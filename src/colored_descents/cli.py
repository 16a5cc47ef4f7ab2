"""Command-line interface.

Exit codes form a contract: 0 success, 1 usage error, 2 resource cap
exceeded, 3 verification failure.  Every flag can be preset through an
environment variable named COLORED_DESCENTS_<FLAG>.  Verification reports
embed the configuration, the seed, the package version, and the wall-clock
duration; everything except the duration is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__, schemas
from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredComposition,
    ColoredPermutation,
    SizeCapExceeded,
    _run_parts,
    descent_positions,
    group_words,
    parse_one_line,
    permutation_to_json,
)
from .algebra import idempotent_class_table
from .ppartitions import eulerian_polynomial, omega_pi
from .verify import SUITE_NAMES, run_suite

ENV_PREFIX = "COLORED_DESCENTS_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFICATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise UsageError(message)


def _env(flag: str, fallback=None):
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


# Every flag that shapes a run; a verify report echoes them as its config.
CONFIG_FLAGS = (
    "command", "r", "n", "j", "k", "seed", "cases", "jobs", "max_group_size", "format",
)
_FORMATS = ("json", "csv", "text")


def _add_common(parser: argparse.ArgumentParser) -> None:
    # argparse converts a string default (a preset) with ``type``, so a bad
    # preset is a usage error like a bad flag
    parser.add_argument("--r", type=int, default=_env("r"))
    parser.add_argument("--n", type=int, default=_env("n"))
    parser.add_argument("--j", type=str, default=_env("j", "0..3"),
                        help="single value or inclusive range like 0..3")
    parser.add_argument("--k", type=int, default=_env("k", 3))
    parser.add_argument("--seed", type=int, default=_env("seed", 0))
    parser.add_argument("--cases", type=int, default=_env("cases", 100))
    parser.add_argument("--jobs", type=int, default=_env("jobs", 1))
    parser.add_argument(
        "--max-group-size",
        type=int,
        default=_env("max-group-size", DEFAULT_MAX_GROUP_SIZE),
    )
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default=_env("format", "text"),
    )
    parser.add_argument("--output", "-o", type=str, default=_env("output"),
                        help="write to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="colored-descents", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list group elements with statistics")
    _add_common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    _add_common(p)

    p = sub.add_parser("idempotents", help="emit the orthogonal idempotent table")
    _add_common(p)

    p = sub.add_parser("eulerian-poly", help="emit descent-number coefficients")
    _add_common(p)

    p = sub.add_parser("order-poly", help="evaluate the order polynomial of a word")
    p.add_argument("--pi", type=str, default=_env("pi"), help="one-line word like '2_1 1_1'")
    _add_common(p)

    return parser


def _parse_j_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    values = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    if not values:
        raise UsageError(f"--j range {text} is empty")
    return values


def _validate_common(args: argparse.Namespace) -> None:
    if args.max_group_size <= 0:
        raise UsageError("--max-group-size must be positive")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if args.k < 0 or any(j < 0 for j in _parse_j_range(args.j)):
        raise UsageError("--j and --k must be nonnegative")
    if args.r is not None and args.r < 1:
        raise UsageError("--r must be at least 1")
    if args.n is not None and args.n < 0:
        raise UsageError("--n must be nonnegative")
    if args.cases < 0:
        raise UsageError("--cases must be nonnegative")
    if args.format not in _FORMATS:  # argparse checks no preset against choices
        raise UsageError(f"--format must be one of {', '.join(_FORMATS)}")


def _emit(chunks: Iterable[str], output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write --output {output}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader is gone: send what is still buffered to devnull, so
            # the interpreter's final flush cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"cannot write to stdout: {exc.strerror}") from exc


def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _render_record(record: dict) -> str:
    """A record as ``_dump_json`` writes it, indented one level into an array."""
    return json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n  ")


def _json_array(
    records: Iterable[dict],
    schema_name: str,
    render: Callable[[dict], str] = _render_record,
) -> Iterator[str]:
    """``_dump_json(list(records))`` in chunks, one record at a time, each
    validated before it is yielded."""
    sep = "[\n  "
    for record in records:
        schemas.validate(record, schema_name)
        yield sep + render(record)
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _enumerate_renderer() -> Callable[[dict], str]:
    """``_render_record`` for enumerate records, put together from fragments.

    Each distinct letter, descent set and run composition is rendered once,
    by ``json.dumps`` at its depth in the array, and memoised; a tuple key
    renders as the list it stands for.  The records hold only ints, as
    ``cmd_enumerate`` builds them, so equal keys render alike.
    """

    def at_depth(spaces: int) -> Callable[[tuple], str]:
        indent = "\n" + " " * spaces
        return functools.cache(
            lambda key: json.dumps(key, indent=2).replace("\n", indent)
        )

    letters, descent_sets, mr_keys = at_depth(8), at_depth(4), at_depth(4)

    def render(record: dict) -> str:
        perm = record["permutation"]
        block = ",\n        ".join([letters(tuple(x)) for x in perm["letters"]])
        return (
            f'{{\n    "des": {record["des"]},'
            f'\n    "descent_set": {descent_sets(tuple(record["descent_set"]))},'
            f'\n    "intdes": {record["intdes"]},'
            f'\n    "mr_key": {mr_keys(tuple(map(tuple, record["mr_key"])))},'
            f'\n    "permutation": {{\n      "letters": '
            + (f"[\n        {block}\n      ]" if block else "[]")
            + f',\n      "n": {perm["n"]},\n      "r": {perm["r"]}\n    }},'
            f'\n    "rank": {record["rank"]},'
            f'\n    "word": {json.dumps(record["word"])}\n  }}'
        )

    return render


def _csv_line(fields: Sequence[object]) -> str:
    return ",".join(str(f) for f in fields) + "\n"


def cmd_enumerate(args: argparse.Namespace) -> int:
    r = args.r if args.r is not None else 2
    n = args.n if args.n is not None else 2
    letter_text = {(c, v): f"{v}_{c}" for c in range(r) for v in range(1, n + 1)}
    # group_words checks the cap here, so a refused run writes nothing; des
    # and intdes are read off the one descent set, intdes dropping position n
    rows = (
        (rank, w, " ".join(map(letter_text.__getitem__, w)), descent_positions(w),
         _run_parts(w))
        for rank, w in enumerate(group_words(r, n, args.max_group_size))
    )
    if args.format == "json":
        records = (
            {
                "rank": rank,
                "word": text,
                "permutation": permutation_to_json(ColoredPermutation(r, w)),
                "descent_set": sorted(dset),
                "des": len(dset),
                "intdes": len(dset) - (n in dset),
                "mr_key": [list(part) for part in parts],
            }
            for rank, w, text, dset, parts in rows
        )
        _emit(_json_array(records, "enumerate_record", _enumerate_renderer()),
              args.output)
    elif args.format == "csv":
        dset_text = functools.cache(lambda dset: " ".join(map(str, sorted(dset))))
        parts_text = functools.cache(lambda parts: str(ColoredComposition(parts)))
        header = ["rank", "word", "descent_set", "des", "intdes", "mr_key"]
        _emit(itertools.chain([_csv_line(header)], (
            f"{rank},{text},{dset_text(dset)},{len(dset)},{len(dset) - (n in dset)},"
            f"{parts_text(parts)}\n"
            for rank, _, text, dset, parts in rows
        )), args.output)
    else:
        dset_text = functools.cache(lambda dset: str(sorted(dset)))
        parts_text = functools.cache(lambda parts: str([list(part) for part in parts]))
        _emit((
            f"{rank:>6}  {text:<24} Des={dset_text(dset)} "
            f"des={len(dset)} intdes={len(dset) - (n in dset)} "
            f"runs={parts_text(parts)}\n"
            for rank, _, text, dset, parts in rows
        ), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    j_values = _parse_j_range(args.j)
    # every suite checks j = 0..max, so a range must say so
    if ".." in args.j and j_values[0] != 0:
        raise UsageError(
            f"verify checks j from 0: give --j as J or 0..J, not {args.j}"
        )
    start = time.perf_counter()
    report = run_suite(
        args.suite,
        r=args.r,
        n=args.n,
        seed=args.seed,
        cases=args.cases,
        j_max=max(j_values),
        k_max=args.k,
        jobs=args.jobs,
        max_group_size=args.max_group_size,
    )
    duration = time.perf_counter() - start
    envelope = {
        "tool": "colored-descents",
        "version": __version__,
        "command": f"verify {args.suite}",
        "config": {flag: getattr(args, flag) for flag in CONFIG_FLAGS},
        "seed": args.seed,
        "duration_seconds": round(duration, 6),
        "results": report.to_json(),
    }
    schemas.validate(envelope, "report")
    if args.format == "json":
        _emit([_dump_json(envelope)], args.output)
    elif args.format == "csv":
        lines = [_csv_line(["suite", "checks", "passed", "failures"])]
        lines.append(
            _csv_line([report.suite, report.checks, report.passed, len(report.failures)])
        )
        _emit(lines, args.output)
    else:
        status = "PASS" if report.passed else "FAIL"
        lines = [
            f"suite {report.suite}: {status} "
            f"({report.checks} checks, {len(report.failures)} failures, "
            f"{duration:.2f}s)\n"
        ]
        for failure in report.failures[:5]:
            lines.append(f"  witness: {json.dumps(failure, sort_keys=True)}\n")
        _emit(lines, args.output)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _idempotent_table_json(r: int, n: int) -> dict:
    table = idempotent_class_table(r, n)
    fractions = [table[i][d] for i in range(n + 1) for d in range(n + 1)]
    common = math.lcm(*(f.denominator for f in fractions)) if fractions else 1
    return {
        "r": r,
        "n": n,
        "idempotents": [
            {
                "i": i,
                "by_des_class": [
                    {
                        "des": d,
                        "num": str(table[i][d].numerator),
                        "den": str(table[i][d].denominator),
                    }
                    for d in range(n + 1)
                ],
            }
            for i in range(n + 1)
        ],
        "common_denominator": str(common),
    }


def cmd_idempotents(args: argparse.Namespace) -> int:
    r = args.r if args.r is not None else 5
    n = args.n if args.n is not None else 3
    table = _idempotent_table_json(r, n)
    if args.format == "json":
        schemas.validate(table, "idempotent_table")
        _emit([_dump_json(table)], args.output)
    elif args.format == "csv":
        lines = [_csv_line(["i", "des", "coefficient"])]
        for row in table["idempotents"]:
            for cell in row["by_des_class"]:
                lines.append(
                    _csv_line(
                        [row["i"], cell["des"], f"{cell['num']}/{cell['den']}"]
                    )
                )
        _emit(lines, args.output)
    else:
        common = int(table["common_denominator"])
        lines = []
        for row in table["idempotents"]:
            text = ""
            for cell in row["by_des_class"]:
                scaled = Fraction(int(cell["num"]), int(cell["den"])) * common
                sign = "-" if scaled < 0 else "+"
                term = f"{abs(scaled)} C_{cell['des']}"
                text = f"{text} {sign} {term}" if text else (
                    term if sign == "+" else f"-{term}"
                )
            lines.append(f"c_{row['i']} = (1/{common})({text})\n")
        _emit(lines, args.output)
    return EXIT_OK


def cmd_eulerian_poly(args: argparse.Namespace) -> int:
    r = args.r if args.r is not None else 2
    n = args.n if args.n is not None else 2
    coeffs = eulerian_polynomial(r, n)
    record = {
        "op": "eulerian-poly",
        "params": {"r": r, "n": n},
        "t_coeffs": [str(c) for c in coeffs],
    }
    if args.format == "json":
        schemas.validate(record, "series_record")
        _emit([_dump_json(record)], args.output)
    elif args.format == "csv":
        lines = [_csv_line(["power", "coefficient"])]
        lines.extend(_csv_line([d, c]) for d, c in enumerate(coeffs))
        _emit(lines, args.output)
    else:
        _emit([f"[{', '.join(str(c) for c in coeffs)}]\n"], args.output)
    return EXIT_OK


def cmd_order_poly(args: argparse.Namespace) -> int:
    if not args.pi:
        raise UsageError("order-poly requires --pi")
    r = args.r if args.r is not None else 2
    pi = parse_one_line(args.pi, r)
    records = [
        {
            "op": "order-poly",
            "params": {"r": r, "pi": str(pi), "j": j},
            "count": str(omega_pi(pi, j)),
        }
        for j in _parse_j_range(args.j)
    ]
    if args.format == "json":
        _emit(_json_array(records, "count_record"), args.output)
    elif args.format == "csv":
        lines = [_csv_line(["j", "count"])]
        lines.extend(
            _csv_line([rec["params"]["j"], rec["count"]]) for rec in records
        )
        _emit(lines, args.output)
    else:
        _emit([f"[{', '.join(rec['count'] for rec in records)}]\n"], args.output)
    return EXIT_OK


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "idempotents": cmd_idempotents,
    "eulerian-poly": cmd_eulerian_poly,
    "order-poly": cmd_order_poly,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
