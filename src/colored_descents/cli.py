"""Command-line interface.

Exit codes form a contract: 0 success, 1 usage error, 2 resource cap
exceeded, 3 verification failure.  Every flag can be preset through an
environment variable named COLORED_DESCENTS_<FLAG>.  Verification reports
embed the configuration, the seed, the package version, and the wall-clock
duration; everything except the duration is byte-stable across runs.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from . import __version__, schemas
from .group import (
    DEFAULT_MAX_GROUP_SIZE,
    ColoredComposition,
    SizeCapExceeded,
    Word,
    _letter_walk,
    _run_parts,
    _word_stats,
    descent_positions,
    parse_one_line,
)

if TYPE_CHECKING:
    import argparse

ENV_PREFIX = "COLORED_DESCENTS_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFICATION = 3


class UsageError(Exception):
    pass


@functools.cache
def _parser_class() -> type:
    import argparse  # about 4 ms with gettext and locale, so only when a parser is built

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # exit 1, not argparse's 2
            raise UsageError(message)

    return _Parser


def __getattr__(name: str):
    # PEP 562: ``cli._Parser`` loads argparse on first access only
    if name == "_Parser":
        return _parser_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _env(flag: str, fallback=None):
    return os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)


# Every flag that shapes a run; a verify report echoes them as its config.
CONFIG_FLAGS = (
    "command", "r", "n", "j", "k", "seed", "cases", "jobs", "max_group_size", "format",
)
_FORMATS = ("json", "csv", "text")


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of a command line.  Only the command that argv names, its
    first token not starting with "-", gets its arguments; every other
    command is added bare, with its help, so the top-level help, --version
    and the unknown-command error read as with every command built."""
    command = next((token for token in argv if not token.startswith("-")), None)
    parser = _parser_class()(prog="colored-descents", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name != command:
            continue
        if name == "verify":
            p.add_argument("suite")  # run_suite names the suites when it refuses one
        for names, kind, fallback, choices, flag_help, commands in _FLAGS:
            if name in commands:
                # argparse converts a string default (a preset) with ``type``,
                # so a bad preset is a usage error like a bad flag
                p.add_argument(*names, type=kind, default=_env(names[0][2:], fallback),
                               choices=choices, help=flag_help)
    return parser


def _read_plain(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What ``build_parser(argv).parse_args(argv)`` gives a plain command
    line, read without argparse: ``--version`` alone, or a command,
    verify's suite, then ``--flag value`` pairs of the command's flags whose
    values do not start with "-".  As in argparse, every value is converted
    with its flag's type and checked against its choices, the last of a
    repeated flag wins, and the preset of a flag not given is converted
    only if it is a string (so a --format preset meets no choices).  Any
    other line, a value its type or choices refuse, or a preset its type
    refuses, gives None: argparse alone parses help, --flag=value,
    abbreviated flags, "--" and errors."""
    if list(argv) == ["--version"]:
        print(__version__)
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *rest = argv
    values = {"command": command}
    if command == "verify":
        if not rest or rest[0].startswith("-"):
            return None
        values["suite"] = rest.pop(0)
    if len(rest) % 2:
        return None
    own = [flag for flag in _FLAGS if command in flag[-1]]
    flags = {name: flag for flag in own for name in flag[0]}
    given = {}
    try:
        for name, text in zip(rest[::2], rest[1::2]):
            if name not in flags or text.startswith("-"):
                return None
            _, kind, _, choices, *_ = flag = flags[name]
            given[flag] = value = kind(text)
            if choices and value not in choices:
                return None
        for flag in own:
            names, kind, fallback, *_ = flag
            if flag in given:
                value = given[flag]
            else:
                value = _env(names[0][2:], fallback)
                if isinstance(value, str):
                    value = kind(value)
            values[names[0][2:].replace("-", "_")] = value
    except ValueError:
        return None
    return SimpleNamespace(**values)


def _parse_j_range(text: str) -> tuple[int, int]:
    """The inclusive bounds of ``--j``, a single value J or a range lo..hi."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"--j must be J or lo..hi, not {text!r}") from None
    if bounds[0] > bounds[1]:
        raise UsageError(f"--j range {text} is empty")
    return bounds


def _validate_common(args: argparse.Namespace) -> None:
    if args.max_group_size <= 0:
        raise UsageError("--max-group-size must be positive")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if args.k < 0 or _parse_j_range(args.j)[0] < 0:
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


def _count_record_json(record: dict) -> str:
    """``_dump_json(record)`` of an order-poly count record without its
    newline, as it stands 2 deep in the document.  The count is a decimal
    string and the word is digits, "_" and spaces, so neither needs JSON
    escaping."""
    params = record["params"]
    return (f'{{\n    "count": "{record["count"]}",\n    "op": "order-poly",'
            f'\n    "params": {{\n      "j": {params["j"]},\n      "pi": "{params["pi"]}",'
            f'\n      "r": {params["r"]}\n    }}\n  }}')


def _idempotent_row_json(row: dict) -> str:
    """``_dump_json(row)`` of an idempotent table row without its newline,
    as it stands 4 deep in the document.  Every number in a class entry is
    a decimal string, so none needs JSON escaping."""
    entries = ",\n        ".join(
        f'{{\n          "den": "{entry["den"]}",\n          "des": {entry["des"]},'
        f'\n          "num": "{entry["num"]}"\n        }}'
        for entry in row["by_des_class"]
    )
    return (f'{{\n      "by_des_class": [\n        {entries}\n      ],'
            f'\n      "i": {row["i"]}\n    }}')


def _json_ints(nest, spaces: int) -> str:
    """``json.dumps(nest, indent=2)`` of a list of ints or a nest of such
    lists (tuples render as lists), as it stands ``spaces`` deep in a
    document."""
    if not nest:
        return "[]"
    inner = "\n" + " " * (spaces + 2)
    if type(nest[0]) is int:
        items = map(str, nest)
    else:
        items = [_json_ints(item, spaces + 2) for item in nest]
    return f"[{inner}{(',' + inner).join(items)}\n{' ' * spaces}]"


def _json_stream(document: object, texts: Iterable[str]) -> Iterator[str]:
    """``_dump_json(document)`` in chunks, its one null replaced by the texts,
    each already indented to the depth of the null and checked by its maker.
    Every other value in a streamed document is a number or a decimal string,
    so it dumps with exactly one null; and there is at least one text, since
    G(r, 0) has one element, a --j range is not empty and a table has n + 1 rows."""
    sep, after = _dump_json(document).split("null")
    indent = sep[sep.rindex("\n"):]
    for text in texts:
        yield sep + text
        sep = "," + indent
    yield after


def _csv_line(fields: Sequence[object]) -> str:
    return ",".join(str(f) for f in fields) + "\n"


def cmd_enumerate(args: argparse.Namespace) -> int:
    r = args.r if args.r is not None else 2
    n = args.n if args.n is not None else 2
    fmt = args.format

    # a JSON record's letters array opens at the end of its row's head and
    # closes at the start of the tail that every record shares
    opener, closer = ("[\n        ", "\n      ]") if n else ("[]", "")
    tail = f'{closer},\n      "n": {n},\n      "r": {r}\n    }},\n    "rank": '

    def stat(w: Word):
        """The record fields of w other than its rank and letters; des and
        intdes are read off the one descent set, intdes dropping position n.
        In JSON they are checked, then come as the record's text up to its
        first letter.  Every field is a function of w's run composition, so
        the factor walk calls this once per run composition, r·(r+1)^(n-1) times."""
        dset = descent_positions(w)
        des, intdes, parts = len(dset), len(dset) - (n in dset), _run_parts(w)
        if fmt == "json":
            dlist, key = sorted(dset), [list(part) for part in parts]
            for field, value in (("descent_set", dlist), ("des", des),
                                 ("intdes", intdes), ("mr_key", key)):
                schemas.validate(value, "enumerate_record", field)
            return (
                f'{{\n    "des": {des},\n    "descent_set": {_json_ints(dlist, 4)},'
                f'\n    "intdes": {intdes},\n    "mr_key": {_json_ints(key, 4)},'
                f'\n    "permutation": {{\n      "letters": {opener}'
            )
        if fmt == "csv":
            return (f",{' '.join(map(str, sorted(dset)))},{des},{intdes},"
                    f"{ColoredComposition(parts)}\n")
        return (f"Des={sorted(dset)} des={des} intdes={intdes} "
                f"runs={[list(part) for part in parts]}\n")

    def walk(letter: Callable[[int, int], object]) -> Iterator[tuple]:
        return itertools.chain.from_iterable(w for _, w in _letter_walk(r, n, letter))

    # _word_stats checks the cap here, so a refused run writes nothing
    rows = zip(itertools.count(), map(" ".join, walk("{}_{}".format)),
               _word_stats(r, n, stat, args.max_group_size))
    if fmt == "json":
        # r, n and every letter (as _letter_walk makes it) are checked before
        # the first record, the statistics in stat, a rank and word per record
        for key, value in (("r", r), ("n", n)):
            schemas.validate(value, "enumerate_record", "permutation", key)

        def letter(v: int, c: int) -> str:
            schemas.validate([[v, c]], "enumerate_record", "permutation", "letters")
            return _json_ints((v, c), 8)

        join = ",\n        ".join

        def record(row: tuple[int, str, str], frags: tuple[str, ...]) -> str:
            rank, text, head = row
            schemas.validate(rank, "enumerate_record", "rank")
            # a word is digits, "_" and spaces, so it needs no JSON escaping
            schemas.validate(text, "enumerate_record", "word")
            return f'{head}{join(frags)}{tail}{rank},\n    "word": "{text}"\n  }}'

        _emit(_json_stream([None], map(record, rows, walk(letter))), args.output)
    elif fmt == "csv":
        header = ["rank", "word", "descent_set", "des", "intdes", "mr_key"]
        _emit(itertools.chain([_csv_line(header)], (
            f"{rank},{text}{suffix}" for rank, text, suffix in rows
        )), args.output)
    else:
        _emit((f"{rank:>6}  {text:<24} {suffix}" for rank, text, suffix in rows),
              args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # loads every layer, so only verify pays for it
    lo, hi = _parse_j_range(args.j)
    # every suite checks j = 0..max, so a range must say so
    if ".." in args.j and lo != 0:
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
        j_max=hi,
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


def cmd_idempotents(args: argparse.Namespace) -> int:
    from .algebra import _idempotent_numerators
    r = args.r if args.r is not None else 5
    n = args.n if args.n is not None else 3
    # every column of the numerators is monic, so the top row is 1/scale
    # throughout and scale = |G| is the table's least common denominator
    rows, scale = _idempotent_numerators(r, n)

    def lowest(x: int) -> tuple[int, int]:
        g = math.gcd(scale, x)
        return x // g, scale // g

    if args.format == "json":
        head = {"r": r, "n": n, "common_denominator": str(scale)}
        table = ({"i": i, "by_des_class": [
            {"des": d, "num": str(num), "den": str(den)}
            for d, (num, den) in enumerate(map(lowest, xs))
        ]} for i, xs in enumerate(rows))

        def text(row: dict) -> str:
            # a row is checked as a one-row table, so its path reads $.idempotents[0]
            schemas.validate({**head, "idempotents": [row]}, "idempotent_table")
            return _idempotent_row_json(row)

        _emit(_json_stream({**head, "idempotents": [None]}, map(text, table)), args.output)
    elif args.format == "csv":
        _emit(itertools.chain([_csv_line(["i", "des", "coefficient"])], (
            _csv_line([i, d, "{}/{}".format(*lowest(x))])
            for i, xs in enumerate(rows) for d, x in enumerate(xs)
        )), args.output)
    else:
        def line(i: int, xs: list[int]) -> str:
            terms = " ".join(
                f"{'-' if x < 0 else '+'} {abs(x)} C_{d}" for d, x in enumerate(xs)
            )
            text = terms[2:] if terms[0] == "+" else f"-{terms[2:]}"
            return f"c_{i} = (1/{scale})({text})\n"

        _emit(itertools.starmap(line, enumerate(rows)), args.output)
    return EXIT_OK


def cmd_eulerian_poly(args: argparse.Namespace) -> int:
    from .ppartitions import eulerian_polynomial
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
    from .ppartitions import omega_pi
    if not args.pi:
        raise UsageError("order-poly requires --pi")
    r = args.r if args.r is not None else 2
    pi = parse_one_line(args.pi, r)
    lo, hi = _parse_j_range(args.j)
    # each count is written as it is evaluated, so no format holds the range
    counts = ((j, str(omega_pi(pi, j))) for j in range(lo, hi + 1))
    if args.format == "json":
        word = str(pi)
        records = ({"op": "order-poly", "params": {"r": r, "pi": word, "j": j},
                    "count": count} for j, count in counts)

        def text(record: dict) -> str:
            schemas.validate(record, "count_record")
            return _count_record_json(record)

        _emit(_json_stream([None], map(text, records)), args.output)
    elif args.format == "csv":
        _emit(itertools.chain([_csv_line(["j", "count"])], map(_csv_line, counts)),
              args.output)
    else:
        texts = (c if j == lo else ", " + c for j, c in counts)
        _emit(itertools.chain(["["], texts, ["]\n"]), args.output)
    return EXIT_OK


# name: (help, runner); verify also takes its suite, a positional first
_COMMANDS = {
    "enumerate": ("list group elements with statistics", cmd_enumerate),
    "verify": ("run a named verification suite", cmd_verify),
    "idempotents": ("emit the orthogonal idempotent table", cmd_idempotents),
    "eulerian-poly": ("emit descent-number coefficients", cmd_eulerian_poly),
    "order-poly": ("evaluate the order polynomial of a word", cmd_order_poly),
}
_EVERY = tuple(_COMMANDS)

# Each flag once: its option strings, type, fallback under its preset
# COLORED_DESCENTS_<FLAG>, choices, help and the commands that take it, in
# the order of their help.  build_parser declares them to argparse and
# _read_plain reads them, so the two parse one grammar.
_FLAGS = (
    (("--pi",), str, None, None, "one-line word like '2_1 1_1'", ("order-poly",)),
    (("--r",), int, None, None, None, _EVERY),
    (("--n",), int, None, None, None, _EVERY),
    (("--j",), str, "0..3", None, "single value or inclusive range like 0..3", _EVERY),
    (("--k",), int, 3, None, None, _EVERY),
    (("--seed",), int, 0, None, None, _EVERY),
    (("--cases",), int, 100, None, None, _EVERY),
    (("--jobs",), int, 1, None, None, _EVERY),
    (("--max-group-size",), int, DEFAULT_MAX_GROUP_SIZE, None, None, _EVERY),
    (("--format",), str, "text", _FORMATS, None, _EVERY),
    (("--output", "-o"), str, None, None, "write to this file instead of stdout", _EVERY),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_plain(argv) or build_parser(argv).parse_args(argv)
        _validate_common(args)
        return _COMMANDS[args.command][1](args)
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
