"""JSON schemas for every wire format the CLI writes.

Schemas are validated on write; they double as the format documentation
referenced from the README.
"""
from __future__ import annotations

import functools
import re
from typing import Callable, NoReturn

_FRACTION = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_DECIMAL = {"type": "string", "pattern": "^-?[0-9]+$"}

LETTER = {
    "type": "array",
    "items": {"type": "integer", "minimum": 0},
    "minItems": 2,
    "maxItems": 2,
}

PERMUTATION = {
    "type": "object",
    "required": ["r", "n", "letters"],
    "properties": {
        "r": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 0},
        "letters": {"type": "array", "items": LETTER},
    },
}

POSET = {
    "type": "object",
    "required": ["r", "n", "elements", "covers"],
    "properties": {
        "r": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 0},
        "elements": {"type": "array", "items": LETTER},
        "covers": {
            "type": "array",
            "items": {"type": "array", "items": LETTER, "minItems": 2, "maxItems": 2},
        },
    },
}

ENUMERATE_RECORD = {
    "type": "object",
    "required": ["rank", "word", "permutation", "descent_set", "des", "intdes", "mr_key"],
    "properties": {
        "rank": {"type": "integer", "minimum": 0},
        "word": {"type": "string"},
        "permutation": PERMUTATION,
        "descent_set": {"type": "array", "items": {"type": "integer"}},
        "des": {"type": "integer"},
        "intdes": {"type": "integer"},
        "mr_key": {
            "type": "array",
            "items": {"type": "array", "minItems": 2, "maxItems": 2},
        },
    },
}

COUNT_RECORD = {
    "type": "object",
    "required": ["op", "params", "count"],
    "properties": {
        "op": {"type": "string"},
        "params": {"type": "object"},
        "count": _DECIMAL,
    },
}

SERIES_RECORD = {
    "type": "object",
    "required": ["op", "params", "t_coeffs"],
    "properties": {
        "op": {"type": "string"},
        "params": {"type": "object"},
        "t_coeffs": {"type": "array", "items": _DECIMAL},
    },
}

IDEMPOTENT_TABLE = {
    "type": "object",
    "required": ["r", "n", "idempotents", "common_denominator"],
    "properties": {
        "r": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 0},
        "common_denominator": _DECIMAL,
        "idempotents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "by_des_class"],
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "by_des_class": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["des", "num", "den"],
                            "properties": {
                                "des": {"type": "integer", "minimum": 0},
                                "num": _DECIMAL,
                                "den": _DECIMAL,
                            },
                        },
                    },
                },
            },
        },
    },
}

REPORT = {
    "type": "object",
    "required": [
        "tool",
        "version",
        "command",
        "config",
        "seed",
        "duration_seconds",
        "results",
    ],
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "seed": {"type": "integer"},
        "duration_seconds": {"type": "number"},
        "results": {},
    },
}

SCHEMAS = {
    "permutation": PERMUTATION,
    "poset": POSET,
    "enumerate_record": ENUMERATE_RECORD,
    "count_record": COUNT_RECORD,
    "series_record": SERIES_RECORD,
    "idempotent_table": IDEMPOTENT_TABLE,
    "report": REPORT,
}


class SchemaError(Exception):
    """A document fails its schema: a bug in the writer, so not a
    ValueError, which the CLI reports as a usage error."""


# Draft 2020-12 types: a bool is not a number, an integral float is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}
# the usual type of each, accepted without a call
_EXACT = {"object": dict, "array": list, "string": str, "number": int, "integer": int}


def _fail(failed: tuple, steps: tuple) -> NoReturn:
    """Raise for a failed (keyword, value) at steps, each an object key or
    an (item, list) pair.  The item's index is the first position holding
    that very object: earlier items passed, so it is the failing one."""
    path = "$"
    for step in steps:
        if type(step) is tuple:
            item, items = step
            path += f"[{next(i for i, x in enumerate(items) if x is item)}]"
        else:
            path += f".{step}"
    keyword, value = failed
    raise SchemaError(f"{path}: fails {keyword} {value!r}")


def _compile(schema: dict) -> Callable[[object], None]:
    """A checker for schema, with the Draft 2020-12 semantics of the eight
    keywords the schemas use, each applied only to instances of its own
    type: one generated function, a straight-line test per keyword and a
    plain loop per array level.  Keys enter its source through repr() and
    every other schema value through its globals.  The one untyped schema
    is ``{}``, which accepts anything; any other raises KeyError."""
    if schema == {}:
        return lambda obj: None
    env: dict = {"_fail": _fail}
    lines = ["def check(v0):"]

    def const(value: object) -> str:
        name = f"k{len(env)}"
        env[name] = value
        return name

    def emit(sub: dict, depth: int, steps: str, pad: str) -> None:
        v, w = f"v{depth}", f"v{depth + 1}"

        def test(condition: str, keyword: str) -> None:
            failed = const((keyword, sub[keyword]))
            lines.append(f"{pad}if {condition}: _fail({failed}, ({steps}))")

        kind = sub["type"]
        test(f"type({v}) is not {const(_EXACT[kind])} and not {const(_TYPES[kind])}({v})",
             "type")
        if kind == "object":
            required = sub.get("required", ())
            if required:
                test(" or ".join(f"{key!r} not in {v}" for key in required), "required")
            for key, prop in sub.get("properties", {}).items():
                if prop == {}:
                    continue
                inner = pad
                if key not in required:
                    lines.append(f"{pad}if {key!r} in {v}:")
                    inner += " "
                lines.append(f"{inner}{w} = {v}[{key!r}]")
                emit(prop, depth + 1, f"{steps}{key!r}, ", inner)
        elif kind == "array":
            for keyword, op in (("minItems", "<"), ("maxItems", ">")):
                if keyword in sub:
                    test(f"len({v}) {op} {const(sub[keyword])}", keyword)
            if sub.get("items", {}) != {}:
                lines.append(f"{pad}for {w} in {v}:")
                emit(sub["items"], depth + 1, f"{steps}({w}, {v}), ", pad + " ")
        elif kind == "string":
            if "pattern" in sub:
                test(f"not {const(re.compile(sub['pattern']).search)}({v})", "pattern")
        elif "minimum" in sub:
            test(f"{v} < {const(sub['minimum'])}", "minimum")

    emit(schema, 0, "", " ")
    exec("\n".join(lines), env)
    return env["check"]


@functools.cache
def _checker(schema_name: str) -> Callable[[object], None]:
    return _compile(SCHEMAS[schema_name])


def validate(obj: object, schema_name: str) -> None:
    """Check obj before it is written; raises SchemaError naming the JSON
    path and the keyword.  Each schema is compiled on its first use."""
    _checker(schema_name)(obj)
