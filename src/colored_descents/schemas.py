"""JSON schemas for every wire format the CLI writes.

Schemas are validated on write; they double as the format documentation
referenced from the README.
"""
from __future__ import annotations

import functools
import math
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


class _Failure(Exception):
    """A failed keyword.  Each level it unwinds through adds its step to
    ``path``, innermost first, so a path is built only for a failure."""

    def __init__(self, keyword: str, value: object) -> None:
        super().__init__(keyword)
        self.keyword, self.value, self.path = keyword, value, []


def _compile(schema: dict) -> Callable[[object], None]:
    """A checker for schema, with the Draft 2020-12 semantics of the eight
    keywords the schemas use, each applied only to instances of its own
    type.  Subschemas, patterns and keyword values are read once, here, and
    a typed schema checks only its own type's keywords.  The one untyped
    schema is ``{}``, which accepts anything; any other raises KeyError."""
    if schema == {}:
        return lambda obj: None
    required = tuple(schema.get("required", ()))
    properties = tuple(
        (key, _compile(sub)) for key, sub in schema.get("properties", {}).items()
    )
    min_items = schema.get("minItems", 0)
    max_items = schema.get("maxItems", math.inf)
    items = _compile(schema["items"]) if "items" in schema else None
    pattern = re.compile(schema["pattern"]).search if "pattern" in schema else None
    minimum = schema.get("minimum")

    def fail(keyword: str) -> NoReturn:
        raise _Failure(keyword, schema[keyword])

    def on_object(obj: dict) -> None:
        for key in required:
            if key not in obj:
                fail("required")
        for key, sub in properties:
            if key in obj:
                try:
                    sub(obj[key])
                except _Failure as exc:
                    exc.path.append(f".{key}")
                    raise

    def on_array(obj: list) -> None:
        if len(obj) < min_items:
            fail("minItems")
        if len(obj) > max_items:
            fail("maxItems")
        if items is not None:
            i = 0
            try:
                for i, item in enumerate(obj):
                    items(item)
            except _Failure as exc:
                exc.path.append(f"[{i}]")
                raise

    def on_string(obj: str) -> None:
        if pattern is not None and not pattern(obj):
            fail("pattern")

    def on_number(obj: float) -> None:
        if minimum is not None and obj < minimum:
            fail("minimum")

    kind = schema["type"]
    is_type = _TYPES[kind]
    exact = _EXACT[kind]
    on_type = {"object": on_object, "array": on_array, "string": on_string}.get(
        kind, on_number
    )

    def check_typed(obj: object) -> None:
        if type(obj) is not exact and not is_type(obj):
            fail("type")
        on_type(obj)

    return check_typed


@functools.cache
def _checker(schema_name: str) -> Callable[[object], None]:
    return _compile(SCHEMAS[schema_name])


def validate(obj: object, schema_name: str) -> None:
    """Check obj before it is written; raises SchemaError.  Each schema is
    compiled on its first use."""
    check = _checker(schema_name)
    try:
        check(obj)
    except _Failure as exc:
        path = "$" + "".join(reversed(exc.path))
        raise SchemaError(f"{path}: fails {exc.keyword} {exc.value!r}") from None
