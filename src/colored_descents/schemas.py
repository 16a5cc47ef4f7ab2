"""JSON schemas for every wire format the CLI writes.

Schemas are validated on write; they double as the format documentation
referenced from the README.
"""
from __future__ import annotations

import re

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


def _check(obj: object, schema: dict, path: str) -> None:
    """Draft 2020-12 semantics of the eight keywords the schemas use, each
    applied only to instances of its own type."""

    def fail(keyword: str) -> None:
        raise SchemaError(f"{path}: fails {keyword} {schema[keyword]!r}")

    if "type" in schema and not _TYPES[schema["type"]](obj):
        fail("type")
    if isinstance(obj, dict):
        if any(key not in obj for key in schema.get("required", ())):
            fail("required")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                _check(obj[key], sub, f"{path}.{key}")
    elif isinstance(obj, list):
        if len(obj) < schema.get("minItems", 0):
            fail("minItems")
        if len(obj) > schema.get("maxItems", len(obj)):
            fail("maxItems")
        if "items" in schema:
            for i, item in enumerate(obj):
                _check(item, schema["items"], f"{path}[{i}]")
    elif isinstance(obj, str):
        if "pattern" in schema and not re.search(schema["pattern"], obj):
            fail("pattern")
    elif _TYPES["number"](obj) and obj < schema.get("minimum", obj):
        fail("minimum")


def validate(obj: object, schema_name: str) -> None:
    """Check obj before it is written; raises SchemaError."""
    _check(obj, SCHEMAS[schema_name], "$")
