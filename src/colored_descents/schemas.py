"""JSON schemas for every wire format the CLI writes.

Schemas are validated on write; they double as the format documentation
referenced from the README.
"""
from __future__ import annotations

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


_VALIDATORS: dict[str, object] = {}


def validate(obj: object, schema_name: str) -> None:
    """Validate before writing; raises jsonschema.ValidationError."""
    import jsonschema  # here, so that commands writing no JSON skip the import

    validator = _VALIDATORS.get(schema_name)
    if validator is None:
        validator = jsonschema.Draft202012Validator(SCHEMAS[schema_name])
        _VALIDATORS[schema_name] = validator
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        raise error
