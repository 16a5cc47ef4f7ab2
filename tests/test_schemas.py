"""The standard-library schema checker against jsonschema as the oracle."""
import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colored_descents import schemas
from colored_descents.schemas import SCHEMAS, SchemaError

CHECKED_KEYWORDS = {
    "type", "required", "properties", "items", "minItems", "maxItems", "minimum", "pattern",
}
CHECKED_TYPES = {"object", "array", "string", "number", "integer"}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# replacements tried at every node: each JSON type, a bool and an integral
# float where an integer is expected, and values below minimum 0 and 1
PROBES = (None, True, False, 0, -1, 1.0, -1.0, 2.5, "x", "", [], [0], {}, {"a": 0})


def documents(schema: dict) -> st.SearchStrategy:
    """Documents valid under a schema written in the checked keywords."""
    kind = schema.get("type")
    if kind == "object":
        if "properties" not in schema:
            return st.dictionaries(st.text(max_size=3), JSON, max_size=3)
        props = {k: documents(sub) for k, sub in schema["properties"].items()}
        required = set(schema.get("required", ()))
        return st.fixed_dictionaries(
            {k: s for k, s in props.items() if k in required},
            optional={k: s for k, s in props.items() if k not in required},
        )
    if kind == "array":
        return st.lists(
            documents(schema.get("items", {})),
            min_size=schema.get("minItems", 0),
            max_size=schema.get("maxItems", 3),
        )
    if kind == "integer":
        return st.integers(min_value=schema.get("minimum"))
    if kind == "number":
        return st.integers() | st.floats(allow_nan=False)
    if kind == "string":
        if "pattern" in schema:
            return st.from_regex(schema["pattern"], fullmatch=True)
        return st.text(max_size=5)
    return JSON


def mutants(value):
    """Every document that differs from value by one mutation: a node
    replaced, a key removed, a list one item short or long, an integer one
    lower or made a float, or a string extended."""
    yield from PROBES
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        yield value - 1
        yield float(value)
    elif isinstance(value, str):
        yield value + "x"
        yield "/" + value
        yield value + "\n"  # still matches an anchored pattern under re.search
    elif isinstance(value, list):
        if value:
            yield value[:-1]
            yield value + value[:1]
        for i, item in enumerate(value):
            for m in mutants(item):
                yield value[:i] + [m] + value[i + 1:]
    elif isinstance(value, dict):
        for key in value:
            yield {k: v for k, v in value.items() if k != key}
            for m in mutants(value[key]):
                yield {**value, key: m}


def accepts(doc: object, name: str) -> bool:
    try:
        schemas.validate(doc, name)
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_checker_agrees_with_jsonschema(name):
    oracle = jsonschema.Draft202012Validator(SCHEMAS[name])

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(documents(SCHEMAS[name]))
    def check(doc):
        assert oracle.is_valid(doc) and accepts(doc, name)
        for mutant in mutants(doc):
            assert accepts(mutant, name) == oracle.is_valid(mutant), mutant

    check()


COUNT = {"op": "order-poly", "params": {"j": 2}, "count": "12"}
TABLE = {
    "r": 2, "n": 1, "common_denominator": "4",
    "idempotents": [{"i": 0, "by_des_class": [{"des": 0, "num": "3", "den": "4"}]}],
}
RECORD = {
    "rank": 0, "word": "1_0", "permutation": {"r": 2, "n": 1, "letters": [[1, 0]]},
    "descent_set": [], "des": 0, "intdes": 0, "mr_key": [[1, 0]],
}


@pytest.mark.parametrize("name, doc, message", [
    ("count_record", {**COUNT, "count": 12}, "$.count: fails type"),
    ("idempotent_table", {**TABLE, "r": True}, "$.r: fails type"),
    ("count_record", {"op": "x", "params": {}}, "$: fails required"),
    ("count_record", {**COUNT, "params": []}, "$.params: fails type"),
    ("idempotent_table",
     {**TABLE, "idempotents": [{"i": 0, "by_des_class": [{"des": 0, "num": "3"}]}]},
     "$.idempotents[0].by_des_class[0]: fails required"),
    ("enumerate_record", {**RECORD, "mr_key": [[1]]}, "$.mr_key[0]: fails minItems"),
    ("enumerate_record",
     {**RECORD, "permutation": {"r": 2, "n": 1, "letters": [[1, 0, 0]]}},
     "$.permutation.letters[0]: fails maxItems"),
    ("idempotent_table", {**TABLE, "r": 0}, "$.r: fails minimum"),
    ("enumerate_record", {**RECORD, "rank": -1.0}, "$.rank: fails minimum"),
    ("count_record", {**COUNT, "count": "1/2"}, "$.count: fails pattern"),
    ("enumerate_record",
     {**RECORD, "permutation": {"r": 2, "n": 2, "letters": [[1, 0], [2, -1]]}},
     "$.permutation.letters[1][1]: fails minimum 0"),
])
def test_each_keyword_rejects(name, doc, message):
    with pytest.raises(SchemaError) as info:
        schemas.validate(doc, name)
    assert str(info.value).startswith(message)


def test_integral_float_is_an_integer():
    schemas.validate({**TABLE, "r": 2.0}, "idempotent_table")


def test_schema_error_is_not_a_usage_error():
    # the CLI reports a ValueError as a usage error (exit 1); a document
    # that fails its schema is a bug in the writer
    assert not issubclass(SchemaError, ValueError)


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schemas_use_only_checked_keywords():
    # a keyword the checker does not know would be silently ignored
    for name, schema in SCHEMAS.items():
        for sub in _subschemas(schema):
            assert set(sub) <= CHECKED_KEYWORDS, (name, sub)
            assert sub.get("type") in CHECKED_TYPES | {None}, (name, sub)
