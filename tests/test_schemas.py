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


BAD_LETTER = [1, -1]


@pytest.mark.parametrize("name, doc, message", [
    # True == 1, but the failing item is the one that is True itself
    ("enumerate_record", {**RECORD, "descent_set": [1, True]},
     "$.descent_set[1]: fails type 'integer'"),
    # the same bad object twice fails first, and is reported, at [0]
    ("enumerate_record",
     {**RECORD, "permutation": {"r": 2, "n": 2, "letters": [BAD_LETTER, BAD_LETTER]}},
     "$.permutation.letters[0][1]: fails minimum 0"),
    ("enumerate_record",
     {**RECORD, "permutation": {"r": 2, "n": 2, "letters": [[1, 0], BAD_LETTER, BAD_LETTER]}},
     "$.permutation.letters[1][1]: fails minimum 0"),
])
def test_path_names_the_failing_item_by_identity(name, doc, message):
    with pytest.raises(SchemaError) as info:
        schemas.validate(doc, name)
    assert str(info.value) == message


def test_keys_and_patterns_are_not_source_text():
    # a key or pattern that would break, or inject into, generated source
    key = "it's \"x\"'] or _fail(0, 0) or v0['"
    schema = {"type": "object", "required": [key],
              "properties": {key: {"type": "string", "pattern": "^'\"$"}}}
    check = schemas._compile(schema)
    assert check({key: "'\""}) is None
    with pytest.raises(SchemaError) as info:
        check({key: "x"})
    assert str(info.value) == f"$.{key}: fails pattern {schema['properties'][key]['pattern']!r}"
    with pytest.raises(SchemaError, match=r"^\$: fails required"):
        check({})


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
    # a keyword the checker does not know would be silently ignored, and
    # the checker compiles an untyped subschema only when it is {}
    for name, schema in SCHEMAS.items():
        for sub in _subschemas(schema):
            assert set(sub) <= CHECKED_KEYWORDS, (name, sub)
            if "type" in sub:
                assert sub["type"] in CHECKED_TYPES, (name, sub)
            else:
                assert sub == {}, (name, sub)


def test_untyped_schema_other_than_empty_fails_at_compile():
    assert schemas._compile({})([1, "x"]) is None
    with pytest.raises(KeyError):
        schemas._compile({"minimum": 0})


@pytest.mark.parametrize("keys, value, message", [
    (("mr_key",), [[1, 0], [1, 0, 0]], "$.mr_key[1]: fails maxItems 2"),
    (("mr_key",), [[1]], "$.mr_key[0]: fails minItems 2"),
    (("permutation",), {"r": 2, "n": 2, "letters": [[1, 0], [2]]},
     "$.permutation.letters[1]: fails minItems 2"),
    (("permutation", "letters"), [[2, -1]], "$.permutation.letters[0][1]: fails minimum 0"),
    (("permutation", "r"), 0, "$.permutation.r: fails minimum 1"),
    (("word",), 1, "$.word: fails type 'string'"),
])
def test_a_property_path_names_the_full_path(keys, value, message):
    with pytest.raises(SchemaError) as info:
        schemas.validate(value, "enumerate_record", *keys)
    assert str(info.value) == message


def _paths(schema: dict, doc: object, keys: tuple = ()):
    """(keys, value) for every property path of schema that doc holds."""
    yield keys, doc
    if isinstance(doc, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                yield from _paths(sub, doc[key], keys + (key,))


def _placed(doc: object, keys: tuple, value: object) -> object:
    return {**doc, keys[0]: _placed(doc[keys[0]], keys[1:], value)} if keys else value


def _failure(value: object, name: str, keys: tuple = ()) -> str | None:
    try:
        schemas.validate(value, name, *keys)
    except SchemaError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name, doc", [
    ("count_record", COUNT), ("idempotent_table", TABLE), ("enumerate_record", RECORD),
])
def test_a_property_path_checks_a_value_as_its_place_in_the_document(name, doc):
    # every value one mutation away fails at its path exactly as it fails
    # in its place in the whole document, with the same message
    for keys, value in _paths(SCHEMAS[name], doc):
        assert _failure(value, name, keys) is None
        for mutant in mutants(value):
            assert _failure(mutant, name, keys) == _failure(_placed(doc, keys, mutant), name)


@pytest.mark.parametrize("keys", [("rnak",), ("rank", "x"), ("permutation", "letters", "0")])
def test_an_undeclared_property_path_fails_at_compile(keys):
    with pytest.raises(KeyError):
        schemas.validate(0, "enumerate_record", *keys)


def test_each_property_path_is_compiled_once(monkeypatch):
    compiled = []
    real = schemas._compile

    def counting(schema, keys=()):
        compiled.append(keys)
        return real(schema, keys)

    monkeypatch.setattr(schemas, "_compile", counting)
    schemas._checker.cache_clear()
    for _ in range(3):
        schemas.validate(RECORD, "enumerate_record")
        schemas.validate(1, "enumerate_record", "des")
        schemas.validate([[1, 0]], "enumerate_record", "mr_key")
        schemas.validate(2, "enumerate_record", "permutation", "r")
    assert compiled == [(), ("des",), ("mr_key",), ("permutation", "r")]
