import json
import typing
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import pytest

from proxauth.jsondoc import decode, encode, parse


class Color(Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Inner:
    n: int
    tag: str = "t"


# no __future__ import here: the annotations are runtime types, not strings
@dataclass(frozen=True)
class Every:
    i: int
    f: float
    s: str
    b: bool
    maybe: int | None
    optional: typing.Optional[str]
    color: Color
    pair: tuple[float, int]
    many: tuple[int, ...]
    counts: dict[str, int]
    inner: Inner
    defaulted: int = 5
    factory: tuple[str, ...] = field(default_factory=tuple)


FULL = {
    "i": 1, "f": 0.5, "s": "x", "b": False, "maybe": None, "optional": None, "color": "red",
    "pair": [1.5, 2], "many": [], "counts": {}, "inner": {"n": 1, "tag": "t"},
    "defaulted": 5, "factory": [],
}

# (field, a JSON value it takes, the value it reads as, JSON values it refuses)
KINDS = [
    ("i", -3, -3, [True, 1.0, 1.5, "1", None]),
    ("f", 2, 2, [True, "2.5", None, [2.5]]),
    ("f", 2.5, 2.5, [False, float("nan"), float("inf"), float("-inf")]),
    ("s", "", "", [5, None, ["s"]]),
    ("b", True, True, [1, 0, "true", None]),
    ("maybe", 4, 4, [4.5, False, "4"]),
    ("maybe", None, None, []),
    ("optional", "o", "o", [1]),
    ("color", "blue", Color.BLUE, ["BLUE", "green", 1, None, ["red"]]),
    ("pair", [1, 2], (1, 2), [[1.0, 2.5], [1.0], [1.0, 2, 3], "12", {"0": 1.0}, [True, 2], [float("nan"), 2]]),
    ("many", [1, 2, 3], (1, 2, 3), [[1, "2"], [1.5], 3, None]),
    ("counts", {"a": 1}, {"a": 1}, [{"a": 1.0}, {"a": True}, [["a", 1]], None]),
    ("inner", {"n": 2}, Inner(2), [{"n": "2"}, {"n": 2, "x": 1}, {}, [2], None]),
    ("defaulted", 7, 7, [7.0, None]),
    ("factory", ["a"], ("a",), [[1], "a"]),
]


@pytest.mark.parametrize("exact", [False, True], ids=["partial", "exact"])
@pytest.mark.parametrize("key, raw, expected, refused", KINDS, ids=[f"{k[0]}-{k[1]!r}" for k in KINDS])
def test_each_annotation_kind(exact, key, raw, expected, refused):
    doc = {**FULL, key: raw}
    if exact and key == "inner":
        doc[key] = {"tag": "t", **raw}
    value = getattr(decode(Every, json.loads(json.dumps(doc)), exact=exact), key)
    assert value == expected
    assert type(value) is type(expected)  # an int read as a float stays an int
    for bad in refused:
        with pytest.raises(ValueError, match=f"Every value: {key} must be|Inner"):
            decode(Every, {**FULL, key: bad}, exact=exact)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_float_refuses_the_non_finite_literals_json_loads_reads(literal):
    text = json.dumps({**FULL, "f": 0.5}).replace("0.5", literal)
    with pytest.raises(ValueError, match="^bad Every value: f must be float, got (nan|inf|-inf)$"):
        decode(Every, json.loads(text))


# (field, a value it holds, the JSON value encode writes for it)
ENCODED = [
    ("i", -3, -3),
    ("f", 2, 2),
    ("f", 2.5, 2.5),
    ("s", "x", "x"),
    ("b", True, True),
    ("maybe", 4, 4),
    ("maybe", None, None),
    ("optional", "o", "o"),
    ("color", Color.BLUE, "blue"),
    ("pair", (1.5, 2), [1.5, 2]),
    ("many", (1, 2, 3), [1, 2, 3]),
    ("counts", {"a": 1, "b": 2}, {"a": 1, "b": 2}),
    ("inner", Inner(2, "u"), {"n": 2, "tag": "u"}),
    ("defaulted", 7, 7),
    ("factory", ("a",), ["a"]),
]


@pytest.mark.parametrize("key, value, expected", ENCODED, ids=[f"{k[0]}-{k[1]!r}" for k in ENCODED])
def test_encode_writes_what_decode_reads(key, value, expected):
    every = replace(decode(Every, FULL), **{key: value})
    doc = encode(every)
    assert doc[key] == expected
    assert type(doc[key]) is type(expected)  # an int in a float field stays an int
    assert list(doc) == [f.name for f in fields(Every)]
    assert json.loads(json.dumps(doc)) == doc
    assert decode(Every, doc, exact=True) == every
    if isinstance(value, dict):
        assert doc[key] is not value  # a new object: editing the document leaves the value alone


@pytest.mark.parametrize("exact", [False, True], ids=["partial", "exact"])
def test_keys(exact):
    assert decode(Every, FULL, exact=exact) == decode(Every, dict(reversed(FULL.items())), exact=exact)
    with pytest.raises(ValueError, match=r"^Every must be an object with keys \[.*\], got unknown \['extra'\]$"):
        decode(Every, {**FULL, "extra": 1}, exact=exact)
    required = {k: v for k, v in FULL.items() if k not in ("i", "defaulted")}
    with pytest.raises(ValueError, match=r"got missing \['i'\]$" if not exact else r"got missing \['defaulted', 'i'\]$"):
        decode(Every, required, exact=exact)
    for doc in ([], "x", None, 1, [["i", 1]]):
        with pytest.raises(ValueError, match="^Every must be an object with keys"):
            decode(Every, doc, exact=exact)


def test_only_partial_mode_fills_defaults():
    doc = {k: v for k, v in FULL.items() if k not in ("defaulted", "factory")}
    doc["inner"] = {"n": 1}
    assert decode(Every, doc) == decode(Every, FULL)
    with pytest.raises(ValueError, match=r"^Every must be an object with keys .* missing \['defaulted', 'factory'\]"):
        decode(Every, doc, exact=True)
    with pytest.raises(ValueError, match=r"^Inner must be an object with keys .* missing \['tag'\]"):
        decode(Every, {**FULL, "inner": {"n": 1}}, exact=True)


def test_the_class_checks_fail_as_value_errors_naming_it():
    @dataclass(frozen=True)
    class Positive:
        n: int

        def __post_init__(self):
            if self.n <= 0:
                raise ValueError("n must be positive")

    assert decode(Positive, {"n": 1}) == Positive(1)
    with pytest.raises(ValueError, match="^bad Positive value: n must be positive$"):
        decode(Positive, {"n": 0})


def test_an_unsupported_annotation_is_a_type_error():
    @dataclass(frozen=True)
    class Listed:
        items: list[int]

    with pytest.raises(TypeError, match="cannot read"):
        decode(Listed, {"items": [1]})


class TestParse:
    @pytest.mark.parametrize("text", ['{"a": [1, 2.5, null], "b": {"c": "d"}}', b'[true, {"x": -1}]', "7", '"s"'])
    def test_reads_what_json_loads_reads(self, text):
        assert parse(text) == json.loads(text)
        assert parse(text, object_hook=lambda obj: sorted(obj)) == json.loads(text, object_hook=lambda obj: sorted(obj))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000])
    def test_a_text_nested_past_the_parsers_depth_is_value_error(self, text):
        with pytest.raises(ValueError, match="^nested past the JSON parser's depth$"):
            parse(text)

    def test_a_syntax_error_stays_json_decode_error(self):
        with pytest.raises(json.JSONDecodeError):
            parse('{"a": ')
