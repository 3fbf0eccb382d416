import json
import math
import typing
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np
import pytest

from proxauth.auth_service import AuthService, PolicyConfig, UserStore
from proxauth.beacon_model import BeaconObservation, DeviceRole, FeatureEncoder, ScanSnapshot
from proxauth.colocation_ml import Classifier, ForestParams, model_to_document, train_decision_tree, train_random_forest
from proxauth.errors import DuplicateUser
from proxauth.jsondoc import decode, dump, encode, naming, parse
from proxauth.wire import BeginRequest, EnrollRequest, StatusRequest, SubmitScanRequest, handle_request_line


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


@dataclass(frozen=True)
class Positive:
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class Nest:
    inners: tuple[Inner, ...]
    positives: tuple[Positive, ...] = ()


@dataclass(frozen=True)
class Outer:
    nests: tuple[Nest, ...]
    nest: Nest | None = None


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
    assert decode(Positive, {"n": 1}) == Positive(1)
    with pytest.raises(ValueError, match="^bad Positive value: n must be positive$"):
        decode(Positive, {"n": 0})


class TestAnArrayItemFailure:
    """A failure inside an array is led by the dotted path to its item; every other failure reads as before."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"nests": [{"inners": [{"n": 1}, {"n": "2"}]}]}, "nests.0.inners.1: bad Inner value: n must be int, got '2'"),
            ({"nests": [{"inners": []}, {"inners": [{"n": 1, "x": 0}]}]},
             "nests.1.inners.0: Inner must be an object with keys ['n', 'tag'], got unknown ['x']"),
            ({"nests": [{"inners": [], "positives": [{"n": 1}, {"n": 0}]}]},
             "nests.0.positives.1: bad Positive value: n must be positive"),
            ({"nests": [{"inners": []}, 5]}, "nests.1: Nest must be an object with keys ['inners', 'positives'], got 5"),
            ({"nests": [], "nest": {"inners": [{"n": 1}, {"n": 2}, {"n": True}]}},
             "nest.inners.2: bad Inner value: n must be int, got True"),
            ({"nests": [], "nest": {"inners": 3}}, "bad Nest value: inners must be an array, got 3"),
            ({"nests": [], "nest": {"inners": [], "extra": 1}},
             "Nest must be an object with keys ['inners', 'positives'], got unknown ['extra']"),
        ],
    )
    def test_names_the_item(self, doc, message):
        with pytest.raises(ValueError) as caught:
            decode(Outer, doc)
        assert str(caught.value) == message
        assert type(caught.value) is ValueError

    def test_a_scalar_item_is_named_after_its_field(self):
        with pytest.raises(ValueError) as caught:
            decode(Every, {**FULL, "many": [1, 2, "3"], "factory": ["a"]})
        assert str(caught.value) == "many.2: bad Every value: many must be int, got '3'"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("pair", [True, 2], "bad Every value: pair must be float, got True"),
            ("many", "3", "bad Every value: many must be an array, got '3'"),
            ("inner", {"n": "2"}, "bad Inner value: n must be int, got '2'"),
            ("counts", {"a": 1.5}, "bad Every value: counts must be int, got 1.5"),
        ],
    )
    def test_a_failure_outside_a_variable_length_array_reads_as_before(self, key, value, message):
        with pytest.raises(ValueError) as caught:
            decode(Every, {**FULL, key: value})
        assert str(caught.value) == message


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

    @pytest.mark.parametrize(
        "text", [b'"al\xffice"', "[1]".encode("utf-16-be"), "[1]".encode("utf-16"), "[1]".encode("utf-32"),
                 b"\xef\xbb\xbf[1]", b'"\xed\xa0\x80"'],
        ids=["invalid byte", "utf-16-be", "utf-16 bom", "utf-32 bom", "utf-8 bom", "encoded surrogate"],
    )
    def test_bytes_are_read_as_utf8_only(self, text):
        with pytest.raises(ValueError):
            parse(text)

    def test_utf8_bytes_read_as_their_text(self):
        assert parse('{"zoë": "café"}'.encode()) == {"zoë": "café"}


class TestNaming:
    def test_a_value_error_raised_within_leads_with_the_input(self):
        with pytest.raises(ValueError, match=r"^users\.log:3: Expecting property name") as info:
            with naming("users.log:3"):
                parse("{")
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_a_proxauth_error_keeps_its_type_and_leads_with_the_input(self):
        with pytest.raises(DuplicateUser, match=r"^users\.json: user 'ann' already enrolled$") as info:
            with naming("users.json"):
                raise DuplicateUser("user 'ann' already enrolled")
        assert info.value.code == "DuplicateUser"

    def test_other_errors_pass_through(self):
        with pytest.raises(KeyError):
            with naming("file"):
                {}["missing"]


def old_writer(value) -> bytes:
    """The line that save_model, the store, the audit log, the server and the
    client each spelled out before ``dump``."""
    return (json.dumps(value, separators=(",", ":")) + "\n").encode("utf-8")


WRITTEN = [
    "model (random forest)", "model (decision tree)", "users.json snapshot", "users.log record",
    "audit enroll", "audit begin", "audit decision", "enroll request", "begin request", "submit_scan request",
    "status request", "enrolled response", "awaiting session response", "decided session response",
    "first factor failed response", "error response", "unknown op response", "bad request response",
]


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict:
    """One of each document proxauth writes, by name, from one round served in
    process to a user with non-ASCII names."""
    root = tmp_path_factory.mktemp("store")
    encoder = FeatureEncoder({"Café": 1, "NetB": 2}, (2412000000.0, 5240000000.0))
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.integers(0, 2, 60), rng.integers(0, 3, 60), rng.random(60), rng.integers(-90, -40, 60)])
    y = (X[:, 3] > -65).astype(int)
    forest = train_random_forest(X, y, ForestParams(n_trees=3, seed=4))
    docs = {"model (random forest)": model_to_document(forest, encoder, train_seed=5),
            "model (decision tree)": model_to_document(train_decision_tree(X, y), encoder)}
    service = AuthService(UserStore(root), Classifier(forest, encoder), policy=PolicyConfig())

    def send(op, request, response_name):
        docs[f"{op} request"] = line = {"op": op, **encode(request)}  # the last of each op
        docs[response_name] = handle_request_line(service, json.dumps(line))
        return docs[response_name]

    def scan(device_id, role):
        return ScanSnapshot(device_id, role, 1000, (BeaconObservation("Café", 2437000000, -52, "aa:bb:cc:dd:ee:ff"),), "bürø")

    send("enroll", EnrollRequest("zoë", "zoës-secret", "zoë-m", "zoë-l"), "enrolled response")
    sid = send("begin", BeginRequest("zoë", "zoës-secret"), "awaiting session response")["session_id"]
    send("submit_scan", SubmitScanRequest(sid, "zoë-m", scan("zoë-m", DeviceRole.MOBILE)), "awaiting session response")
    send("submit_scan", SubmitScanRequest(sid, "zoë-l", scan("zoë-l", DeviceRole.LOGIN)), "decided session response")
    send("status", StatusRequest(sid), "decided session response")
    send("begin", BeginRequest("zoë", "not-zoës-secret"), "first factor failed response")
    send("enroll", EnrollRequest("zoë", "zoës-secret", "x-m", "x-l"), "error response")
    docs["unknown op response"] = handle_request_line(service, '{"op":"frobnicate"}')
    docs["bad request response"] = handle_request_line(service, b'{"op":"begin","username":"al\xffice"}')
    docs["users.log record"] = json.loads((root / "users.log").read_text(encoding="utf-8"))
    for line in (root / "audit.log").read_text(encoding="utf-8").splitlines():
        docs.setdefault(f"audit {json.loads(line)['event']}", json.loads(line))
    UserStore(root)  # folds users.log into users.json
    docs["users.json snapshot"] = json.loads((root / "users.json").read_text(encoding="utf-8"))
    assert docs["decided session response"]["outcome"] == "Grant"
    return docs


class TestDump:
    def test_the_round_wrote_each_kind_of_document(self, written):
        assert sorted(written) == sorted(WRITTEN)

    @pytest.mark.parametrize("name", WRITTEN)
    def test_writes_the_bytes_the_old_writer_wrote(self, written, name):
        assert dump(written[name]) == old_writer(written[name])

    @pytest.mark.parametrize("name", WRITTEN)
    def test_parse_reads_back_what_it_writes(self, written, name):
        assert parse(dump(written[name])) == written[name]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("inf")])
    def test_refuses_a_non_finite_float(self, value):
        for doc in (value, [1.0, value], {"authentic_fraction": value}, {"trees": [{"threshold": [value]}]}):
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                dump(doc)

    def test_is_one_ascii_line(self):
        line = dump({"zoë": ["café", 1, 2.5, None, True]})
        assert line == b'{"zo\\u00eb":["caf\\u00e9",1,2.5,null,true]}\n'
        assert line.count(b"\n") == 1 and line.isascii()
