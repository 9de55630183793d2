"""The record walkers in ``ingest`` against two references.

``ingest._frame_errors`` and ``ingest._annotation_errors`` walk the shipped
input schema files, which are read only to explain a line a builder
refuses.  Random mutations of valid
frame-grounding and annotation records, and a fixed sweep of edits at every
field, must get exactly the errors of ``oracles.schema_errors``, the walker
that reads the schema files at every node, in the same order.  The random
mutations must also be accepted or rejected as jsonschema does, except for
two deliberate tightenings: numbers must be finite doubles (no NaN, infinity
or integer past the double range), and a frame key must match its pattern
whole (jsonschema's ``re.search`` lets ``"0\\n"`` match ``^(0|[1-9][0-9]*)$``).
"""

import copy
import json
import math
import re
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import groundcap.ingest as ingest
from groundcap import load_predictions, parse_frame_grounding
from groundcap.ingest import check_annotation
from groundcap.records import RecordValidationError
from oracles import SCHEMA_KEYWORDS, load_schema, reference_frame, schema_errors

FRAME_SCHEMA = "frame_grounding.schema.json"
ANNOTATION_SCHEMA = "video_annotation.schema.json"
FRAME_KEY = re.compile(r"^(0|[1-9][0-9]*)$")
WALKERS = {FRAME_SCHEMA: ingest._frame_errors, ANNOTATION_SCHEMA: ingest._annotation_errors}

FRAME = {
    "video_id": "v1",
    "frame_index": 3,
    "width": 4,
    "height": 3,
    "caption": "a cook stirs a pot",
    "objects": [
        {"phrase": "a cook", "box": [0, 0, 2.5, 3]},
        {"phrase": "a pot", "mask": [5, 2, 5]},
    ],
}

ANNOTATION = {
    "video_id": "v1",
    "frame_count": 2,
    "fps": 5.0,
    "width": 455,
    "height": 256,
    "caption": "<p>a cook</p> stirs <p>a pot</p>",
    "boxes_normalized": False,
    "tracks": [
        {
            "phrase_index": 0,
            "presence": [True, False],
            "boxes": {"0": [1.0, 2.0, 3.0, 4.0]},
            "confidence": {"0": 0.9},
        },
        {
            "phrase_index": 1,
            "presence": [True, True],
            "boxes": {"0": [10.0, 20.0, 30.0, 40.0], "1": [11.0, 21.0, 30.0, 40.0]},
        },
    ],
}

KEYS = st.sampled_from(
    ["0", "1", "07", "0\n", "-1", "", "x", "phrase", "box", "mask", "confidence", "presence"]
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 10**6),
    st.sampled_from([0.0, 2.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=5),
    st.lists(st.floats(-1, 500), min_size=3, max_size=5),
    st.dictionaries(KEYS, st.integers(0, 2), max_size=2),
)
# what a number or flag inside a box, mask or presence array can turn into
SCALARS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2.0, -0.0, 1.5, -1, True, "1", None]
)


def nodes(value, path=()):
    """Every ``(path, node)`` of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from nodes(child, (*path, key))


def at(record, path):
    for key in path:
        record = record[key]
    return record


def mutate(record, data) -> None:
    """Apply one random edit to ``record`` in place."""
    everything = list(nodes(record))
    # a new value is a random one or a copy of a subtree, which keeps some edits valid
    new_value = st.one_of(VALUES, st.sampled_from([v for _, v in everything]).map(copy.deepcopy))
    kind = data.draw(
        st.sampled_from(
            ["delete", "retype", "float", "int", "scalar", "key", "add", "grow", "both", "split"]
        )
    )
    ints = [path for path, node in everything if type(node) is int and abs(node) < 2**1023]
    integral = [path for path, node in everything if type(node) is float and node.is_integer()]
    leaves = [  # items of the scalar arrays, which are checked in bulk
        path
        for path, _ in everything
        if path[-2:-1] in (("box",), ("mask",), ("presence",)) or path[-3:-2] == ("boxes",)
    ]
    dicts = [node for _, node in everything if isinstance(node, dict)]
    lists = [node for _, node in everything if isinstance(node, list)]
    located = [node for node in dicts if "box" in node or "mask" in node]
    runs = [  # the runs of a mask that is still an array
        path
        for path, node in everything
        if path[-2:-1] == ("mask",) and type(node) is int and type(at(record, path[:-1])) is list
    ]
    if kind in ("delete", "retype") and len(everything) > 1:
        path, _ = data.draw(st.sampled_from(everything[1:]))
        parent = at(record, path[:-1])
        if kind == "delete":  # a key of an object, or an item, which shrinks the array
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(VALUES)
    elif kind == "float" and ints:  # 2 -> 2.0, still an integer to JSON Schema
        path = data.draw(st.sampled_from(ints))
        at(record, path[:-1])[path[-1]] = float(at(record, path))
    elif kind == "int" and integral:  # 2.0 -> 2
        path = data.draw(st.sampled_from(integral))
        at(record, path[:-1])[path[-1]] = int(at(record, path))
    elif kind == "scalar" and leaves:
        path = data.draw(st.sampled_from(leaves))
        at(record, path[:-1])[path[-1]] = data.draw(SCALARS)
    elif kind == "key" and any(dicts):  # rename a key, such as a frame key to "0\n"
        target = data.draw(st.sampled_from([node for node in dicts if node]))
        old_key = data.draw(st.sampled_from(sorted(target)))
        target[data.draw(KEYS)] = target.pop(old_key)
    elif kind == "grow" and lists:
        data.draw(st.sampled_from(lists)).append(data.draw(new_value))
    elif kind == "split" and runs:  # run r -> [a, 0, r - a]: an empty run, the same pixels
        path = data.draw(st.sampled_from(runs))
        mask, index = at(record, path[:-1]), path[-1]
        first = data.draw(st.integers(0, max(mask[index], 0)))
        mask[index : index + 1] = [first, 0, mask[index] - first]
    elif kind == "both" and located:
        target = data.draw(st.sampled_from(located))
        target.setdefault("box", [0, 0, 1, 1])
        target.setdefault("mask", [12])
    else:
        data.draw(st.sampled_from(dicts))[data.draw(KEYS)] = data.draw(new_value)


def tightened(value) -> bool:
    """Whether ``value`` holds what only the walker rejects."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) > sys.float_info.max
    if isinstance(value, dict):
        return any(
            (FRAME_KEY.search(key) and not FRAME_KEY.fullmatch(key)) or tightened(item)
            for key, item in value.items()
        )
    if isinstance(value, list):
        return any(tightened(item) for item in value)
    return False


def accepts(record, name: str) -> bool:
    return next(WALKERS[name](record), None) is None


def mutated(base: dict, data) -> dict:
    record = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(record, data)
    return record


def check_against_jsonschema(base: dict, name: str, parse, data) -> None:
    record = mutated(base, data)
    reference = jsonschema.Draft202012Validator(load_schema(name)).is_valid(record)
    accepted = accepts(record, name)
    assert accepted == (reference and not tightened(record)), record
    if accepted:
        # a record past the schema parses or fails with a ValueError, never a crash
        try:
            parse((json.dumps(record) + "\n").encode())
        except ValueError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frame_records_accepted_as_jsonschema_does(data):
    check_against_jsonschema(FRAME, FRAME_SCHEMA, parse_frame_grounding, data)


def frame_outcome(read, record):
    """The record ``read`` builds from ``record``, else its error's type and text."""
    try:
        return read(record, 1)
    except ingest.SchemaError as exc:
        return type(exc), str(exc)


def check_frame_read(record) -> None:
    """The one-walk frame reader gives what the walker-then-build reference gives."""
    expected = frame_outcome(reference_frame, record)
    assert frame_outcome(ingest._frame_grounding, record) == expected, record


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_frame_records_read_as_the_walker_explains(data):
    check_frame_read(mutated(FRAME, data))


@pytest.mark.parametrize(
    "path, value",
    [
        (("frame_index",), True),
        (("width",), True),
        (("objects", 1, "mask", 0), True),
        (("frame_index",), 2.0),
        (("objects", 1, "mask", 0), 5.0),
        (("height",), math.inf),  # what JSON's 1e400 reads as
        (("objects", 0, "box", 1), math.inf),
        (("objects", 1, "mask", 0), -1),
        (("objects", 1, "mask"), [5, 0, 0, 2, 5]),  # an empty foreground run
        (("objects", 1, "mask"), [5, 0, 7]),  # only an empty foreground run
        (("objects", 1, "mask"), [5, 2, 4]),  # runs short of the frame
        (("objects", 0, "box", 2), -2.5),  # a negative width
        (("objects", 0, "box"), [0, 0, 2.5]),
        (("objects", 0, "box", 0), 10**400),
        (("objects", 0, "box", 0), int(sys.float_info.max) + 1),  # a float() rounds it down
        (("objects", 0, "colour"), "red"),
        (("colour",), "red"),
        (("objects", 1, "mask"), [5.0, 2.0, 4.0]),  # integral-float runs short of the frame
    ],
)
def test_frame_edge_cases_read_as_the_walker_explains(path, value):
    record = copy.deepcopy(FRAME)
    at(record, path[:-1])[path[-1]] = value
    check_frame_read(record)


def test_a_schema_fault_is_reported_before_an_earlier_negative_box():
    record = copy.deepcopy(FRAME)
    record["objects"][0]["box"][2] = -2.5  # a negative width in object 0
    record["objects"][1]["phrase"] = ""  # a schema fault in object 1
    check_frame_read(record)
    with pytest.raises(ingest.SchemaError, match=re.escape("line 1: $.objects[1].phrase: ")):
        ingest._frame_grounding(record, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_annotation_records_accepted_as_jsonschema_does(data):
    check_against_jsonschema(ANNOTATION, ANNOTATION_SCHEMA, load_predictions, data)


@pytest.mark.parametrize("name, base", [(FRAME_SCHEMA, FRAME), (ANNOTATION_SCHEMA, ANNOTATION)])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_errors_equal_the_walker(name, base, data):
    record = mutated(base, data)
    expected = list(schema_errors(record, load_schema(name), "$"))
    assert list(WALKERS[name](record)) == expected, record


@pytest.mark.parametrize("name", [FRAME_SCHEMA, ANNOTATION_SCHEMA])
def test_base_records_are_valid(name):
    record = FRAME if name == FRAME_SCHEMA else ANNOTATION
    assert accepts(record, name)
    assert jsonschema.Draft202012Validator(load_schema(name)).is_valid(record)


@pytest.mark.parametrize(
    "name, path, value, valid",
    [
        (ANNOTATION_SCHEMA, ("fps",), 0, False),
        (ANNOTATION_SCHEMA, ("fps",), 1e-9, True),
        (ANNOTATION_SCHEMA, ("frame_count",), 2.0, True),
        (ANNOTATION_SCHEMA, ("frame_count",), 0, False),
        (ANNOTATION_SCHEMA, ("width",), True, False),
        (ANNOTATION_SCHEMA, ("video_id",), "", False),
        (ANNOTATION_SCHEMA, ("tracks", 0, "confidence", "0"), 1, True),
        (ANNOTATION_SCHEMA, ("tracks", 0, "confidence", "0"), 1.0000001, False),
        (ANNOTATION_SCHEMA, ("tracks", 0, "confidence", "0"), -0.0, True),
        (ANNOTATION_SCHEMA, ("tracks", 0, "presence"), [], False),
        (ANNOTATION_SCHEMA, ("tracks", 0, "boxes", "0"), [1.0, 2.0, 3.0], False),
        (FRAME_SCHEMA, ("frame_index",), 0, True),
        (FRAME_SCHEMA, ("frame_index",), -1, False),
        (FRAME_SCHEMA, ("frame_index",), 1.5, False),
        (FRAME_SCHEMA, ("objects", 0, "phrase"), "", False),
        (FRAME_SCHEMA, ("objects", 0, "box"), [0, 0, 1, 1, 1], False),
        (FRAME_SCHEMA, ("objects", 1, "mask", 0), -1, False),
        (FRAME_SCHEMA, ("objects", 1, "mask", 0), 5.0, True),
    ],
)
def test_boundaries_agree_with_jsonschema(name, path, value, valid):
    record = copy.deepcopy(FRAME if name == FRAME_SCHEMA else ANNOTATION)
    at(record, path[:-1])[path[-1]] = value
    assert jsonschema.Draft202012Validator(load_schema(name)).is_valid(record) == valid
    assert accepts(record, name) == valid


def test_the_tightenings_reject_what_jsonschema_accepts():
    newline_key = copy.deepcopy(ANNOTATION)
    newline_key["tracks"][1]["boxes"]["0\n"] = [1.0, 1.0, 1.0, 1.0]
    nan_fps = dict(ANNOTATION, fps=math.nan)
    infinite_count = copy.deepcopy(FRAME)
    infinite_count["objects"][1]["mask"][0] = math.inf
    for record, name in [
        (newline_key, ANNOTATION_SCHEMA),
        (nan_fps, ANNOTATION_SCHEMA),
        (dict(FRAME, width=10**400), FRAME_SCHEMA),
    ]:
        assert jsonschema.Draft202012Validator(load_schema(name)).is_valid(record)
        assert not accepts(record, name)
    assert not accepts(infinite_count, FRAME_SCHEMA)


def schema_keywords(schema: dict):
    yield from schema
    subschemas = [
        *schema.get("properties", {}).values(),
        *schema.get("patternProperties", {}).values(),
        *schema.get("oneOf", []),
    ]
    if "items" in schema:
        subschemas.append(schema["items"])
    for sub in subschemas:
        yield from schema_keywords(sub)


@pytest.mark.parametrize("name", [FRAME_SCHEMA, ANNOTATION_SCHEMA])
def test_input_schemas_use_only_handled_keywords(name):
    # a keyword the reference does not read would go unchecked by the field sweep
    assert set(schema_keywords(load_schema(name))) <= SCHEMA_KEYWORDS


SWEEP_VALUES = [None, True, -1, 0, 1.5, 2.0, math.nan, "", "x", [], {}]
DELETE = object()


@pytest.mark.parametrize("name, base", [(FRAME_SCHEMA, FRAME), (ANNOTATION_SCHEMA, ANNOTATION)])
def test_every_field_edit_gets_the_reference_errors(name, base):
    """At every node of the base record: delete it, then set it to each sweep value.

    The annotation reader must accept the edited record exactly when the
    walker and ``check_annotation`` do, and otherwise raise the first error
    they give.
    """
    for path, _ in nodes(base):
        for edit in [DELETE, *SWEEP_VALUES] if path else SWEEP_VALUES:
            record = copy.deepcopy(base)
            if not path:
                record = copy.deepcopy(edit)
            elif edit is DELETE:
                del at(record, path[:-1])[path[-1]]
            else:
                at(record, path[:-1])[path[-1]] = copy.deepcopy(edit)
            expected = list(schema_errors(record, load_schema(name), "$"))
            assert list(WALKERS[name](record)) == expected, (path, record)
            if name == ANNOTATION_SCHEMA:
                assert read_outcome(record) == explained_outcome(record), (path, record)


def read_outcome(record):
    """None when ``annotation_from_dict`` accepts ``record``, else its error's type and text."""
    try:
        ingest.annotation_from_dict(record)
    except (ingest.SchemaError, RecordValidationError) as exc:
        return type(exc), str(exc)
    return None


def explained_outcome(record):
    """None when the walker and ``check_annotation`` accept ``record``, else the first error."""
    errors = list(ingest._annotation_errors(record))
    if errors:
        return ingest.SchemaError, f"{errors[0][0]}: {errors[0][1]}"
    try:
        check_annotation(record)
    except RecordValidationError as exc:
        return RecordValidationError, str(exc)
    return None
