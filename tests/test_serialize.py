"""Shared JSON matrix/vector/table formats."""

import json

import numpy as np
import pytest

from gleason.serialize import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    oracle_table_from_json,
    oracle_table_to_json,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(again, m)


def test_vector_round_trip():
    v = np.array([0.5, -0.25 + 1j, 0.0])
    vectors, _ = oracle_table_from_json(oracle_table_to_json(v, [0.5]))
    assert np.array_equal(vectors[0], v)


def test_matrix_schema_fields():
    payload = matrix_to_json(np.eye(2))
    assert payload["dim"] == 2
    assert payload["re"] == [[1.0, 0.0], [0.0, 1.0]]
    assert payload["im"] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "broken",
    [
        {"dim": 2, "re": [[1, 0], [0, 1]]},  # missing im
        {"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},  # wrong dim
        [1, 2, 3],
        "nope",
        # the file boundary takes JSON numbers only: no coercion of these
        {"dim": "2", "re": [["1", 0], [0, True]], "im": [[0, 0], [0, 0]]},
        {"dim": True, "re": [[1]], "im": [[0]]},
        {"dim": 1.0, "re": [[1]], "im": [[0]]},
        {"dim": 1e999, "re": [[1]], "im": [[0]]},  # json reads 1e999 as inf
        {"dim": 1, "re": [[True]], "im": [[0]]},
        {"dim": 1, "re": [[1]], "im": [["0"]]},
        {"dim": 1, "re": [[10**400]], "im": [[0]]},  # no float holds it
        {"dim": 1, "re": [[[1]]], "im": [[0]]},
        {"dim": 1, "re": {"a": [1]}, "im": [[0]]},
    ],
)
def test_matrix_malformed(broken):
    with pytest.raises(ValueError):
        matrix_from_json(broken)


def test_oracle_table_round_trip():
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vals = rng.random(4)
    back_v, back_p = oracle_table_from_json(oracle_table_to_json(vecs, vals))
    assert np.array_equal(back_v, vecs)
    assert np.array_equal(back_p, vals)


def test_oracle_table_rejects_mixed_dims():
    records = [
        *oracle_table_to_json(np.ones(2) / np.sqrt(2), [0.5]),
        *oracle_table_to_json(np.ones(3) / np.sqrt(3), [0.5]),
    ]
    with pytest.raises(ValueError):
        oracle_table_from_json(records)


def _table_with(change):
    records = oracle_table_to_json(np.eye(2), [0.25, 0.75])
    change(records)
    return records


@pytest.mark.parametrize(
    "change",
    [
        lambda t: t[0].update(value=None),
        lambda t: t[1].update(value="half"),
        lambda t: t[0]["vector"].update(re=[1.0]),  # ragged re
        lambda t: t[1]["vector"].pop("im"),
        lambda t: t[0]["vector"]["im"].__setitem__(1, None),
        lambda t: t[0]["vector"].update(dim=None),
        lambda t: t[1].update(value=[0.75]),
        lambda t: t.__setitem__(0, "record"),
        lambda t: t[0].update(value="0.25"),
        lambda t: t[1].update(value=True),
        lambda t: t[0].update(value=10**400),
        lambda t: t[0]["vector"].update(dim="2"),
        lambda t: t[0]["vector"].update(dim=2.0),
        lambda t: t[0]["vector"]["re"].__setitem__(0, "1"),
        lambda t: t[1]["vector"]["im"].__setitem__(1, False),
    ],
    ids=["null-value", "string-value", "ragged-re", "missing-im", "null-im-entry",
         "null-dim", "list-value", "non-object-record", "numeric-string-value",
         "bool-value", "huge-int-value", "string-dim", "float-dim",
         "string-re-entry", "bool-im-entry"],
)
def test_oracle_table_malformed(change):
    with pytest.raises(ValueError):
        oracle_table_from_json(_table_with(change))


def test_oracle_table_to_json_needs_one_value_per_vector():
    with pytest.raises(ValueError, match="one value per vector"):
        oracle_table_to_json(np.eye(3), [0.5, 0.5])


@pytest.mark.parametrize("table", [[], {}, "table", None])
def test_oracle_table_must_be_a_nonempty_list(table):
    with pytest.raises(ValueError, match="nonempty list"):
        oracle_table_from_json(table)


def test_oracle_table_wrong_length_vectors():
    records = _table_with(lambda t: [rec["vector"].update(dim=3) for rec in t])
    with pytest.raises(ValueError, match="shape"):
        oracle_table_from_json(records)


def test_load_json_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_json(path)


def test_dump_and_load(tmp_path):
    path = tmp_path / "m.json"
    m = np.diag([0.25, 0.75]).astype(complex)
    dump_json(matrix_to_json(m), path)
    assert np.array_equal(matrix_from_json(load_json(path)), m)


def test_dump_writes_one_compact_line(tmp_path):
    path = tmp_path / "m.json"
    payload = matrix_to_json(np.diag([0.25, 0.75]))
    dump_json(payload, path)
    assert path.read_text() == json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("obj, error", [
    ({"method": "x", "query_count": np.int64(3)}, TypeError),  # no JSON type
    ({"d": float("nan")}, ValueError),  # not strict JSON
    ({"d": [1.0, float("-inf")]}, ValueError),
])
def test_dump_encodes_before_opening(tmp_path, obj, error):
    """An object JSON cannot hold raises before the file is opened, so the
    file's old content is kept whole."""
    path = tmp_path / "m.json"
    dump_json(matrix_to_json(np.eye(2) / 2), path)
    old = path.read_bytes()
    with pytest.raises(error):
        dump_json(obj, path)
    assert path.read_bytes() == old
