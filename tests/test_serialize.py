"""Shared JSON matrix/vector/table formats."""

import json
import math
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gleason.hilbert import haar_random_basis, random_density_matrix
from gleason.reconstruct import (
    explicit_query_vectors,
    explicit_reconstruct,
    explicit_reconstruct_real,
)
from gleason.serialize import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    oracle_table_from_json,
    oracle_table_to_json,
)
from gleason.valuation import ExactOracle
from gleason.verify import check_additivity, check_basis_independence, check_density


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


def test_oracle_table_to_json_needs_a_stack_of_rows():
    # a (2, 2, 2) stack would be written as records its reader rejects
    with pytest.raises(ValueError, match="need a stack of rows"):
        oracle_table_to_json(np.ones((2, 2, 2)) / 2, [0.5, 0.5])


def test_oracle_table_to_json_rejects_an_empty_table():
    # an empty list is no table to its reader
    with pytest.raises(ValueError, match="empty table"):
        oracle_table_to_json(np.zeros((0, 3)), [])


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


def test_only_reading_a_file_loads_the_parser(tmp_path):
    # a process that reads no file, such as a library user's, pays none of
    # orjson's import time or memory
    path = tmp_path / "m.json"
    dump_json(matrix_to_json(np.eye(1)), path)
    code = ("import sys; from gleason import cli; print('orjson' in sys.modules); "
            f"cli.load_json({str(path)!r}); print('orjson' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


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


def typed(obj):
    """``obj`` with every scalar replaced by its type and ``repr``, so equal
    results hold the same types and the same float bits (``-0.0`` included)."""
    if isinstance(obj, dict):
        return {key: typed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [typed(value) for value in obj]
    return type(obj), repr(obj)


def test_written_files_read_back_as_the_standard_parser_reads_them(tmp_path):
    """A state, a report, a table and a verify payload, each as ``dump_json``
    writes it, parse to the same values and types as ``json.loads`` gives."""
    path = tmp_path / "out.json"

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           field=st.sampled_from(["complex", "real"]))
    def check(d, seed, field):
        rho = random_density_matrix(d, d, seed, field=field)
        oracle = ExactOracle(rho, field=field)
        basis = haar_random_basis(d, seed, field=field)
        route = explicit_reconstruct if field == "complex" else explicit_reconstruct_real
        rows = explicit_query_vectors(basis, field)
        checks = [check_density(rho.matrix), check_additivity(ExactOracle(rho), 3, seed)]
        if d <= 8:  # it repeats the explicit route once per basis
            checks.append(check_basis_independence(ExactOracle(rho), 2, seed))
        for obj in (matrix_to_json(rho.matrix), route(oracle, basis).to_json(),
                    oracle_table_to_json(rows, oracle.query_batch(rows)),
                    [r.to_json() for r in checks]):
            dump_json(obj, path)
            assert typed(load_json(path)) == typed(json.loads(path.read_text()))

    check()


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: math.isfinite(bits_to_float(b)))


def test_numbers_parse_as_the_standard_parser_parses_them(tmp_path):
    """Finite floats from any 64-bit pattern (subnormals, -0.0 and 5e-324
    too) and integers within 2**63 read back bit for bit, in their own type."""
    path = tmp_path / "numbers.json"

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(bits=st.lists(FINITE_BITS, max_size=200),
           ints=st.lists(st.integers(-2**63, 2**63), max_size=20))
    @example(bits=[0, 1, 2**63, 2**63 + 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
                   0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF],
             ints=[0, -1, 2**53 + 1, -2**63, 2**63 - 1, 2**63])
    def check(bits, ints):
        numbers = [*map(bits_to_float, bits), *ints]
        path.write_text(json.dumps(numbers))
        assert typed(load_json(path)) == typed(json.loads(path.read_text())) == typed(numbers)

    check()
