"""Shared JSON formats for matrices, vectors, and tabulated-oracle files.

A matrix is ``{"dim": d, "re": [[...]], "im": [[...]]}`` with row-major
d-by-d arrays; a vector is the same with flat length-d arrays.  A
tabulated oracle is a JSON list of ``{"vector": {...}, "value": p}``
records.  All loaders take JSON numbers only (no booleans or strings) and
raise ``ValueError`` on malformed input so callers can map them to a
parse-error exit code.

Files are read by orjson, which takes RFC 8259 JSON in UTF-8 only: the
``NaN`` and ``Infinity`` literals, a number that overflows float64, a byte
order mark and invalid UTF-8 are invalid JSON, and an integer outside
[-2**63, 2**64) is read as a float.  Outputs are written by the standard
library's encoder, as one line of compact, strict JSON; orjson would write
many floats in another form (``1e-05`` as ``0.00001``) and NaN as null.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .hilbert import _square

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "oracle_table_to_json",
    "oracle_table_from_json",
    "load_json",
    "dump_json",
]


def matrix_to_json(m: np.ndarray) -> dict:
    m = _square(m, "matrix")
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    if not obj.keys() >= {"dim", "re", "im"}:
        raise ValueError("matrix JSON needs the fields dim, re and im")
    dim = obj["dim"]
    if type(dim) is not int:  # a bool is an int, but not a JSON number
        raise ValueError("matrix JSON dim must be an integer")
    re = _json_array(obj["re"], float, 2, "matrix JSON re")
    im = _json_array(obj["im"], float, 2, "matrix JSON im")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix JSON arrays are not of shape {(dim, dim)}")
    return _square(re + 1j * im, "matrix")


def oracle_table_to_json(vectors: np.ndarray, values: np.ndarray) -> list:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
    values = np.asarray(values, dtype=float).reshape(-1)
    if vectors.ndim != 2:
        raise ValueError(f"table vectors of shape {vectors.shape}: need a stack of rows")
    if vectors.shape[0] != values.size:
        raise ValueError("one value per vector required")
    if values.size == 0:
        raise ValueError("empty table")
    return [
        {"vector": {"dim": vec.size, "re": vec.real.tolist(), "im": vec.imag.tolist()},
         "value": float(val)}
        for vec, val in zip(vectors, values)
    ]


def _json_array(items: list, dtype: type, ndim: int, what: str) -> np.ndarray:
    """A list (of lists when ``ndim`` is 2) of finite JSON ints, or for a float
    ``dtype`` ints and floats, as an array; its entry types are read in one pass."""
    try:
        kinds = set(map(type, chain.from_iterable(items) if ndim == 2 else items))
        arr = np.asarray(items, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} malformed: {exc}") from exc
    kind = "integers" if dtype is int else "numbers"
    if not kinds <= {int, dtype} or arr.ndim != ndim or not np.isfinite(arr).all():
        raise ValueError(f"{what} malformed: need {ndim}-d finite JSON {kind}")
    return arr


def oracle_table_from_json(obj: list) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, list) or not obj:
        raise ValueError("oracle table JSON must be a nonempty list")
    for i, rec in enumerate(obj):
        if not (
            isinstance(rec, dict)
            and "value" in rec
            and isinstance(rec.get("vector"), dict)
            and rec["vector"].keys() >= {"dim", "re", "im"}
        ):
            raise ValueError(f"oracle table record {i} malformed")
    vecs = [rec["vector"] for rec in obj]
    dims = _json_array([v["dim"] for v in vecs], int, 1, "oracle table dim")
    if np.any(dims != dims[0]):
        raise ValueError("oracle table vectors have mixed dimensions")
    re = _json_array([v["re"] for v in vecs], float, 2, "oracle table re")
    im = _json_array([v["im"] for v in vecs], float, 2, "oracle table im")
    shape = (len(obj), int(dims[0]))
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"oracle table vector arrays are not of shape {shape[1:]}")
    values = _json_array([rec["value"] for rec in obj], float, 1, "oracle table value")
    return re + 1j * im, values


def load_json(path: str | Path):
    """The JSON value in the file at ``path``, parsed by orjson; text that is not
    RFC 8259 JSON in UTF-8 is a ``ValueError`` naming the file."""
    import orjson  # here, so that a process which reads no file does not load it

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _encode(obj) -> str:
    """One line of compact, strict JSON: NaN or infinity is a ``ValueError``."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def dump_json(obj, path: str | Path) -> None:
    """Write ``_encode(obj)`` and a newline to ``path``, encoding before the file
    is opened, so an object that cannot be encoded leaves the file as it was."""
    text = _encode(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
