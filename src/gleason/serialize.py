"""Shared JSON formats for matrices, vectors, and tabulated-oracle files.

A matrix is ``{"dim": d, "re": [[...]], "im": [[...]]}`` with row-major
d-by-d arrays; a vector is the same with flat length-d arrays.  A
tabulated oracle is a JSON list of ``{"vector": {...}, "value": p}``
records.  All loaders raise ``ValueError`` on malformed input so callers
can map them to a parse-error exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .hilbert import _square

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
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
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix JSON missing or malformed field: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(f"matrix JSON arrays are not of shape {(dim, dim)}")
    return _square(re + 1j * im, "matrix")  # rejects non-finite entries


def vector_to_json(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return {"dim": v.size, "re": v.real.tolist(), "im": v.imag.tolist()}


def oracle_table_to_json(vectors: np.ndarray, values: np.ndarray) -> list:
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
    values = np.asarray(values, dtype=float).reshape(-1)
    if vectors.shape[0] != values.size:
        raise ValueError("one value per vector required")
    return [
        {"vector": vector_to_json(vec), "value": float(val)}
        for vec, val in zip(vectors, values)
    ]


def _table_field(items: list, dtype: type, ndim: int, what: str) -> np.ndarray:
    """One field of every table record as an array of ``ndim`` dimensions."""
    try:
        arr = np.asarray(items, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"oracle table {what} malformed: {exc}") from exc
    if arr.ndim != ndim or not np.isfinite(arr).all():
        kind = "list of numbers" if ndim == 2 else "number"
        raise ValueError(f"oracle table {what} malformed: need one finite {kind} per record")
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
    dims = _table_field([v["dim"] for v in vecs], int, 1, "dim")
    if np.any(dims != dims[0]):
        raise ValueError("oracle table vectors have mixed dimensions")
    re = _table_field([v["re"] for v in vecs], float, 2, "re")
    im = _table_field([v["im"] for v in vecs], float, 2, "im")
    shape = (len(obj), int(dims[0]))
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"oracle table vector arrays are not of shape {shape[1:]}")
    values = _table_field([rec["value"] for rec in obj], float, 1, "value")
    return re + 1j * im, values


def load_json(path: str | Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def dump_json(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
