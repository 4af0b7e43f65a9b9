"""Traced mode: spans around the public entry points of the six gleason modules.

The tracer replaces each entry point with a wrapper while it is installed and
puts the originals back afterwards; ``gleason`` itself is not edited.  Every
call becomes a span (id, name, start, end, parent, op).  Spans stay in
memory in flat arrays and are written out once, when the run ends.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Module-level functions, by module: (attribute, span name).
FUNCTIONS = {
    "hilbert": [
        ("haar_basis_matrices", "hilbert.haar_basis_matrices"),
        ("nearest_density_matrix", "hilbert.nearest_density_matrix"),
    ],
    "reconstruct": [
        ("explicit_query_vectors", "reconstruct.explicit_query_vectors"),
        ("explicit_reconstruct", "reconstruct.explicit_reconstruct"),
        ("explicit_reconstruct_real", "reconstruct.explicit_reconstruct_real"),
        ("pauli_reconstruct_2d", "reconstruct.pauli_reconstruct_2d"),
        ("implicit_reconstruct", "reconstruct.implicit_reconstruct"),
        ("haar_average_reconstruct", "reconstruct.haar_average_reconstruct"),
    ],
    "verify": [
        ("check_haar_moment", "verify.check_haar_moment"),
        ("check_additivity", "verify.check_additivity"),
        ("check_basis_independence", "verify.check_basis_independence"),
    ],
    "serialize": [
        ("load_json", "serialize.load_json"),
        ("dump_json", "serialize.dump_json"),
        ("oracle_table_from_json", "serialize.oracle_table_from_json"),
    ],
    "cli": [
        ("main", "cli.main"),
        ("cmd_gen", "cli.gen"),
        ("cmd_reconstruct", "cli.reconstruct"),
        ("cmd_compare", "cli.compare"),
        ("cmd_verify", "cli.verify"),
    ],
}

# Methods, by (module, class, attribute): span name.  The validators of the
# value types share one span name, as do the oracle kernels' totals.
METHODS = {
    ("valuation", "ValuationOracle", "query_batch"): "valuation.query_batch",
    ("valuation", "ExactOracle", "_values"): "valuation.values.exact",
    ("valuation", "NoisyOracle", "_values"): "valuation.values.noisy",
    ("valuation", "TabulatedOracle", "_values"): "valuation.values.tabulated",
    ("hilbert", "UnitVector", "__post_init__"): "hilbert.validate",
    ("hilbert", "OrthonormalBasis", "__post_init__"): "hilbert.validate",
    ("hilbert", "DensityMatrix", "__post_init__"): "hilbert.validate",
}

VALUES = ("valuation.values.exact", "valuation.values.noisy", "valuation.values.tabulated")
ROUTES = ("explicit_reconstruct", "explicit_reconstruct_real", "pauli_reconstruct_2d",
          "implicit_reconstruct", "haar_average_reconstruct")
CHECKS = ("check_haar_moment", "check_additivity", "check_basis_independence")
COMMANDS = ("gen", "reconstruct", "compare", "verify", "main")


def _count(name: str):
    """Counter hook for a span: returns (counter name, amount) or None."""
    if name == "valuation.query_batch":
        return lambda args, kwargs, result: ("valuation.query_batch.rows", len(result))
    if name in VALUES:
        return lambda args, kwargs, result: ("valuation.values.rows", len(args[1]))
    if name == "hilbert.haar_basis_matrices":
        return lambda args, kwargs, result: ("hilbert.haar_basis_matrices.bases", len(result))
    if name == "serialize.load_json":
        return lambda args, kwargs, result: ("serialize.bytes_read", os.path.getsize(args[0]))
    if name == "serialize.dump_json":
        return lambda args, kwargs, result: ("serialize.bytes_written", os.path.getsize(args[1]))
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        # span columns
        self.s_id = array("q")
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_op = array("q")
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = _count(name)
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [self._next_id, perf(), 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(nid, frame, parent, end)
            if count is not None:
                key, amount = count(args, kwargs, result)
                self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    def _close(self, nid: int, frame: list, parent: int, end: float) -> None:
        sid, start, children = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - children
        self.s_id.append(sid)
        self.s_name.append(nid)
        self.s_start.append(start)
        self.s_end.append(end)
        self.s_parent.append(parent)
        self.s_op.append(self._op)

    def run_op(self, kind: str, fn):
        """Run one op as a root span; its spans share the op's number."""
        self._op += 1
        return self.wrap("op." + kind, fn)()

    def install(self) -> None:
        """Replace every entry point, wherever a gleason module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gleason" or n.startswith("gleason."))]
        originals = {}
        for mod_name, entries in FUNCTIONS.items():
            mod = sys.modules["gleason." + mod_name]
            for attr, span in entries:
                fn = getattr(mod, attr)
                originals[id(fn)] = self.wrap(span, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for (mod_name, cls_name, attr), span in METHODS.items():
            cls = getattr(sys.modules["gleason." + mod_name], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _get(self, table: list, name: str) -> float:
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each per traced op (``ops`` of them)."""
        calls = lambda n: self._get(self.calls, n) / ops
        total = lambda n: self._get(self.total, n) / ops
        own = lambda n: self._get(self.self_time, n) / ops
        counter = lambda n: self.counters.get(n, 0) / ops
        out = {
            "valuation.query_batch.calls": calls("valuation.query_batch"),
            "valuation.query_batch.rows": counter("valuation.query_batch.rows"),
            "valuation.query_batch.self_s": own("valuation.query_batch"),
            "valuation.values.s": sum(total(n) for n in VALUES),
            "hilbert.haar_basis_matrices.s": total("hilbert.haar_basis_matrices"),
            "hilbert.haar_basis_matrices.bases": counter("hilbert.haar_basis_matrices.bases"),
            "hilbert.nearest_density_matrix.s": total("hilbert.nearest_density_matrix"),
            "hilbert.nearest_density_matrix.calls": calls("hilbert.nearest_density_matrix"),
            "hilbert.validate.s": total("hilbert.validate"),
            "hilbert.validate.calls": calls("hilbert.validate"),
            "reconstruct.explicit_query_vectors.s": total("reconstruct.explicit_query_vectors"),
            "serialize.load_json.s": total("serialize.load_json"),
            "serialize.dump_json.s": total("serialize.dump_json"),
            "serialize.bytes_read": counter("serialize.bytes_read"),
            "serialize.bytes_written": counter("serialize.bytes_written"),
            "serialize.oracle_table_from_json.s": total("serialize.oracle_table_from_json"),
        }
        rows = out["valuation.query_batch.rows"]
        out["valuation.rows_per_call"] = rows / out["valuation.query_batch.calls"] if rows else 0.0
        value_rows = counter("valuation.values.rows")
        out["valuation.values.ns_per_row"] = (
            1e9 * out["valuation.values.s"] / value_rows if value_rows else 0.0)
        for n in VALUES:
            out[n + ".s"] = total(n)
        for r in ROUTES:
            out[f"reconstruct.{r}.self_s"] = own("reconstruct." + r)
            out[f"reconstruct.{r}.calls"] = calls("reconstruct." + r)
        for c in CHECKS:
            out[f"verify.{c}.self_s"] = own("verify." + c)
        for c in COMMANDS:
            out[f"cli.{c}.self_s"] = own("cli." + c)
        return out

    def write(self, path: Path) -> None:
        """Write all spans and the span-name table as a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.s_id, dtype=np.int64),
            name=np.frombuffer(self.s_name, dtype=np.uint16),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
            parent=np.frombuffer(self.s_parent, dtype=np.int64),
            op=np.frombuffer(self.s_op, dtype=np.int64),
        )
