"""Host-speed probe: a fixed reference kernel timed alongside the ops.

On a shared host a process runs up to 1.7x slower, or faster, for stretches
of many seconds, and CPU time slows as much as wall time, so neither clock
alone gives repeatable numbers.  The reference kernel below spends about a
quarter of its time on each kind of work the workloads do: interpreter work
(a loop and dict churn), a JSON round trip, numpy (small calls, eigh and a
batched QR) and streaming over an array.  Its inputs are fixed, and it never
touches ``gleason``.  A time measured while the kernel took ``ref`` seconds
is reported as ``time * NOMINAL_S / ref``: the time it would read at the host
speed at which the kernel takes ``NOMINAL_S``.  A change to the program moves
a reported time exactly as it moves the measured one.

No single kind of work tracks every workload: on a 2-core shared VM, LAPACK
and small numpy calls swung most with the host's speed, streaming and a
plain loop least, and the equal mix tracked all four workloads best.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel time at the reference host speed: about its median on a 2-core
# shared x86-64 VM with numpy 2.4.6 and one OpenBLAS thread.
NOMINAL_S = 0.006
# A cycle's scale uses the kernel times measured within this many seconds.
WINDOW_S = 1.0

_rng = np.random.default_rng(20190401)
_H = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_H = _H + _H.conj().T
_B = _rng.standard_normal((256, 4, 4)) + 1j * _rng.standard_normal((256, 4, 4))
_M = _rng.standard_normal((2000, 16))
_floats = _rng.standard_normal(1000).tolist()
_v = np.zeros(3)


def probe() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    table = {str(i): [i, 0.5 * i] for i in range(1500)}
    sum(len(v) for v in table.values())
    json.loads(json.dumps(_floats))
    for _ in range(100):
        np.abs(_v).sum()
    for _ in range(3):
        np.linalg.eigh(_H)
    np.linalg.qr(_B)
    for _ in range(16):
        (_M * _M).sum(axis=1)
    return time.perf_counter() - t0


def scales(at: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """For probes taken at times ``at`` that took ``ref`` seconds, the factor
    ``NOMINAL_S / median(ref within WINDOW_S)`` at each probe."""
    lo = np.searchsorted(at, at - WINDOW_S, side="left")
    hi = np.searchsorted(at, at + WINDOW_S, side="right")
    return np.array([NOMINAL_S / np.median(ref[a:b]) for a, b in zip(lo, hi)])


def scale_now(probes: int = 5) -> tuple[float, list[float]]:
    """Factor from ``probes`` kernel runs after one untimed warm-up run."""
    probe()
    ref = [probe() for _ in range(probes)]
    return NOMINAL_S / float(np.median(ref)), ref
