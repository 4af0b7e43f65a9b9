"""One benchmark process: set up a workload, then run its ops in a closed loop.

``run.py`` starts this file with BLAS and OpenMP already pinned to one
thread in the environment.  The worker imports ``gleason`` from the
checkout's ``src/``, builds the workload's inputs, warms up with one cycle,
and then runs whole cycles until ``--seconds`` have passed, timing the
``hostspeed`` reference kernel before each cycle.  Reported times are scaled
by it to reference host speed.  It prints one JSON object with its
measurements on stdout.

With ``--setup-only`` it stops where the first timed op would start and
reports only its set-up time.  With ``--trace 1`` every cycle runs twice,
first untraced and then with the tracer installed, so the tracing overhead
is measured on identical ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # older numpy has no dict mode; the result still stands
        blas = "unknown"
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
    }


def run_op(op, tracer) -> tuple[float, int, str | None]:
    """Time one op, then judge it.  An exception is a failed op."""
    t0 = time.perf_counter()
    try:
        out = tracer.run_op(op.kind, op.run) if tracer else op.run()
    except Exception as exc:
        return time.perf_counter() - t0, 0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        queries, why = op.judge(out)
    except Exception as exc:
        return latency, 0, f"judge raised {type(exc).__name__}: {exc}"
    return latency, queries, why


def tail(latencies: np.ndarray, preferred: float) -> tuple[float, float, int]:
    """Latency at the workload's percentile, or at the next lower one of
    TAIL_LADDER while fewer than ten samples lie beyond it."""
    for pct in [p for p in TAIL_LADDER if p <= preferred]:
        value = float(np.percentile(latencies, pct))
        beyond = int(np.sum(latencies > value))
        if beyond >= 10:
            break
    return pct, value, beyond


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent just before it started "
                        "this process (CLOCK_MONOTONIC, shared by processes on Linux)")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in wl.cycle(0):  # warm-up: one op of every kind, not counted
            try:
                op.run()
            except Exception:
                pass
        gc.collect()
        setup_s = time.perf_counter() - args.spawned_at
        scale, ref = hostspeed.scale_now()
        setup = {"setup_s": setup_s * scale, "setup_raw_s": setup_s, "setup_ref_s": ref}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(wl, args)
        result.update(setup)
        result["env"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    cycles = {False: [], True: []}  # traced? -> per cycle, its op latencies
    keys: list[tuple[str, int]] = []  # untraced ops in order: (kind, pool entry)
    probe_at: list[float] = []  # per cycle: when the host-speed probe ran
    probe_s: list[float] = []  # and how long it took
    queries: list[int] = []
    failures: list[str] = []
    c = 0
    begin = time.perf_counter()
    while True:
        probe_at.append(time.perf_counter())
        probe_s.append(hostspeed.probe())
        for traced in (False, True) if tracer else (False,):
            latencies = []
            if traced:
                tracer.install()
            try:
                for op in wl.cycle(c):
                    latency, q, why = run_op(op, tracer if traced else None)
                    latencies.append(latency)
                    if not traced:
                        keys.append((op.kind, c % wl.POOL))
                    queries.append(q)
                    if why is not None:
                        failures.append(f"{op.kind}: {why}")
            finally:
                if traced:
                    tracer.uninstall()
            cycles[traced].append(latencies)
        c += 1
        if time.perf_counter() - begin >= args.seconds:
            break

    scale = hostspeed.scales(np.asarray(probe_at), np.asarray(probe_s))
    raw = np.concatenate(cycles[False])
    lat = np.concatenate([np.asarray(l) * f for l, f in zip(cycles[False], scale)])
    pct, tail_s, beyond = tail(lat, wl.tail_pct)
    result = {
        "cycles": c,
        "attempted": len(queries),
        "failed": len(failures),
        "failures": failures[:20],
        "ops_per_s": lat.size / float(lat.sum()),
        "latency_p50_ms": 1e3 * float(np.median(lat)),
        "latency_tail_ms": 1e3 * tail_s,
        "tail": {"percentile": pct, "beyond": beyond, "samples": int(lat.size)},
        "queries_per_op": float(np.mean(queries)),
        "ok_rate": 1.0 - len(failures) / len(queries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unscaled": {
            "ops_per_s": raw.size / float(raw.sum()),
            "latency_p50_ms": 1e3 * float(np.median(raw)),
            "latency_p95_ms": 1e3 * float(np.percentile(raw, 95)),
        },
        "probe_s": probe_s,
        "cycle_scale": scale.tolist(),
        "ops": [[k, p, lt] for (k, p), lt in zip(keys, raw.tolist())],
    }
    if tracer is not None:
        traced = np.concatenate(cycles[True])
        layers = tracer.layer_metrics(traced.size)
        # each cycle ran untraced and then traced, back to back
        layers["trace.overhead"] = float(np.median(
            [sum(t) / sum(u) for u, t in zip(cycles[False], cycles[True])]))
        result["layers"] = layers
        spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.s_id)
    return result


if __name__ == "__main__":
    sys.exit(main())
