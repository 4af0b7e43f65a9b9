"""Benchmark launcher for gleason.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It pins BLAS and OpenMP to one thread,
starts ``worker.py`` processes one after another, and prints every metric by
name with its unit, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from ``BENCHMARK.json``: its ``end_to_end`` metrics with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.

With ``--trace 0`` one worker sets up and then measures for ``--seconds``,
and ``SETUP_PROBES`` more, half before it and half after, only set up;
``setup_s`` is the median set-up time of all of them.  With ``--trace 1`` a
single worker measures.

It exits non-zero without a result line when the checkout has no
``src/gleason`` or a worker fails.  Results, with the environment and the
source revision, are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    """SHA-256 over the paths and contents of the Python files under src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def start_worker(args, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    # Same import cost on every run: gleason is compiled from source each time
    # and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one gleason benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "gleason" / "__init__.py").is_file():
        raise BenchError(f"no gleason package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)

    # Set-up probes run before and after the measuring worker, so that the
    # median spans the run and not one stretch of a shared host's speed.
    probes = 0 if args.trace else SETUP_PROBES
    before = [start_worker(args, deadline, setup_only=True) for _ in range(probes // 2)]
    result = start_worker(args, deadline, setup_only=False)
    after = [start_worker(args, deadline, setup_only=True) for _ in range(probes - probes // 2)]
    setups = [r["setup_s"] for r in before + [result] + after]
    setups_raw = [r["setup_raw_s"] for r in before + [result] + after]

    if args.trace:
        wanted, values = spec["per_layer"], result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {k: result[k] for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                                         "queries_per_op", "ok_rate", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "src_sha256": source_digest(),
        "env": result["env"], "setup_samples_s": setups, "setup_unscaled_s": setups_raw,
        "cycles": result["cycles"], "tail": result["tail"], "unscaled": result["unscaled"],
        "probe_s": result["probe_s"], "cycle_scale": result["cycle_scale"], "ops": result["ops"],
        "failures": result["failures"], "metrics": metrics,
    }
    if args.trace:
        record["spans"] = result["spans"]
        record["spans_file"] = result["spans_file"]
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  cycles {result['cycles']}")
    print(f"env nproc={env['nproc']} cpus_usable={env['cpus_usable']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']!r} "
          f"threads={env['threads']} git={record['git_revision']} "
          f"src_sha256={record['src_sha256'][:16]}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        t = result["tail"]
        print(f"latency_tail_ms is p{t['percentile']:g}: {t['beyond']} of {t['samples']} "
              f"samples lie beyond it")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for why in result["failures"]:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
