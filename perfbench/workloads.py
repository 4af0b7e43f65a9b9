"""The four benchmark workloads: seeded inputs, timed ops, and a judge per op.

An op is one library call or one CLI command.  A workload is a list of op
kinds that repeats in cycles; ``cycle(c)`` returns the ops of cycle ``c``.
All inputs are built from the workload seed before timing starts.  Only
``Op.run`` is timed.  ``Op.judge`` runs afterwards: it checks the output and
the queries the op charged, and returns ``(queries, failure or None)``.

Judges use numpy and the standard library only, never ``gleason``, so a
traced run does not charge judging to a layer of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from gleason import cli, hilbert, reconstruct, serialize, valuation, verify

# Probability with which one statistical judgement may reject a correct
# output.  Runs have at most ~10^4 ops, so a correct program fails no op on
# any seed in practice.
DELTA = 1e-18
EXACT_TOL = 1e-10
SHOTS = 10_000


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple[int, str | None]]


def shot_noise_bound(m: int, shots: int) -> float:
    """Frobenius radius around the hidden state that holds the explicit
    estimate from ``m`` binomial valuations, except with probability DELTA.

    Each valuation error is sub-Gaussian with variance proxy 1/(4 shots),
    and polarization makes ||estimate - rho||_F^2 at most the sum of the m
    squared valuation errors, so the tail bound of Hsu, Kakade and Zhang
    (2012) for a sum of sub-Gaussian squares applies.
    """
    x = math.log(1 / DELTA)
    return math.sqrt((m + 2 * math.sqrt(m * x) + 2 * x) / (4 * shots))


def haar_average_bound(dim: int, num_bases: int, purity: float) -> float:
    """Frobenius radius that holds ``(d+1) <rho_P> - I`` around the hidden
    state, except with probability DELTA.

    Each decohered state X has ||X - E X||_F <= sqrt(2) and, for a Haar
    basis, E ||X - E X||_F^2 = (d tr(rho^2) - 1) / (d+1)^2.  Bernstein's
    inequality for sums of bounded vectors in a Hilbert space (Pinelis 1994)
    bounds the mean.
    """
    sigma2 = max(dim * purity - 1.0, 0.0) / (dim + 1) ** 2
    c = math.sqrt(2.0)
    ln = math.log(2 / DELTA)
    t = c * ln / 3 + math.sqrt((c * ln / 3) ** 2 + 2 * ln * num_bases * sigma2)
    return (dim + 1) * t / num_bases


def haar_moment_bound(dim: int, num_samples: int) -> float:
    """Bound on the largest entry deviation ``check_haar_moment`` may report
    on a correct program, except with probability DELTA.

    A sampled entry x = sum_i q_ai conj(q_bi q_ci) q_di has |x| <= 1 and,
    by Cauchy-Schwarz, |x|^2 <= sum_i |q_ai q_bi|^2, whose Haar mean is at
    most 2/(d+1).  Bernstein's inequality on the real and imaginary parts,
    with a union over the 2 d^4 parts, bounds the deviation of the mean.
    """
    n, var, spread = num_samples, 2.0 / (dim + 1), 2.0
    ln = math.log(4 * dim**4 / DELTA)
    b = 2 * spread * ln / 3
    t = (b + math.sqrt(b * b + 8 * n * var * ln)) / (2 * n)
    return math.sqrt(2) * t


def _frob(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _audit(report, oracle, budget: int | None) -> str | None:
    """Charged-query check: report, oracle counter and budget must agree."""
    if report.query_count != oracle.query_count:
        return (f"report charges {report.query_count} queries, "
                f"oracle counted {oracle.query_count}")
    if budget is not None and oracle.query_count != budget:
        return f"{oracle.query_count} queries charged, budget is {budget}"
    return None


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


class Workload:
    """Base: a named op cycle with the tail percentile it reports.  Cycle
    ``c`` draws its inputs from pool entry ``c % POOL``."""

    name = ""
    tail_pct = 90.0
    POOL = 1

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ExplicitMix(Workload):
    """explicit and explicit-real at d in {2,4,8,16,32}, plus pauli2d, each
    op in a fresh Haar basis; one op in four is shot-noisy.

    The eleven kinds put the median inside explicit-real-d8's latencies.
    With an even count it would fall in the gap between the d=4 and d=8 ops,
    where it jumps from run to run.
    """

    name = "explicit-mix"
    tail_pct = 95.0
    DIMS = (2, 4, 8, 16, 32)
    POOL = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.kinds = []  # (label, route, field, dim, budget)
        for d in self.DIMS:
            self.kinds.append((f"explicit-d{d}", "explicit_reconstruct", "complex", d, 2 * d * d - d))
        for d in self.DIMS:
            self.kinds.append((f"explicit-real-d{d}", "explicit_reconstruct_real", "real", d, d * d))
        self.kinds.append(("pauli2d", "pauli_reconstruct_2d", "complex", 2, 6))
        self.inputs = []
        for _label, _route, field, d, _budget in self.kinds:
            pool = []
            for s_state, s_basis in zip(_seeds(rng, self.POOL), _seeds(rng, self.POOL)):
                pool.append((hilbert.random_density_matrix(d, d, s_state, field=field),
                             hilbert.haar_random_basis(d, s_basis, field=field)))
            self.inputs.append(pool)
        self.noise_seed = _seeds(rng, 1)[0]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for j, (label, route, field, d, budget) in enumerate(self.kinds):
            state, basis = self.inputs[j][c % self.POOL]
            noisy = (j + c) % 4 == 0
            noise_seed = self.noise_seed + c * len(self.kinds) + j if noisy else None
            ops.append(self._op(label + ("-noisy" if noisy else ""), route, field,
                                state, basis, budget, noise_seed))
        return ops

    @staticmethod
    def _op(kind, route, field, state, basis, budget, noise_seed) -> Op:
        def run():
            if noise_seed is None:
                oracle = valuation.ExactOracle(state, field=field)
            else:
                oracle = valuation.NoisyOracle(state, shots=SHOTS, seed=noise_seed, field=field)
            return getattr(reconstruct, route)(oracle, basis), oracle

        tol = EXACT_TOL if noise_seed is None else shot_noise_bound(budget, SHOTS)

        def judge(out):
            report, oracle = out
            why = _audit(report, oracle, budget)
            if why is None:
                err = _frob(report.estimate, state.matrix)
                if not err <= tol:
                    why = f"estimate off by {err:.3e} (Frobenius), limit {tol:.3e}"
            return oracle.query_count, why

        return Op(kind, run, judge)


class ImplicitSpectral(Workload):
    """implicit_reconstruct on exact full-rank states at d in {4,6,8}.

    The states share one fixed spectrum (ratio 0.6 between neighbours) and
    differ in their Haar eigenbasis, so the seed moves the ascent's start
    points and frame but hardly the work an op needs.
    """

    name = "implicit-spectral"
    tail_pct = 75.0
    DIMS = (4, 6, 8)
    POOL = 16
    RATIO = 0.6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for d in self.DIMS:
            spectrum = self.RATIO ** np.arange(d)
            spectrum /= spectrum.sum()
            pool = []
            for s_basis, s_cfg in zip(_seeds(rng, self.POOL), _seeds(rng, self.POOL)):
                u = hilbert.haar_random_basis(d, s_basis).matrix
                m = (u * spectrum) @ u.conj().T
                pool.append((hilbert.DensityMatrix((m + m.conj().T) / 2),
                             reconstruct.ImplicitConfig(seed=s_cfg)))
            self.inputs[d] = pool
        self.first_count: dict[tuple[int, int], int] = {}

    def cycle(self, c: int) -> list[Op]:
        return [self._op(d, c % self.POOL) for d in self.DIMS]

    def _op(self, d: int, p: int) -> Op:
        state, cfg = self.inputs[d][p]
        want = np.linalg.eigvalsh(state.matrix)

        def run():
            oracle = valuation.ExactOracle(state)
            return reconstruct.implicit_reconstruct(oracle, cfg), oracle

        def judge(out):
            report, oracle = out
            why = _audit(report, oracle, None)
            first = self.first_count.setdefault((d, p), oracle.query_count)
            if why is None and oracle.query_count != first:
                why = f"{oracle.query_count} queries, {first} on the same input before"
            if why is None:
                got = np.linalg.eigvalsh((report.estimate + report.estimate.conj().T) / 2)
                ev_err = float(np.max(np.abs(got - want)))
                err = _frob(report.estimate, state.matrix)
                if not ev_err <= 1e-9:
                    why = f"eigenvalues off by {ev_err:.3e}"
                elif not err <= 1e-6:
                    why = f"estimate off by {err:.3e} (Frobenius)"
            return oracle.query_count, why

        return Op(f"implicit-d{d}", run, judge)


class HaarMonteCarlo(Workload):
    """haar_average_reconstruct at d=4 and d=8, and check_haar_moment at d=4,
    each over NUM_BASES Haar bases."""

    name = "haar-monte-carlo"
    tail_pct = 75.0
    NUM_BASES = 4096
    POOL = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.states = {
            d: [hilbert.random_density_matrix(d, d, s) for s in _seeds(rng, self.POOL)]
            for d in (4, 8)
        }
        self.op_seeds = _seeds(rng, self.POOL)

    def cycle(self, c: int) -> list[Op]:
        p = c % self.POOL
        return [self._average(4, p), self._average(8, p), self._moment(4, p)]

    def _average(self, d: int, p: int) -> Op:
        state, seed, n = self.states[d][p], self.op_seeds[p], self.NUM_BASES
        purity = float(np.real(np.trace(state.matrix @ state.matrix)))
        tol = haar_average_bound(d, n, purity)

        def run():
            oracle = valuation.ExactOracle(state)
            return reconstruct.haar_average_reconstruct(oracle, n, seed), oracle

        def judge(out):
            report, oracle = out
            why = _audit(report, oracle, d * n)
            est = report.estimate
            if why is None:
                trace_err = abs(np.trace(est) - 1.0)
                err = _frob(est, state.matrix)
                if not trace_err <= EXACT_TOL:
                    why = f"trace off by {trace_err:.3e}"
                elif not _frob(est, est.conj().T) <= EXACT_TOL:
                    why = "estimate is not Hermitian"
                elif not err <= tol:
                    why = f"estimate off by {err:.3e} (Frobenius), limit {tol:.3e}"
            return oracle.query_count, why

        return Op(f"haar-average-d{d}", run, judge)

    def _moment(self, d: int, p: int) -> Op:
        seed, n = self.op_seeds[p], self.NUM_BASES
        tol = haar_moment_bound(d, n)

        def run():
            return verify.check_haar_moment(d, n, seed)

        def judge(report):
            dev = report.context.get("max_abs_deviation")
            why = None
            if report.context.get("num_samples") != n or report.context.get("dim") != d:
                why = f"report context {report.context} does not match the call"
            elif not (isinstance(dev, float) and dev <= tol):
                why = f"moment deviation {dev!r}, limit {tol:.3e}"
            return 0, why

        return Op(f"haar-moment-d{d}", run, judge)


def _read_matrix(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


class CliFiles(Workload):
    """In-process ``gleason.cli.main`` over files in a scratch directory:
    gen, reconstruct from a state file and from a tabulated-oracle file at
    d=16, compare, and verify density, additivity and basis-independence at
    d=8.  The seven kinds put the median inside one kind's latencies."""

    name = "cli-files"
    tail_pct = 90.0
    TABLE_DIM = 16
    VERIFY_DIM = 8
    POOL = 4
    ADDITIVITY_TRIALS = 50
    BASIS_COUNT = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        d = self.TABLE_DIM
        self.state16 = hilbert.random_density_matrix(d, d, _seeds(rng, 1)[0])
        self.state_file = str(workdir / "state16.json")
        self.table_file = str(workdir / "table16.json")
        serialize.dump_json(serialize.matrix_to_json(self.state16.matrix), self.state_file)
        rows = reconstruct.explicit_query_vectors(hilbert.standard_basis(d))
        values = valuation.ExactOracle(self.state16).query_batch(rows)
        serialize.dump_json(serialize.oracle_table_to_json(rows, values), self.table_file)
        self.gen_seeds = _seeds(rng, self.POOL)
        self.verify_seeds = _seeds(rng, self.POOL)
        self.gen_expected = [
            hilbert.random_density_matrix(self.VERIFY_DIM, self.VERIFY_DIM, s).matrix
            for s in self.gen_seeds
        ]
        self.first_count: dict[int, int] = {}
        # Oracles are built inside the CLI, so count the queries of every
        # oracle constructed during a command.
        self.created: list = []
        self._init = valuation.ValuationOracle.__init__
        created, init = self.created, self._init

        def counting_init(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            created.append(oracle)

        valuation.ValuationOracle.__init__ = counting_init

    def close(self) -> None:
        valuation.ValuationOracle.__init__ = self._init

    def _cli(self, kind: str, argv: list[str], judge) -> Op:
        created = self.created

        def run():
            created.clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue(), sum(o.query_count for o in created)

        def checked(out):
            rc, text, queries = out
            if rc != 0:
                return queries, f"exit code {rc}: {text.strip()[-200:]}"
            return queries, judge(text, queries)

        return Op(kind, run, checked)

    def cycle(self, c: int) -> list[Op]:
        p = c % self.POOL
        d8, d16 = self.VERIFY_DIM, self.TABLE_DIM
        state8 = str(self.dir / f"state8-{p}.json")
        from_state = str(self.dir / "report-state.json")
        from_table = str(self.dir / "report-table.json")
        vseed = str(self.verify_seeds[p])
        expected8 = self.gen_expected[p]

        def judge_gen(text, queries):
            m = _read_matrix(json.loads(Path(state8).read_text()))
            if queries != 0:
                return f"gen charged {queries} queries"
            if m.shape != expected8.shape or not np.max(np.abs(m - expected8)) <= 1e-15:
                return "generated state differs from random_density_matrix"
            return None

        def judge_report(path):
            def judge(text, queries):
                report = json.loads(Path(path).read_text())
                budget = 2 * d16 * d16 - d16
                if report.get("method") != "explicit":
                    return f"report method {report.get('method')!r}"
                if not report.get("query_count") == queries == budget:
                    return (f"report charges {report.get('query_count')}, oracle counted "
                            f"{queries}, budget {budget}")
                err = _frob(_read_matrix(report["estimate"]), self.state16.matrix)
                if not err <= EXACT_TOL:
                    return f"estimate off by {err:.3e} (Frobenius)"
                return None
            return judge

        def judge_compare(text, queries):
            fields = text.split()
            if len(fields) != 2 or fields[0] != "frobenius_distance":
                return f"unexpected compare output {text!r}"
            if not float(fields[1]) <= EXACT_TOL:
                return f"compare reports {fields[1]}"
            return None

        def judge_verify(check, budget):
            def judge(text, queries):
                payload = json.loads(text.strip().splitlines()[-1])
                if len(payload) != 1 or payload[0]["check"] != check:
                    return f"unexpected verify payload {payload!r}"
                if not (payload[0]["pass"] and payload[0]["deviation"] <= EXACT_TOL):
                    return f"{check} deviation {payload[0]['deviation']!r}"
                want = budget if budget is not None else self.first_count.setdefault(p, queries)
                if queries != want:
                    return f"{queries} queries charged, expected {want}"
                return None
            return judge

        bi_budget = self.BASIS_COUNT * (2 * d8 * d8 - d8)
        return [
            self._cli("gen", ["gen", "--dim", str(d8), "--seed", str(self.gen_seeds[p]),
                              "--out", state8], judge_gen),
            self._cli("verify-density", ["verify", "--suite", "density", "--in", state8],
                      judge_verify("density", 0)),
            self._cli("reconstruct-state", ["reconstruct", "--method", "explicit",
                                            "--in", self.state_file, "--out", from_state],
                      judge_report(from_state)),
            self._cli("reconstruct-table", ["reconstruct", "--method", "explicit",
                                            "--in", self.table_file, "--out", from_table],
                      judge_report(from_table)),
            self._cli("compare", ["compare", from_table, self.state_file, "--tol", "1e-10"],
                      judge_compare),
            self._cli("verify-additivity",
                      ["verify", "--suite", "additivity", "--in", state8, "--seed", vseed,
                       "--num-bases", str(self.ADDITIVITY_TRIALS)],
                      judge_verify("additivity", None)),
            self._cli("verify-basis-independence",
                      ["verify", "--suite", "basis-independence", "--in", state8,
                       "--seed", vseed, "--num-bases", str(self.BASIS_COUNT)],
                      judge_verify("basis-independence", bi_budget)),
        ]


WORKLOADS = {w.name: w for w in (ExplicitMix, ImplicitSpectral, HaarMonteCarlo, CliFiles)}
