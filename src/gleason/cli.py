"""Command-line front end: generate states, reconstruct, verify, compare.

Exit codes: 0 success, 2 usage error, 3 file/parse error, 4 check or
comparison failure, 5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .hilbert import (
    DensityMatrix,
    haar_random_basis,
    random_density_matrix,
    standard_basis,
)
from .reconstruct import (
    ConvergenceError,
    ImplicitConfig,
    explicit_reconstruct,
    explicit_reconstruct_real,
    haar_average_reconstruct,
    implicit_reconstruct,
    pauli_reconstruct_2d,
    transition_matrix,
)
from .serialize import (
    dump_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    oracle_table_from_json,
)
from .valuation import (
    ExactOracle,
    NoisyOracle,
    OracleLookupError,
    TabulatedOracle,
    ValuationOracle,
)
from .verify import (
    _check_tol,
    check_additivity,
    check_basis_independence,
    check_density,
    check_haar_moment,
    check_unistochastic,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CHECK = 4
EXIT_NO_CONVERGENCE = 5


class UsageError(Exception):
    pass


def _load_matrix(path: str) -> np.ndarray:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a matrix or reconstruction report file")
    return matrix_from_json(obj["repaired"] if "repaired" in obj and "method" in obj else obj)


def _oracle(args, raw: np.ndarray, field: str = "complex") -> ValuationOracle:
    """The state ``raw`` valuated exactly, or with binomial shot noise when
    ``--shots`` > 0: the one meaning of ``--shots`` for a state file."""
    state = DensityMatrix(raw)  # a valid state: suite density deliberately needs none
    if args.shots:
        return NoisyOracle(state, shots=args.shots, seed=args.seed, field=field)
    return ExactOracle(state, field=field)


def _build_oracle(args, field: str) -> ValuationOracle:
    obj = load_json(args.infile)
    if not isinstance(obj, list):
        return _oracle(args, matrix_from_json(obj), field)
    if args.shots:
        raise UsageError("--shots applies to generated states, not oracle tables")
    vectors, values = oracle_table_from_json(obj)
    return TabulatedOracle(vectors, values, field=field)


def _given(value, default):
    """``value`` unless the option was not given (None); 0 is a value."""
    return default if value is None else value


def cmd_gen(args) -> int:
    rank = _given(args.rank, args.dim)
    state = random_density_matrix(args.dim, rank, args.seed, field=args.field)
    dump_json(matrix_to_json(state.matrix), args.out)
    return EXIT_OK


# Each route and check is looked up by name when its entry runs, so one
# replaced on the module is the one that runs.
ROUTES = {
    "explicit": lambda oracle, args: explicit_reconstruct(oracle, standard_basis(oracle.dim)),
    "explicit-real": lambda oracle, args: explicit_reconstruct_real(
        oracle, standard_basis(oracle.dim)),
    "implicit": lambda oracle, args: implicit_reconstruct(
        oracle, ImplicitConfig(tol=args.tol, seed=args.seed)),
    "haar-average": lambda oracle, args: haar_average_reconstruct(
        oracle, _given(args.num_bases, 1000), args.seed),
    "pauli2d": lambda oracle, args: pauli_reconstruct_2d(oracle, standard_basis(oracle.dim)),
}


def cmd_reconstruct(args) -> int:
    if args.tol is not None and args.method != "implicit":
        raise UsageError(f"--tol applies to method implicit, not {args.method}")
    if args.num_bases is not None and args.method != "haar-average":
        raise UsageError(f"--num-bases applies to method haar-average, not {args.method}")
    field = "real" if args.method == "explicit-real" else "complex"
    oracle = _build_oracle(args, field)
    if args.method == "pauli2d" and oracle.dim != 2:
        raise UsageError("method pauli2d requires dim 2")
    report = ROUTES[args.method](oracle, args)
    if args.out:
        dump_json(report.to_json(), args.out)
        print(f"{report.method}: {report.query_count} queries, "
              f"residual {report.residual:.3e} -> {args.out}")
    else:
        print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def _need_in(raw, suite: str) -> np.ndarray:
    if raw is None:
        raise UsageError(f"suite {suite} needs --in")
    return raw


def _dim(args, raw, suite: str) -> int:
    if args.dim is None and raw is None:
        raise UsageError(f"suite {suite} needs --dim or --in")
    return _given(args.dim, None if raw is None else raw.shape[0])


def _additivity(args, raw):
    tol = _given(args.tol, 5 / np.sqrt(args.shots) if args.shots else 1e-10)
    oracle = _oracle(args, _need_in(raw, "additivity"))
    return check_additivity(oracle, _given(args.num_bases, 100), args.seed, tol)


def _unistochastic(args, raw):
    d = _dim(args, raw, "unistochastic")
    s = transition_matrix(haar_random_basis(d, args.seed), haar_random_basis(d, args.seed + 1))
    return check_unistochastic(s, _given(args.tol, 1e-12))


# In this order ``--suite all`` runs them.
SUITES = {
    "density": lambda args, raw: check_density(
        _need_in(raw, "density"), _given(args.tol, 1e-10)),
    "additivity": _additivity,
    # pairwise comparisons are quadratic in the basis count, so the shared
    # --num-bases knob only applies when this suite runs alone
    "basis-independence": lambda args, raw: check_basis_independence(
        _oracle(args, _need_in(raw, "basis-independence")),
        _given(args.num_bases, 5) if args.suite != "all" else 5,
        args.seed, _given(args.tol, 1e-10)),
    "unistochastic": _unistochastic,
    "haar-moment": lambda args, raw: check_haar_moment(
        _dim(args, raw, "haar-moment"), _given(args.num_bases, 100_000), args.seed),
}


def cmd_verify(args) -> int:
    if args.shots and args.suite in ("density", "unistochastic", "haar-moment"):
        raise UsageError(f"--shots does not apply to suite {args.suite}")
    if args.tol is not None and args.suite == "haar-moment":
        raise UsageError("--tol does not apply to suite haar-moment (a fixed 4-sigma gate)")
    if args.num_bases is not None and args.suite in ("density", "unistochastic"):
        raise UsageError(f"--num-bases does not apply to suite {args.suite}")
    if args.dim is not None and args.infile:
        raise UsageError("--dim and --in both fix the dimension; give one of them")
    raw = matrix_from_json(load_json(args.infile)) if args.infile else None
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[suite](args, raw) for suite in suites]
    width = max(len(r.check) for r in reports)
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        print(f"{r.check:<{width}}  {status}  deviation={r.deviation:.3e}  "
              f"tolerance={r.tolerance:.3e}")
    payload = [r.to_json() for r in reports]
    print(json.dumps(payload))
    if args.out:
        dump_json(payload, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK


def cmd_compare(args) -> int:
    _check_tol(args.tol)
    a = _load_matrix(args.path_a)
    b = _load_matrix(args.path_b)
    if a.shape != b.shape:
        raise UsageError(f"shape mismatch: {a.shape} vs {b.shape}")
    distance = float(np.linalg.norm(a - b))
    print(f"frobenius_distance {distance:.17e}")
    return EXIT_OK if distance <= args.tol else EXIT_CHECK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses; parsing leaves it unchanged, so it is built once."""
    parser = argparse.ArgumentParser(
        prog="gleason",
        description="Reconstruct density matrices from ray-valuation oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random density matrix file")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--rank", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--field", choices=("complex", "real"), default="complex")
    p_gen.add_argument("--out", required=True)

    p_rec = sub.add_parser(
        "reconstruct",
        help="reconstruct a state from a valuation oracle",
        description="Reads either a density-matrix file (valuated exactly, or "
        "with binomial shot noise when --shots > 0) or a tabulated-oracle "
        "file. Basis-driven methods query the standard basis, so tabulated "
        "oracles must cover its query set.",
    )
    p_rec.add_argument("--method", choices=list(ROUTES), required=True)
    p_rec.add_argument("--in", dest="infile", required=True)
    p_rec.add_argument("--shots", type=int, default=0,
                       help="0 queries the state exactly")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--num-bases", type=int, default=None,
                       help="sample count for method haar-average (default 1000)")
    p_rec.add_argument("--tol", type=float, default=None,
                       help="residual-norm tolerance for method implicit "
                       "(default: the oracle's noise floor, at least 1e-8)")
    p_rec.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run identity checks")
    p_ver.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    p_ver.add_argument("--in", dest="infile", default=None)
    p_ver.add_argument("--dim", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--shots", type=int, default=0)
    p_ver.add_argument("--num-bases", type=int, default=None,
                       help="trial/sample/basis count, per suite")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--out", default=None)

    p_cmp = sub.add_parser("compare", help="Frobenius distance of two matrix files")
    p_cmp.add_argument("path_a")
    p_cmp.add_argument("path_b")
    p_cmp.add_argument("--tol", type=float, default=1e-10)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a handler replaced on the module is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OracleLookupError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
