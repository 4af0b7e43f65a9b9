"""Command-line front end: generate states, reconstruct, verify, compare.

Exit codes: 0 success, 2 usage error, 3 file/parse error, 4 check or
comparison failure, 5 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .hilbert import (
    DensityMatrix,
    _at_least,
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
    _encode,
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
    _MIN_SAMPLES,
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


# Each entry pairs a route or check with the options of --tol, --num-bases and
# --shots it takes (``_refuse_others``).  Routes and checks are looked up by
# name when their entry runs, so one replaced on the module is the one that runs.
ROUTES = {
    "explicit": (lambda oracle, args: explicit_reconstruct(
        oracle, standard_basis(oracle.dim)), ("--shots",)),
    "explicit-real": (lambda oracle, args: explicit_reconstruct_real(
        oracle, standard_basis(oracle.dim)), ("--shots",)),
    "implicit": (lambda oracle, args: implicit_reconstruct(
        oracle, ImplicitConfig(tol=args.tol, seed=args.seed)), ("--tol", "--shots")),
    "haar-average": (lambda oracle, args: haar_average_reconstruct(
        oracle, _given(args.num_bases, 1000), args.seed), ("--num-bases", "--shots")),
    "pauli2d": (lambda oracle, args: pauli_reconstruct_2d(
        oracle, standard_basis(oracle.dim)), ("--shots",)),
}


def _refuse_others(args, takes, what: str) -> None:
    """A usage error for a ``--tol``, ``--num-bases`` or nonzero ``--shots``
    that ``what`` does not take."""
    given = {"--tol": args.tol is not None, "--num-bases": args.num_bases is not None,
             "--shots": bool(args.shots)}
    for option, is_given in given.items():
        if is_given and option not in takes:
            raise UsageError(f"{option} does not apply to {what}")


def cmd_reconstruct(args) -> int:
    route, takes = ROUTES[args.method]
    _refuse_others(args, takes, f"method {args.method}")
    field = "real" if args.method == "explicit-real" else "complex"
    oracle = _build_oracle(args, field)
    if args.method == "pauli2d" and oracle.dim != 2:
        raise UsageError("method pauli2d requires dim 2")
    report = route(oracle, args)
    if args.out:
        dump_json(report.to_json(), args.out)
        print(f"{report.method}: {report.query_count} queries, "
              f"residual {report.residual:.3e} -> {args.out}")
    else:
        print(_encode(report.to_json()))
    return EXIT_OK


# Checks run on (args, the --in matrix or None, the dimension), in the order
# ``--suite all`` runs them.  A suite that takes --dim takes --dim or --in;
# the others need --in.
SUITES = {
    "density": (lambda args, raw, d: check_density(raw, _given(args.tol, 1e-10)), ("--tol",)),
    # arguments run in order, so the oracle refuses a bad --shots before the
    # default tolerance takes its square root
    "additivity": (lambda args, raw, d: check_additivity(
        _oracle(args, raw), _given(args.num_bases, 100), args.seed,
        _given(args.tol, 5 / np.sqrt(args.shots) if args.shots else 1e-10)),
        ("--tol", "--num-bases", "--shots")),
    # pairwise comparisons are quadratic in the basis count, so the shared
    # --num-bases knob only applies when this suite runs alone
    "basis-independence": (lambda args, raw, d: check_basis_independence(
        _oracle(args, raw), _given(args.num_bases, 5) if args.suite != "all" else 5,
        args.seed, _given(args.tol, 1e-10)), ("--tol", "--num-bases", "--shots")),
    "unistochastic": (lambda args, raw, d: check_unistochastic(
        transition_matrix(haar_random_basis(d, args.seed), haar_random_basis(d, args.seed + 1)),
        _given(args.tol, 1e-12)), ("--tol", "--dim")),
    "haar-moment": (lambda args, raw, d: check_haar_moment(
        d, _given(args.num_bases, 100_000), args.seed), ("--num-bases", "--dim")),
}


def cmd_verify(args) -> int:
    entries = list(SUITES.values()) if args.suite == "all" else [SUITES[args.suite]]
    _refuse_others(args, {o for _, takes in entries for o in takes}, f"suite {args.suite}")
    if args.dim is not None and args.infile:
        raise UsageError("--dim and --in both fix the dimension; give one of them")
    dim_ok = all("--dim" in takes for _, takes in entries)
    if not args.infile and (args.dim is None or not dim_ok):
        raise UsageError(f"suite {args.suite} needs {'--dim or --in' if dim_ok else '--in'}")
    if args.suite == "all" and args.num_bases is not None:
        # the moment check's floor is the highest, so no suite runs on a count it refuses
        _at_least(args.num_bases, _MIN_SAMPLES, "num_samples")
    raw = matrix_from_json(load_json(args.infile)) if args.infile else None
    d = args.dim if raw is None else raw.shape[0]
    reports = [check(args, raw, d) for check, _ in entries]
    payload = [r.to_json() for r in reports]
    text = _encode(payload)  # before any output, so a report JSON cannot hold prints none
    width = max(len(r.check) for r in reports)
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        print(f"{r.check:<{width}}  {status}  deviation={r.deviation:.3e}  "
              f"tolerance={r.tolerance:.3e}")
    print(text)
    if args.out:
        dump_json(payload, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK


def cmd_compare(args) -> int:
    _at_least(args.tol, 0, "tol")
    a = _load_matrix(args.path_a)
    b = _load_matrix(args.path_b)
    if a.shape != b.shape:
        raise UsageError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # an overflow is rejected below
        diff = a - b
        distance = float(np.linalg.norm(diff))
        if distance == np.inf:  # the sum of squares overflows above ~1e154; hypot does not
            distance = float(np.hypot.reduce(np.abs(diff), axis=None))
    if not np.isfinite(distance):
        raise ValueError("the distance cannot be represented in float64")
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
                       help="tolerance method implicit must reach, or exit 5 "
                       "(default: whatever its one batch gives)")
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
