"""Command-line interface.

Commands: classify, normal-form, bd classify|census|slice,
family lazy-discordant|separable, dynamics-check.  Outputs are JSON with
sorted keys or CSV, both byte-deterministic for a fixed command line.

Exit codes: 0 success, 1 invalid state or family parameters, 2 parse/usage
error, 3 classifier/dynamics inconsistency or a numerical solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._version import __version__
from .belldiag import bd_census, bd_region, bd_slice, census_to_csv, slice_to_csv
from .classify import DEFAULT_TOL, ConsistencyError, classify
from .dynamics import (
    DEFAULT_STEP,
    RATE_TOL_NONZERO,
    RATE_TOL_ZERO,
    laziness_dynamics_check,
)
from .families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    lazy_discordant_compose,
    separable_compose,
)
from .fano import decompose, normal_form
from .stateio import StateFileError, load_state_file, save_state_file, state_to_dict

EXIT_OK = 0
EXIT_INVALID_STATE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _lambda_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated reals")
    try:
        lam = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(-1.0 <= v <= 1.0 for v in lam):
        raise argparse.ArgumentTypeError("lambda components must lie in [-1, 1]")
    return lam


def _positive_tol(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _grid_size(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be >= 2")
    return value


def _unit_range(text):
    value = float(text)
    if not -1.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [-1, 1]")
    return value


def _step_size(text):
    value = float(text)
    if not 0.0 < value <= 1e-3:
        raise argparse.ArgumentTypeError(
            "must satisfy 0 < step <= 1e-3 (couplings have unit spectral norm)"
        )
    return value


def _classification_doc(cls, tol) -> dict:
    return {
        "physical": cls.physical,
        "pure": cls.pure,
        "product": cls.product,
        "zero_discord_a": cls.zero_discord_a,
        "lazy_a": cls.lazy_a,
        "lazy_gray_zone": cls.lazy_gray_zone,
        "separable": cls.separable,
        "witnesses": cls.witnesses,
        "diagnostics": cls.diagnostics,
        "tolerances": {"tol": tol},
        "version": __version__,
    }


def _cmd_classify(args) -> int:
    rho = load_state_file(args.state)
    cls = classify(rho, args.tol)
    _print_json(_classification_doc(cls, args.tol))
    if not cls.physical:
        d = cls.diagnostics
        print(
            "unphysical state: trace deviation "
            f"{d['trace_deviation']:.3e}, min eigenvalue {d['min_eigenvalue']:.3e}, "
            f"hermiticity residual {d['hermiticity_residual']:.3e}",
            file=sys.stderr,
        )
        return EXIT_INVALID_STATE
    return EXIT_OK


def _cmd_normal_form(args) -> int:
    rho = load_state_file(args.state)
    nf = normal_form(decompose(rho))
    _print_json(
        {
            "d": nf.d.tolist(),
            "sigma": nf.sigma.tolist(),
            "x_rot": nf.x_rot.tolist(),
            "y_rot": nf.y_rot.tolist(),
            "o_a": nf.o_a.tolist(),
            "o_b": nf.o_b.tolist(),
            "version": __version__,
        }
    )
    return EXIT_OK


def _cmd_bd(args) -> int:
    if args.bd_command == "classify":
        print(bd_region(args.lam, args.tol))
    elif args.bd_command == "census":
        report = bd_census(args.samples, args.seed, workers=args.workers)
        sys.stdout.write(census_to_csv(report))
    else:
        sl = bd_slice(args.axis, args.value, args.grid)
        sys.stdout.write(slice_to_csv(sl))
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.family_command == "lazy-discordant":
        rho = lazy_discordant_compose(
            LazyDiscordantParams(y1=args.y1, lambda2=args.l2, lambda3=args.l3)
        )
    else:
        rho = separable_compose(
            SeparableFamilyParams(
                p=args.p, alpha=args.alpha, beta=args.beta, a=args.a, b=args.b
            )
        )
    if args.out is None:
        _print_json(state_to_dict(rho))
    else:
        save_state_file(args.out, rho)
    return EXIT_OK


def _cmd_dynamics_check(args) -> int:
    rho = load_state_file(args.state)
    report = laziness_dynamics_check(
        rho,
        n_hamiltonians=args.hamiltonians,
        seed=args.seed,
        step=args.step,
        rate_tol=args.rate_tol,
        nonzero_tol=args.nonzero_tol,
    )
    _print_json(
        {
            "caution": report.caution,
            "commutator_norm": report.commutator_norm,
            "consistent": report.consistent,
            "gray_zone": report.gray_zone,
            "lazy": report.lazy,
            "max_abs_rate": report.max_abs_rate,
            "rates": [
                {
                    "caution": r.caution,
                    "rate": r.rate,
                    "seed": r.hamiltonian_seed,
                    "step": r.step,
                }
                for r in report.rates
            ],
            "version": __version__,
        }
    )
    if not report.consistent and not report.gray_zone:
        print(
            "dynamics check inconsistent: lazy="
            f"{report.lazy}, max |rate| = {report.max_abs_rate:.3e}",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazystates",
        description="Classify 2-qubit states into the laziness / discord / "
        "entanglement hierarchy.  Angles are radians.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument("--tol", type=_positive_tol, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("normal-form", help="local normal form of a state file")
    p.add_argument("state")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("bd", help="Bell-diagonal geometry")
    bd_sub = p.add_subparsers(dest="bd_command", required=True)
    q = bd_sub.add_parser("classify", help="region label of a cube point")
    q.add_argument("--lambda", dest="lam", type=_lambda_triple, required=True,
                   metavar="L1,L2,L3")
    q.add_argument("--tol", type=_positive_tol, default=1e-9)
    q.set_defaults(func=_cmd_bd)
    q = bd_sub.add_parser("census", help="Monte Carlo region census (CSV)")
    q.add_argument("--samples", type=_positive_int, required=True)
    q.add_argument("--seed", type=_nonnegative_int, required=True)
    q.add_argument("--workers", type=_positive_int, default=1)
    q.set_defaults(func=_cmd_bd)
    q = bd_sub.add_parser("slice", help="region labels on a plane (CSV)")
    q.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    q.add_argument("--value", type=_unit_range, required=True)
    q.add_argument("--grid", type=_grid_size, required=True)
    q.set_defaults(func=_cmd_bd)

    p = sub.add_parser("family", help="generate a witness-family state file")
    fam_sub = p.add_subparsers(dest="family_command", required=True)
    q = fam_sub.add_parser("lazy-discordant")
    q.add_argument("--y1", type=float, required=True)
    q.add_argument("--l2", type=float, required=True)
    q.add_argument("--l3", type=float, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_family)
    q = fam_sub.add_parser("separable")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--alpha", type=float, required=True, help="radians, in [0, pi]")
    q.add_argument("--beta", type=float, required=True, help="radians, in [0, pi]")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_family)

    p = sub.add_parser("dynamics-check", help="entropy-rate self test of laziness")
    p.add_argument("state")
    p.add_argument("--hamiltonians", type=_positive_int, default=20)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--step", type=_step_size, default=DEFAULT_STEP)
    p.add_argument("--rate-tol", type=_positive_tol, default=RATE_TOL_ZERO)
    p.add_argument("--nonzero-tol", type=_positive_tol, default=RATE_TOL_NONZERO)
    p.set_defaults(func=_cmd_dynamics_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except RuntimeError as exc:
        # a numerical solver that gave up, e.g. svd3 without convergence
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE


if __name__ == "__main__":
    sys.exit(main())
