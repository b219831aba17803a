"""Command-line interface.

Commands: classify, normal-form, bd classify|census|slice,
family lazy-discordant|separable, dynamics-check.  Outputs are JSON with
sorted keys or CSV, both byte-deterministic for a fixed command line.

The CLI only parses: argparse rejects a flag that is not a number, and the
library call the flag feeds rejects one out of range with InvalidArgument.

Exit codes: 0 success, 1 invalid state or family parameters, 2 parse/usage
error, an argument out of range, an unreadable or unwritable state file or
a request too large for memory, 3 classifier/dynamics inconsistency or a
numerical solver failure, 130 (128 + SIGINT) interrupted by Ctrl-C, 141
(128 + SIGPIPE) stdout closed by its reader before the output was written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from ._version import __version__
from .belldiag import (
    MAX_WORKERS,
    bd_census,
    bd_region,
    bd_slice,
    census_to_csv,
    slice_to_csv,
)
from .classify import ConsistencyError, classify
from .dynamics import DEFAULT_STEP, laziness_dynamics_check
from .families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    lazy_discordant_compose,
    separable_compose,
)
from .fano import DEFAULT_TOL, gate, normal_form
from .matcore import InvalidArgument
from .stateio import StateFileError, load_state_file, save_state_file, state_to_dict

EXIT_OK = 0
EXIT_INVALID_STATE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _lambda_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated reals")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_classify(args) -> int:
    rho = load_state_file(args.state)
    cls = classify(rho, args.tol)
    _print_json({**vars(cls), "tolerances": {"tol": args.tol}, "version": __version__})
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
    # one gate pass, read as decompose reads it and then as certified: an
    # overflowing norm is reported as such, not as unphysical
    g = gate(load_state_file(args.state), "decompose")
    p = g.params()
    g.certified("normal-form")
    fields = {key: value.tolist() for key, value in vars(normal_form(p)).items()}
    _print_json({**fields, "version": __version__})
    return EXIT_OK


def _cmd_bd(args) -> int:
    if args.bd_command == "classify":
        print(bd_region(args.lam))
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
    report = laziness_dynamics_check(rho, args.hamiltonians, args.seed, args.step)
    # rates[k] is the rate under the coupling of seed + k
    _print_json({**vars(report), "seed": args.seed, "step": args.step, "version": __version__})
    if not report.consistent and not report.gray_zone:
        print(
            "dynamics check inconsistent: lazy="
            f"{report.lazy}, max |rate| = {report.max_abs_rate:.3e}",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # and every subparser: a usage error is one stderr line, no usage text
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lazystates",
        description="Classify 2-qubit states into the laziness / discord / "
        "entanglement hierarchy.  Angles are radians.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("normal-form", help="local normal form of a state file")
    p.add_argument("state")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("bd", help="Bell-diagonal geometry")
    bd_sub = p.add_subparsers(dest="bd_command", required=True)
    q = bd_sub.add_parser("classify", help="region label of a cube point")
    q.add_argument("--lambda", dest="lam", type=_lambda_triple, required=True,
                   metavar="L1,L2,L3")
    q.set_defaults(func=_cmd_bd)
    q = bd_sub.add_parser("census", help="Monte Carlo region census (CSV)")
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--workers", type=int, default=1, help=f"at most {MAX_WORKERS}")
    q.set_defaults(func=_cmd_bd)
    q = bd_sub.add_parser("slice", help="region labels on a plane (CSV)")
    q.add_argument("--axis", type=int, choices=(1, 2, 3), required=True)
    q.add_argument("--value", type=float, required=True)
    q.add_argument("--grid", type=int, required=True)
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
    p.add_argument("--hamiltonians", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.set_defaults(func=_cmd_dynamics_check)

    return parser


def main(argv=None) -> int:
    try:
        # argparse drops the error of a failed write, so --help and --version
        # print into a buffer that is written out here, where a closed
        # stdout raises like any command's output
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                args = _build_parser().parse_args(argv)
        finally:
            sys.stdout.write(printed.getvalue())
            sys.stdout.flush()
        code = args.func(args)
        # flush inside the try: a reader that is gone fails here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the flush at interpreter exit would fail again and print a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (StateFileError, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # arguments that ask for more memory than there is, e.g. bd slice's grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
