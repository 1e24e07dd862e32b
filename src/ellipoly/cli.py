"""Command-line front end.

Subcommands: eval, gram, norms, hessenberg, selberg, limits, contour,
verify.  Results are emitted as canonical JSON (or CSV for 1-D sweeps) to
stdout, or to --output (relative paths resolve under $ELLIPOLY_OUTPUT_DIR
when that is set).  Exit codes: 0 success, 1 invalid arguments or usage,
2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from enum import Enum

import numpy as np

from . import __version__
from .bergman import ChristoffelBasis, GegenbauerBasis, bandwidth, hessenberg
from .geometry import derived_params, make_params
from .limits import disc_limit, hermite_limit, realline_limit
from .norms import _closed_norms, canonical_measure, gram_matrix
from .polynomials import (
    PolynomialFamily,
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    eval_family,
    gegenbauer,
    hermite,
    jacobi_half,
    legendre,
)
from .quadrature import (
    DEFAULT_N_ANGULAR,
    DEFAULT_N_RADIAL,
    _contour_closed,
    build_rule,
    contour_check,
)
from .selberg import selberg_compare
from .verification import run_all

__all__ = ["main"]

# CLI family name -> (factory, whether it takes --alpha)
_FAMILIES = {
    "gegenbauer": (gegenbauer, True),
    "legendre": (legendre, False),
    "chebyshev-t": (chebyshev_t, False),
    "chebyshev-u": (chebyshev_u, False),
    "chebyshev-v": (chebyshev_v, False),
    "chebyshev-w": (chebyshev_w, False),
    "jacobi-plus": (lambda alpha: jacobi_half(alpha, +1), True),
    "jacobi-minus": (lambda alpha: jacobi_half(alpha, -1), True),
    "hermite": (hermite, False),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract reserves 2
    for verification failures, so remap usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _encode(obj):
    """What json cannot encode itself: complex numbers as [re, im], numpy
    arrays and scalars as Python lists and numbers, enums by their value,
    dataclasses as dicts of their fields."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(data, **meta) -> str:
    """Canonical JSON text of {"meta": {"version", **meta}, "data": data}:
    sorted keys, two-space indent, trailing newline; meta entries that are
    None are left out.  Nothing time- or path-dependent is ever included.

    Raises ValueError when the data holds a NaN or an infinity, which JSON
    cannot represent.
    """
    meta = {"version": __version__} | {k: v for k, v in meta.items() if v is not None}
    try:
        text = json.dumps({"meta": meta, "data": data}, default=_encode,
                          sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"result is not finite ({exc})") from None
    return text + "\n"


def write_csv(header: list[str], rows) -> str:
    """Minimal deterministic CSV (numbers via repr, no quoting needed);
    raises ValueError on a NaN or an infinity, as dumps does."""
    lines = [",".join(header)]
    for row in rows:
        if any(isinstance(x, float) and not math.isfinite(x) for x in row):
            raise ValueError(f"result is not finite (row {row!r})")
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _family(args) -> PolynomialFamily:
    make, needs_alpha = _FAMILIES[args.family]
    if needs_alpha and args.alpha is None:
        raise ValueError(f"--alpha is required for family {args.family}")
    return make(args.alpha) if needs_alpha else make()


def _params(args):
    """The ellipse of --a/--b, or its derived ellipse under --derived."""
    p = make_params(args.a, args.b)
    return derived_params(p) if getattr(args, "derived", False) else p


def _rule(shape) -> dict | None:
    return shape and dict(zip(("n_radial", "n_angular"), shape))


def _cmd_eval(args) -> str:
    fam = _family(args)
    p = _params(args)
    if len(args.z) > 2:
        raise ValueError(f"--z takes RE [IM], got {len(args.z)} numbers")
    z = complex(*args.z)
    arg = z / p.c if args.scale_by_c else z
    return dumps({"family": args.family, "alpha": args.alpha, "n": args.n, "z": z,
                  "argument": arg, "value": eval_family(fam, args.n, arg)}, params=p)


def _cmd_gram(args) -> str:
    p = _params(args)
    fam = _family(args)
    measure = canonical_measure(fam, p)
    rule = build_rule(measure, args.n_radial, args.n_angular)
    res = gram_matrix(fam, measure, args.nmax, rule=rule)
    return dumps({"family": args.family, "alpha": args.alpha, "nmax": args.nmax,
                  "matrix": res.matrix, "max_offdiag": res.max_offdiag, "diag": res.diag,
                  "closed_diag": res.closed_diag,
                  "diag_relative_errors": res.diag_relative_errors},
                 params=p, rule=_rule(rule.shape),
                 convention="normalized" if measure.normalized else "flat")


def _cmd_norms(args) -> str:
    p = _params(args)
    fam = _family(args)
    convention = args.convention
    if convention == "canonical":
        convention = "normalized" if canonical_measure(fam, p).normalized else "flat"
    if args.n is None and args.nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {args.nmax}")
    ns = [args.n] if args.n is not None else list(range(args.nmax + 1))
    values = _closed_norms(fam, p, ns[-1], normalized=convention == "normalized")[ns].tolist()
    if args.format == "csv":
        return write_csv(["n", "norm"], zip(ns, values))
    return dumps({"family": args.family, "alpha": args.alpha, "n": ns, "norm": values},
                 params=p, convention=convention)


def _cmd_hessenberg(args) -> str:
    p = _params(args)
    if args.basis == "gegenbauer":
        basis = GegenbauerBasis(args.alpha, p)
    else:
        basis = ChristoffelBasis(args.alpha, p, complex(args.v_re, args.v_im))
    H = hessenberg(basis, args.nmax, strategy=args.strategy)
    return dumps({"basis": H.basis_label, "nmax": H.nmax, "strategy": H.strategy,
                  "entries": H.entries, "bandwidth": bandwidth(H, args.tol),
                  "bandwidth_tol": args.tol},
                 params=p, rule=_rule(H.rule_shape), convention="normalized")


def _cmd_selberg(args) -> str:
    res = selberg_compare(args.alpha, _params(args), args.N, direct=args.direct)
    try:
        value = math.exp(res.log_product)
    except OverflowError:
        raise ValueError(f"Z_N = exp({res.log_product!r}) overflows the double "
                         f"range; only log Z_N is representable") from None
    data = dataclasses.asdict(res) | {"value": value}
    del data["params"]   # reported in meta
    return dumps(data, params=res.params, convention="normalized")


def _cmd_limits(args) -> str:
    seq = tuple(args.sequence)
    if args.regime == "hermite":
        rep = hermite_limit(_params(args), args.n, args.m, seq or (10.0, 100.0, 1000.0))
    elif args.regime == "disc":
        rep = disc_limit(args.a, args.n, args.m, args.alpha,
                         seq or (0.9 * args.a, 0.99 * args.a, 0.999 * args.a))
    else:
        rep = realline_limit(args.a, args.n, args.m, args.alpha,
                             seq or (0.3, 0.1, 0.03))
    if args.format == "csv":
        return write_csv(["parameter", "residual"], zip(rep.parameters, rep.residuals))
    return dumps(dataclasses.asdict(rep) | {"verdict": rep.verdict})


def _cmd_contour(args) -> str:
    p = _params(args)
    val = contour_check(p, args.n, args.m)
    expected = _contour_closed(p, args.n) if args.n == args.m else 0j
    return dumps({"n": args.n, "m": args.m, "value": val, "expected": expected,
                  "deviation": abs(val - expected)}, params=p)


def _cmd_verify(args) -> str:
    results = run_all(args.checks or None)
    return dumps({"checks": results, "all_passed": all(r.passed for r in results)})


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write to this path instead of stdout "
                        "(relative paths resolve under $ELLIPOLY_OUTPUT_DIR)")
    geometry = argparse.ArgumentParser(add_help=False, parents=[output])
    geometry.add_argument("--a", type=float, default=2.0,
                          help="semi-major axis (default %(default)s)")
    geometry.add_argument("--b", type=float, default=1.0,
                          help="semi-minor axis (default %(default)s)")
    family = argparse.ArgumentParser(add_help=False, parents=[geometry])
    family.add_argument("--family", choices=_FAMILIES, required=True)
    family.add_argument("--alpha", type=float)

    parser = _Parser(prog="ellipoly",
                     description="planar orthogonal polynomials on weighted "
                                 "elliptic domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", parents=[family],
                        help="evaluate one family member at a point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--z", type=float, nargs="+", required=True,
                    metavar="RE [IM]", help="evaluation point")
    sp.add_argument("--scale-by-c", action="store_true",
                    help="evaluate at z/c for the ellipse given by --a/--b")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("gram", parents=[family],
                        help="Gram matrix under the canonical weight")
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--derived", action="store_true",
                    help="use the derived ellipse of (--a, --b)")
    sp.add_argument("--n-radial", type=int, default=DEFAULT_N_RADIAL)
    sp.add_argument("--n-angular", type=int, default=DEFAULT_N_ANGULAR)
    sp.set_defaults(func=_cmd_gram)

    sp = sub.add_parser("norms", parents=[family], help="closed-form squared norms")
    sp.add_argument("--n", type=int, help="single degree (default: table)")
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--derived", action="store_true")
    sp.add_argument("--convention", choices=["canonical", "normalized", "flat"],
                    default="canonical")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=_cmd_norms)

    sp = sub.add_parser("hessenberg", parents=[geometry],
                        help="multiplication matrix and its bandwidth")
    sp.add_argument("--basis", choices=["gegenbauer", "christoffel"],
                    default="gegenbauer")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--v-re", type=float, default=1.5,
                    help="charge location (christoffel basis)")
    sp.add_argument("--v-im", type=float, default=0.0)
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--strategy", choices=["closed", "quadrature"],
                    default="closed")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="bandwidth detection tolerance")
    sp.set_defaults(func=_cmd_hessenberg)

    sp = sub.add_parser("selberg", parents=[geometry],
                        help="partition-function evaluations")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--direct", action="store_true",
                    help="also run the tensor quadrature (N <= 2)")
    sp.set_defaults(func=_cmd_selberg)

    sp = sub.add_parser("limits", parents=[geometry], help="convergence experiments")
    sp.add_argument("--regime", choices=["hermite", "disc", "realline"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sequence", type=float, nargs="*", default=[],
                    help="parameter sequence (alphas or b values)")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=_cmd_limits)

    sp = sub.add_parser("contour", parents=[geometry],
                        help="first-kind contour identity check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=_cmd_contour)

    sp = sub.add_parser("verify", parents=[output], help="run the verification battery")
    sp.add_argument("--checks", nargs="*",
                    help="subset of check names (default: all)")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; write its text to stdout or to --output."""
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"ellipoly: error: {exc}", file=sys.stderr)
        return 1
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(os.path.join(os.environ.get("ELLIPOLY_OUTPUT_DIR", ""), args.output),
                  "w") as fh:
            fh.write(text)
    failed = args.func is _cmd_verify and not json.loads(text)["data"]["all_passed"]
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
