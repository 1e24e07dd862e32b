"""Command-line front end.

Subcommands: eval, gram, norms, hessenberg, selberg, limits, contour,
verify.  Results are emitted as canonical JSON (or CSV for 1-D sweeps) to
stdout, or to --output (relative paths resolve under $ELLIPOLY_OUTPUT_DIR
when that is set).  Exit codes: 0 success, 1 invalid arguments or usage,
2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from ._serialize import dumps, params_dict, write_csv
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
from .quadrature import DEFAULT_N_ANGULAR, DEFAULT_N_RADIAL, contour_check
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


def _family(name: str, alpha: float | None) -> PolynomialFamily:
    make, needs_alpha = _FAMILIES[name]
    if needs_alpha and alpha is None:
        raise ValueError(f"--alpha is required for family {name}")
    return make(alpha) if needs_alpha else make()


def _meta(args, p=None, rule: bool = False, convention: str | None = None) -> dict:
    meta = {"version": __version__}
    if p is not None:
        meta["params"] = params_dict(p)
    if rule:
        meta["rule"] = {"n_radial": args.n_radial, "n_angular": args.n_angular}
    if convention is not None:
        meta["convention"] = convention
    return meta


def _emit(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("ELLIPOLY_OUTPUT_DIR")
    if base and not os.path.isabs(out):
        out = os.path.join(base, out)
    with open(out, "w") as fh:
        fh.write(text)


def _cmd_eval(args) -> int:
    fam = _family(args.family, args.alpha)
    p = make_params(args.a, args.b)
    if len(args.z) > 2:
        raise ValueError(f"--z takes RE [IM], got {len(args.z)} numbers")
    z = complex(args.z[0], args.z[1] if len(args.z) > 1 else 0.0)
    arg = z / p.c if args.scale_by_c else z
    val = eval_family(fam, args.n, arg)
    payload = {
        "meta": _meta(args, p),
        "data": {"family": args.family, "alpha": args.alpha, "n": args.n,
                 "z": z, "argument": arg, "value": val},
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_gram(args) -> int:
    p = make_params(args.a, args.b)
    if args.derived:
        p = derived_params(p)
    fam = _family(args.family, args.alpha)
    measure = canonical_measure(fam, p)
    res = gram_matrix(fam, measure, args.nmax,
                      n_radial=args.n_radial, n_angular=args.n_angular)
    convention = "normalized" if measure.normalized else "flat"
    payload = {
        "meta": _meta(args, p, rule=True, convention=convention),
        "data": {
            "family": args.family,
            "alpha": args.alpha,
            "nmax": args.nmax,
            "matrix": res.matrix,
            "max_offdiag": res.max_offdiag,
            "diag": res.diag,
            "closed_diag": res.closed_diag,
            "diag_relative_errors": res.diag_relative_errors,
        },
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_norms(args) -> int:
    p = make_params(args.a, args.b)
    if args.derived:
        p = derived_params(p)
    fam = _family(args.family, args.alpha)
    convention = args.convention
    if convention == "canonical":
        convention = "normalized" if canonical_measure(fam, p).normalized else "flat"
    if args.n is None and args.nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {args.nmax}")
    ns = [args.n] if args.n is not None else list(range(args.nmax + 1))
    values = _closed_norms(fam, p, ns[-1], normalized=convention == "normalized")[ns].tolist()
    if args.format == "csv":
        _emit(args, write_csv(["n", "norm"], list(zip(ns, values))))
        return 0
    payload = {
        "meta": _meta(args, p, convention=convention),
        "data": {"family": args.family, "alpha": args.alpha,
                 "n": ns, "norm": values},
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_hessenberg(args) -> int:
    p = make_params(args.a, args.b)
    if args.basis == "gegenbauer":
        basis = GegenbauerBasis(args.alpha, p)
    else:
        basis = ChristoffelBasis(args.alpha, p, complex(args.v_re, args.v_im))
    H = hessenberg(basis, args.nmax, strategy=args.strategy,
                   n_radial=args.n_radial, n_angular=args.n_angular)
    d = bandwidth(H, args.tol)
    payload = {
        "meta": _meta(args, p, rule=(H.strategy == "quadrature"),
                      convention="normalized"),
        "data": {"basis": H.basis_label, "nmax": H.nmax,
                 "strategy": H.strategy, "entries": H.entries,
                 "bandwidth": d, "bandwidth_tol": args.tol},
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_selberg(args) -> int:
    p = make_params(args.a, args.b)
    res = selberg_compare(args.alpha, p, args.N, direct=args.direct)
    try:
        value = math.exp(res.log_product)
    except OverflowError:
        raise ValueError(f"Z_N = exp({res.log_product!r}) overflows the double "
                         f"range; only log Z_N is representable") from None
    payload = {
        "meta": _meta(args, p, convention="normalized"),
        "data": {
            "alpha": res.alpha, "N": res.N, "sign": res.sign,
            "log_closed": res.log_closed, "log_product": res.log_product,
            "value": value,
            "direct_value": res.direct_value,
            "log_rel_discrepancy": res.log_rel_discrepancy,
            "direct_rel_discrepancy": res.direct_rel_discrepancy,
        },
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_limits(args) -> int:
    seq = tuple(args.sequence)
    if args.regime == "hermite":
        p = make_params(args.a, args.b)
        rep = hermite_limit(p, args.n, args.m, seq or (10.0, 100.0, 1000.0))
    elif args.regime == "disc":
        rep = disc_limit(args.a, args.n, args.m, args.alpha,
                         seq or (0.9 * args.a, 0.99 * args.a, 0.999 * args.a))
    else:
        rep = realline_limit(args.a, args.n, args.m, args.alpha,
                             seq or (0.3, 0.1, 0.03))
    if args.format == "csv":
        rows = list(zip(rep.parameters, rep.residuals))
        _emit(args, write_csv(["parameter", "residual"], rows))
        return 0
    payload = {
        "meta": _meta(args),
        "data": {
            "regime": rep.regime, "n": rep.n, "m": rep.m,
            "parameters": rep.parameters, "values": rep.values,
            "target": rep.target, "residuals": rep.residuals,
            "tolerance": rep.tolerance, "noise_floor": rep.noise_floor,
            "verdict": rep.verdict, "extras": rep.extras,
        },
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_contour(args) -> int:
    p = make_params(args.a, args.b)
    val = contour_check(p, args.n, args.m)
    q = p.r / p.c
    expected = 1j * math.pi * (args.n + 1) / 2.0 \
        * (q ** (2 * args.n + 2) - q ** (-2 * args.n - 2)) \
        if args.n == args.m else 0j
    payload = {
        "meta": _meta(args, p),
        "data": {"n": args.n, "m": args.m, "value": val, "expected": expected,
                 "deviation": abs(val - expected)},
    }
    _emit(args, dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    results = run_all(args.checks if args.checks else None)
    payload = {
        "meta": {"version": __version__},
        "data": {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "metrics": r.metrics}
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        },
    }
    _emit(args, dumps(payload))
    return 0 if all(r.passed for r in results) else 2


def _add_geometry(sp, a_default=2.0, b_default=1.0):
    sp.add_argument("--a", type=float, default=a_default,
                    help="semi-major axis (default %(default)s)")
    sp.add_argument("--b", type=float, default=b_default,
                    help="semi-minor axis (default %(default)s)")


def _add_rule(sp):
    sp.add_argument("--n-radial", type=int, default=DEFAULT_N_RADIAL)
    sp.add_argument("--n-angular", type=int, default=DEFAULT_N_ANGULAR)


def _add_output(sp):
    sp.add_argument("--output", help="write to this path instead of stdout "
                    "(relative paths resolve under $ELLIPOLY_OUTPUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ellipoly",
                     description="planar orthogonal polynomials on weighted "
                                 "elliptic domains")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate one family member at a point")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--z", type=float, nargs="+", required=True,
                    metavar="RE [IM]", help="evaluation point")
    sp.add_argument("--scale-by-c", action="store_true",
                    help="evaluate at z/c for the ellipse given by --a/--b")
    _add_geometry(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("gram", help="Gram matrix under the canonical weight")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--derived", action="store_true",
                    help="use the derived ellipse of (--a, --b)")
    _add_geometry(sp)
    _add_rule(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_gram)

    sp = sub.add_parser("norms", help="closed-form squared norms")
    sp.add_argument("--family", choices=_FAMILIES, required=True)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--n", type=int, help="single degree (default: table)")
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--derived", action="store_true")
    sp.add_argument("--convention", choices=["canonical", "normalized", "flat"],
                    default="canonical")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    _add_geometry(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_norms)

    sp = sub.add_parser("hessenberg",
                        help="multiplication matrix and its bandwidth")
    sp.add_argument("--basis", choices=["gegenbauer", "christoffel"],
                    default="gegenbauer")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--v-re", type=float, default=1.5,
                    help="charge location (christoffel basis)")
    sp.add_argument("--v-im", type=float, default=0.0)
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--strategy", choices=["auto", "closed", "quadrature"],
                    default="auto")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="bandwidth detection tolerance")
    _add_geometry(sp)
    _add_rule(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_hessenberg)

    sp = sub.add_parser("selberg", help="partition-function evaluations")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--direct", action="store_true",
                    help="also run the tensor quadrature (N <= 2)")
    _add_geometry(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_selberg)

    sp = sub.add_parser("limits", help="convergence experiments")
    sp.add_argument("--regime", choices=["hermite", "disc", "realline"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--sequence", type=float, nargs="*", default=[],
                    help="parameter sequence (alphas or b values)")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    _add_geometry(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_limits)

    sp = sub.add_parser("contour", help="first-kind contour identity check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    _add_geometry(sp)
    _add_output(sp)
    sp.set_defaults(func=_cmd_contour)

    sp = sub.add_parser("verify", help="run the verification battery")
    sp.add_argument("--checks", nargs="*",
                    help="subset of check names (default: all)")
    _add_output(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"ellipoly: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
