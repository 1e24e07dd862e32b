"""Complex-plane Selberg integral over the ellipse.

Z_N = integral over E^N of |Delta_N(z)|^2 prod_i dA_alpha(z_i) equals
N! times the product of the monic squared norms.  Three routes are
implemented: the norm product, the fully closed Gamma/2F1 expression,
and (for N <= 2) direct tensor quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EllipseParams, area_measure
from .norms import log_monic_norm
from .polynomials import eval_terminating_2f1
from .quadrature import build_rule

__all__ = [
    "SelbergResult",
    "selberg_product",
    "selberg_closed",
    "selberg_direct",
    "selberg_compare",
]


def selberg_product(alpha: float, p: EllipseParams, N: int) -> float:
    """log Z_N via the norm product: log(N! prod_{j<N} htilde_j)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    total = math.lgamma(N + 1)
    for j in range(N):
        total += log_monic_norm(alpha, p, j, method="gegenbauer")
    return total


def selberg_closed(alpha: float, p: EllipseParams, N: int) -> float:
    """log Z_N from the assembled closed form: Gamma-ratio prefactors times
    terminating 2F1 factors at argument -b^2/c^2 (all series terms positive,
    so the whole expression is a product of positive factors)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    const = (0.5 * math.log(math.pi) + math.lgamma(2.0 + alpha)
             - (2.0 * alpha + 1.0) * math.log(2.0) - math.lgamma(alpha + 1.5))
    total = math.lgamma(N + 1) + N * const + N * (N - 1) * math.log(p.c / 2.0)
    x = -((p.b / p.c) ** 2)
    for n in range(N):
        total += (math.lgamma(2.0 + 2.0 * alpha + n) + math.lgamma(n + 1.0)
                  - math.lgamma(1.0 + alpha + n) - math.lgamma(2.0 + alpha + n))
        total += math.log(eval_terminating_2f1(n, 2.0 + 2.0 * alpha + n,
                                               alpha + 1.5, x))
    return total


def selberg_direct(alpha: float, p: EllipseParams, N: int,
                   n_radial: int = 24, n_angular: int = 48) -> float:
    """Z_N by tensor-product quadrature over E^N; only N in {1, 2}.

    For N = 2 the squared Vandermonde |z_1 - z_2|^2 is summed over node
    pairs directly (the integrand is polynomial in the coordinates, so the
    tensor rule is exact to roundoff).
    """
    if N not in (1, 2):
        raise ValueError("direct evaluation is limited to N in {1, 2}")
    rule = build_rule(area_measure(p, alpha), n_radial=n_radial, n_angular=n_angular)
    if N == 1:
        return rule.mass
    z, w = rule.nodes, rule.weights
    W = np.outer(w, w) * np.abs(z[:, None] - z[None, :]) ** 2
    return float(W.sum())


@dataclass(frozen=True)
class SelbergResult:
    """The three evaluations of Z_N and their discrepancies.

    log_closed/log_product are natural logs (sign is always +1: every
    factor of the closed form is positive for alpha > -1); direct_value
    is on the linear scale and only present for N <= 2.
    """

    alpha: float
    params: EllipseParams
    N: int
    log_closed: float
    log_product: float
    direct_value: float | None
    sign: int
    log_rel_discrepancy: float
    direct_rel_discrepancy: float | None


def selberg_compare(alpha: float, p: EllipseParams, N: int,
                    direct: bool = False,
                    n_radial: int = 24, n_angular: int = 48) -> SelbergResult:
    """Evaluate Z_N by every applicable route and report discrepancies."""
    lc = selberg_closed(alpha, p, N)
    lp = selberg_product(alpha, p, N)
    log_rel = abs(lc - lp) / max(1.0, abs(lc), abs(lp))
    dv = None
    drel = None
    if direct:
        dv = selberg_direct(alpha, p, N, n_radial=n_radial, n_angular=n_angular)
        drel = abs(dv - math.exp(lp)) / abs(math.exp(lp))
    return SelbergResult(alpha=alpha, params=p, N=N, log_closed=lc,
                         log_product=lp, direct_value=dv, sign=1,
                         log_rel_discrepancy=log_rel,
                         direct_rel_discrepancy=drel)
