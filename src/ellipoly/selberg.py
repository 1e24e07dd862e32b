"""Complex-plane Selberg integral over the ellipse.

Z_N = integral over E^N of |Delta_N(z)|^2 prod_i dA_alpha(z_i) equals
N! times the product of the monic squared norms.  Three routes are
implemented: the norm product, the fully closed Gamma/2F1 expression,
and (for N <= 2) direct tensor quadrature, exact for the polynomial integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EllipseParams, area_measure
from .norms import _log_monic_factor, log_monic_norm
from .polynomials import _gegenbauer_norms
from .quadrature import _exact_rule

__all__ = [
    "SelbergResult",
    "selberg_product",
    "selberg_closed",
    "selberg_direct",
    "selberg_compare",
]


def _log_selberg(alpha: float, p: EllipseParams, N: int, method: str) -> float:
    """log(N! prod_{j<N} htilde_j) with the monic norms taken by `method`;
    raises ValueError when the total leaves the double range."""
    if N < 1:
        raise ValueError("N must be at least 1")
    total = math.lgamma(N + 1)
    if method == "gegenbauer":
        h = _gegenbauer_norms(alpha, p, N - 1)
        for j in range(N):
            total += 2.0 * _log_monic_factor(alpha, p, j) + math.log(h[j])
    else:
        for j in range(N):
            total += log_monic_norm(alpha, p, j, method=method)
    if not math.isfinite(total):
        raise ValueError(f"log Z_N is not finite ({total}) for N = {N}: "
                         f"a monic norm overflows the double range")
    return total


def selberg_product(alpha: float, p: EllipseParams, N: int) -> float:
    """log Z_N via the norm product: log(N! prod_{j<N} htilde_j)."""
    return _log_selberg(alpha, p, N, "gegenbauer")


def selberg_closed(alpha: float, p: EllipseParams, N: int) -> float:
    """log Z_N from the assembled closed form: Gamma-ratio prefactors times
    terminating 2F1 factors at argument -b^2/c^2 (all series terms positive,
    so the whole expression is a product of positive factors)."""
    return _log_selberg(alpha, p, N, "hypergeometric")


def _ensemble_weights(alpha: float, p: EllipseParams, N: int):
    """Nodes z of the area rule for dA_alpha and the weight of the N-point
    ensemble over node tuples (N in {1, 2}): w_i for N = 1 and
    W_ij = w_i w_j |z_i - z_j|^2 for N = 2, by a rule exact for degree 2N - 1
    per variable (|z_i - z_j|^2 times one z_i in the Heine average)."""
    if N not in (1, 2):
        raise ValueError("direct tensor quadrature is limited to N in {1, 2}")
    rule = _exact_rule(area_measure(p, alpha), 2 * N - 1)
    z, w = rule.nodes, rule.weights
    if N == 1:
        return z, w
    return z, np.outer(w, w) * np.abs(z[:, None] - z[None, :]) ** 2


def selberg_direct(alpha: float, p: EllipseParams, N: int) -> float:
    """Z_N by tensor-product quadrature over E^N; only N in {1, 2}.

    For N = 2 the squared Vandermonde |z_1 - z_2|^2 is summed over node
    pairs directly (the rule is sized from the polynomial integrand's degree,
    so the tensor rule is exact to roundoff).
    """
    _, W = _ensemble_weights(alpha, p, N)
    return float(W.sum())


@dataclass(frozen=True)
class SelbergResult:
    """The three evaluations of Z_N and their discrepancies.

    log_closed/log_product are natural logs (Z_N > 0: every factor of the
    closed form is positive for alpha > -1); direct_value is on the linear
    scale and only present for N <= 2.
    """

    alpha: float
    params: EllipseParams
    N: int
    log_closed: float
    log_product: float
    direct_value: float | None
    log_rel_discrepancy: float
    direct_rel_discrepancy: float | None


def selberg_compare(alpha: float, p: EllipseParams, N: int,
                    direct: bool = False) -> SelbergResult:
    """Evaluate Z_N by every applicable route and report discrepancies."""
    lc = selberg_closed(alpha, p, N)
    lp = selberg_product(alpha, p, N)
    log_rel = abs(lc - lp) / max(1.0, abs(lc), abs(lp))
    dv = None
    drel = None
    if direct:
        dv = selberg_direct(alpha, p, N)
        drel = abs(dv - math.exp(lp)) / abs(math.exp(lp))
    return SelbergResult(alpha=alpha, params=p, N=N, log_closed=lc,
                         log_product=lp, direct_value=dv,
                         log_rel_discrepancy=log_rel,
                         direct_rel_discrepancy=drel)
