"""Limiting regimes of the planar Gegenbauer family, run as convergence
experiments over parameter sequences.

Three degenerations are covered: alpha -> infinity (rescaled inner products
approach the planar Hermite orthogonality), b -> a (the ellipse fills out to
a disc and the monic polynomials degenerate to monomials, the
truncated-unitary regime), and b -> 0 (the measure collapses onto [-a, a]
and the planar inner products approach the classical real-line Gegenbauer
orthogonality).  Each experiment reports the residual at every step of the
sequence; the verdict requires the residuals to decrease and the final one
to beat the tolerance, with an explicit noise floor so that entries that are
exactly zero by parity or orthogonality do not flip the monotonicity check.

Each entry integrates a polynomial of degree n + m, so every rule here is
sized from that degree and exact to roundoff; extras record the sizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import EllipseParams, area_measure, make_params
from .norms import monic_factor
from .polynomials import gegenbauer_matrix
from .quadrature import _exact_size, _gauss_jacobi, build_rule

__all__ = [
    "LimitRegime",
    "LimitReport",
    "hermite_limit",
    "disc_limit",
    "realline_limit",
    "realline_constant",
    "disc_reference",
]


class LimitRegime(Enum):
    HERMITE_PLANE = "hermite_plane"
    DISC_TRUNCATED_UNITARY = "disc_truncated_unitary"
    REAL_LINE = "real_line"


# Verdict bounds of each regime (see LimitReport.verdict)
_HERMITE_BOUNDS = {"tolerance": 1e-2, "noise_floor": 1e-8}
_DISC_BOUNDS = {"tolerance": 1e-3, "noise_floor": 1e-12}
_REALLINE_BOUNDS = {"tolerance": 1e-2, "noise_floor": 1e-10}


@dataclass(frozen=True)
class LimitReport:
    """Convergence record for one (n, m) entry along a parameter sequence.

    residuals[k] compares values[k] to target: relative on the diagonal
    when the target is nonzero, absolute otherwise (disc_limit uses
    absolute residuals throughout; see its docstring).  verdict is True
    when the residual sequence decreases step to step (pairs below the
    noise floor are exempt) and the final residual is within tolerance.
    """

    regime: LimitRegime
    n: int
    m: int
    parameters: tuple[float, ...]
    values: tuple[complex, ...]
    target: complex
    residuals: tuple[float, ...]
    tolerance: float
    noise_floor: float
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        res, floor = self.residuals, self.noise_floor
        for prev, cur in zip(res, res[1:]):
            if cur >= prev and not (cur <= floor and prev <= floor):
                return False
        return res[-1] <= self.tolerance


def _entry_residual(value: complex, target: complex, diagonal: bool) -> float:
    """Relative residual on the diagonal (target is a closed nonzero limit),
    absolute off it (the limiting value is an exact zero)."""
    if diagonal:
        return abs(value - target) / abs(target)
    return abs(value - target)


def _entry_size(n: int, m: int) -> int:
    """Rule size exact for the degree-(n+m) entry; rejects negative degrees."""
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    return _exact_size(n + m)


def _planar_entry(p: EllipseParams, alpha: float, n: int, m: int) -> complex:
    """<C_n(z/c), C_m(z/c)>_alpha under dA_alpha on the ellipse p, by the
    k x 2k area rule that is exact for degree n + m."""
    k = _entry_size(n, m)
    rule = build_rule(area_measure(p, alpha), n_radial=k, n_angular=2 * k)
    C = gegenbauer_matrix(alpha, max(n, m), rule.nodes / p.c)
    return np.sum(rule.weights * C[n] * np.conj(C[m]))


def _log_ratio_product(u: float, v: float, n: int) -> float:
    """log((u)_n / (v)_n) summed from log(u + j) - log(v + j), j < n: exact to
    the terms' roundoff, where lgamma differences lose eps * lgamma(v + n)."""
    return math.fsum([math.log(u + j) for j in range(n)] + [-math.log(v + j) for j in range(n)])


def _times_exp(value, log_scale: float):
    """value * exp(log_scale) as one exponential, so that a scale outside the
    double range does not overflow when the product lies inside it."""
    if value == 0:
        return value
    log_mag = log_scale + math.log(abs(value))
    if not log_mag < math.log(sys.float_info.max):   # also catches nan
        raise ValueError(f"hermite_limit value exp({log_mag}) is not finite in double precision")
    return value / abs(value) * math.exp(log_mag)


def hermite_limit(p: EllipseParams, n: int, m: int, alpha_sequence) -> LimitReport:
    """alpha -> infinity: the rescaled Gegenbauer inner products

        I_nm(alpha) = pi a b n! m! (1+alpha)^{-(n+m)/2} <C_n(z/c), C_m(z/c)>_alpha

    approach pi n! a b (2 x_star)^n delta_nm, at rate O(1/alpha).  Residuals
    are relative on the diagonal, absolute off it (the target vanishes).

    Same-parity off-diagonal entries are exact zeros of the measure, so their
    computed residuals are quadrature roundoff (below 1e-13 through
    alpha = 1e6 for n, m <= 3 on p(2,1)).  The noise floor exempts those
    entries from the monotone-decrease requirement.
    """
    k = _entry_size(n, m)
    alphas = tuple(float(t) for t in alpha_sequence)
    if len(alphas) < 2 or any(t2 <= t1 for t1, t2 in zip(alphas, alphas[1:])):
        raise ValueError("alpha_sequence must be strictly increasing")
    log_n = math.log(math.pi * p.a * p.b) + math.lgamma(n + 1)   # log(pi a b n!)
    target = _times_exp(1.0, log_n + n * math.log(2.0 * p.x_star)) if n == m else 0.0
    values = [complex(_times_exp(_planar_entry(p, alpha, n, m), log_n + math.lgamma(m + 1)
                                 - 0.5 * (n + m) * math.log1p(alpha))) for alpha in alphas]
    residuals = tuple(_entry_residual(v, target, n == m) for v in values)
    return LimitReport(regime=LimitRegime.HERMITE_PLANE, n=n, m=m,
                       parameters=alphas, values=tuple(values), target=target,
                       residuals=residuals, **_HERMITE_BOUNDS,
                       extras={"residual_kind": "relative diag / absolute offdiag",
                               "rule_nodes": [k, 2 * k],
                               "rate": "O(1/alpha)"})


def disc_reference(a: float, alpha: float, n: int, m: int) -> complex:
    """<z^n, z^m> on the disc |z| < a under (1+alpha)(1-|z/a|^2)^alpha dA,
    by polar-coordinate quadrature (k-node Gauss-Jacobi radially, 2k-point
    trapezoid in angle, exact for degree n + m).  The closed diagonal is
    n! a^{2n} / (2+alpha)_n.
    """
    k = _entry_size(n, m)
    t, u = _gauss_jacobi(k, alpha, 0.0)
    theta = np.pi * np.arange(2 * k) / k
    z = np.outer(a * np.sqrt(t), np.exp(1j * theta))
    return complex(np.sum((u / (2 * k))[:, None] * z ** n * np.conj(z) ** m))


def disc_limit(a: float, n: int, m: int, alpha: float, b_sequence) -> LimitReport:
    """b -> a: the monic inner products <ptilde_n, ptilde_m> under dA_alpha
    on the ellipse (a, b) approach the disc moments <z^n, z^m> of radius a
    (the monic polynomials degenerate to monomials; truncated-unitary
    regime).  The disc reference is computed by polar quadrature.

    Residuals are absolute: the diagonal converges at rate ~ n (1 - b/a),
    which the prefactor-free absolute error tracks cleanly while every
    off-diagonal entry is an exact zero on both sides.
    """
    k = _entry_size(n, m)
    bs = tuple(float(t) for t in b_sequence)
    if len(bs) < 2 or any(t2 <= t1 for t1, t2 in zip(bs, bs[1:])):
        raise ValueError("b_sequence must be strictly increasing toward a")
    if bs[-1] >= a:
        raise ValueError("b_sequence must stay below a")
    target = disc_reference(a, alpha, n, m)

    ps = [make_params(a, b) for b in bs]
    values = [complex(monic_factor(alpha, p, n) * monic_factor(alpha, p, m)
                      * _planar_entry(p, alpha, n, m)) for p in ps]
    residuals = tuple(abs(v - target) for v in values)
    closed_diag = math.exp(_log_ratio_product(1.0, 2.0 + alpha, n)
                           + 2 * n * math.log(a)) if n == m else 0.0
    return LimitReport(regime=LimitRegime.DISC_TRUNCATED_UNITARY, n=n, m=m,
                       parameters=bs, values=tuple(values), target=target,
                       residuals=residuals, **_DISC_BOUNDS,
                       extras={"residual_kind": "absolute",
                               "rule_nodes": [k, 2 * k],
                               "closed_diagonal": closed_diag,
                               "rate": "O(n (1 - b/a)) relative on the diagonal"})


def realline_constant(alpha: float) -> float:
    """The collapse constant sqrt(pi) Gamma(1+alpha) / (2 Gamma(alpha+3/2)),
    i.e. half the Beta-integral of (1-u^2)^alpha; equals the Gauss value
    F(1/2, -alpha; 3/2; 1)."""
    return 0.5 * math.sqrt(math.pi) * math.exp(
        math.lgamma(1.0 + alpha) - math.lgamma(alpha + 1.5))


def realline_limit(a: float, n: int, m: int, alpha: float, b_sequence) -> LimitReport:
    """b -> 0: the planar inner products <C_n(z/c), C_m(z/c)>_alpha approach

        (2 (1+alpha)/pi) F(1/2, -alpha; 3/2; 1) *
            integral_{-1}^{1} C_n(x) C_m(x) (1 - x^2)^{alpha+1/2} dx,

    the classical real-line Gegenbauer orthogonality.  The prefactor is the
    reciprocal of the weight's mass, so the target is the k-node unit-mass
    Gauss-Jacobi sum, exact for degree n + m.  Residuals are
    relative on the diagonal (rate O(b^2) with an n-dependent constant),
    absolute off it.
    """
    k = _entry_size(n, m)
    bs = tuple(float(t) for t in b_sequence)
    if len(bs) < 2 or any(t2 >= t1 for t1, t2 in zip(bs, bs[1:])):
        raise ValueError("b_sequence must be strictly decreasing toward 0")
    if bs[0] >= a:
        raise ValueError("b_sequence must stay below a")

    t1, w1 = _gauss_jacobi(k, alpha + 0.5, alpha + 0.5)
    C1 = gegenbauer_matrix(alpha, max(n, m), 2.0 * t1 - 1.0).real
    # The real-line family is exactly orthogonal: off the diagonal the limit is 0.
    target = float(np.sum(w1 * C1[n] * C1[m])) if n == m else 0.0

    values = [complex(_planar_entry(make_params(a, b), alpha, n, m)) for b in bs]
    residuals = tuple(_entry_residual(v, target, n == m) for v in values)
    closed_diag = (1.0 + alpha) / (1.0 + alpha + n) * math.exp(
        _log_ratio_product(2.0 + 2.0 * alpha, 1.0, n)) if n == m else 0.0
    return LimitReport(regime=LimitRegime.REAL_LINE, n=n, m=m,
                       parameters=bs, values=tuple(values), target=target,
                       residuals=residuals, **_REALLINE_BOUNDS,
                       extras={"residual_kind": "relative diag / absolute offdiag",
                               "rule_nodes": [k, 2 * k],
                               "oracle_nodes": k,
                               "closed_diagonal": closed_diag,
                               "rate": "O(b^2) with constant growing in n"})
