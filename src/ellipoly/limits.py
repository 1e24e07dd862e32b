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
sized from that degree and exact to roundoff; extras record the sizes.  The
public functions report one entry; their private _*_reports twins report a
list of entries from one rule per parameter value, sized for the largest
n + m, which is how the verify battery runs them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import EllipseParams, area_measure, make_params
from .norms import _log_monic_factor
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


def _shared_size(entries) -> int:
    """The rule size exact for every one of the (n, m) entries."""
    return max(_entry_size(n, m) for n, m in entries)


def _planar_entries(p: EllipseParams, alpha: float, entries, k: int) -> np.ndarray:
    """<C_n(z/c), C_m(z/c)>_alpha for each (n, m) listed, under dA_alpha on the
    ellipse p, by one k x 2k area rule: exact for every n + m < 2k."""
    rule = build_rule(area_measure(p, alpha), n_radial=k, n_angular=2 * k)
    n, m = np.array(entries).T
    C = gegenbauer_matrix(alpha, max(n.max(), m.max()), rule.nodes / p.c)
    return np.sum(rule.weights * C[n] * np.conj(C[m]), axis=1)


def _planar_entry(p: EllipseParams, alpha: float, n: int, m: int) -> complex:
    """One entry, on the k x 2k area rule that is exact for degree n + m."""
    return _planar_entries(p, alpha, [(n, m)], _entry_size(n, m))[0]


def _log_ratio_product(u: float, v: float, n: int) -> float:
    """log((u)_n / (v)_n) summed from log(u + j) - log(v + j), j < n: exact to
    the terms' roundoff, where lgamma differences lose eps * lgamma(v + n)."""
    return math.fsum([math.log(u + j) for j in range(n)] + [-math.log(v + j) for j in range(n)])


def _times_exp(value, log_scale: float, what: str):
    """value * exp(log_scale) as one exponential, so that a scale outside the
    double range does not overflow when the product lies inside it; raises
    ValueError naming `what` when the product leaves the range."""
    if value == 0:
        return value
    log_mag = log_scale + math.log(abs(value))
    if not log_mag < math.log(sys.float_info.max):   # also catches nan
        raise ValueError(f"{what} exp({log_mag}) is not finite in double precision")
    return value / abs(value) * math.exp(log_mag)


def _monotone(sequence, direction: int, message: str) -> tuple[float, ...]:
    """The sequence as floats; raises ValueError(message) unless it has at
    least two entries and each step has the sign of direction (+1 or -1)."""
    values = tuple(float(t) for t in sequence)
    if len(values) < 2 or any(direction * (t2 - t1) <= 0 for t1, t2 in zip(values, values[1:])):
        raise ValueError(message)
    return values


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
    return _hermite_reports(p, [(n, m)], alpha_sequence)[0]


def _hermite_reports(p: EllipseParams, entries, alpha_sequence) -> list[LimitReport]:
    """hermite_limit for every (n, m) entry listed, from one rule per alpha
    sized for the largest n + m."""
    k = _shared_size(entries)
    alphas = _monotone(alpha_sequence, +1, "alpha_sequence must be strictly increasing")
    # log(pi a b n!) of each entry
    log_ns = [math.log(math.pi * p.a * p.b) + math.lgamma(n + 1) for n, _ in entries]
    # Targets first: one out of the double range raises before any rule is built.
    targets = [_times_exp(1.0, log_n + n * math.log(2.0 * p.x_star), "hermite_limit target")
               if n == m else 0.0 for (n, m), log_n in zip(entries, log_ns)]
    planar = [_planar_entries(p, alpha, entries, k) for alpha in alphas]
    reports = []
    for i, ((n, m), log_n, target) in enumerate(zip(entries, log_ns, targets)):
        values = tuple(complex(_times_exp(row[i], log_n + math.lgamma(m + 1)
                                          - 0.5 * (n + m) * math.log1p(alpha),
                                          "hermite_limit value"))
                       for alpha, row in zip(alphas, planar))
        residuals = tuple(_entry_residual(v, target, n == m) for v in values)
        reports.append(LimitReport(regime=LimitRegime.HERMITE_PLANE, n=n, m=m,
                                   parameters=alphas, values=values, target=target,
                                   residuals=residuals, **_HERMITE_BOUNDS,
                                   extras={"residual_kind": "relative diag / absolute offdiag",
                                           "rule_nodes": [k, 2 * k],
                                           "rate": "O(1/alpha)"}))
    return reports


def _disc_moments(a: float, alpha: float, entries, k: int) -> list[complex]:
    """<z^n, z^m> for each (n, m) listed, on the disc |z| < a under
    (1+alpha)(1-|z/a|^2)^alpha dA: polar quadrature on the unit disc (k-node
    Gauss-Jacobi radially, 2k-point trapezoid in angle, exact for every
    n + m < 2k), each scaled by a^{n+m} in logs."""
    t, u = _gauss_jacobi(k, alpha, 0.0)
    theta = np.pi * np.arange(2 * k) / k
    z = np.outer(np.sqrt(t), np.exp(1j * theta))
    return [complex(_times_exp(np.sum((u / (2 * k))[:, None] * z ** n * np.conj(z) ** m),
                               (n + m) * math.log(a), "disc_reference value"))
            for n, m in entries]


def disc_reference(a: float, alpha: float, n: int, m: int) -> complex:
    """<z^n, z^m> on the disc |z| < a under (1+alpha)(1-|z/a|^2)^alpha dA,
    by polar-coordinate quadrature (k-node Gauss-Jacobi radially, 2k-point
    trapezoid in angle, exact for degree n + m) on the unit disc, scaled by
    a^{n+m} in logs.  The closed diagonal is n! a^{2n} / (2+alpha)_n.
    Raises ValueError when the value leaves the double range.
    """
    return _disc_moments(a, alpha, [(n, m)], _entry_size(n, m))[0]


def disc_limit(a: float, n: int, m: int, alpha: float, b_sequence) -> LimitReport:
    """b -> a: the monic inner products <ptilde_n, ptilde_m> under dA_alpha
    on the ellipse (a, b) approach the disc moments <z^n, z^m> of radius a
    (the monic polynomials degenerate to monomials; truncated-unitary
    regime).  The disc reference is computed by polar quadrature.

    Residuals are absolute: the diagonal converges at rate ~ n (1 - b/a),
    which the prefactor-free absolute error tracks cleanly while every
    off-diagonal entry is an exact zero on both sides.  The monic factors,
    the radius scale and the closed diagonal are taken in logs; a value
    outside the double range raises ValueError.
    """
    return _disc_reports(a, [(n, m)], alpha, b_sequence)[0]


def _disc_reports(a: float, entries, alpha: float, b_sequence) -> list[LimitReport]:
    """disc_limit for every (n, m) entry listed, from one rule per b and one
    disc rule, sized for the largest n + m."""
    k = _shared_size(entries)
    bs = _monotone(b_sequence, +1, "b_sequence must be strictly increasing toward a")
    if bs[-1] >= a:
        raise ValueError("b_sequence must stay below a")
    # Closed diagonals first: one out of the double range raises before any
    # rule is built.
    closed = [_times_exp(1.0, _log_ratio_product(1.0, 2.0 + alpha, n) + 2 * n * math.log(a),
                         "disc_limit closed diagonal") if n == m else 0.0 for n, m in entries]
    ps = [make_params(a, b) for b in bs]
    planar = [_planar_entries(p, alpha, entries, k) for p in ps]
    targets = _disc_moments(a, alpha, entries, k)
    reports = []
    for i, ((n, m), closed_diag, target) in enumerate(zip(entries, closed, targets)):
        values = tuple(complex(_times_exp(row[i], _log_monic_factor(alpha, p, n)
                                          + _log_monic_factor(alpha, p, m),
                                          "disc_limit value"))
                       for p, row in zip(ps, planar))
        residuals = tuple(abs(v - target) for v in values)
        reports.append(LimitReport(regime=LimitRegime.DISC_TRUNCATED_UNITARY, n=n, m=m,
                                   parameters=bs, values=values, target=target,
                                   residuals=residuals, **_DISC_BOUNDS,
                                   extras={"residual_kind": "absolute",
                                           "rule_nodes": [k, 2 * k],
                                           "closed_diagonal": closed_diag,
                                           "rate": "O(n (1 - b/a)) relative on the diagonal"}))
    return reports


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
    return _realline_reports(a, [(n, m)], alpha, b_sequence)[0]


def _realline_reports(a: float, entries, alpha: float, b_sequence) -> list[LimitReport]:
    """realline_limit for every (n, m) entry listed, from one rule per b and
    one real-line rule, sized for the largest n + m."""
    k = _shared_size(entries)
    bs = _monotone(b_sequence, -1, "b_sequence must be strictly decreasing toward 0")
    if bs[0] >= a:
        raise ValueError("b_sequence must stay below a")
    t1, w1 = _gauss_jacobi(k, alpha + 0.5, alpha + 0.5)
    C1 = gegenbauer_matrix(alpha, max(max(entry) for entry in entries), 2.0 * t1 - 1.0).real
    planar = [_planar_entries(make_params(a, b), alpha, entries, k) for b in bs]
    reports = []
    for i, (n, m) in enumerate(entries):
        # The real-line family is exactly orthogonal: off the diagonal the limit is 0.
        target = float(np.sum(w1 * C1[n] * C1[m])) if n == m else 0.0
        values = tuple(complex(row[i]) for row in planar)
        residuals = tuple(_entry_residual(v, target, n == m) for v in values)
        closed_diag = (1.0 + alpha) / (1.0 + alpha + n) * math.exp(
            _log_ratio_product(2.0 + 2.0 * alpha, 1.0, n)) if n == m else 0.0
        reports.append(LimitReport(regime=LimitRegime.REAL_LINE, n=n, m=m,
                                   parameters=bs, values=values, target=target,
                                   residuals=residuals, **_REALLINE_BOUNDS,
                                   extras={"residual_kind": "relative diag / absolute offdiag",
                                           "rule_nodes": [k, 2 * k],
                                           "oracle_nodes": k,
                                           "closed_diagonal": closed_diag,
                                           "rate": "O(b^2) with constant growing in n"}))
    return reports
