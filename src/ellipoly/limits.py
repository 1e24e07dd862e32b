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

One engine runs all three: _REGIMES holds each regime's bounds, residual
form and rate, and _reports integrates a list of (n, m) entries on one rule
per parameter value, exact for the largest n + m, and builds the reports.
Each regime states only its sequence, ellipses, targets, scale and extras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import EllipseParams, area_measure, make_params
from .norms import _log_monic_factor, _times_exp
from .polynomials import gegenbauer_matrix
from .quadrature import (_area_rule, _exact_rule, _exact_size, _gauss_jacobi,
                         _interleave_antipodes)

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


@dataclass(frozen=True)
class LimitReport:
    """Convergence record for one (n, m) entry along a parameter sequence.

    residuals[k] compares values[k] to target: relative on the diagonal when
    the target is nonzero, absolute otherwise (disc_limit: absolute on the
    unit-disc scale throughout).  verdict is True when the residual sequence
    decreases step to step (pairs below the noise floor are exempt) and the
    final residual is within tolerance.
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


def _relative_on_diagonal(value, target, n: int, m: int, p: EllipseParams) -> float:
    """Relative on the diagonal's closed nonzero limit, absolute off it (exact 0)."""
    return abs(value - target) / (abs(target) if n == m else 1.0)


def _absolute_on_unit_disc(value, target, n: int, m: int, p: EllipseParams) -> float:
    """|value - target| a^{-(n+m)}: the unit-disc residual (scale-free in z / a)."""
    return math.exp(-(n + m) * math.log(p.a)) * abs(value - target)


# Each regime's verdict bounds (tolerance, noise floor), residual form
# residual(value, target, n, m, ellipse) and residual-kind and rate texts.
_REGIMES = {
    LimitRegime.HERMITE_PLANE: (1e-2, 1e-8, _relative_on_diagonal,
                                "relative diag / absolute offdiag", "O(1/alpha)"),
    LimitRegime.DISC_TRUNCATED_UNITARY: (1e-3, 1e-12, _absolute_on_unit_disc, "absolute",
                                         "O(n (1 - b/a)) relative on the diagonal"),
    LimitRegime.REAL_LINE: (1e-2, 1e-10, _relative_on_diagonal,
                            "relative diag / absolute offdiag", "O(b^2) with constant growing in n"),
}


def _degree(entries) -> int:
    """The largest n + m of the (n, m) listed; rejects n, m < 0."""
    if any(n < 0 or m < 0 for n, m in entries):
        raise ValueError("degrees must be nonnegative")
    return max(n + m for n, m in entries)


def _planar_entries(p: EllipseParams, alpha: float, entries, degree: int):
    """<C_n(z/c), C_m(z/c)>_alpha for each (n, m) listed, under dA_alpha on the
    ellipse p, by the area rule exact for degree (every n + m <= degree),
    and that rule's shape."""
    rule = _exact_rule(area_measure(p, alpha), degree)
    n, m = np.array(entries).T
    C = gegenbauer_matrix(alpha, max(n.max(), m.max()), rule.nodes / p.c)
    return rule.shape, np.sum(rule.weights * C[n] * np.conj(C[m]), axis=1)


def _reports(regime: LimitRegime, entries, parameters, planes, targets,
             log_scale=None, extras=None) -> list[LimitReport]:
    """One LimitReport per (n, m) entry listed, along parameters: one rule
    per (ellipse, alpha) of planes, exact for the largest n + m = d, gives
    the planar entries, times exp(log_scale(j, n, m)) at parameter j when
    given.  extras(d) and targets(d) list each entry's own fields and limit;
    both run before any planar rule is built, so a closed value out of the
    double range raises first."""
    d = _degree(entries)
    own = extras(d) if extras else [{}] * len(entries)
    expected = targets(d)
    with np.errstate(over="ignore", invalid="ignore"):
        shapes, planar = zip(*[_planar_entries(p, alpha, entries, d) for p, alpha in planes])
    if not all(np.isfinite(row).all() for row in planar):
        raise ValueError(f"{regime.value} planar entries are not finite in double precision")
    tolerance, noise_floor, residual, residual_kind, rate = _REGIMES[regime]
    reports = []
    for i, (n, m) in enumerate(entries):
        values = tuple(complex(row[i] if log_scale is None else
                               _times_exp(row[i], log_scale(j, n, m), f"{regime.value} value"))
                       for j, row in enumerate(planar))
        reports.append(LimitReport(
            regime=regime, n=n, m=m, parameters=parameters, values=values, target=expected[i],
            residuals=tuple(residual(v, expected[i], n, m, p) for v, (p, _) in zip(values, planes)),
            tolerance=tolerance, noise_floor=noise_floor,
            extras={"residual_kind": residual_kind, "rule_nodes": list(shapes[0]), **own[i],
                    "rate": rate}))
    return reports


def _log_ratio_product(u: float, v: float, n: int) -> float:
    """log((u)_n / (v)_n) summed from log(u + j) - log(v + j), j < n: exact to
    the terms' roundoff, where lgamma differences lose eps * lgamma(v + n)."""
    return math.fsum([math.log(u + j) for j in range(n)] + [-math.log(v + j) for j in range(n)])


def _monotone(sequence, direction: int, message: str,
              below: float = math.inf) -> tuple[float, ...]:
    """The sequence as floats; raises ValueError(message) unless it has at
    least two entries, each step has the sign of direction (+1 or -1) and
    every entry lies below `below`."""
    values = tuple(float(t) for t in sequence)
    if len(values) < 2 or max(values) >= below or any(
            direction * (t2 - t1) <= 0 for t1, t2 in zip(values, values[1:])):
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
    """hermite_limit for every (n, m) entry listed."""
    alphas = _monotone(alpha_sequence, +1, "alpha_sequence must be strictly increasing")
    log_ab = math.log(math.pi * p.a * p.b)
    return _reports(
        LimitRegime.HERMITE_PLANE, entries, alphas, [(p, alpha) for alpha in alphas],
        lambda d: [_times_exp(1.0, log_ab + math.lgamma(n + 1) + n * math.log(2.0 * p.x_star),
                              "hermite_limit target") if n == m else 0.0 for n, m in entries],
        log_scale=lambda j, n, m: (log_ab + math.lgamma(n + 1) + math.lgamma(m + 1)
                                   - 0.5 * (n + m) * math.log1p(alphas[j])))


def _disc_moments(a: float, alpha: float, entries, degree: int) -> list[complex]:
    """disc_reference for each (n, m) listed, on the k x 2k area rule of the
    unit disc exact for degree (every n + m <= degree); 0 off the diagonal."""
    k = _exact_size(degree)
    z, w = _interleave_antipodes(*_area_rule(1.0, 1.0, alpha, k, 2 * k))
    return [complex(_times_exp(np.sum(w * z ** n * np.conj(z) ** m),
                               (n + m) * math.log(a), "disc_reference value"))
            if n == m else 0j for n, m in entries]


def disc_reference(a: float, alpha: float, n: int, m: int) -> complex:
    """<z^n, z^m> on the disc |z| < a under (1+alpha)(1-|z/a|^2)^alpha dA,
    by the area rule on the unit disc (k-node Gauss-Jacobi radially, 2k-point
    trapezoid in angle, exact for degree n + m), scaled by a^{n+m} in logs.
    The closed diagonal is n! a^{2n} / (2+alpha)_n; off the diagonal the
    moment is exactly 0 by rotation invariance.  Raises ValueError when the
    value leaves the double range.
    """
    return _disc_moments(a, alpha, [(n, m)], _degree([(n, m)]))[0]


def disc_limit(a: float, n: int, m: int, alpha: float, b_sequence) -> LimitReport:
    """b -> a: the monic inner products <ptilde_n, ptilde_m> under dA_alpha
    on the ellipse (a, b) approach the disc moments <z^n, z^m> of radius a
    (the monic polynomials degenerate to monomials; truncated-unitary
    regime).  The disc reference comes from the area rule on the unit disc.

    Residuals are absolute on the unit-disc scale, |value - target| a^{-(n+m)}
    (values and target stay in units of a), as the regime is scale-free
    under z -> z / a.  The diagonal converges at rate ~ n (1 - b/a), which
    the prefactor-free absolute error tracks cleanly while every off-diagonal
    entry is an exact zero on both sides.  The monic factors, the radius
    scale and the closed diagonal are taken in logs; a value outside the
    double range raises ValueError.
    """
    return _disc_reports(a, [(n, m)], alpha, b_sequence)[0]


def _disc_reports(a: float, entries, alpha: float, b_sequence) -> list[LimitReport]:
    """disc_limit for every (n, m) entry listed."""
    bs = _monotone(b_sequence, +1, "b_sequence must be strictly increasing toward a, below a", a)
    ps = [make_params(a, b) for b in bs]
    return _reports(
        LimitRegime.DISC_TRUNCATED_UNITARY, entries, bs, [(p, alpha) for p in ps],
        lambda d: _disc_moments(a, alpha, entries, d),
        log_scale=lambda j, n, m: (_log_monic_factor(alpha, ps[j], n)
                                   + _log_monic_factor(alpha, ps[j], m)),
        extras=lambda d: [{"closed_diagonal": _times_exp(
            1.0, _log_ratio_product(1.0, 2.0 + alpha, n) + 2 * n * math.log(a),
            "disc_limit closed diagonal") if n == m else 0.0} for n, m in entries])


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
    Gauss-Jacobi sum, exact for degree n + m.  Residuals are relative on the
    diagonal (rate O(b^2) with an n-dependent constant), absolute off it.
    A value outside the double range raises ValueError.
    """
    return _realline_reports(a, [(n, m)], alpha, b_sequence)[0]


def _realline_reports(a: float, entries, alpha: float, b_sequence) -> list[LimitReport]:
    """realline_limit for every (n, m) entry listed."""
    bs = _monotone(b_sequence, -1, "b_sequence must be strictly decreasing toward 0, below a", a)

    def targets(d):
        t1, w1 = _gauss_jacobi(_exact_size(d), float(alpha) + 0.5, float(alpha) + 0.5)
        C1 = gegenbauer_matrix(alpha, max(max(entry) for entry in entries), 2.0 * t1 - 1.0).real
        # The real-line family is exactly orthogonal: off the diagonal the limit is 0.
        return [float(np.sum(w1 * C1[n] * C1[m])) if n == m else 0.0 for n, m in entries]

    return _reports(
        LimitRegime.REAL_LINE, entries, bs, [(make_params(a, b), alpha) for b in bs], targets,
        extras=lambda d: [{"oracle_nodes": _exact_size(d),
                           "closed_diagonal": (1.0 + alpha) / (1.0 + alpha + n)
                           * _times_exp(1.0, _log_ratio_product(2.0 + 2.0 * alpha, 1.0, n),
                                        "realline_limit closed diagonal") if n == m else 0.0}
                          for n, m in entries])
