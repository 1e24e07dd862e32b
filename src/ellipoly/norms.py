"""Closed-form squared norms, Gram-matrix verification, and Gram-Schmidt.

Every family supported by the library has an explicit squared-norm formula
under its canonical weight on the ellipse; gram_matrix checks the full
Kronecker-delta structure against quadrature.  For weights without a known
basis, gram_schmidt builds the orthonormal polynomials by Arnoldi on the
nodes of a quadrature rule, so they are orthonormal under that rule, custom
ones such as a point-charge weight included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EllipseParams,
    Measure,
    _check_alpha,
    area_measure,
    b_minus_measure,
    b_plus_measure,
    chebyshev_t_measure,
    chebyshev_v_measure,
    chebyshev_w_measure,
    flat_measure,
)
from .polynomials import (
    FamilyKind,
    PolynomialFamily,
    _gegenbauer_norms,
    eval_terminating_2f1,
    family_matrix,
    gegenbauer_matrix,
    gegenbauer_norm,
    lnpoch,
)
from .quadrature import QuadratureRule, build_rule

__all__ = [
    "GramResult",
    "canonical_measure",
    "closed_norm",
    "gram_matrix",
    "gram_schmidt",
    "monic_factor",
    "log_monic_norm",
    "monic_norm",
]

def canonical_measure(family: PolynomialFamily, p: EllipseParams) -> Measure:
    """The weight on the ellipse under which the family is orthogonal.

    Area-type weights come back in the normalized (unit-mass) convention,
    the singular Chebyshev weights in the flat d^2z convention.
    """
    k = family.kind
    if k == FamilyKind.GEGENBAUER:
        return area_measure(p, family.alpha)
    if k == FamilyKind.JACOBI_HALF:
        return (b_minus_measure if family.sign == -1 else b_plus_measure)(p, family.alpha)
    if k == FamilyKind.CHEBYSHEV_T:
        return chebyshev_t_measure(p)
    if k == FamilyKind.CHEBYSHEV_U:
        return flat_measure(p)
    if k == FamilyKind.CHEBYSHEV_V:
        return chebyshev_v_measure(p)
    if k == FamilyKind.CHEBYSHEV_W:
        return chebyshev_w_measure(p)
    raise ValueError(f"{k.value} has no canonical planar weight")


def _norm_table(family: PolynomialFamily, p: EllipseParams, nmax: int) -> np.ndarray:
    """h_0..h_nmax of the family (argument z/c) under its canonical weight and
    convention, from one pass; entries past the double range are non-finite.

    P_n^{(alpha+1/2, -+1/2)} under dB^-+ (normalized, a and c of the
    measure's own ellipse) read rows 2n and 2n+1 of one C_k^{(1+alpha)}(a/c)
    ladder; the flat Chebyshev norms are powers of q = r/c.
    """
    k = family.kind
    if k == FamilyKind.GEGENBAUER:
        return _gegenbauer_norms(family.alpha, p, nmax)
    n = np.arange(nmax + 1.0)
    q = p.r / p.c
    with np.errstate(all="ignore"):
        if k == FamilyKind.JACOBI_HALF:
            al = family.alpha
            C = gegenbauer_matrix(al, 2 * nmax + 1, p.a / p.c).real
            # ((1/2)_m / (1+alpha)_m)^2 for m = 0..nmax+1, summed in logs
            ratio = np.concatenate(([1.0], (0.5 + n) / (al + 1.0 + n)))
            r2 = np.exp(2.0 * np.cumsum(np.log(ratio)))
            if family.sign == -1:
                return r2[:-1] * (1.0 + al) / (1.0 + al + 2 * n) * C[0::2]
            pref = 2.0 * p.c * (1.0 + al) * (2.0 + al) / (p.a * (2.0 + al + 2 * n))
            return pref * r2[1:] * C[1::2]
        if k == FamilyKind.CHEBYSHEV_T:
            h = math.pi / (4.0 * n) * (q ** (2 * n) - q ** (-2 * n))
            h[0] = 2.0 * math.pi * math.log(q)
            return h
        if k == FamilyKind.CHEBYSHEV_U:
            return math.pi * p.c ** 2 / (4.0 * (n + 1)) * (q ** (2 * n + 2) - q ** (-2 * n - 2))
        if k in (FamilyKind.CHEBYSHEV_V, FamilyKind.CHEBYSHEV_W):
            # V and W share the same norm; the weights are mirror images.
            return math.pi * p.c / (1.0 + 2 * n) * (q ** (2 * n + 1) - q ** (-2 * n - 1))
    raise ValueError(f"{k.value} has no canonical planar weight")


def _closed_norms(family: PolynomialFamily, p: EllipseParams, nmax: int,
                  normalized: bool | None = None) -> np.ndarray:
    """closed_norm for every degree 0..nmax, from one table."""
    if nmax < 0:
        raise ValueError("degree must be nonnegative")
    h = _norm_table(family, p, nmax)
    bad = np.flatnonzero(~np.isfinite(h))
    if bad.size:
        raise ValueError(f"{family.kind.value} norm h_{nmax} is not finite: the "
                         f"norms overflow the double range from degree {bad[0]}")
    if normalized is None:
        return h
    measure = canonical_measure(family, p)
    if normalized == measure.normalized:
        return h
    return h * measure.flat_factor if measure.normalized else h / measure.flat_factor


def closed_norm(family: PolynomialFamily, p: EllipseParams, n: int,
                normalized: bool | None = None) -> float:
    """Squared norm of the degree-n family member (argument z/c) under its
    canonical weight on the ellipse described by p.

    With normalized=None each family reports in its canonical convention
    (unit-mass measure for the area-type weights, flat d^2z for Chebyshev);
    pass True/False to force a convention, converted via Measure.flat_factor.
    Raises ValueError when the norm is not finite in double precision.
    """
    return float(_closed_norms(family, p, n, normalized)[n])


@dataclass(frozen=True)
class GramResult:
    """Gram matrix of a family under a measure, with closed-form comparison.

    matrix[n, m] = <f_n(./c), f_m(./c)> under the measure's convention;
    closed_diag / diag_relative_errors are populated only when the pairing
    has a known closed norm.
    """

    family: PolynomialFamily
    measure: Measure
    nmax: int
    matrix: np.ndarray
    max_offdiag: float
    diag: np.ndarray
    closed_diag: np.ndarray | None
    diag_relative_errors: np.ndarray | None

    @property
    def max_diag_error(self) -> float:
        if self.diag_relative_errors is None:
            raise ValueError("no closed-form diagonal for this pairing")
        return float(np.max(self.diag_relative_errors))


def _is_canonical(family: PolynomialFamily, measure: Measure) -> bool:
    try:
        canon = canonical_measure(family, measure.params)
    except ValueError:
        return False
    return canon.kind == measure.kind and (canon.alpha == measure.alpha)


def gram_matrix(family: PolynomialFamily, measure: Measure, nmax: int,
                rule: QuadratureRule | None = None) -> GramResult:
    """Full Gram matrix of family members 0..nmax (argument z/c) under the
    measure, by quadrature on the rule (default: build_rule(measure));
    conjugate symmetry is enforced exactly."""
    if rule is None:
        rule = build_rule(measure)
    elif rule.measure != measure:
        raise ValueError("rule was built for a different measure")
    p = measure.params
    vals = family_matrix(family, nmax, rule.nodes / p.c)
    weighted = vals * rule.weights
    G = weighted @ np.conjugate(vals, out=vals).T
    G = 0.5 * (G + G.conj().T)
    diag = np.diag(G).real.copy()
    off = G - np.diag(np.diag(G))
    max_offdiag = float(np.abs(off).max()) if nmax > 0 else 0.0

    closed_diag = rel = None
    if _is_canonical(family, measure):
        closed_diag = _closed_norms(family, p, nmax, normalized=measure.normalized)
        rel = np.abs(diag - closed_diag) / np.abs(closed_diag)
    return GramResult(family=family, measure=measure, nmax=nmax, matrix=G,
                      max_offdiag=max_offdiag, diag=diag, closed_diag=closed_diag,
                      diag_relative_errors=rel)


def _arnoldi(z: np.ndarray, w: np.ndarray, nmax: int) -> np.ndarray:
    """Hessenberg matrix of multiplication by z in the basis orthonormal under
    the weights w on the nodes z, by Arnoldi (the discretized Stieltjes
    procedure): z p_{n-1} = sum_{l<=n} H[l, n-1] p_l, with p_0 = 1/sqrt(mass)
    and H[n, n-1] > 0.  H has shape (nmax+1, nmax) and exact zeros below the
    subdiagonal.  Step n orthogonalizes z p_{n-1} against p_0 .. p_{n-1} on
    the nodes, with one reorthogonalization pass; a new vector whose norm
    falls below 1e-12 of its norm before orthogonalization raises
    LinAlgError naming the degree.
    """
    Q = np.zeros((nmax + 1, z.size), dtype=complex)
    G = np.zeros((nmax + 1, nmax + 1), dtype=complex)   # column n: step n's <v, p_k> and norm
    v = np.ones(z.size, dtype=complex)
    for n in range(nmax + 1):
        if n:
            v = z * Q[n - 1]
        before = math.sqrt(w @ np.abs(v) ** 2)
        for _ in range(2):
            h = np.conj(Q[:n] @ np.conj(w * v))    # h_k = <v, p_k>
            v = v - h @ Q[:n]
            G[:n, n] += h
        nrm = math.sqrt(w @ np.abs(v) ** 2)
        if not nrm > 1e-12 * before:
            raise np.linalg.LinAlgError(f"rule is numerically rank-deficient at degree {n}")
        G[n, n], Q[n] = nrm, v / nrm
    return G[:, 1:]


def gram_schmidt(measure: Measure, nmax: int,
                 rule: QuadratureRule | None = None) -> list[np.ndarray]:
    """Orthonormal polynomials under the rule (default: build_rule(measure)),
    read from the Hessenberg matrix of _arnoldi on its nodes.

    Returns coefficient vectors: entry n holds the coefficients of
    z^0 .. z^n of p_n, with real positive leading coefficient, and
    <p_n, p_m> = delta under the rule's weights, custom rules such as a
    charged weight (dataclasses.replace of the measure's rule) included.
    A rule built for another measure raises ValueError.
    """
    if rule is None:
        rule = build_rule(measure)
    elif rule.measure != measure:
        raise ValueError("rule was built for a different measure")
    H = _arnoldi(rule.nodes, rule.weights, nmax)
    C = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    C[0, 0] = 1.0 / math.sqrt(rule.weights.sum())
    for n in range(1, nmax + 1):
        C[n] = (np.roll(C[n - 1], 1) - H[:n, n - 1] @ C[:n]) / H[n, n - 1]
    return [C[n, : n + 1] for n in range(nmax + 1)]


def _log_monic_factor(alpha: float, p: EllipseParams, n: int) -> float:
    """log of monic_factor, finite where the factor itself overflows."""
    return math.lgamma(n + 1) + n * math.log(p.c / 2.0) - lnpoch(1.0 + alpha, n)


def _times_exp(value, log_scale: float, what: str):
    """value * exp(log_scale) as one exponential, so that a scale outside the
    double range does not overflow when the product lies inside it; raises
    ValueError naming `what` when the product leaves the range.  At value 1.0
    this is math.exp(log_scale) bit for bit."""
    if value == 0:
        return value
    log_mag = log_scale + math.log(abs(value))
    if not log_mag < math.log(sys.float_info.max):   # also catches nan
        raise ValueError(f"{what} exp({log_mag!r}) is not finite: it overflows the double range")
    return value / abs(value) * math.exp(log_mag)


def monic_factor(alpha: float, p: EllipseParams, n: int) -> float:
    """Factor turning C_n^{(1+alpha)}(z/c) into the monic polynomial in z:

        ptilde_n(z) = n! c^n / (2^n (1+alpha)_n) * C_n^{(1+alpha)}(z/c).

    Raises ValueError when the factor is beyond the double range.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _times_exp(1.0, _log_monic_factor(alpha, p, n), f"monic factor of degree {n}")


def log_monic_norm(alpha: float, p: EllipseParams, n: int,
                   method: str = "gegenbauer") -> float:
    """log of the squared norm of the monic polynomial ptilde_n under dA_alpha.

    Two independent routes agree to roundoff:
      - 'gegenbauer': rescale the Gegenbauer norm by the monic factor;
      - 'hypergeometric': the Gamma-ratio/terminating-2F1 closed form
        evaluated at -b^2/c^2, whose series terms are all positive.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _check_alpha(alpha)
    if method == "gegenbauer":
        return 2.0 * _log_monic_factor(alpha, p, n) + math.log(gegenbauer_norm(alpha, p, n))
    if method == "hypergeometric":
        f = eval_terminating_2f1(n, 2.0 + 2.0 * alpha + n, alpha + 1.5,
                                 -(p.b / p.c) ** 2)
        return (2.0 * n * math.log(p.c / 2.0)
                + 0.5 * math.log(math.pi)
                + math.lgamma(2.0 + alpha)
                + math.lgamma(2.0 + 2.0 * alpha + n)
                + math.lgamma(n + 1.0)
                - (2.0 * alpha + 1.0) * math.log(2.0)
                - math.lgamma(alpha + 1.5)
                - math.lgamma(1.0 + alpha + n)
                - math.lgamma(2.0 + alpha + n)
                + math.log(f))
    raise ValueError(f"unknown method {method!r}")


def monic_norm(alpha: float, p: EllipseParams, n: int,
               method: str = "gegenbauer") -> float:
    """Squared norm htilde_n of the monic polynomial under dA_alpha; raises
    ValueError when htilde_n is beyond the double range."""
    return _times_exp(1.0, log_monic_norm(alpha, p, n, method=method), f"htilde_{n}")
