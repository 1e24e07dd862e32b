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
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EllipseParams,
    Measure,
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
from .quadrature import (
    DEFAULT_N_ANGULAR,
    DEFAULT_N_RADIAL,
    QuadratureRule,
    build_rule,
)

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
    n_radial: int
    n_angular: int

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
                rule: QuadratureRule | None = None,
                n_radial: int = DEFAULT_N_RADIAL,
                n_angular: int = DEFAULT_N_ANGULAR) -> GramResult:
    """Full Gram matrix of family members 0..nmax (argument z/c) under the
    measure, by quadrature; conjugate symmetry is enforced exactly."""
    if rule is None:
        rule = build_rule(measure, n_radial=n_radial, n_angular=n_angular)
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
                      diag_relative_errors=rel,
                      n_radial=n_radial, n_angular=n_angular)


def gram_schmidt(measure: Measure, nmax: int,
                 rule: QuadratureRule | None = None) -> list[np.ndarray]:
    """Orthonormal polynomials under the rule, by Arnoldi on its nodes (the
    discretized Stieltjes procedure).

    Returns coefficient vectors: entry n holds the coefficients of
    z^0 .. z^n of p_n, with real positive leading coefficient, and
    <p_n, p_m> = delta under the rule's weights, custom rules such as a
    charged weight included.  Step n orthogonalizes z p_{n-1} against
    p_0 .. p_{n-1} on the nodes, with one reorthogonalization pass, and
    applies the same steps to the monomial coefficients.  A new vector whose
    norm falls below 1e-12 of its norm before orthogonalization raises
    LinAlgError naming the degree.
    """
    if rule is None:
        rule = build_rule(measure)
    z, w = rule.nodes, rule.weights
    Q = np.zeros((nmax + 1, z.size), dtype=complex)
    C = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    v, c = np.ones(z.size, dtype=complex), np.eye(1, nmax + 1)[0]
    for n in range(nmax + 1):
        if n:
            v, c = z * Q[n - 1], np.roll(C[n - 1], 1)
        before = math.sqrt(w @ np.abs(v) ** 2)
        for _ in range(2):
            h = np.conj(Q[:n] @ np.conj(w * v))    # h_k = <v, p_k>
            v = v - h @ Q[:n]
            c = c - h @ C[:n]
        nrm = math.sqrt(w @ np.abs(v) ** 2)
        if not nrm > 1e-12 * before:
            raise np.linalg.LinAlgError(f"rule is numerically rank-deficient at degree {n}")
        Q[n], C[n] = v / nrm, c / nrm
    return [C[n, : n + 1] for n in range(nmax + 1)]


def _log_monic_factor(alpha: float, p: EllipseParams, n: int) -> float:
    """log of monic_factor, finite where the factor itself overflows."""
    return math.lgamma(n + 1) + n * math.log(p.c / 2.0) - lnpoch(1.0 + alpha, n)


def monic_factor(alpha: float, p: EllipseParams, n: int) -> float:
    """Factor turning C_n^{(1+alpha)}(z/c) into the monic polynomial in z:

        ptilde_n(z) = n! c^n / (2^n (1+alpha)_n) * C_n^{(1+alpha)}(z/c).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return math.exp(_log_monic_factor(alpha, p, n))


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
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
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
    log_h = log_monic_norm(alpha, p, n, method=method)
    try:
        return math.exp(log_h)
    except OverflowError:
        raise ValueError(f"htilde_{n} = exp({log_h!r}) overflows the double range") from None
