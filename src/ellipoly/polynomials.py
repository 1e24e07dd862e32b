"""Polynomial families and their evaluation at complex arguments.

All evaluation is by forward three-term recurrence, vectorized over numpy
arrays.  The central family is Gegenbauer C_n^{(1+alpha)} with alpha > -1,
which contains Legendre (alpha = -1/2) and Chebyshev U (alpha = 0); the
Jacobi sub-families P_n^{(alpha+1/2, +-1/2)} and Chebyshev T, V, W enter
through the quadratic Joukowsky-type maps of the ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import EllipseParams, _check_alpha

__all__ = [
    "FamilyKind",
    "PolynomialFamily",
    "gegenbauer",
    "legendre",
    "chebyshev_t",
    "chebyshev_u",
    "chebyshev_v",
    "chebyshev_w",
    "jacobi_half",
    "hermite",
    "gegenbauer_matrix",
    "eval_family",
    "family_matrix",
    "gegenbauer_coeffs",
    "gegenbauer_norm",
    "recurrence_coeffs",
    "eval_terminating_2f1",
]


class FamilyKind(Enum):
    GEGENBAUER = "gegenbauer"
    CHEBYSHEV_T = "chebyshev_t"
    CHEBYSHEV_U = "chebyshev_u"
    CHEBYSHEV_V = "chebyshev_v"
    CHEBYSHEV_W = "chebyshev_w"
    JACOBI_HALF = "jacobi_half"
    HERMITE = "hermite"


@dataclass(frozen=True)
class PolynomialFamily:
    """A polynomial family; alpha and sign only apply where meaningful.

    sign = +1 selects P_n^{(alpha+1/2, +1/2)}, sign = -1 selects
    P_n^{(alpha+1/2, -1/2)} for the JACOBI_HALF kind.
    """

    kind: FamilyKind
    alpha: float | None = None
    sign: int = 0

    def __post_init__(self):
        needs_alpha = self.kind in (FamilyKind.GEGENBAUER, FamilyKind.JACOBI_HALF)
        if needs_alpha:
            if self.alpha is None:
                raise ValueError(f"{self.kind.value} requires alpha")
            _check_alpha(self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"{self.kind.value} takes no alpha")
        if self.kind == FamilyKind.JACOBI_HALF and self.sign not in (-1, 1):
            raise ValueError("jacobi_half requires sign in {-1, +1}")
        if self.kind != FamilyKind.JACOBI_HALF and self.sign != 0:
            raise ValueError("sign only applies to jacobi_half")


def gegenbauer(alpha: float) -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.GEGENBAUER, float(alpha))


def legendre() -> PolynomialFamily:
    return gegenbauer(-0.5)   # P_n = C_n^{(1/2)}


def chebyshev_t() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.CHEBYSHEV_T)


def chebyshev_u() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.CHEBYSHEV_U)


def chebyshev_v() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.CHEBYSHEV_V)


def chebyshev_w() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.CHEBYSHEV_W)


def jacobi_half(alpha: float, sign: int) -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.JACOBI_HALF, float(alpha), int(sign))


def hermite() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.HERMITE)


def lnpoch(a: float, n: int) -> float:
    """log of the Pochhammer symbol (a)_n = Gamma(a+n)/Gamma(a), a > 0."""
    return math.lgamma(a + n) - math.lgamma(a)


def _as_complex(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _forward(nmax: int, z, first, step) -> np.ndarray:
    """Rows 0..nmax of a three-term family by forward recurrence: row 0 is 1,
    row 1 is first(z) and row k+1 is step(k, z, row k, row k-1).

    A single point is stepped on a Python number, a float when its imaginary
    part is zero and a complex otherwise, which costs about a fifth of a step
    on a 0-d array; past the double range it gives inf and then nan without
    warnings.  An array of points is stepped a row at a time."""
    if nmax < 0:
        raise ValueError(f"degree must be nonnegative, got {nmax}")
    z, point = _as_complex(z)
    out = np.empty((nmax + 1,) + z.shape, dtype=complex)
    if point:
        z = z.real.item() if z.imag == 0 else z.item()
    out[0] = 1.0
    if nmax >= 1:
        # the last two rows ride in locals, which is cheaper than indexing out
        prev, cur = 1.0, first(z)
        out[1] = cur
        for k in range(1, nmax):
            prev, cur = cur, step(k, z, cur, prev)
            out[k + 1] = cur
    return out


def gegenbauer_matrix(alpha: float, nmax: int, z) -> np.ndarray:
    """All Gegenbauer values C_k^{(1+alpha)}(z) for k = 0..nmax.

    Returns an array of shape (nmax+1,) + shape(z).  Forward recurrence:
    C_{k+1} = (2(k+1+alpha) z C_k - (k+1+2 alpha) C_{k-1}) / (k+1).
    """
    _check_alpha(alpha)
    return _forward(
        nmax, z, lambda z: 2.0 * (1.0 + alpha) * z,
        lambda k, z, ck, cm: (2.0 * (k + 1 + alpha) * z * ck - (k + 1 + 2 * alpha) * cm) / (k + 1))


# Degree-one members of the Chebyshev kinds; all four share the step
# 2 z P_k - P_{k-1}.
_CHEBYSHEV_FIRST = {
    FamilyKind.CHEBYSHEV_T: lambda z: z,
    FamilyKind.CHEBYSHEV_U: lambda z: 2.0 * z,
    FamilyKind.CHEBYSHEV_V: lambda z: 2.0 * z - 1.0,
    FamilyKind.CHEBYSHEV_W: lambda z: 2.0 * z + 1.0,
}


def family_matrix(family: PolynomialFamily, nmax: int, z) -> np.ndarray:
    """Values of family members 0..nmax at z; shape (nmax+1,) + shape(z)."""
    kind = family.kind
    if kind == FamilyKind.GEGENBAUER:
        return gegenbauer_matrix(family.alpha, nmax, z)
    if kind in _CHEBYSHEV_FIRST:
        return _forward(nmax, z, _CHEBYSHEV_FIRST[kind],
                        lambda k, z, pk, pm: 2.0 * z * pk - pm)
    if kind == FamilyKind.JACOBI_HALF:
        # P_k^{(A,B)} by the standard recurrence.  Degree one is written out
        # because the generic coefficient has a removable 0/0 at 2k + A + B = 0
        # (reached for A + B = 0).
        A, B = family.alpha + 0.5, 0.5 * family.sign

        def jacobi_step(k, z, pk, pm):
            s = 2 * k + A + B
            a1 = (s + 1.0) * (s + 2.0) / (2.0 * (k + 1) * (k + A + B + 1.0))
            b1 = (A * A - B * B) * (s + 1.0) / (2.0 * (k + 1) * (k + A + B + 1.0) * s)
            c1 = (k + A) * (k + B) * (s + 2.0) / ((k + 1) * (k + A + B + 1.0) * s)
            return (a1 * z + b1) * pk - c1 * pm

        return _forward(nmax, z, lambda z: (A - B) / 2.0 + (A + B + 2.0) * z / 2.0,
                        jacobi_step)
    if kind == FamilyKind.HERMITE:
        # physicists' Hermite: H_{k+1} = 2 z H_k - 2k H_{k-1}
        return _forward(nmax, z, lambda z: 2.0 * z,
                        lambda k, z, hk, hm: 2.0 * z * hk - 2.0 * k * hm)
    raise ValueError(f"unknown family {kind}")


def eval_family(family: PolynomialFamily, n: int, z):
    """Evaluate the degree-n member of the family at z."""
    zz, scalar = _as_complex(z)
    val = family_matrix(family, n, zz)[n]
    return complex(val) if scalar else val


def gegenbauer_coeffs(alpha: float, n: int) -> np.ndarray:
    """Monomial coefficients kappa_0..kappa_n of C_n^{(1+alpha)}, kappa_j
    multiplying z^j, from the closed Gamma-ratio form

    kappa_j = (-1)^{(n-j)/2} 2^j Gamma(alpha+1+(n+j)/2) /
              (Gamma(alpha+1) Gamma(j+1) Gamma(1+(n-j)/2))   for n - j even,

    and zero for n - j odd.  Stable for n <= ~30 via log-gamma.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    _check_alpha(alpha)
    coeffs = np.zeros(n + 1)
    for j in range(n % 2, n + 1, 2):
        ln = (j * math.log(2.0)
              + math.lgamma(alpha + 1 + (n + j) / 2)
              - math.lgamma(alpha + 1)
              - math.lgamma(j + 1)
              - math.lgamma(1 + (n - j) / 2))
        sign = -1.0 if ((n - j) // 2) % 2 else 1.0
        coeffs[j] = sign * math.exp(ln)
    return coeffs


def _gegenbauer_norms(alpha: float, p: EllipseParams, nmax: int) -> np.ndarray:
    """h_0..h_nmax from one recurrence pass, non-finite past the double range."""
    C = gegenbauer_matrix(alpha, nmax, p.x_star).real
    k = np.arange(nmax + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return (1.0 + alpha) / (1.0 + alpha + k) * C


def gegenbauer_norm(alpha: float, p: EllipseParams, n: int) -> float:
    """Squared norm of C_n^{(1+alpha)}(z/c) under the normalized weight dA_alpha:

        h_n = (1 + alpha)/(1 + alpha + n) * C_n^{(1+alpha)}(x_star).

    Raises ValueError when h_n is beyond the double range.
    """
    h = float(_gegenbauer_norms(alpha, p, n)[n])
    if not math.isfinite(h):
        raise ValueError(f"h_{n} is not finite for alpha = {alpha}: C_{n}(x_star) overflows")
    return h


def _recurrence_table(alpha: float, p: EllipseParams, nmax: int,
                      h: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """a[n] = a_{n+1} and b[n] = b_n (b[0] = 0.0) for n <= nmax, from one norm
    ladder: h, when the caller has one through degree nmax + 1 or beyond."""
    h = _gegenbauer_norms(alpha, p, nmax + 1) if h is None else h[: nmax + 2]
    n = np.arange(nmax + 1)
    a = p.c * (n + 1) / (2.0 * (n + alpha + 1)) * np.sqrt(h[1:] / h[:-1])
    b = np.zeros(nmax + 1)
    m = n[1:]
    b[1:] = p.c * (m + 2 * alpha + 1) / (2.0 * (m + alpha + 1)) * np.sqrt(h[:-2] / h[1:-1])
    return a, b


def recurrence_coeffs(alpha: float, p: EllipseParams, n: int) -> tuple[float, float]:
    """Coefficients of z p_n = a_{n+1} p_{n+1} + b_n p_{n-1} for the
    orthonormal planar Gegenbauer basis p_n = C_n^{(1+alpha)}(z/c)/sqrt(h_n).

    Returns (a_{n+1}, b_n); b_0 = 0 by the convention p_{-1} = 0.  Unlike on
    the real line the recurrence is not symmetric: a_n != b_n for b > 0.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a, b = _recurrence_table(alpha, p, n)
    return float(a[n]), float(b[n])


def eval_terminating_2f1(n: int, b: float, c: float, x: float) -> float:
    """Terminating Gauss series F(-n, b; c; x) = sum_{k<=n} (-n)_k (b)_k x^k / ((c)_k k!).

    Terms are accumulated multiplicatively; c must avoid the poles
    {0, -1, ..., -(n-1)}.
    """
    if n < 0:
        raise ValueError("termination order must be nonnegative")
    if c <= 0 and c == int(c) and c > -n:
        raise ValueError(f"2F1 denominator parameter hits a pole: c = {c}")
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= (k - n) * (b + k) * x / ((c + k) * (k + 1))
        total += term
    return total
