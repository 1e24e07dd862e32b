"""Polynomial families and their evaluation at complex arguments.

All evaluation is by forward three-term recurrence, vectorized over numpy
arrays.  The central family is Gegenbauer C_n^{(1+alpha)} with alpha > -1,
which contains Legendre (alpha = -1/2) and Chebyshev U (alpha = 0); the
Jacobi sub-families P_n^{(alpha+1/2, +-1/2)} and Chebyshev T, V, W enter
through the quadratic Joukowsky-type maps of the ellipse.
"""

from __future__ import annotations

import cmath
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


def _forward(nmax: int, z, first, step):
    """Rows 0..nmax of a three-term family by forward recurrence: row 0 is 1,
    row 1 is first(z) and row k+1 is step(k, z, row k, row k-1).

    A single point is stepped on a Python number, a float when its imaginary
    part is zero and a complex otherwise, and its rows come back as a list of
    those numbers: no array is made, and past the double range they go to inf
    and then nan without warnings.  An array of points is stepped a row at a
    time into an array of shape (nmax+1,) + shape(z)."""
    if nmax < 0:
        raise ValueError(f"degree must be nonnegative, got {nmax}")
    # the isinstance test spares Python numbers np.ndim's conversion to an array
    if isinstance(z, (float, complex, int)) or np.ndim(z) == 0:
        z = complex(z)
        z = z.real if z.imag == 0 else z
        rows = [1.0] * (nmax + 1)
    else:
        z = np.asarray(z, dtype=complex)
        rows = np.empty((nmax + 1,) + z.shape, dtype=complex)
        rows[0] = 1.0
    if nmax >= 1:
        # the last two rows ride in locals, which is cheaper than indexing rows
        prev, cur = 1.0, first(z)
        rows[1] = cur
        for k in range(1, nmax):
            prev, cur = cur, step(k, z, cur, prev)
            rows[k + 1] = cur
    return rows


def _gegenbauer_rows(alpha: float, nmax: int, z):
    """C_k^{(1+alpha)}(z) for k = 0..nmax, as _forward returns them: a list
    of Python numbers at a single point, an array for an array of points."""
    _check_alpha(alpha)
    alpha = float(alpha)   # a numpy scalar would make every step numpy scalar arithmetic
    return _forward(
        nmax, z, lambda z: 2.0 * (1.0 + alpha) * z,
        lambda k, z, ck, cm: (2.0 * (k + 1 + alpha) * z * ck - (k + 1 + 2 * alpha) * cm) / (k + 1))


def _gegenbauer_ratios(alpha: float, nmax: int, x: float) -> list[float]:
    """t_k = C_k^{(1+alpha)}(x)/C_k^{(1+alpha)}(1), k = 0..nmax, at one real x:
    t_0 = 1, t_1 = x and t_{k+1} = x t_k + (x t_k - t_{k-1}) k/(k+2+2alpha), the
    Gegenbauer step over C_{k+1}(1), which is never formed.  |t_k| <= 1 on
    [-1, 1] and exactly +-1 at x = +-1; the factor k/(k+2+2alpha) < 1 is formed
    first, so no intermediate exceeds the next ratio."""
    _check_alpha(alpha)
    alpha = float(alpha)
    return _forward(nmax, float(x), lambda x: x,
                    lambda k, x, tk, tm: x * tk + (x * tk - tm) * (k / (k + 2.0 + 2.0 * alpha)))


def gegenbauer_matrix(alpha: float, nmax: int, z) -> np.ndarray:
    """All Gegenbauer values C_k^{(1+alpha)}(z) for k = 0..nmax.

    Returns an array of shape (nmax+1,) + shape(z).  Forward recurrence:
    C_{k+1} = (2(k+1+alpha) z C_k - (k+1+2 alpha) C_{k-1}) / (k+1).
    """
    return np.asarray(_gegenbauer_rows(alpha, nmax, z), dtype=complex)


# Degree-one members of the Chebyshev kinds; all four share the step
# 2 z P_k - P_{k-1}.
_CHEBYSHEV_FIRST = {
    FamilyKind.CHEBYSHEV_T: lambda z: z,
    FamilyKind.CHEBYSHEV_U: lambda z: 2.0 * z,
    FamilyKind.CHEBYSHEV_V: lambda z: 2.0 * z - 1.0,
    FamilyKind.CHEBYSHEV_W: lambda z: 2.0 * z + 1.0,
}


def _family_rows(family: PolynomialFamily, nmax: int, z):
    """Values of family members 0..nmax at z, as _forward returns them."""
    kind = family.kind
    if kind == FamilyKind.GEGENBAUER:
        return _gegenbauer_rows(family.alpha, nmax, z)
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


def family_matrix(family: PolynomialFamily, nmax: int, z) -> np.ndarray:
    """Values of family members 0..nmax at z; shape (nmax+1,) + shape(z)."""
    return np.asarray(_family_rows(family, nmax, z), dtype=complex)


def eval_family(family: PolynomialFamily, n: int, z):
    """Evaluate the degree-n member of the family at z.

    Raises ValueError when the value (any entry of it, for an array z) is not
    finite, naming the first degree whose row leaves the double range."""
    if isinstance(z, (float, complex, int)):   # a Python number steps without numpy
        rows = _family_rows(family, n, z)
    else:
        with np.errstate(over="ignore", invalid="ignore"):   # the ValueError says it
            rows = _family_rows(family, n, z)
    point = isinstance(rows, list)
    finite = cmath.isfinite if point else lambda row: bool(np.isfinite(row).all())
    if not finite(rows[n]):
        first = next(k for k in range(n + 1) if not finite(rows[k]))
        raise ValueError(f"{family.kind.value} value of degree {n} is not finite: its "
                         f"recurrence leaves the double range from degree {first}")
    return complex(rows[n]) if point else rows[n]


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


def _gegenbauer_h(alpha: float, k: int, ck: float) -> float:
    """h_k from C_k(x_star): the one formula every Gegenbauer norm reads."""
    return (1.0 + alpha) / (1.0 + alpha + k) * ck


def _gegenbauer_norms(alpha: float, p: EllipseParams, nmax: int) -> list[float]:
    """h_0..h_nmax from one recurrence pass, as Python floats; non-finite past
    the double range, and from there on (inf steps to inf or nan, never back)."""
    C = _gegenbauer_rows(alpha, nmax, p.x_star)
    return [_gegenbauer_h(alpha, k, ck) for k, ck in enumerate(C)]


def gegenbauer_norm(alpha: float, p: EllipseParams, n: int) -> float:
    """Squared norm of C_n^{(1+alpha)}(z/c) under the normalized weight dA_alpha:

        h_n = (1 + alpha)/(1 + alpha + n) * C_n^{(1+alpha)}(x_star).

    Raises ValueError when h_n is beyond the double range.
    """
    h = _gegenbauer_h(alpha, n, _gegenbauer_rows(alpha, n, p.x_star)[n])
    if not math.isfinite(h):
        raise ValueError(f"h_{n} is not finite for alpha = {alpha}: C_{n}(x_star) overflows")
    return h


def _recurrence_entry(alpha: float, p: EllipseParams, h, n: int) -> tuple[float, float]:
    """(a_{n+1}, b_n) from h[k] = h_k, k = n - 1..n + 1 (a list or a mapping);
    b_0 = 0.0.  Non-finite norms give non-finite or zero coefficients."""
    a = p.c * (n + 1) / (2.0 * (n + alpha + 1)) * math.sqrt(h[n + 1] / h[n])
    if n == 0:
        return a, 0.0
    return a, p.c * (n + 2 * alpha + 1) / (2.0 * (n + alpha + 1)) * math.sqrt(h[n - 1] / h[n])


def _recurrence_table(alpha: float, p: EllipseParams, nmax: int,
                      h=None) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """a[n] = a_{n+1} and b[n] = b_n (b[0] = 0.0) for n <= nmax, from one norm
    ladder: h, when the caller has one through degree nmax + 1 or beyond."""
    h = _gegenbauer_norms(alpha, p, nmax + 1) if h is None else h
    a, b = zip(*(_recurrence_entry(alpha, p, h, n) for n in range(nmax + 1)))
    return a, b


def recurrence_coeffs(alpha: float, p: EllipseParams, n: int) -> tuple[float, float]:
    """Coefficients of z p_n = a_{n+1} p_{n+1} + b_n p_{n-1} for the
    orthonormal planar Gegenbauer basis p_n = C_n^{(1+alpha)}(z/c)/sqrt(h_n).

    Returns (a_{n+1}, b_n); b_0 = 0 by the convention p_{-1} = 0.  Unlike on
    the real line the recurrence is not symmetric: a_n != b_n for b > 0.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    C = _gegenbauer_rows(alpha, n + 1, p.x_star)
    h = {k: _gegenbauer_h(alpha, k, C[k]) for k in range(max(n - 1, 0), n + 2)}
    return _recurrence_entry(alpha, p, h, n)


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
