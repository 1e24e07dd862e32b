"""Bergman kernel, Christoffel transformation, and recurrence structure.

The orthonormal planar Gegenbauer basis satisfies a genuine three-term
recurrence (its multiplication matrix is banded); inserting a point charge
|v - z|^2 into the weight produces the Christoffel-transformed basis, whose
multiplication matrix has no finite band for b > 0.  The Turan determinant
of the Gegenbauer family at x_star is the scalar obstruction behind this.

Both the charged Hessenberg matrix and the charged values come from one
shifted QR step of the closed plain Hessenberg matrix (_charge_qr).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import EllipseParams, _check_alpha, area_measure
from .norms import _arnoldi, _log_monic_entry, _times_exp, monic_factor
from .polynomials import (
    _gegenbauer_norms,
    _gegenbauer_ratios,
    _gegenbauer_rows,
    _recurrence_table,
    gegenbauer_matrix,
)
from .quadrature import _exact_rule
from .selberg import _ensemble_weights

__all__ = [
    "GegenbauerBasis",
    "ChristoffelBasis",
    "HessenbergMatrix",
    "orthonormal_values",
    "bergman_kernel",
    "christoffel_values",
    "christoffel_norm_monic",
    "christoffel_entry_closed",
    "hessenberg",
    "bandwidth",
    "turan_determinant",
    "heine_check",
]


@dataclass(frozen=True)
class GegenbauerBasis:
    """Orthonormal basis p_n = C_n^{(1+alpha)}(z/c)/sqrt(h_n) under dA_alpha."""

    alpha: float
    params: EllipseParams

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class ChristoffelBasis:
    """Orthonormal basis under the point-charge weight |v - z|^2 dA_alpha.

    v may lie inside or outside the ellipse; the kernel values kappa_N(v, vbar)
    are strictly positive either way.
    """

    alpha: float
    params: EllipseParams
    v: complex

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not cmath.isfinite(self.v):
            raise ValueError(f"charge v must be finite, got {self.v}")


def orthonormal_values(alpha: float, p: EllipseParams, nmax: int, z) -> np.ndarray:
    """Matrix of orthonormal basis values p_k(z), k = 0..nmax; rows are degrees."""
    h = np.array(_gegenbauer_norms(alpha, p, nmax))
    zz = np.asarray(z, dtype=complex)
    C = gegenbauer_matrix(alpha, nmax, zz / p.c)
    return C / np.sqrt(h).reshape(h.shape + (1,) * zz.ndim)


def bergman_kernel(alpha: float, p: EllipseParams, N: int, z, w) -> complex:
    """Truncated reproducing kernel kappa_N(z, wbar) = sum_{i<N} p_i(z) conj(p_i(w)).

    Hermitian in (z, w); scalar in, scalar out, and broadcasts over arrays.
    """
    if N < 1:
        raise ValueError("kernel truncation N must be >= 1")
    zb, wb = np.broadcast_arrays(np.asarray(z), np.asarray(w))
    Pz = orthonormal_values(alpha, p, N - 1, zb)
    Pw = orthonormal_values(alpha, p, N - 1, wb)
    val = np.sum(Pz * Pw.conj(), axis=0)
    return complex(val) if np.ndim(val) == 0 else val


def _charge_values(basis: ChristoffelBasis, through: int):
    """p_k(v) for k <= through and the kernel ladder kappa_i = sum_{j<i}|p_j(v)|^2,
    as tuples of Python numbers, and the norm ladder h_0..h_through they were
    read from."""
    p = basis.params
    h = _gegenbauer_norms(basis.alpha, p, through)
    C = _gegenbauer_rows(basis.alpha, through, basis.v / p.c)
    pv = tuple(ck / math.sqrt(hk) for ck, hk in zip(C, h))
    kappa = tuple(itertools.accumulate((abs(x) * abs(x) for x in pv), initial=0.0))
    return pv, kappa, h


def _closed_entries(alpha: float, p: EllipseParams, nmax: int) -> np.ndarray:
    """The plain basis's Hessenberg entries, shape (nmax+1, nmax), from its
    three-term recurrence: a_{n+1} below the diagonal, b_n above it.

    Raises ValueError naming the first degree n whose column z p_n is not
    finite, where C_{n+1}(x_star) leaves the double range (n = 639 at p(2,1),
    alpha 0).
    """
    a, b = (np.array(t) for t in _recurrence_table(alpha, p, nmax - 1))
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"closed Hessenberg entries are not finite from degree {n} "
                         f"(alpha = {alpha}): C_{n + 1}(x_star) overflows the double range")
    n = np.arange(nmax)
    entries = np.zeros((nmax + 1, nmax), dtype=complex)
    entries[n + 1, n] = a
    entries[n[:-1], n[1:]] = b[1:]
    return entries


def _charge_qr(basis: ChristoffelBasis, nmax: int):
    """Q and R of H - vE with diag(R) > 0, where H is the closed plain Hessenberg
    matrix through degree nmax + 1 and E the identity of its shape (nmax+2, nmax+1).

    (z - v) p_n = sum_l (H - vE)[l, n] p_l, so the Gram matrix of p_0..p_nmax
    under |v - z|^2 dA_alpha is R^H R: the charged orthonormal basis is p R^{-1},
    and (z - v) times it is p Q.  On the real line this is one shifted QR step
    of the Jacobi matrix (Kautsky & Golub 1983; Gautschi 2004, sec. 2.4).
    """
    H = _closed_entries(basis.alpha, basis.params, nmax + 1)
    Q, R = np.linalg.qr(H - basis.v * np.eye(nmax + 2, nmax + 1))
    d = np.diagonal(R) / np.abs(np.diagonal(R))
    return Q * d, R * d.conj()[:, None]


def christoffel_values(basis: ChristoffelBasis, nmax: int, z) -> np.ndarray:
    """Values of the Christoffel-transformed orthonormal family P(1)_0..P(1)_nmax.

    With R from _charge_qr the family is p R^{-1}, so its values solve
    R^T P(1)(z) = p(z): no division by v - z, and z = v is an ordinary point.
    R is the QR factor of a tridiagonal matrix, so it is zero past its second
    superdiagonal and R^T x = p is one forward sweep of three terms per row.
    """
    _, R = _charge_qr(basis, nmax)
    d0, d1, d2 = (np.diagonal(R, k) for k in range(3))
    X = orthonormal_values(basis.alpha, basis.params, nmax, z)
    for n in range(nmax + 1):
        if n >= 2:
            X[n] -= d2[n - 2] * X[n - 2]
        if n >= 1:
            X[n] -= d1[n - 1] * X[n - 1]
        X[n] /= d0[n]
    return X


def christoffel_norm_monic(basis: ChristoffelBasis, N: int) -> float:
    """Squared norm of the monic Christoffel polynomial under |v-z|^2 dA_alpha:

        htilde(1)_N = htilde_{N+1} kappa_{N+2}(v, vbar) / kappa_{N+1}(v, vbar).
    """
    if N < 0:
        raise ValueError("degree must be nonnegative")
    _, kv, h = _charge_values(basis, N + 1)
    log_htilde = _log_monic_entry(basis.alpha, basis.params, N + 1, h[N + 1])
    return _times_exp(1.0, log_htilde, f"htilde_{N + 1}") * kv[N + 2] / kv[N + 1]


@dataclass(frozen=True)
class HessenbergMatrix:
    """Multiplication-by-z matrix c_{l,n} = <z p_n, p_l> in an orthonormal basis.

    Dense storage: entries has shape (nmax+1, nmax), column n holding
    c_{l,n} for l = 0..nmax; entries with l > n+1 vanish structurally
    (multiplication raises degree by one).  rule_shape is the
    QuadratureRule.shape the quadrature path ran on, None for 'closed'.
    """

    basis_label: str
    nmax: int
    entries: np.ndarray
    strategy: str
    rule_shape: tuple[int, int] | None = None

    def column_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.entries) ** 2, axis=0))


def hessenberg(basis, nmax: int, strategy: str = "closed") -> HessenbergMatrix:
    """Hessenberg matrix of multiplication by z in the given orthonormal basis.

    'closed' (the default) reads the plain Gegenbauer basis's three-term
    coefficients; for the Christoffel basis it takes one shifted QR step of
    them, H(1) = R Q + vE with Q, R from _charge_qr.  'quadrature' runs Arnoldi
    on the area rule exact for the entries' degree 2 nmax, under the charged
    weight |v - z|^2 dA_alpha on the rule exact for degree 2 nmax + 2 for the
    Christoffel basis: the independent check of both closed paths.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if isinstance(basis, GegenbauerBasis):
        label = f"gegenbauer(alpha={basis.alpha})"
    elif isinstance(basis, ChristoffelBasis):
        label = f"christoffel(alpha={basis.alpha}, v={basis.v})"
    else:
        raise TypeError(f"unsupported basis {type(basis).__name__}")

    charged = isinstance(basis, ChristoffelBasis)
    if strategy == "closed":
        if charged:
            Q, R = _charge_qr(basis, nmax)
            entries = np.triu(R @ Q[: nmax + 1, :nmax], -1) + basis.v * np.eye(nmax + 1, nmax)
        else:
            entries = _closed_entries(basis.alpha, basis.params, nmax)
        return HessenbergMatrix(basis_label=label, nmax=nmax, entries=entries,
                                strategy="closed")
    if strategy != "quadrature":
        raise ValueError(f"unknown strategy {strategy!r}")
    rule = _exact_rule(area_measure(basis.params, basis.alpha), 2 * nmax + 2 * charged)
    weights = rule.weights * np.abs(basis.v - rule.nodes) ** 2 if charged else rule.weights
    return HessenbergMatrix(basis_label=label, nmax=nmax,
                            entries=_arnoldi(rule.nodes, weights, nmax),
                            strategy="quadrature", rule_shape=rule.shape)


def bandwidth(H: HessenbergMatrix, tol: float) -> int:
    """Smallest d such that |c_{l,n}| <= tol * ||column n|| for all l < n+1-d;
    a matrix with no negligible entry above the subdiagonal gives nmax.
    NaN entries never count as above the tolerance."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    l, n = np.indices(H.entries.shape)
    above = np.abs(H.entries) > tol * H.column_norms()
    return int(np.max(n + 1 - l, where=above, initial=0))


@functools.lru_cache(maxsize=256)
def _column_ladder(basis: ChristoffelBasis, n: int):
    """Everything the closed entries of column n read, computed once per
    (basis, n) as tuples, which nobody can write to: the charge values and
    kernel ladder through degree n + 2 and the recurrence coefficients through
    index n, both from one norm ladder (rows past l + 2 do not change rows
    before it)."""
    pv, kv, h = _charge_values(basis, n + 2)
    return (pv, kv) + _recurrence_table(basis.alpha, basis.params, n, h)


def christoffel_entry_closed(basis: ChristoffelBasis, l: int, n: int) -> complex:
    """Closed form of the Hessenberg entry c_{l,n} of the Christoffel basis on
    its non-banded range l <= n-2, built from charge values p_i(v), kernel
    values kappa_i, and the plain-basis recurrence coefficients a_i, b_i.
    """
    if l < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if l > n - 2:
        raise ValueError("closed entry is only defined for l <= n-2")
    pv, kv, a, b = _column_ladder(basis, n)
    v = basis.v
    a_l1, b_l, b_l1, b_l2 = a[l], b[l], b[l + 1], b[l + 2]   # b_0 = 0
    pi = pv                    # pi_k = p_k(v)
    pim1 = pi[l - 1] if l >= 1 else 0j

    inner = ((v * kv[l] + b_l * pim1 * pi[l].conjugate()
              + b_l1 * pi[l] * pi[l + 1].conjugate()) * pi[l + 1].conjugate()
             - (a_l1 * pi[l].conjugate() + b_l2 * pi[l + 2].conjugate()) * kv[l + 1])
    pref = pi[n + 1] / math.sqrt(kv[n + 1] * kv[n + 2] * kv[l + 1] * kv[l + 2])
    return complex(pref * inner)


def turan_determinant(alpha: float, l: int, x: float) -> float:
    """Normalized Turan determinant of the Gegenbauer family,

        Delta_l(x) = (C_{l+1}(x)/C_{l+1}(1))^2 - C_l(x) C_{l+2}(x)/(C_l(1) C_{l+2}(1)),

    with C = C^{(1+alpha)}.  Vanishes exactly at x = +-1 and nowhere else on
    the real line; its nonvanishing at x_star > 1 is what breaks every
    candidate finite-term recurrence for the charged weight.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    # Delta = t1 (t1 - t0 t2/t1) on the ratios t_k = C_k(x)/C_k(1): no square
    # forms, so Delta overflows only when it leaves the double range itself,
    # and at x = +-1, where every t_k is exactly +-1, it is exactly 0.
    t0, t1, t2 = _gegenbauer_ratios(alpha, l + 2, x)[l:]
    delta = t1 * (t1 - t0 * (t2 / t1)) if t1 else -t0 * t2
    if not math.isfinite(delta):
        raise ValueError(f"Turan determinant Delta_{l}({x}) is not finite for alpha = "
                         f"{alpha}: its terms overflow the double range")
    return delta


def heine_check(alpha: float, p: EllipseParams, N: int) -> float:
    """Deviation between the ensemble average of prod_i (z - z_i) over the
    N-point determinantal weight prod_{i<j}|z_i - z_j|^2 prod_i dA_alpha(z_i)
    and the monic polynomial ptilde_N, maximized over a grid in the ellipse.

    Only N in {1, 2} are computed directly, by a 2N-dimensional tensor rule
    exact for the average's degree 2N - 1 per variable: the residual is roundoff.
    """
    z, W = _ensemble_weights(alpha, p, N)

    gx = np.linspace(-0.8 * p.a, 0.8 * p.a, 5)
    gy = np.linspace(-0.8 * p.b, 0.8 * p.b, 5)
    grid = (gx[:, None] + 1j * gy[None, :]).ravel()

    if N == 1:
        avg = grid - np.sum(W * z)
    else:
        T0 = W.sum()
        T1 = (W.sum(axis=1) * z).sum()
        T2 = z @ W @ z
        avg = grid * grid - 2.0 * grid * (T1 / T0) + T2 / T0

    Cm = gegenbauer_matrix(alpha, N, grid / p.c)[N]
    mono = Cm * monic_factor(alpha, p, N)
    return float(np.max(np.abs(avg - mono)))
