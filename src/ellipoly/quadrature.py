"""Quadrature rules on the ellipse for every supported measure.

The area rules use elliptic coordinates x + iy = (a r cos t, b r sin t):
Gauss-Jacobi in the radial variable (which absorbs the (1 - r^2)^alpha
factor exactly) crossed with a uniform trapezoid rule in angle, which is
exact for the trigonometric harmonics a polynomial integrand produces.
The Chebyshev rules live on the Joukowsky annulus c < |w| < r instead,
and the Jacobi-family rules are pullbacks of an area rule through the
quadratic focal map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EllipseParams,
    Measure,
    MeasureKind,
    base_params,
    joukowsky,
    quadratic_map,
)
from .polynomials import _forward, gegenbauer_matrix

__all__ = [
    "QuadratureRule",
    "build_rule",
    "moment",
    "moment_table",
    "contour_check",
]

DEFAULT_N_RADIAL = 96
DEFAULT_N_ANGULAR = 384


@dataclass(frozen=True)
class QuadratureRule:
    """Complex nodes and positive weights approximating integration against
    the measure, in the measure's own convention (normalized rules have total
    weight 1), and the (n_radial, n_angular) shape build_rule used."""

    measure: Measure
    nodes: np.ndarray
    weights: np.ndarray
    shape: tuple[int, int]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


def _exact_size(degree: int) -> int:
    """Size k making the k-node Gauss rule and the k x 2k area rule exact for
    total degree <= degree: k Gauss nodes are exact to degree 2k - 1; on the
    area rule only even powers of r survive the angular sum, leaving degree/2
    in t = r^2 for k radial nodes, and 2k trapezoid angles are exact for every
    harmonic of order <= degree."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    return degree // 2 + 1


def _interleave_antipodes(zhalf: np.ndarray, uradial: np.ndarray):
    """Assemble a rule from half an angular period: nodes come out as exact
    antipodal pairs (z, -z) interleaved, so odd-parity integrands cancel
    pairwise exactly in floating point.  uradial holds the per-node weight
    of each radial layer (already divided by the full angular count)."""
    half = zhalf.shape[1]
    nodes = np.stack([zhalf, -zhalf], axis=-1).reshape(zhalf.shape[0], 2 * half)
    weights = np.repeat(uradial[:, None], 2 * half, axis=1)
    return nodes.ravel(), weights.ravel()


def _read_only(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=128)
def _gauss_jacobi(k: int, a: float, b: float):
    """k-node Gauss rule of unit mass for (1 - t)^a t^b on (0, 1), by
    Golub-Welsch: nodes are the Jacobi matrix's eigenvalues and weights are
    1 / sum_{j<k} p_j(t)^2 over the orthonormal polynomials, so no Gamma or
    2^(a+b+1) factor ever forms.  Nodes are in t = (1 + x)/2, where those
    near 0 keep their relative precision; the end with the smaller exponent,
    where the weights are most sensitive to the nodes, is built there.

    Each (k, a, b) is built once per process and its arrays are handed out
    read-only, so every rule and caller shares one table entry."""
    if k < 1:
        raise ValueError(f"a Gauss rule needs at least one node, got {k}")
    if a < b:
        u, w = _gauss_jacobi(k, b, a)
        return _read_only(1.0 - u[::-1], w[::-1])
    s, n = a + b, np.arange(k, dtype=float)
    m = 2.0 * n + s
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 at n = 0 or 1, set below
        d = (2.0 * n * (n + s + 1.0) + s * (b + 1.0)) / (m * (m + 2.0))
        e = n * (n + a) * (n + b) * (n + s) / (m * m * (m + 1.0) * (m - 1.0))
    d[0] = (b + 1.0) / (s + 2.0)
    e[1:2] = (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))
    e = np.sqrt(e[1:])
    t = np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        P = _forward(k - 1, t, lambda t: (t - d[0]) / e[0],
                     lambda j, t, cur, prev: ((t - d[j]) * cur - e[j - 1] * prev) / e[j])
        total = np.sum(np.abs(P) ** 2, axis=0)
    # A sum out of range (inf, or nan from inf - inf) has some |p_j| > sqrt(DBL_MAX):
    # its weight is below 1/DBL_MAX against unit mass, zero in double precision.
    return _read_only(t, np.where(np.isfinite(total), 1.0 / total, 0.0))


def _area_rule(a: float, b: float, alpha: float, n_radial: int, n_angular: int):
    """Half a period of the rule for dA_alpha = (1+alpha)(1-h)^alpha dA on
    the ellipse with semi-axes a >= b (a = b is the disc): nodes of shape
    (n_radial, n_angular/2) and the per-node weight of each radial layer;
    _interleave_antipodes completes it to the full rule of total mass 1.

    Radial direction: with t = r^2 the measure is (1+alpha)(1-t)^alpha dt
    on (0, 1), the unit-mass Gauss-Jacobi rule in t.  Angular direction:
    trapezoid over an even count of angles.
    """
    t, u = _gauss_jacobi(n_radial, float(alpha), 0.0)   # a hashable table key
    r = np.sqrt(t)
    theta = 2.0 * np.pi * np.arange(n_angular // 2) / n_angular
    zhalf = a * np.outer(r, np.cos(theta)) + 1j * b * np.outer(r, np.sin(theta))
    return zhalf, u / n_angular


def _chebyshev_t_rule(p: EllipseParams, n_radial: int, n_angular: int):
    """Rule for d^2 z / |z^2 - c^2| over the ellipse, via the annulus.

    Under z = (w + c^2/w)/2 the measure becomes d^2 w / |w|^2 on
    c < |w| < r; in polar form (1/s) ds dt, handled by Gauss-Legendre in
    s and the trapezoid in angle (the map is odd, so mirrored w-nodes give
    exact antipodal z-nodes).  Total mass is 2 pi log(r/c).
    """
    t, w = _gauss_jacobi(n_radial, 0.0, 0.0)
    s = p.c + (p.r - p.c) * t
    u = w * (p.r - p.c) / s
    theta = 2.0 * np.pi * np.arange(n_angular // 2) / n_angular
    ws = np.outer(s, np.exp(1j * theta))
    return _interleave_antipodes(joukowsky(p, ws), u * 2.0 * np.pi / n_angular)


def build_rule(measure: Measure,
               n_radial: int = DEFAULT_N_RADIAL,
               n_angular: int = DEFAULT_N_ANGULAR) -> QuadratureRule:
    """Construct a rule for the measure, exact (to roundoff) for polynomial
    integrands of joint degree up to roughly 2 n_radial in |z| and n_angular
    in harmonics.  Each rule is built in one convention (flat d^2z for the
    Chebyshev weights, normalized otherwise) and converted once by the
    measure's flat_factor when the measure asks for the other."""
    if n_angular < 2 or n_angular % 2:
        raise ValueError("n_angular must be even (antipodal node symmetry)")
    p = measure.params
    kind = measure.kind
    # The Chebyshev V/W rules are the alpha = 0 area-type rules.
    alpha = 0.0 if measure.alpha is None else measure.alpha

    if kind == MeasureKind.AREA_ALPHA:
        nodes, weights = _interleave_antipodes(*_area_rule(p.a, p.b, alpha, n_radial, n_angular))
    elif kind == MeasureKind.CHEBYSHEV_T:
        nodes, weights = _chebyshev_t_rule(p, n_radial, n_angular)
    elif kind in (MeasureKind.B_MINUS, MeasureKind.B_PLUS,
                  MeasureKind.CHEBYSHEV_V, MeasureKind.CHEBYSHEV_W):
        # Pull the normalized area rule on the base ellipse through
        # w = c (2 (z/c)^2 - 1): the push-forward of dA_alpha is exactly
        # dB_alpha^- of the derived ellipse, so the weights transfer as-is.
        # z and -z have one image, so half a period with doubled weights
        # carries every node once.
        pb = base_params(p)
        zhalf, uradial = _area_rule(pb.a, pb.b, alpha, n_radial, n_angular)
        znodes = zhalf.ravel()
        weights = np.repeat(2.0 * uradial, zhalf.shape[1])
        nodes, _ = quadratic_map(pb, znodes)
        if kind == MeasureKind.B_PLUS:
            # dB^+/dB^- = (2+alpha) |c + w| / a, and c + w = 2 z^2 / c on the
            # image of the base variable, so the density is real and positive.
            weights = weights * (2.0 + alpha) * 2.0 * np.abs(znodes) ** 2 / (p.a * p.c)
        elif kind != MeasureKind.B_MINUS:
            # d^2 z / |c + z| is the flat form of dB_0^- (alpha = 0); the V rule
            # integrates d^2 z / |c - z|, i.e. the same rule with nodes negated.
            weights = weights * 2.0 * np.pi * p.b
            if kind == MeasureKind.CHEBYSHEV_V:
                nodes = -nodes
    else:
        raise ValueError(f"unknown measure kind {kind}")

    flat_built = kind in (MeasureKind.CHEBYSHEV_T, MeasureKind.CHEBYSHEV_V,
                          MeasureKind.CHEBYSHEV_W)
    if measure.normalized == flat_built:
        weights = weights / measure.flat_factor if flat_built \
            else weights * measure.flat_factor
    return QuadratureRule(measure, nodes, weights, (n_radial, n_angular))


def _exact_rule(measure: Measure, degree: int) -> QuadratureRule:
    """The k x 2k rule for the measure exact for total degree <= degree in z:
    the mapped B-/V/W rules integrate in the base variable, where the degree
    doubles, and the B+ density |z|^2 adds 2.  The Chebyshev-T rule's 2k
    angles resolve every harmonic of order <= degree; its radial factor
    integrates s^j ds/s, inexact for j < 0 but converged beyond roundoff at
    this size on p(2,1) (doubling it moves no Gram diagonal by over 1e-14)."""
    kind = measure.kind
    if kind not in (MeasureKind.AREA_ALPHA, MeasureKind.CHEBYSHEV_T):
        degree = 2 * degree + 2 * (kind == MeasureKind.B_PLUS)
    k = _exact_size(degree)
    return build_rule(measure, k, 2 * k)


def moment(p_exp: int, q_exp: int, rule: QuadratureRule) -> complex:
    """<z^p, z^q> against the rule's measure.

    Powers are built by repeated multiplication (preserving the exact sign
    flip between antipodal nodes) and the terms are totaled with fsum, so
    odd-parity moments over the symmetric rules come out exactly zero.
    """
    if p_exp < 0 or q_exp < 0:
        raise ValueError("moment exponents must be nonnegative")
    zp = np.ones_like(rule.nodes)
    for _ in range(p_exp):
        zp = zp * rule.nodes
    zq = np.ones_like(rule.nodes)
    for _ in range(q_exp):
        zq = zq * rule.nodes
    terms = rule.weights * zp * np.conj(zq)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


# Nodes per block of _gram_sum, whose working set is two (rows, _BLOCK) arrays.
_BLOCK = 4096


def _is_antipodal(rule: QuadratureRule) -> bool:
    """Whether the rule interleaves exact antipodes (z, -z) of equal weight."""
    z, w = rule.nodes, rule.weights
    return (z.size % 2 == 0 and np.array_equal(z[1::2], -z[::2])
            and np.array_equal(w[1::2], w[::2]))


def _gram_sum(rows, size: int, rule: QuadratureRule, parity: bool) -> np.ndarray:
    """G[n, m] = sum_i w_i f_n(z_i) conj(f_m(z_i)), with rows(z) the (size,
    z.size) values f_0..f_{size-1}, one weighted product per block of nodes.
    parity states f_n(-z) = (-1)^n f_n(z): on a rule of exact antipodes only
    one node of each pair is evaluated, the n + m even entries are twice
    that sum and the odd ones, where the pairs cancel, exactly 0."""
    z, w = rule.nodes, rule.weights
    half = parity and _is_antipodal(rule)
    if half:
        z, w = z[::2], w[::2]
    G = np.zeros((size, size), dtype=complex)
    for s in range(0, z.size, _BLOCK):
        V = rows(z[s:s + _BLOCK])
        Vw = V * w[s:s + _BLOCK]
        G += Vw @ np.conjugate(V, out=V).T
    if half:
        k = np.arange(size)
        G = np.where((k[:, None] + k) % 2, 0.0, 2.0 * G)
    return G


def moment_table(pmax: int, rule: QuadratureRule) -> np.ndarray:
    """Every moment <z^p, z^q> with p, q <= pmax as one (pmax+1)^2 array,
    entry [p, q] matching moment(p, q, rule).

    Powers are built by repeated multiplication, as in moment(), and have
    parity, so on the rules that interleave exact antipodes (z, -z)
    odd-parity moments are exactly zero (see _gram_sum).
    """
    if pmax < 0:
        raise ValueError("moment exponents must be nonnegative")

    def powers(z):
        P = np.empty((pmax + 1, z.size), dtype=complex)
        P[0] = 1.0
        for k in range(pmax):
            P[k + 1] = P[k] * z
        return P

    return _gram_sum(powers, pmax + 1, rule, parity=True)


def contour_check(p: EllipseParams, n: int, m: int) -> complex:
    """Contour integral linking the first-kind family to its planar norms:

        I(n, m) = oint_{|w| = r} d/dw [T_{n+1}(z(w)/c)] conj(T_{m+1}(z(w)/c)) dw

    with z(w) = (w + c^2/w)/2.  On |w| = r the integrand is a Laurent
    polynomial in w of degree n + m + 2 each way, so the trapezoid rule on
    n + m + 3 points, the fewest that resolve it, is exact.  The closed
    value is i pi (n+1)/2 [(r/c)^{2n+2} - (c/r)^{2n+2}] delta_{nm}.
    """
    return complex(_contour_values(p, n, [m])[0])


def _contour_closed(p: EllipseParams, n: int) -> complex:
    """The closed value of contour_check(p, n, n)."""
    q = p.R
    return 1j * (math.pi * (n + 1) / 2.0 * (q ** (2 * n + 2) - q ** (-2 * n - 2)))


def _contour_values(p: EllipseParams, n: int, ms) -> np.ndarray:
    """contour_check(p, n, m) for every m listed, from one trapezoid rule of
    n + max(ms) + 3 points, exact for each of them."""
    ms = np.asarray(ms)
    if n < 0 or ms.min() < 0:
        raise ValueError("degrees must be nonnegative")
    n_theta = n + int(ms.max()) + 3
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    w = p.r * np.exp(1j * theta)
    z = joukowsky(p, w)
    # d/dw T_{n+1}(z/c) = (n+1) U_n(z/c) * z'(w)/c,  z'(w) = (1 - c^2/w^2)/2.
    un = gegenbauer_matrix(0.0, n, z / p.c)[n]
    dT = (n + 1) * un * (1.0 - (p.c / w) ** 2) / (2.0 * p.c)
    # T_{m+1}(z(w)/c) on |w| = r via the Laurent form ((w/c)^k + (c/w)^k)/2.
    k = ms[:, None] + 1
    Tm = 0.5 * ((w / p.c) ** k + (p.c / w) ** k)
    integrand = dT * np.conj(Tm) * 1j * w
    return integrand.mean(axis=1) * 2.0 * np.pi
