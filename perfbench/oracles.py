"""Independent reference values and per-op accuracy margins.

References never call ellipoly: below degree ``TAIL`` they come from
``scipy.special``; at and above it (the high-degree tail, where scipy's
Gegenbauer loses digits) and for complex arguments, from ``mpmath`` at 50
digits.  The one exception is gram_sweep's Christoffel Hessenberg, whose
non-banded quadrature entries are checked against the library's closed
entries.  Each margin is the observed error divided by its tolerance; an op
misses its tolerance when the margin exceeds 1.  ``known_limit`` marks the
inputs where the seed's own routes leave the double range or alias.
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp
import numpy as np
from scipy import special as sp

from workloads import GRAM_TOL, Op

mp.mp.dps = 50
TAIL = 64

TOL_VALUE = 1e-10       # relative, closed-form values
TOL_LOG = 1e-11         # log values, relative to the size of the terms summed (log_norm_scale)
TOL_HESS_PLAIN = 1e-10  # per column norm, as the battery's plain bandwidth clause
TOL_CHRISTOFFEL = 1e-8  # closed entry against quadrature, as the battery


class Unverifiable(Exception):
    """The reference itself is out of double range, so no verdict is possible."""


def finite(x) -> bool:
    if isinstance(x, (tuple, list)):
        return all(finite(y) for y in x)
    return bool(np.all(np.isfinite(x)))


# ----------------------------------------------------------- special values


def _gegenbauer(n: int, lam: float, x):
    """C_n^{(lam)}(x): scipy below TAIL, mpmath (as mpf/mpc) at and above."""
    if n < TAIL:
        return sp.eval_gegenbauer(n, lam, x)
    return mp.gegenbauer(n, mp.mpf(lam), mp.mpmathify(x))


def _rel(lib, ref) -> float:
    """|lib - ref| / |ref|, computed in mpmath when the reference is."""
    if isinstance(ref, (mp.mpf, mp.mpc)):
        return float(abs(mp.mpmathify(lib) - ref) / abs(ref))
    return abs(lib - ref) / abs(ref)


def _x_star(b):
    return (1 + b * b) / (1 - b * b)


def _geometry(b: float, high: bool):
    """(a, b, c, x_star) of the ellipse a = 1, in mpmath when ``high``."""
    if high:
        b = mp.mpf(b)
        return mp.mpf(1), b, mp.sqrt(1 - b * b), _x_star(b)
    return 1.0, b, math.sqrt(1.0 - b * b), _x_star(b)


def gegenbauer_norm_ref(alpha: float, b: float, n: int):
    _, _, _, xs = _geometry(b, n >= TAIL)
    return (1 + alpha) / (1 + alpha + n) * _gegenbauer(n, 1 + alpha, xs)


def _poch_ratio(alpha: float, n: int, high: bool):
    """(1/2)_n / (1+alpha)_n."""
    if high:
        return mp.rf(mp.mpf(0.5), n) / mp.rf(1 + mp.mpf(alpha), n)
    return math.exp(sp.gammaln(0.5 + n) - sp.gammaln(0.5)
                    - sp.gammaln(1 + alpha + n) + sp.gammaln(1 + alpha))


def closed_norm_ref(name: str, alpha: float, a: float, bb: float, n: int):
    """Closed squared norm of a family on the ellipse (a, bb), by routes the
    library does not take: Legendre and Jacobi values, and sinh forms."""
    high = n >= TAIL
    if name == "gegenbauer":
        if a == 1.0:
            return gegenbauer_norm_ref(alpha, bb, n)
        raise ValueError("Gegenbauer reference expects a = 1")
    if high:
        a, bb = mp.mpf(a), mp.mpf(bb)
    c = (mp.sqrt if high else math.sqrt)(a * a - bb * bb)
    xs = (a * a + bb * bb) / (c * c)
    if name == "legendre":
        if high:
            return mp.legendre(n, xs) / (1 + 2 * n)
        return sp.eval_legendre(n, xs) / (1 + 2 * n)
    if name.startswith("jacobi"):
        x = a / c
        y = 2 * x * x - 1
        if name == "jacobi-minus":
            pj = mp.jacobi(n, mp.mpf(alpha) + 0.5, -0.5, y) if high else \
                sp.eval_jacobi(n, alpha + 0.5, -0.5, y)
            return _poch_ratio(alpha, n, high) * (1 + alpha) / (1 + alpha + 2 * n) * pj
        pj = mp.jacobi(n, mp.mpf(alpha) + 0.5, 0.5, y) if high else \
            sp.eval_jacobi(n, alpha + 0.5, 0.5, y)
        pref = 2 * c * (1 + alpha) * (2 + alpha) / (a * (2 + alpha + 2 * n))
        return pref * _poch_ratio(alpha, n + 1, high) * x * pj
    # Chebyshev: with s = acosh(x_star), (r/c)^(2k) - (c/r)^(2k) = 2 sinh(k s).
    s = (mp.acosh if high else math.acosh)(xs)
    sinh = mp.sinh if high else math.sinh
    pi = mp.pi if high else math.pi
    if name == "chebyshev-t":
        if n == 0:
            return pi * s
        return pi * sinh(n * s) / (2 * n)
    if name == "chebyshev-u":
        return pi * c * c * sinh((n + 1) * s) / (2 * (n + 1))
    return 2 * pi * c * sinh((n + 0.5) * s) / (1 + 2 * n)


def log_monic_norm_ref(alpha: float, b: float, n: int):
    high = n >= TAIL
    _, _, c, _ = _geometry(b, high)
    h = gegenbauer_norm_ref(alpha, b, n)
    if high:
        lf = mp.loggamma(n + 1) + n * mp.log(c / 2) - mp.log(mp.rf(1 + mp.mpf(alpha), n))
        return 2 * lf + mp.log(h)
    lf = math.lgamma(n + 1) + n * math.log(c / 2) - (sp.gammaln(1 + alpha + n)
                                                      - sp.gammaln(1 + alpha))
    return 2 * lf + math.log(h)


def log_norm_scale(alpha: float, b: float, degrees) -> float:
    """Sum over the degrees j of |2 log monic factor_j| + |log h_j|: the size
    of the terms that log_monic_norm (one degree) or log Z_N (j < N) adds up.
    Rounding is measured against it, because the sum can cancel to near 0."""
    j = np.asarray(degrees)
    lf = log_monic_factor(alpha, b, j)
    with np.errstate(all="ignore"):
        lh = np.log((1.0 + alpha) / (1.0 + alpha + j)
                    * sp.eval_gegenbauer(j, 1.0 + alpha, _x_star(b)))
    for i in np.flatnonzero(~np.isfinite(lh)):
        lh[i] = float(mp.log(gegenbauer_norm_ref(alpha, b, int(j[i]))))
    return float(np.sum(2.0 * np.abs(lf) + np.abs(lh)))


def recurrence_ref(alpha: float, b: float, n: int):
    high = n >= TAIL
    _, _, c, _ = _geometry(b, high)
    sqrt = mp.sqrt if high else math.sqrt
    h_n = gegenbauer_norm_ref(alpha, b, n)
    a_next = c * (n + 1) / (2 * (n + alpha + 1)) * sqrt(gegenbauer_norm_ref(alpha, b, n + 1) / h_n)
    if n == 0:
        return a_next, 0.0
    b_n = c * (n + 2 * alpha + 1) / (2 * (n + alpha + 1)) * sqrt(gegenbauer_norm_ref(alpha, b, n - 1) / h_n)
    return a_next, b_n


def _gegenbauer_complex(alpha: float, nmax: int, x: complex) -> np.ndarray:
    """C_k^{(1+alpha)}(x), k <= nmax, for complex x by the three-term
    recurrence carried in 50-digit arithmetic (scipy's complex Gegenbauer
    loses up to seven digits by degree 20)."""
    x, al = mp.mpc(x), mp.mpf(alpha)
    out = [mp.mpf(1), 2 * (1 + al) * x]
    for k in range(1, nmax):
        out.append((2 * (k + 1 + al) * x * out[k] - (k + 1 + 2 * al) * out[k - 1]) / (k + 1))
    return np.array([complex(y) for y in out[:nmax + 1]])


def _charge_ref(alpha: float, b: float, v: complex, through: int):
    """p_k(v) for k <= through and kappa_i = sum_{j<i} |p_j(v)|^2."""
    c = math.sqrt(1.0 - b * b)
    h = np.array([gegenbauer_norm_ref(alpha, b, k) for k in range(through + 1)], dtype=float)
    pv = _gegenbauer_complex(alpha, through, v / c) / np.sqrt(h)
    kv = np.concatenate(([0.0], np.cumsum(np.abs(pv) ** 2)))
    return pv, kv


def christoffel_norm_ref(alpha: float, b: float, v: complex, N: int):
    _, kv = _charge_ref(alpha, b, v, N + 1)
    return math.exp(log_monic_norm_ref(alpha, b, N + 1)) * kv[N + 2] / kv[N + 1]


def christoffel_subdiag_ref(alpha: float, b: float, v: complex, ncols: int) -> np.ndarray:
    """c_{n+1,n} for n < ncols: the ratio of leading coefficients of the
    orthonormal Christoffel family, sqrt(htilde(1)_{n+1} / htilde(1)_n)."""
    _, kv = _charge_ref(alpha, b, v, ncols + 1)
    lm = np.array([log_monic_norm_ref(alpha, b, k) for k in range(1, ncols + 2)])
    n = np.arange(ncols)
    return np.sqrt(np.exp(lm[n + 1] - lm[n]) * kv[n + 3] * kv[n + 1] / kv[n + 2] ** 2)


def christoffel_entry_ref(alpha: float, b: float, v: complex, l: int, n: int):
    """(value, scale): the closed entry c_{l,n} from scipy charge values and
    the reference recurrence, and the size of the terms that cancel in it."""
    pi, kv = _charge_ref(alpha, b, v, n + 2)
    a_l1, b_l = recurrence_ref(alpha, b, l)
    b_l1 = recurrence_ref(alpha, b, l + 1)[1]
    b_l2 = recurrence_ref(alpha, b, l + 2)[1]
    pim1 = pi[l - 1] if l >= 1 else 0j
    cj = np.conj
    plus = [v * kv[l] * cj(pi[l + 1]), b_l * pim1 * cj(pi[l]) * cj(pi[l + 1]),
            b_l1 * pi[l] * cj(pi[l + 1]) * cj(pi[l + 1])]
    minus = [a_l1 * cj(pi[l]) * kv[l + 1], b_l2 * cj(pi[l + 2]) * kv[l + 1]]
    pref = pi[n + 1] / math.sqrt(kv[n + 1] * kv[n + 2] * kv[l + 1] * kv[l + 2])
    value = pref * (sum(plus) - sum(minus))
    scale = abs(pref) * sum(abs(t) for t in plus + minus)
    return complex(value), float(scale)


def turan_ref(alpha: float, l: int, x: float):
    """(Delta_l(x), scale) with scale = t_{l+1}^2 + |t_l t_{l+2}|."""
    high = l + 2 >= TAIL
    lam = 1.0 + alpha
    ts = []
    for k in (l, l + 1, l + 2):
        if high:
            one = mp.rf(2 * mp.mpf(lam), k) / mp.factorial(k)
        else:
            one = math.exp(sp.gammaln(2 * lam + k) - sp.gammaln(2 * lam) - math.lgamma(k + 1))
        ts.append(_gegenbauer(k, lam, x) / one)
    t0, t1, t2 = ts
    return t1 * t1 - t0 * t2, t1 * t1 + abs(t0 * t2)


# ------------------------------------------------------ known limit regions

LOG_DBL_MIN = math.log(sys.float_info.min)
LOG_DBL_MAX = math.log(sys.float_info.max)
# A route can fail a little before its largest double itself overflows: the
# Gegenbauer recurrence forms (k + 1) C_{k+1} (k < 2002) before it divides
# by k + 1, so the region starts this factor below DBL_MAX.
RANGE_SLACK = math.log(1e4)
CONTOUR_N_THETA = 256   # the contour subcommand's default trapezoid size


def log_gegenbauer(lam: float, n: int, x: float) -> float:
    """log C_n^{(lam)}(x) for real x > 1 and lam > 0, by the ratio form of the
    three-term recurrence, which stays in range at any degree."""
    total, r = 0.0, 2.0 * lam * x
    for k in range(1, n + 1):
        total += math.log(r)
        r = (2.0 * (k + lam) * x - (k + 2.0 * lam - 1.0) / r) / (k + 1)
    return total


def log_2f1_positive(n: int, b: float, c: float, x: float) -> float:
    """log F(-n, b; c; x) for x < 0, whose series terms are all positive."""
    log_term = log_sum = 0.0
    for k in range(n):
        log_term += math.log((n - k) * (b + k) * -x / ((c + k) * (k + 1)))
        hi = max(log_sum, log_term)
        log_sum = hi + math.log1p(math.exp(-abs(log_sum - log_term)))
    return log_sum


def log_monic_factor(alpha: float, b: float, n) -> np.ndarray:
    """log of the monic factor n! (c/2)^n / (1+alpha)_n, elementwise in n."""
    n = np.asarray(n, dtype=float)
    c = math.sqrt(1.0 - b * b)
    return (sp.gammaln(n + 1.0) + n * math.log(c / 2.0)
            - sp.gammaln(1.0 + alpha + n) + sp.gammaln(1.0 + alpha))


def _norm_log_size(family: str, alpha: float, b: float, n: int) -> float:
    """log of the largest double the closed norm of a family member forms."""
    c = math.sqrt(1.0 - b * b)
    if family in ("gegenbauer", "legendre"):
        return log_gegenbauer(0.5 if family == "legendre" else 1.0 + alpha, n, _x_star(b))
    if family.startswith("jacobi"):   # C_{2n(+1)}^{(1+alpha)}(a/c)
        return log_gegenbauer(1.0 + alpha, 2 * n + (family == "jacobi-plus"), 1.0 / c)
    power = {"chebyshev-t": 2 * n, "chebyshev-u": 2 * n + 2}.get(family, 2 * n + 1)
    return power * math.log((1.0 + b) / c)


def _family_value(family: str, alpha: float, n: int, w):
    """The degree-n member of a family at complex w, in mpmath."""
    if family == "gegenbauer":
        return mp.gegenbauer(n, 1 + mp.mpf(alpha), w)
    if family == "legendre":
        return mp.legendre(n, w)
    if family.startswith("jacobi"):
        return mp.jacobi(n, mp.mpf(alpha) + 0.5, 0.5 if family == "jacobi-plus" else -0.5, w)
    t = mp.acos(w)
    if family == "chebyshev-t":
        return mp.cos(n * t)
    if family == "chebyshev-u":
        return mp.sin((n + 1) * t) / mp.sin(t)
    if family == "chebyshev-v":
        return mp.cos((n + 0.5) * t) / mp.cos(t / 2)
    return mp.sin((n + 0.5) * t) / mp.sin(t / 2)


def _eval_log_size(op: Op) -> float:
    """log of the largest value the eval route's recurrence carries: the
    values at z/c grow with the degree, so the last two bound it."""
    w = mp.mpc(op.z) / mp.sqrt(1 - mp.mpf(op.b) ** 2)
    vals = [abs(_family_value(op.family, op.alpha, k, w)) for k in (op.n - 1, op.n) if k >= 0]
    return float(mp.log(max(vals))) if max(vals) > 0 else -math.inf


def _jacobi_log_ratio(family: str, alpha: float, n: int) -> float:
    """log of the squared Pochhammer ratio the Jacobi closed norms exponentiate."""
    k = n + (family == "jacobi-plus")
    return 2.0 * float(sp.gammaln(0.5 + k) - sp.gammaln(0.5)
                       - sp.gammaln(1.0 + alpha + k) + sp.gammaln(1.0 + alpha))


def _log_monic_route(alpha: float, b: float, n: int) -> tuple[float, float]:
    """(largest, smallest) log size of the doubles both log_monic_norm routes
    form at degree n: C_n(x_star), the 2F1 sum and the monic factor."""
    c = math.sqrt(1.0 - b * b)
    hi = max(log_gegenbauer(1.0 + alpha, n, _x_star(b)),
             log_2f1_positive(n, 2.0 + 2.0 * alpha + n, alpha + 1.5, -(b / c) ** 2))
    return hi, float(log_monic_factor(alpha, b, n))


def _route_log_range(op: Op) -> tuple[float, float]:
    """(largest, smallest) log size of the doubles the seed's route for the
    op forms on its way to the answer."""
    k, al, b, n = op.kind, op.alpha, op.b, op.n
    if k in ("closed_norm", "norms"):
        lo = _jacobi_log_ratio(op.family, al, n) if op.family.startswith("jacobi") else 0.0
        return _norm_log_size(op.family, al, b, n), lo
    if k == "eval":
        return _eval_log_size(op), 0.0
    if k == "recurrence_coeffs":
        return log_gegenbauer(1.0 + al, n + 1, _x_star(b)), 0.0
    if k == "turan_determinant":
        # C_{l+2}(x_star), and t_{l+1}^2 with t_k = C_k(x_star) / C_k(1)
        lam, xs = 1.0 + al, _x_star(b)
        log_t1 = log_gegenbauer(lam, n + 1, xs) - float(
            sp.gammaln(2.0 * lam + n + 1) - sp.gammaln(2.0 * lam) - sp.gammaln(n + 2.0))
        return max(log_gegenbauer(lam, n + 2, xs), 2.0 * log_t1), 0.0
    if k == "log_monic_norm":
        return _log_monic_route(al, b, n)
    if k in ("selberg_compare", "selberg"):
        # Both Selberg routes sum log_monic_norm terms over degrees j < N;
        # the values grow with j and the monic factor shrinks.
        return _log_monic_route(al, b, n - 1)
    if k == "contour":
        c = math.sqrt(1.0 - b * b)
        return (n + op.m + 2) * math.log((1.0 + b) / c) + math.log(n + 1.0), 0.0
    return 0.0, 0.0   # degrees <= 24: every value is far inside the double range


def known_limit(op: Op) -> bool:
    """Whether the op lies where the seed's methods are known to fail or to
    lose accuracy:

    * range: a double that the seed's route forms (a Gegenbauer value at
      x_star, a 2F1 sum, a Chebyshev power, a Pochhammer ratio or the monic
      factor) comes within RANGE_SLACK of overflow or leaves the normal
      range, so the op raises, returns inf/nan or loses digits; a log-space
      route would lift this;
    * aliasing: a contour integral whose Laurent degree n + m + 2 reaches
      the trapezoid size.

    The op streams leave these inputs out; the traced run's limit probes
    count how many of a fixed sample of them fail.
    """
    if op.kind == "contour" and op.n + op.m + 2 >= CONTOUR_N_THETA:
        return True
    hi, lo = _route_log_range(op)
    return hi > LOG_DBL_MAX - RANGE_SLACK or lo < LOG_DBL_MIN

# ------------------------------------------------------------------ margins


def _value_margin(lib, ref) -> float:
    if not math.isfinite(float(abs(ref))):
        raise Unverifiable
    return _rel(lib, ref) / TOL_VALUE


def _log_margin(x, y, scale: float) -> float:
    return float(abs(x - y)) / max(1.0, scale) / TOL_LOG


def _selberg_margin(alpha: float, b: float, N: int, log_closed, log_product) -> float:
    scale = math.lgamma(N + 1) + log_norm_scale(alpha, b, np.arange(N))
    return _log_margin(log_closed, log_product, scale)


def closed_margin(op: Op, out) -> float:
    """Margin of one closed_forms op (output already known to be finite)."""
    k, al, b, n = op.kind, op.alpha, op.b, op.n
    if k == "closed_norm":
        return _value_margin(out, closed_norm_ref(op.family, al, 1.0, b, n))
    if k == "log_monic_norm":
        ref = log_monic_norm_ref(al, b, n)
        scale = log_norm_scale(al, b, [n])
        return max(_log_margin(out[0], out[1], scale),
                   _log_margin(mp.mpf(out[0]), ref, scale),
                   _log_margin(mp.mpf(out[1]), ref, scale))
    if k == "recurrence_coeffs":
        ra, rb = recurrence_ref(al, b, n)
        m = _value_margin(out[0], ra)
        return m if n == 0 else max(m, _value_margin(out[1], rb))
    if k == "selberg_compare":
        return _selberg_margin(al, b, n, *out)
    if k == "christoffel_entry_closed":
        ref, scale = christoffel_entry_ref(al, b, op.v, op.m, op.n)
        return abs(out - ref) / (TOL_VALUE * scale)
    if k == "christoffel_norm_monic":
        return _value_margin(out, christoffel_norm_ref(al, b, op.v, n))
    ref, scale = turan_ref(al, n, op.params.x_star)
    if not mp.isfinite(scale):
        raise Unverifiable
    return float(abs(mp.mpmathify(out) - ref) / scale) / TOL_VALUE


def _hessenberg_margin(H, op: Op) -> float:
    """Plain-basis Hessenberg entries against the reference three-term
    recurrence, per column norm."""
    ref = np.zeros_like(H)
    for k in range(op.n):
        a_next, b_k = recurrence_ref(op.alpha, op.b, k)
        ref[k + 1, k] = a_next
        if k >= 1:
            ref[k - 1, k] = b_k
    cols = np.sqrt(np.sum(np.abs(ref) ** 2, axis=0))
    return float(np.max(np.abs(H - ref).max(axis=0) / cols)) / TOL_HESS_PLAIN


def gram_margin(op: Op, res, closed_entry) -> float:
    """Margin of one gram_sweep op.  ``closed_entry(l, n)`` is the library's
    christoffel_entry_closed for the op's charge, called outside the timed
    region: the closed entries are the reference for the quadrature ones."""
    if op.kind == "gram_matrix":
        tol = GRAM_TOL[op.family]
        pp = res.measure.params
        G = res.matrix
        diag = np.real(np.diag(G))
        ref = np.array([float(closed_norm_ref(op.family, op.alpha, pp.a, pp.b, k))
                        for k in range(op.n + 1)])
        off = np.abs(G - np.diag(np.diag(G))).max() / diag.max()
        return max(float(np.max(np.abs(diag - ref) / np.abs(ref))), float(off)) / tol
    H = res.entries
    if op.kind == "hessenberg_plain":
        return _hessenberg_margin(H, op)
    # Christoffel basis, every column: the non-banded range l <= n-2
    # against the closed entries, the subdiagonal against the ratio of
    # monic norms, and the structural zeros l > n+1.  The diagonal and the
    # superdiagonal have no closed form and are left unchecked.
    worst = max((abs(H[l, n] - closed_entry(l, n)) for n in range(2, op.n) for l in range(n - 1)),
                default=0.0)
    below = [abs(H[l, n]) for n in range(op.n) for l in range(n + 2, op.n + 1)]
    sub = christoffel_subdiag_ref(op.alpha, op.b, op.v, op.n)
    sub_rel = np.abs(np.diagonal(H, offset=-1) - sub) / sub
    return max(worst, max(below, default=0.0), float(np.max(sub_rel))) / TOL_CHRISTOFFEL


# ---------------------------------------------------------------------- CLI


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_cli(stdout: str) -> dict:
    """Strict JSON: NaN and Infinity are refused."""
    return json.loads(stdout, parse_constant=_reject_constant)


def _cplx(pair) -> complex:
    return complex(pair[0], pair[1])


def cli_value(op: Op, data: dict):
    """The value a CLI payload reports, in the form cli_library_value returns."""
    if op.kind == "norms":
        return data["norm"][0]
    if op.kind == "eval":
        return _cplx(data["value"])
    if op.kind == "selberg":
        return (data["log_closed"], data["log_product"])
    if op.kind == "contour":
        return _cplx(data["value"])
    return np.array([[_cplx(e) for e in row] for row in data["entries"]])


def same_value(x, y) -> bool:
    if isinstance(x, tuple):
        return all(same_value(a, b) for a, b in zip(x, y))
    return bool(np.array_equal(np.asarray(x), np.asarray(y)))


def _contour_margin(op: Op, value: complex) -> float:
    """Scaled deviation from the closed contour value, as the battery's check."""
    b = mp.mpf(op.b)
    c = mp.sqrt(1 - b * b)
    q = (1 + b) / c
    k = max(op.n, op.m)
    scale = mp.pi * (k + 1) / 2 * (q ** (2 * k + 2) - q ** (-2 * k - 2))
    expected = 0
    if op.n == op.m:
        expected = 1j * mp.pi * (op.n + 1) / 2 * (q ** (2 * op.n + 2) - q ** (-2 * op.n - 2))
    return float(abs(mp.mpc(value) - expected) / scale) / TOL_VALUE


def cli_margin(op: Op, value) -> float | None:
    """Margin of one cli_cold op's value against the independent references;
    None for ``eval``, whose gate is exact agreement with the library call
    (a relative error means nothing near the polynomial's zeros)."""
    if op.kind == "eval":
        return None
    if op.kind == "norms":
        return _value_margin(value, closed_norm_ref(op.family, op.alpha, 1.0, op.b, op.n))
    if op.kind == "selberg":
        return _selberg_margin(op.alpha, op.b, op.n, *value)
    if op.kind == "contour":
        return _contour_margin(op, value)
    return _hessenberg_margin(value, op)
