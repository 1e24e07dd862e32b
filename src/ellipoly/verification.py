"""End-to-end verification suite: every headline identity of the library
checked numerically at fixed tolerances.

Each check returns a CheckResult with the worst observed errors; run_all
executes the whole battery in a fixed order (the CLI `verify` subcommand
serializes the outcome deterministically, so two runs are byte-identical).
A check states each of its bounds once, as a (label, value, comparator,
bound) entry of the list it hands to _result: that list decides the verdict
and is what the detail prints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bergman import (
    ChristoffelBasis,
    GegenbauerBasis,
    bandwidth,
    christoffel_entry_closed,
    heine_check,
    hessenberg,
    turan_determinant,
)
from .geometry import MeasureKind, area_measure, derived_params, make_params
from .limits import _disc_reports, _hermite_reports, _realline_reports
from .norms import canonical_measure, closed_norm, gram_matrix
from .polynomials import (
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    gegenbauer,
    jacobi_half,
    legendre,
)
from .quadrature import _contour_closed, _contour_values, _exact_rule, moment_table
from .selberg import selberg_compare, selberg_direct

__all__ = ["CheckResult", "run_all"]

P21 = make_params(2.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


_COMPARATORS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, "==": operator.eq}


def _shown(x) -> str:
    return f"{x:.3e}" if isinstance(x, float) else str(x)


def _result(name: str, bounds, metrics: dict, note: str = "") -> CheckResult:
    """The CheckResult that passes when every (label, value, comparator,
    bound) of bounds holds; its detail lists each as "label value comparator
    bound", marked "(fails)" where it does not hold, then the note."""
    held = [_COMPARATORS[op](value, bound) for _, value, op, bound in bounds]
    detail = "; ".join(
        f"{label} {_shown(value)} {op} {_shown(bound)}" + ("" if ok else " (fails)")
        for (label, value, op, bound), ok in zip(bounds, held))
    return CheckResult(name, all(held), detail + (f"; {note}" if note else ""), metrics)


def _sized_gram(family, params, nmax: int):
    """gram_matrix of the family under its canonical weight on the rule exact
    for its entries' degree 2 nmax, and that rule's shape."""
    measure = canonical_measure(family, params)
    rule = _exact_rule(measure, 2 * nmax)
    return gram_matrix(family, measure, nmax, rule=rule), rule.shape


def _worst_gram(families, params, nmax: int) -> tuple[float, float, dict]:
    """Worst off-diagonal/max-diagonal ratio and worst diagonal relative
    error over the families' Gram matrices under their canonical weights,
    and the rule size used under each measure kind."""
    worst_off = 0.0
    worst_diag = 0.0
    sizes = {}
    for fam in families:
        res, shape = _sized_gram(fam, params, nmax)
        worst_off = max(worst_off, res.max_offdiag / res.diag.max())
        worst_diag = max(worst_diag, res.max_diag_error)
        sizes[res.measure.kind.value] = list(shape)
    return worst_off, worst_diag, sizes


def check_gegenbauer_gram() -> CheckResult:
    """Gegenbauer orthogonality on p(2,1): off-diagonals against the largest
    diagonal and diagonals against the closed norms, for degrees <= 16 and
    alpha in {-0.9, -0.5, 0, 1, 2.5}."""
    worst_off, worst_diag, sizes = _worst_gram(
        [gegenbauer(alpha) for alpha in (-0.9, -0.5, 0.0, 1.0, 2.5)], P21, 16)
    return _result(
        "gegenbauer_gram",
        [("off-diagonal/max-diagonal", worst_off, "<=", 1e-10),
         ("diagonal relative error", worst_diag, "<=", 1e-10)],
        {"worst_offdiag_ratio": worst_off, "worst_diag_rel": worst_diag,
         "alphas": [-0.9, -0.5, 0.0, 1.0, 2.5], "nmax": 16, "rule_nodes": sizes})


def check_legendre_diagonal() -> CheckResult:
    """Legendre diagonal on p(2,1) against P_n(5/3)/(1+2n) for n <= 12, with
    the reference Legendre values taken from scipy, and its off-diagonals."""
    from scipy.special import eval_legendre   # the oracle, kept off the import path
    res, shape = _sized_gram(legendre(), P21, 12)
    ref = np.array([eval_legendre(n, P21.x_star) / (1.0 + 2 * n) for n in range(13)])
    rel = float(np.max(np.abs(res.diag - ref) / np.abs(ref)))
    off = res.max_offdiag / res.diag.max()
    return _result(
        "legendre_diagonal",
        [("diagonal vs P_n(5/3)/(1+2n) rel", rel, "<=", 1e-10),
         ("off-diagonal/max-diagonal", off, "<=", 1e-10)],
        {"worst_diag_rel": rel, "offdiag_ratio": off, "nmax": 12,
         "rule_nodes": {res.measure.kind.value: list(shape)}})


def check_jacobi_derived_ellipse() -> CheckResult:
    """Jacobi sub-families on the derived ellipse of p(2,1): diagonals against
    the closed norms and off-diagonals against the max diagonal, n <= 10,
    alpha in {0, 1.5}, both half-integer second parameters."""
    dp = derived_params(P21)
    worst_off, worst_diag, sizes = _worst_gram(
        [jacobi_half(alpha, sign) for alpha in (0.0, 1.5) for sign in (-1, +1)],
        dp, 10)
    return _result(
        "jacobi_derived_ellipse",
        [("off-diagonal/max-diagonal", worst_off, "<=", 1e-9),
         ("diagonal rel", worst_diag, "<=", 1e-9)],
        {"worst_offdiag_ratio": worst_off, "worst_diag_rel": worst_diag,
         "derived_a": dp.a, "derived_b": dp.b, "nmax": 10, "rule_nodes": sizes})


def check_chebyshev_families() -> CheckResult:
    """All four Chebyshev kinds on p(2,1) under their singular weights
    (mapped-coordinate quadrature): diagonals against the closed norms for
    n <= 12, and the closed n=0 anchors pi*ln(3) for the first kind and
    2*pi for the second kind (flat convention)."""
    worst_off, worst_diag, sizes = _worst_gram(
        [chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w()], P21, 12)
    t0 = closed_norm(chebyshev_t(), P21, 0)
    u0 = closed_norm(chebyshev_u(), P21, 0)
    anchors = abs(t0 - math.pi * math.log(3.0)) + abs(u0 - 2.0 * math.pi)
    return _result(
        "chebyshev_families",
        [("diagonal rel", worst_diag, "<=", 1e-8),
         ("off-diagonal/max-diagonal", worst_off, "<=", 1e-8),
         ("n=0 anchors pi*ln3 / 2*pi abs error", anchors, "<=", 1e-12)],
        {"worst_diag_rel": worst_diag, "worst_offdiag_ratio": worst_off,
         "t0": t0, "u0": u0, "nmax": 12, "rule_nodes": sizes})


def check_contour_identity() -> CheckResult:
    """Contour integral of (d/dw) T_{n+1}(z(w)/c) against T_{m+1} on |w| = r
    against i pi (n+1)/2 [(r/c)^{2n+2} - (c/r)^{2n+2}] delta_nm, scaled by
    the diagonal magnitude, for n, m <= 10."""
    closed = [_contour_closed(P21, k) for k in range(11)]
    scale = np.abs(closed)
    worst = 0.0
    for n in range(11):
        got = _contour_values(P21, n, range(11))   # m = 0..10 from one rule
        got[n] -= closed[n]
        worst = max(worst, float(np.max(np.abs(got) / np.maximum(scale[n], scale))))
    return _result("contour_identity",
                   [("scaled deviation over n, m <= 10", worst, "<=", 1e-10)],
                   {"worst_scaled": worst, "nmax": 10})


def _recurrence_coeff_table(alpha: float, nmax: int) -> np.ndarray:
    """Monomial coefficients of C_0..C_nmax at parameter 1+alpha, built by the
    three-term recurrence in coefficient space (independent of the closed
    Gamma-ratio coefficient formula)."""
    T = np.zeros((nmax + 1, nmax + 1))
    T[0, 0] = 1.0
    if nmax >= 1:
        T[1, 1] = 2.0 * (1.0 + alpha)
    for k in range(1, nmax):
        shifted = np.zeros(nmax + 1)
        shifted[1:] = T[k, :-1]
        T[k + 1] = (2.0 * (k + 1 + alpha) * shifted - (k + 1 + 2 * alpha) * T[k - 1]) / (k + 1)
    return T


def check_moment_relations() -> CheckResult:
    """Moment identities of the area weights on p(2,1): the alpha-scaling law
    <z^p,z^q>_alpha / <z^p,z^q>_0 = Gamma(2+a)Gamma(2+s/2)/Gamma(2+a+s/2)
    (s = p+q) for even s <= 20; odd moments vanish; and the coefficient
    ratio kappa^n_j(alpha)/kappa^n_j(0) =
    Gamma(a+1+(n+j)/2)/(Gamma(a+1)Gamma(1+(n+j)/2)) for n <= 12."""
    pmax = 20
    rules = {alpha: _exact_rule(area_measure(P21, alpha), 2 * pmax)
             for alpha in (0.0, -0.5, 1.0, 2.5)}
    m0 = moment_table(pmax, rules[0.0]).tolist()
    worst_scaling = 0.0
    worst_parity = 0.0
    for alpha in (-0.5, 1.0, 2.5):
        m = moment_table(pmax, rules[alpha]).tolist()
        for p_exp in range(pmax + 1):
            for q_exp in range(pmax + 1 - p_exp):
                s = p_exp + q_exp
                ma = m[p_exp][q_exp]
                if s % 2 == 1:
                    worst_parity = max(worst_parity, abs(ma),
                                       abs(m0[p_exp][q_exp]))
                    continue
                law = math.exp(math.lgamma(2.0 + alpha) + math.lgamma(2.0 + s / 2)
                               - math.lgamma(2.0 + alpha + s / 2))
                ratio = ma / m0[p_exp][q_exp]
                worst_scaling = max(worst_scaling, abs(ratio - law) / law)

    worst_coeff = 0.0
    nmax = 12
    t0 = _recurrence_coeff_table(0.0, nmax)
    for alpha in (-0.5, 1.0, 2.5):
        ta = _recurrence_coeff_table(alpha, nmax)
        for n in range(nmax + 1):
            for j in range(n % 2, n + 1, 2):
                law = math.exp(math.lgamma(alpha + 1.0 + (n + j) / 2)
                               - math.lgamma(alpha + 1.0)
                               - math.lgamma(1.0 + (n + j) / 2))
                ratio = ta[n, j] / t0[n, j]
                worst_coeff = max(worst_coeff, abs(ratio - law) / law)
    return _result(
        "moment_relations",
        [("scaling law rel", worst_scaling, "<=", 1e-12),
         ("parity abs", worst_parity, "<=", 1e-13),
         ("coefficient ratio rel", worst_coeff, "<=", 1e-11)],
        {"worst_scaling_rel": worst_scaling, "worst_parity_abs": worst_parity,
         "worst_coeff_rel": worst_coeff,
         "rule_nodes": {MeasureKind.AREA_ALPHA.value: list(rules[0.0].shape)}})


def _below_band(H, n: int) -> float:
    """Largest |c_{l,n}| of column n below the band, l <= n - 2."""
    return float(np.max(np.abs(H.entries[: n - 1, n])))


def check_multiplication_matrix() -> CheckResult:
    """Multiplication-operator structure.  Plain Gegenbauer basis on p(2,1):
    the quadrature Hessenberg matrix's bandwidth at tol 1e-10 (n <= 12).
    Christoffel basis at v = 1.5: the entries below the band of each column
    n in 4..8 must be nonvanishing, the closed-form entries must match both
    quadrature and the QR step (hessenberg's closed path), and the
    below-band mass must decay strictly as b shrinks through {0.5, 0.1,
    0.02}.  Every structural clause reads the Arnoldi matrices.

    The n = 4 clause fails structurally at this exact charge location: the
    degree-5 orthonormal polynomial vanishes at v (1.5/sqrt(3) = cos(pi/6)
    is a root of the degree-5 second-kind Chebyshev polynomial), and every
    below-band entry of column 4 carries that value as a factor.  Moving the
    charge to v = 1.6 restores the clause, which is recorded in the metrics.
    """
    plain = hessenberg(GegenbauerBasis(0.0, P21), 12, strategy="quadrature")
    d_plain = bandwidth(plain, 1e-10)

    basis = ChristoffelBasis(0.0, P21, 1.5 + 0j)
    H = hessenberg(basis, 9, strategy="quadrature")
    Hqr = hessenberg(basis, 9, strategy="closed")
    col_max = {n: _below_band(H, n) for n in range(4, 9)}

    worst_closed = worst_qr = 0.0
    for n in range(2, 9):
        for l in range(0, n - 1):
            cc = christoffel_entry_closed(basis, l, n)
            worst_closed = max(worst_closed, abs(H.entries[l, n] - cc))
            worst_qr = max(worst_qr, abs(Hqr.entries[l, n] - cc))

    sweep = (0.5, 0.1, 0.02)
    decay = []
    for b in sweep:
        Hb = hessenberg(ChristoffelBasis(0.0, make_params(2.0, b), 1.5 + 0j), 9,
                        strategy="quadrature")
        decay.append(max(_below_band(Hb, n) for n in range(2, 9)))

    H16 = hessenberg(ChristoffelBasis(0.0, P21, 1.6 + 0j), 9, strategy="quadrature")
    alt_n4 = _below_band(H16, 4)

    d_chris = bandwidth(H, 1e-8)

    return _result(
        "multiplication_matrix",
        [("plain bandwidth d", d_plain, "==", 2)]
        + [(f"below-band max n={n}", col_max[n], ">", 1e-6) for n in range(4, 9)]
        + [("closed-vs-quadrature", worst_closed, "<=", 1e-8),
           ("closed-vs-QR", worst_qr, "<=", 1e-8)]
        + [(f"below-band mass b={b} vs b={prev_b}", m, "<", prev_m)
           for prev_b, b, prev_m, m in zip(sweep, sweep[1:], decay, decay[1:])],
        {"plain_bandwidth": d_plain,
         "christoffel_bandwidth_nmax9": d_chris,
         "below_band_max": {str(n): col_max[n] for n in range(4, 9)},
         "closed_vs_quadrature": worst_closed,
         "closed_vs_qr": worst_qr,
         "decay_b_sweep": decay,
         "v16_column4_max": alt_n4,
         "rule_nodes": {"plain": list(plain.rule_shape),
                        "christoffel": list(H.rule_shape)}},
        note=(f"column 4 at v=1.5: the degree-5 basis polynomial vanishes exactly "
              f"(v/c = cos(pi/6) is a root of the degree-5 second-kind Chebyshev "
              f"polynomial), so every below-band entry of column 4 is an exact zero; "
              f"at v=1.6 the same column maximum is {alt_n4:.2e}"))


def check_turan_determinant() -> CheckResult:
    """Turan determinant of the Gegenbauer family: vanishes at x = +-1 and is
    bounded away from zero at x = 5/3, for l <= 8 and alpha in {-0.5, 0, 1.3}."""
    worst_edge = 0.0
    smallest_interior = math.inf
    for alpha in (-0.5, 0.0, 1.3):
        for l in range(9):
            worst_edge = max(worst_edge, abs(turan_determinant(alpha, l, 1.0)),
                             abs(turan_determinant(alpha, l, -1.0)))
            smallest_interior = min(smallest_interior,
                                    abs(turan_determinant(alpha, l, P21.x_star)))
    return _result("turan_determinant",
                   [("|Delta(+-1)| max", worst_edge, "<=", 1e-12),
                    ("|Delta(5/3)| min", smallest_interior, ">", 1e-6)],
                   {"worst_edge": worst_edge, "min_interior": smallest_interior})


def check_selberg_integral() -> CheckResult:
    """Selberg integral: product and closed evaluations agree (log-relative)
    for N <= 12, alpha in {-0.5, 0, 1, 2.5}; the direct N=2 tensor
    quadrature equals 5/2 at alpha=0 on p(2,1)."""
    worst_log = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.5):
        for N in range(1, 13):
            res = selberg_compare(alpha, P21, N)
            worst_log = max(worst_log, res.log_rel_discrepancy)
    direct = selberg_direct(0.0, P21, 2)
    direct_err = abs(direct - 2.5)
    return _result("selberg_integral",
                   [("closed vs product log-rel", worst_log, "<=", 1e-11),
                    ("direct N=2 vs 5/2 abs error", direct_err, "<=", 1e-10)],
                   {"worst_log_rel": worst_log, "direct_value": direct,
                    "direct_err": direct_err})


def check_heine_average() -> CheckResult:
    """Ensemble average of the characteristic polynomial: the direct N=2
    tensor-quadrature expectation matches the monic degree-2 polynomial on
    a 5x5 grid in the ellipse (alpha = 0 and 1); N=1 reduces to the
    vanishing first moment."""
    r1 = heine_check(0.0, P21, 1)
    r20 = heine_check(0.0, P21, 2)
    r21 = heine_check(1.0, P21, 2)
    return _result("heine_average",
                   [("N=1 residual", r1, "<=", 1e-12),
                    ("N=2 residual @ alpha=0", r20, "<=", 1e-8),
                    ("N=2 residual @ alpha=1", r21, "<=", 1e-8)],
                   {"n1": r1, "n2_alpha0": r20, "n2_alpha1": r21})


def check_limit_regimes() -> CheckResult:
    """Three limit regimes, every entry within its report's verdict.
    Rescaled inner products approach the planar Hermite orthogonality along
    alpha in {10, 100, 1000} (n, m <= 3 on p(2,1)).  Monic inner products
    approach the disc moments as b -> a (a=1, alpha in {0, 2}, b up to
    0.999, n, m <= 3).  Planar inner products approach the real-line
    orthogonality as b -> 0 (a=2, alpha=0, b down to 0.03 against the 1-D
    Gauss-Jacobi oracle, n, m <= 4)."""
    # Each regime shares one rule per parameter value across its entries,
    # sized for the largest n + m.
    entries4 = [(n, m) for n in range(4) for m in range(4)]
    regimes = {
        "hermite": _hermite_reports(P21, entries4, (10.0, 100.0, 1000.0)),
        "disc": [rep for alpha in (0.0, 2.0)
                 for rep in _disc_reports(1.0, entries4, alpha, (0.9, 0.99, 0.999))],
        "realline": _realline_reports(2.0, [(n, m) for n in range(5) for m in range(5)],
                                      0.0, (0.3, 0.1, 0.03)),
    }
    worst = {label: max(rep.residuals[-1] for rep in reps) for label, reps in regimes.items()}
    bad = [(label, rep.n, rep.m) for label, reps in regimes.items()
           for rep in reps if not rep.verdict]
    return _result(
        "limit_regimes",
        [(f"{label} final residual max", worst[label], "<=", reps[0].tolerance)
         for label, reps in regimes.items()]
        + [("entries failing their verdict", len(bad), "==", 0)],
        {**{f"{label}_final_max": w for label, w in worst.items()},
         "realline_a": 2.0,
         "rule_nodes": {label: reps[0].extras["rule_nodes"] for label, reps in regimes.items()}},
        note=f"failures (regime, n, m; disc lists alpha=0 before alpha=2): {bad}" if bad else "")


CHECKS = [
    check_gegenbauer_gram,
    check_legendre_diagonal,
    check_jacobi_derived_ellipse,
    check_chebyshev_families,
    check_contour_identity,
    check_moment_relations,
    check_multiplication_matrix,
    check_turan_determinant,
    check_selberg_integral,
    check_heine_average,
    check_limit_regimes,
]


def run_all(names=None) -> list[CheckResult]:
    """Run the verification battery (optionally a named subset) in fixed order."""
    selected = []
    for fn in CHECKS:
        label = fn.__name__.removeprefix("check_")
        if names is None or label in names or fn.__name__ in names:
            selected.append(fn)
    if names is not None and not selected:
        raise ValueError(f"no checks match {names}")
    return [fn() for fn in selected]
