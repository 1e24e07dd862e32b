"""End-to-end verification suite: every headline identity of the library
checked numerically at fixed tolerances.

Each check returns a CheckResult with the worst observed errors; run_all
executes the whole battery in a fixed order (the CLI `verify` subcommand
serializes the outcome deterministically, so two runs are byte-identical).
"""

from __future__ import annotations

import math
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
from .geometry import derived_params, make_params
from .limits import disc_limit, hermite_limit, realline_limit
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
from .quadrature import build_rule, contour_check, moment_table
from .selberg import selberg_compare, selberg_direct

__all__ = ["CheckResult", "run_all", "CHECKS"]

P21 = make_params(2.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def _worst_gram(families, params, nmax: int) -> tuple[float, float]:
    """Worst off-diagonal/max-diagonal ratio and worst diagonal relative
    error over the families' Gram matrices under their canonical weights."""
    worst_off = 0.0
    worst_diag = 0.0
    for fam in families:
        res = gram_matrix(fam, canonical_measure(fam, params), nmax)
        worst_off = max(worst_off, res.max_offdiag / res.diag.max())
        worst_diag = max(worst_diag, res.max_diag_error)
    return worst_off, worst_diag


def check_gegenbauer_gram() -> CheckResult:
    """Gegenbauer orthogonality on p(2,1): off-diagonals below 1e-10 of the
    largest diagonal and diagonals within 1e-10 of the closed norms, for
    degrees <= 16 and alpha in {-0.9, -0.5, 0, 1, 2.5}."""
    worst_off, worst_diag = _worst_gram(
        [gegenbauer(alpha) for alpha in (-0.9, -0.5, 0.0, 1.0, 2.5)], P21, 16)
    passed = worst_off <= 1e-10 and worst_diag <= 1e-10
    return CheckResult(
        name="gegenbauer_gram",
        passed=passed,
        detail=(f"off-diagonal/max-diagonal {worst_off:.3e} (tol 1e-10), "
                f"diagonal relative error {worst_diag:.3e} (tol 1e-10)"),
        metrics={"worst_offdiag_ratio": worst_off, "worst_diag_rel": worst_diag,
                 "alphas": [-0.9, -0.5, 0.0, 1.0, 2.5], "nmax": 16})


def check_legendre_diagonal() -> CheckResult:
    """Legendre diagonal on p(2,1) against P_n(5/3)/(1+2n) to 1e-10 for
    n <= 12, with the reference Legendre values taken from scipy."""
    from scipy.special import eval_legendre   # the oracle, kept off the import path
    fam = legendre()
    res = gram_matrix(fam, canonical_measure(fam, P21), 12)
    ref = np.array([eval_legendre(n, P21.x_star) / (1.0 + 2 * n) for n in range(13)])
    rel = float(np.max(np.abs(res.diag - ref) / np.abs(ref)))
    off = res.max_offdiag / res.diag.max()
    passed = rel <= 1e-10 and off <= 1e-10
    return CheckResult(
        name="legendre_diagonal",
        passed=passed,
        detail=f"diagonal vs P_n(5/3)/(1+2n): rel {rel:.3e} (tol 1e-10), offdiag ratio {off:.3e}",
        metrics={"worst_diag_rel": rel, "offdiag_ratio": off, "nmax": 12})


def check_jacobi_derived_ellipse() -> CheckResult:
    """Jacobi sub-families on the derived ellipse of p(2,1): diagonals match
    the closed norms to 1e-9 and off-diagonals stay below 1e-9 of the max
    diagonal, n <= 10, alpha in {0, 1.5}, both half-integer second
    parameters."""
    dp = derived_params(P21)
    worst_off, worst_diag = _worst_gram(
        [jacobi_half(alpha, sign) for alpha in (0.0, 1.5) for sign in (-1, +1)],
        dp, 10)
    passed = worst_off <= 1e-9 and worst_diag <= 1e-9
    return CheckResult(
        name="jacobi_derived_ellipse",
        passed=passed,
        detail=(f"off-diagonal/max-diagonal {worst_off:.3e}, diagonal rel "
                f"{worst_diag:.3e} (tol 1e-9 each)"),
        metrics={"worst_offdiag_ratio": worst_off, "worst_diag_rel": worst_diag,
                 "derived_a": dp.a, "derived_b": dp.b, "nmax": 10})


def check_chebyshev_families() -> CheckResult:
    """All four Chebyshev kinds on p(2,1) under their singular weights
    (mapped-coordinate quadrature): diagonals within 1e-8 of the closed
    norms for n <= 12, including the n=0 anchors pi*ln(3) for the first
    kind and 2*pi for the second kind (flat convention)."""
    worst_off, worst_diag = _worst_gram(
        [chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w()], P21, 12)
    t0 = closed_norm(chebyshev_t(), P21, 0)
    u0 = closed_norm(chebyshev_u(), P21, 0)
    anchors = abs(t0 - math.pi * math.log(3.0)) + abs(u0 - 2.0 * math.pi)
    passed = worst_diag <= 1e-8 and worst_off <= 1e-8 and anchors <= 1e-12
    return CheckResult(
        name="chebyshev_families",
        passed=passed,
        detail=(f"diagonal rel {worst_diag:.3e}, offdiag ratio {worst_off:.3e} "
                f"(tol 1e-8); n=0 anchors pi*ln3 / 2*pi off by {anchors:.3e}"),
        metrics={"worst_diag_rel": worst_diag, "worst_offdiag_ratio": worst_off,
                 "t0": t0, "u0": u0, "nmax": 12})


def check_contour_identity() -> CheckResult:
    """Contour integral of (d/dw) T_{n+1}(z(w)/c) against T_{m+1} on |w| = r:
    equals i pi (n+1)/2 [(r/c)^{2n+2} - (c/r)^{2n+2}] delta_nm to 1e-10,
    scaled by the diagonal magnitude, for n, m <= 10."""
    q = P21.r / P21.c
    closed = [math.pi * (k + 1) / 2.0 * (q ** (2 * k + 2) - q ** (-2 * k - 2)) for k in range(11)]
    worst = 0.0
    for n in range(11):
        for m in range(11):
            expected = 1j * closed[n] if n == m else 0.0
            worst = max(worst, abs(contour_check(P21, n, m) - expected) / closed[max(n, m)])
    passed = worst <= 1e-10
    return CheckResult(
        name="contour_identity",
        passed=passed,
        detail=f"scaled deviation {worst:.3e} (tol 1e-10) over n, m <= 10",
        metrics={"worst_scaled": worst, "nmax": 10})


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
    (s = p+q) to 1e-12 for even s <= 20; odd moments vanish to 1e-13; and
    the coefficient ratio kappa^n_j(alpha)/kappa^n_j(0) =
    Gamma(a+1+(n+j)/2)/(Gamma(a+1)Gamma(1+(n+j)/2)) to 1e-11 for n <= 12."""
    pmax = 20

    def table(alpha: float) -> list[list[complex]]:
        rule = build_rule(canonical_measure(gegenbauer(alpha), P21))
        return moment_table(pmax, rule).tolist()

    m0 = table(0.0)
    worst_scaling = 0.0
    worst_parity = 0.0
    for alpha in (-0.5, 1.0, 2.5):
        m = table(alpha)
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
    passed = worst_scaling <= 1e-12 and worst_parity <= 1e-13 and worst_coeff <= 1e-11
    return CheckResult(
        name="moment_relations",
        passed=passed,
        detail=(f"scaling law rel {worst_scaling:.3e} (tol 1e-12), parity "
                f"{worst_parity:.3e} (tol 1e-13), coefficient ratio rel "
                f"{worst_coeff:.3e} (tol 1e-11)"),
        metrics={"worst_scaling_rel": worst_scaling, "worst_parity_abs": worst_parity,
                 "worst_coeff_rel": worst_coeff})


def check_multiplication_matrix() -> CheckResult:
    """Multiplication-operator structure.  Plain Gegenbauer basis on p(2,1):
    quadrature Hessenberg has bandwidth 2 at tol 1e-10 (n <= 12).  Christoffel
    basis at v = 1.5: entries below the band must be nonvanishing
    (> 1e-6) for each column n in 4..8, the closed-form entries must match
    quadrature to 1e-8, and the below-band mass must decay monotonically as
    b shrinks through {0.5, 0.1, 0.02}.

    The n = 4 clause fails structurally at this exact charge location: the
    degree-5 orthonormal polynomial vanishes at v (1.5/sqrt(3) = cos(pi/6)
    is a root of the degree-5 second-kind Chebyshev polynomial), and every
    below-band entry of column 4 carries that value as a factor.  Moving the
    charge to v = 1.6 restores the clause, which is recorded in the metrics.
    """
    plain = hessenberg(GegenbauerBasis(0.0, P21), 12, strategy="quadrature")
    d_plain = bandwidth(plain, 1e-10)

    basis = ChristoffelBasis(0.0, P21, 1.5 + 0j)
    H = hessenberg(basis, 9)
    col_max = {}
    for n in range(4, 9):
        col_max[n] = float(np.max(np.abs(H.entries[: n - 1, n])))
    nonvanish_ok = {n: v > 1e-6 for n, v in col_max.items()}

    worst_closed = 0.0
    for n in range(2, 9):
        for l in range(0, n - 1):
            cq = H.entries[l, n]
            cc = christoffel_entry_closed(basis, l, n)
            worst_closed = max(worst_closed, abs(cq - cc))

    decay = []
    for b in (0.5, 0.1, 0.02):
        pb = make_params(2.0, b)
        bb = ChristoffelBasis(0.0, pb, 1.5 + 0j)
        Hb = hessenberg(bb, 9)
        mass = max(float(np.max(np.abs(Hb.entries[: n - 1, n])))
                   for n in range(2, 9))
        decay.append(mass)
    decay_ok = all(m2 < m1 for m1, m2 in zip(decay, decay[1:]))

    basis16 = ChristoffelBasis(0.0, P21, 1.6 + 0j)
    H16 = hessenberg(basis16, 9)
    alt_n4 = float(np.max(np.abs(H16.entries[:3, 4])))

    d_chris = bandwidth(H, 1e-8)

    passed = (d_plain == 2 and all(nonvanish_ok.values())
              and worst_closed <= 1e-8 and decay_ok)
    failing = [n for n, ok in nonvanish_ok.items() if not ok]
    detail = (f"plain bandwidth d={d_plain} (want 2); below-band max per column "
              + ", ".join(f"n={n}:{col_max[n]:.2e}" for n in range(4, 9))
              + f" (want > 1e-6 each); closed-vs-quadrature {worst_closed:.3e} "
              f"(tol 1e-8); decay along b=0.5,0.1,0.02: "
              + " > ".join(f"{m:.2e}" for m in decay)
              + (" ok" if decay_ok else " NOT monotone"))
    if failing:
        detail += (f"; FAILING columns {failing}: at v=1.5 the degree-5 basis "
                   f"polynomial vanishes exactly (v/c = cos(pi/6) is a root of "
                   f"the degree-5 second-kind Chebyshev polynomial), so every "
                   f"below-band entry of column 4 is an exact zero; at v=1.6 "
                   f"the same column maximum is {alt_n4:.2e}")
    return CheckResult(
        name="multiplication_matrix",
        passed=passed,
        detail=detail,
        metrics={"plain_bandwidth": d_plain,
                 "christoffel_bandwidth_nmax9": d_chris,
                 "below_band_max": {str(n): col_max[n] for n in range(4, 9)},
                 "closed_vs_quadrature": worst_closed,
                 "decay_b_sweep": decay,
                 "v16_column4_max": alt_n4})


def check_turan_determinant() -> CheckResult:
    """Turan determinant of the Gegenbauer family: vanishes at x = +-1
    (to 1e-12) and is bounded away from zero (> 1e-6) at x = 5/3, for
    l <= 8 and alpha in {-0.5, 0, 1.3}."""
    worst_edge = 0.0
    smallest_interior = math.inf
    for alpha in (-0.5, 0.0, 1.3):
        for l in range(9):
            worst_edge = max(worst_edge, abs(turan_determinant(alpha, l, 1.0)),
                             abs(turan_determinant(alpha, l, -1.0)))
            smallest_interior = min(smallest_interior,
                                    abs(turan_determinant(alpha, l, P21.x_star)))
    passed = worst_edge <= 1e-12 and smallest_interior > 1e-6
    return CheckResult(
        name="turan_determinant",
        passed=passed,
        detail=(f"|Delta(+-1)| max {worst_edge:.3e} (tol 1e-12), "
                f"|Delta(5/3)| min {smallest_interior:.3e} (want > 1e-6)"),
        metrics={"worst_edge": worst_edge, "min_interior": smallest_interior})


def check_selberg_integral() -> CheckResult:
    """Selberg integral: product and closed evaluations agree to 1e-11
    (log-relative) for N <= 12, alpha in {-0.5, 0, 1, 2.5}; the direct N=2
    tensor quadrature equals 5/2 at alpha=0 on p(2,1) to 1e-10."""
    worst_log = 0.0
    for alpha in (-0.5, 0.0, 1.0, 2.5):
        for N in range(1, 13):
            res = selberg_compare(alpha, P21, N)
            worst_log = max(worst_log, res.log_rel_discrepancy)
    direct = selberg_direct(0.0, P21, 2)
    direct_err = abs(direct - 2.5)
    passed = worst_log <= 1e-11 and direct_err <= 1e-10
    return CheckResult(
        name="selberg_integral",
        passed=passed,
        detail=(f"closed vs product log-rel {worst_log:.3e} (tol 1e-11); "
                f"direct N=2 = {direct:.12f} vs 5/2, err {direct_err:.3e} (tol 1e-10)"),
        metrics={"worst_log_rel": worst_log, "direct_value": direct,
                 "direct_err": direct_err})


def check_heine_average() -> CheckResult:
    """Ensemble average of the characteristic polynomial: the direct N=2
    tensor-quadrature expectation matches the monic degree-2 polynomial on
    a 5x5 grid in the ellipse to 1e-8 (alpha = 0 and 1); N=1 reduces to the
    vanishing first moment."""
    r1 = heine_check(0.0, P21, 1)
    r20 = heine_check(0.0, P21, 2)
    r21 = heine_check(1.0, P21, 2)
    passed = r1 <= 1e-12 and r20 <= 1e-8 and r21 <= 1e-8
    return CheckResult(
        name="heine_average",
        passed=passed,
        detail=(f"N=1 residual {r1:.3e} (tol 1e-12); N=2 residual "
                f"{r20:.3e} @ alpha=0, {r21:.3e} @ alpha=1 (tol 1e-8)"),
        metrics={"n1": r1, "n2_alpha0": r20, "n2_alpha1": r21})


def check_limit_regimes() -> CheckResult:
    """Three limit regimes.  Rescaled inner products approach the planar
    Hermite orthogonality along alpha in {10, 100, 1000} with decreasing
    residuals, final <= 1% (n, m <= 3 on p(2,1)).  Monic inner products
    approach the disc moments as b -> a (a=1, alpha in {0, 2}, final
    absolute residual <= 1e-3 at b = 0.999, n, m <= 3).  Planar inner
    products approach the real-line orthogonality as b -> 0 (a=2, alpha=0,
    final <= 1e-2 at b = 0.03 against the 1-D Gauss-Jacobi oracle,
    n, m <= 4)."""
    hermite_bad = []
    worst_hermite = 0.0
    for n in range(4):
        for m in range(4):
            rep = hermite_limit(P21, n, m, (10.0, 100.0, 1000.0))
            worst_hermite = max(worst_hermite, rep.residuals[-1])
            if not rep.verdict:
                hermite_bad.append((n, m))
    disc_bad = []
    worst_disc = 0.0
    for alpha in (0.0, 2.0):
        for n in range(4):
            for m in range(4):
                rep = disc_limit(1.0, n, m, alpha, (0.9, 0.99, 0.999))
                worst_disc = max(worst_disc, rep.residuals[-1])
                if not rep.verdict:
                    disc_bad.append((alpha, n, m))
    real_bad = []
    worst_real = 0.0
    for n in range(5):
        for m in range(5):
            rep = realline_limit(2.0, n, m, 0.0, (0.3, 0.1, 0.03))
            worst_real = max(worst_real, rep.residuals[-1])
            if not rep.verdict:
                real_bad.append((n, m))
    passed = not (hermite_bad or disc_bad or real_bad)
    return CheckResult(
        name="limit_regimes",
        passed=passed,
        detail=(f"hermite final residual max {worst_hermite:.3e} (tol 1e-2), "
                f"disc max {worst_disc:.3e} (tol 1e-3), real-line max "
                f"{worst_real:.3e} (tol 1e-2)"
                + (f"; failures: {hermite_bad + disc_bad + real_bad}"
                   if not passed else "")),
        metrics={"hermite_final_max": worst_hermite,
                 "disc_final_max": worst_disc,
                 "realline_final_max": worst_real,
                 "realline_a": 2.0})


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
