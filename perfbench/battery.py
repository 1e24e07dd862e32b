"""Expected verdicts and per-clause tolerances of the ``verify`` battery.

The tolerances are those stated in each check's docstring in
``ellipoly.verification``.  A clause's margin is worst/tolerance for an
upper bound and tolerance/value for a lower bound, so a margin above 1 is a
failed clause; a check's margin is the largest over its clauses.
"""

from __future__ import annotations

import math

UPPER, LOWER = "upper", "lower"

# check -> [(label, value from CheckResult.metrics, tolerance, kind)]
CLAUSES = {
    "gegenbauer_gram": [
        ("offdiag", lambda m: m["worst_offdiag_ratio"], 1e-10, UPPER),
        ("diag", lambda m: m["worst_diag_rel"], 1e-10, UPPER)],
    "legendre_diagonal": [
        ("diag", lambda m: m["worst_diag_rel"], 1e-10, UPPER),
        ("offdiag", lambda m: m["offdiag_ratio"], 1e-10, UPPER)],
    "jacobi_derived_ellipse": [
        ("offdiag", lambda m: m["worst_offdiag_ratio"], 1e-9, UPPER),
        ("diag", lambda m: m["worst_diag_rel"], 1e-9, UPPER)],
    "chebyshev_families": [
        ("diag", lambda m: m["worst_diag_rel"], 1e-8, UPPER),
        ("offdiag", lambda m: m["worst_offdiag_ratio"], 1e-8, UPPER),
        ("anchors", lambda m: abs(m["t0"] - math.pi * math.log(3.0))
         + abs(m["u0"] - 2.0 * math.pi), 1e-12, UPPER)],
    "contour_identity": [
        ("scaled", lambda m: m["worst_scaled"], 1e-10, UPPER)],
    "moment_relations": [
        ("scaling", lambda m: m["worst_scaling_rel"], 1e-12, UPPER),
        ("parity", lambda m: m["worst_parity_abs"], 1e-13, UPPER),
        ("coefficients", lambda m: m["worst_coeff_rel"], 1e-11, UPPER)],
    # Column n = 4 of the below-band clause is left out: at v = 1.5 the
    # degree-5 basis polynomial vanishes, so that column is an exact zero by
    # structure (README, "Hessenberg structure"; the criterion-7 strict xfail).
    "multiplication_matrix": [
        *[(f"below_band_n{n}", (lambda n: lambda m: m["below_band_max"][str(n)])(n),
           1e-6, LOWER) for n in range(5, 9)],
        ("closed_vs_quadrature", lambda m: m["closed_vs_quadrature"], 1e-8, UPPER),
        ("decay", lambda m: max(b / a for a, b in zip(m["decay_b_sweep"],
                                                      m["decay_b_sweep"][1:])), 1.0, UPPER)],
    "turan_determinant": [
        ("edge", lambda m: m["worst_edge"], 1e-12, UPPER),
        ("interior", lambda m: m["min_interior"], 1e-6, LOWER)],
    "selberg_integral": [
        ("log_rel", lambda m: m["worst_log_rel"], 1e-11, UPPER),
        ("direct", lambda m: m["direct_err"], 1e-10, UPPER)],
    "heine_average": [
        ("n1", lambda m: m["n1"], 1e-12, UPPER),
        ("n2_alpha0", lambda m: m["n2_alpha0"], 1e-8, UPPER),
        ("n2_alpha1", lambda m: m["n2_alpha1"], 1e-8, UPPER)],
    "limit_regimes": [
        ("hermite", lambda m: m["hermite_final_max"], 1e-2, UPPER),
        ("disc", lambda m: m["disc_final_max"], 1e-3, UPPER),
        ("realline", lambda m: m["realline_final_max"], 1e-2, UPPER)],
}

# The seed's verdicts: every check passes except multiplication_matrix,
# which fails on exactly the structural column 4.
EXPECTED_FAILING_COLUMNS = [4]


def check_margin(name: str, metrics: dict) -> float:
    worst = 0.0
    for _, value, tol, kind in CLAUSES[name]:
        v = value(metrics)
        worst = max(worst, v / tol if kind == UPPER else tol / v)
    return worst


def failing_columns(metrics: dict) -> list[int]:
    return sorted(int(n) for n, v in metrics["below_band_max"].items() if not v > 1e-6)


def verdict_as_expected(result) -> bool:
    """A check's outcome equals the seed's."""
    if result.name != "multiplication_matrix":
        return result.passed
    return (not result.passed
            and failing_columns(result.metrics) == EXPECTED_FAILING_COLUMNS
            and result.metrics["plain_bandwidth"] == 2
            and check_margin(result.name, result.metrics) <= 1.0)


def battery_margins(results) -> dict:
    """check name -> margin, for one run_all() result list."""
    return {r.name: check_margin(r.name, r.metrics) for r in results}
