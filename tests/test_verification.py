"""Rule sizes of the verify battery: every rule a check builds is sized from
its check's degree, and each one agrees with the same rule at twice the size
to roundoff (for the Chebyshev-T weight, which is not polynomial, that
agreement is what fixes the size).  Also the verdict of a check's bound
list at the bound itself."""

import numpy as np
import pytest

from ellipoly import (
    ChristoffelBasis,
    GegenbauerBasis,
    area_measure,
    build_rule,
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    derived_params,
    gegenbauer,
    gram_matrix,
    hessenberg,
    jacobi_half,
    legendre,
    make_params,
    moment_table,
)
from ellipoly.limits import (
    _disc_reports,
    _hermite_reports,
    _planar_entries,
    _realline_reports,
    disc_limit,
    hermite_limit,
    realline_limit,
)
from ellipoly.verification import (
    P21,
    _result,
    _sized_gram,
    check_chebyshev_families,
    check_gegenbauer_gram,
    check_jacobi_derived_ellipse,
    check_legendre_diagonal,
    check_limit_regimes,
    check_moment_relations,
    check_multiplication_matrix,
)

from conftest import einsum_hessenberg

ROUNDOFF = 1e-13


def _scaled_gap(A, B):
    """max |A - B| / sqrt(|B_ii| |B_jj|): each entry against the size of its
    row and column, which is what an off-diagonal zero is measured against."""
    d = np.sqrt(np.abs(np.diag(B)))
    return float(np.max(np.abs(A - B) / np.outer(d, d)))


GRAM_CASES = {
    "gegenbauer_gram": (check_gegenbauer_gram, P21, 16,
                        [gegenbauer(a) for a in (-0.9, -0.5, 0.0, 1.0, 2.5)]),
    "legendre_diagonal": (check_legendre_diagonal, P21, 12, [legendre()]),
    "jacobi_derived_ellipse": (check_jacobi_derived_ellipse, derived_params(P21), 10,
                               [jacobi_half(a, s) for a in (0.0, 1.5) for s in (-1, 1)]),
    "chebyshev_families": (check_chebyshev_families, P21, 12,
                           [chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w()]),
}


def test_recorded_rule_sizes():
    """k = d // 2 + 1 for the degree d of each check's integrands."""
    assert check_gegenbauer_gram().metrics["rule_nodes"] == {"area_alpha": [17, 34]}
    assert check_legendre_diagonal().metrics["rule_nodes"] == {"area_alpha": [13, 26]}
    assert check_jacobi_derived_ellipse().metrics["rule_nodes"] == {
        "b_minus": [21, 42], "b_plus": [22, 44]}
    assert check_chebyshev_families().metrics["rule_nodes"] == {
        "chebyshev_t": [13, 26], "area_alpha": [13, 26],
        "chebyshev_v": [25, 50], "chebyshev_w": [25, 50]}
    assert check_moment_relations().metrics["rule_nodes"] == {"area_alpha": [21, 42]}
    assert check_multiplication_matrix().metrics["rule_nodes"] == {
        "plain": [13, 26], "christoffel": [11, 22]}
    assert check_limit_regimes().metrics["rule_nodes"] == {
        "hermite": [4, 8], "disc": [4, 8], "realline": [5, 10]}


@pytest.mark.parametrize("name", list(GRAM_CASES))
def test_sized_gram_rule_matches_double_size(name):
    check, params, nmax, families = GRAM_CASES[name]
    sizes = check().metrics["rule_nodes"]
    for fam in families:
        res, shape = _sized_gram(fam, params, nmax)
        k, angular = sizes[res.measure.kind.value]
        assert shape == (k, angular)
        big = gram_matrix(fam, res.measure, nmax,
                          rule=build_rule(res.measure, n_radial=2 * k, n_angular=2 * angular))
        assert _scaled_gap(res.matrix, big.matrix) <= ROUNDOFF, fam


def test_chebyshev_t_size_is_the_smallest_converged():
    """One size smaller and the 2k angles alias the order-24 harmonic."""
    res, shape = _sized_gram(chebyshev_t(), P21, 12)
    k = shape[0] - 1
    small = gram_matrix(chebyshev_t(), res.measure, 12,
                        rule=build_rule(res.measure, n_radial=k, n_angular=2 * k))
    assert _scaled_gap(small.matrix, res.matrix) > 1e-6


def test_moment_rule_matches_double_size():
    k, angular = check_moment_relations().metrics["rule_nodes"]["area_alpha"]
    for alpha in (0.0, -0.5, 1.0, 2.5):
        measure = area_measure(P21, alpha)
        M = moment_table(20, build_rule(measure, n_radial=k, n_angular=angular))
        big = moment_table(20, build_rule(measure, n_radial=2 * k, n_angular=2 * angular))
        assert _scaled_gap(M, big) <= ROUNDOFF, alpha


def test_hessenberg_rules_match_double_size():
    sizes = check_multiplication_matrix().metrics["rule_nodes"]
    cases = [(GegenbauerBasis(0.0, P21), 12, sizes["plain"])]
    cases += [(ChristoffelBasis(0.0, p, v), 9, sizes["christoffel"])
              for p, v in ((P21, 1.5), (P21, 1.6), (make_params(2.0, 0.5), 1.5),
                           (make_params(2.0, 0.1), 1.5), (make_params(2.0, 0.02), 1.5))]
    for basis, nmax, (k, angular) in cases:
        H = hessenberg(basis, nmax, strategy="quadrature")
        assert H.rule_shape == (k, angular)
        big = einsum_hessenberg(basis, nmax, build_rule(area_measure(basis.params, basis.alpha),
                                                        n_radial=2 * k, n_angular=2 * angular))
        scale = np.max(np.abs(big))
        assert np.max(np.abs(H.entries - big)) <= ROUNDOFF * scale, basis


def test_shared_limit_rules_match_double_size():
    for p, alpha, nmax, k in ((P21, 1000.0, 3, 4), (make_params(1.0, 0.999), 2.0, 3, 4),
                              (make_params(2.0, 0.03), 0.0, 4, 5)):
        entries = [(n, m) for n in range(nmax + 1) for m in range(nmax + 1)]
        shape, got = _planar_entries(p, alpha, entries, 2 * nmax)
        # degree 4 nmax + 2 is the first that _exact_rule sizes at 2k x 4k
        big_shape, big = _planar_entries(p, alpha, entries, 4 * nmax + 2)
        assert (shape, big_shape) == ((k, 2 * k), (2 * k, 4 * k))
        assert _scaled_gap(got.reshape(nmax + 1, nmax + 1),
                           big.reshape(nmax + 1, nmax + 1)) <= ROUNDOFF


def test_shared_limit_rules_are_the_single_entry_reports():
    """The battery's one-rule-per-parameter reports equal the public per-entry
    ones to roundoff, with the same verdicts."""
    block = [(n, m) for n in range(4) for m in range(4)]
    pairs = [(r, hermite_limit(P21, r.n, r.m, (10.0, 100.0, 1000.0)))
             for r in _hermite_reports(P21, block, (10.0, 100.0, 1000.0))]
    pairs += [(r, disc_limit(1.0, r.n, r.m, 2.0, (0.9, 0.99, 0.999)))
              for r in _disc_reports(1.0, block, 2.0, (0.9, 0.99, 0.999))]
    pairs += [(r, realline_limit(2.0, r.n, r.m, 0.0, (0.3, 0.1, 0.03)))
              for r in _realline_reports(2.0, block, 0.0, (0.3, 0.1, 0.03))]
    for shared, single in pairs:
        assert shared.verdict == single.verdict
        scale = max(1.0, abs(single.target))
        assert abs(shared.target - single.target) <= ROUNDOFF * scale
        for v, w in zip(shared.values, single.values):
            assert abs(v - w) <= ROUNDOFF * max(scale, abs(w)), (shared.regime, shared.n, shared.m)


def test_limit_regime_final_maxima_are_pinned():
    """The three regimes' worst final residuals of the battery, as printed by
    `ellipoly verify`: a change to the limit engine shows here first."""
    metrics = check_limit_regimes().metrics
    assert metrics["hermite_final_max"] == pytest.approx(0.0011764705882362748, rel=1e-12)
    assert metrics["disc_final_max"] == pytest.approx(7.490007496571138e-4, rel=1e-12)
    assert metrics["realline_final_max"] == pytest.approx(0.0036042148810262425, rel=1e-12)


@pytest.mark.parametrize("op, held", [("<=", True), ("==", True), ("<", False), (">", False)])
def test_result_at_its_bound(op, held):
    """A value equal to its bound holds under <= and ==, and fails under < and >;
    one failing bound fails the check, and the metrics pass through untouched."""
    metrics = {"x": 1e-10}
    assert _result("edge", [("x", 1e-10, op, 1e-10)], metrics).passed is held
    both = _result("edge", [("x", 1e-10, op, 1e-10), ("y", 1.0, "<=", 2.0)], metrics)
    assert both.passed is held and both.metrics is metrics


def test_multiplication_detail_explains_column_4():
    r = check_multiplication_matrix()
    assert "column 4" in r.detail
    assert f"v=1.6 the same column maximum is {r.metrics['v16_column4_max']:.2e}" in r.detail
