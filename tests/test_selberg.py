"""Partition-function routes: closed Gamma form, norm product, direct integral.

selberg_product and selberg_closed both return log Z_N; selberg_direct
returns Z_N itself (it only exists for N <= 2 where the 2N-dimensional
tensor quadrature is affordable).
"""

import math

import pytest

from ellipoly import (
    heine_check,
    log_monic_norm,
    make_params,
    monic_norm,
    selberg_closed,
    selberg_compare,
    selberg_direct,
    selberg_product,
)


def test_single_particle(p21):
    # Z_1 = h~_0 = mass of the normalized measure = 1
    assert selberg_product(0.3, p21, 1) == pytest.approx(0.0, abs=1e-14)
    assert selberg_closed(0.3, p21, 1) == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        selberg_product(0.3, p21, 0)


def test_two_particle_hand_value(p21):
    # Z_2 = 2! h~_0 h~_1 = 2 * 5/4 = 5/2 at alpha = 0
    assert selberg_product(0.0, p21, 2) == pytest.approx(math.log(2.5), rel=1e-14)
    assert selberg_closed(0.0, p21, 2) == pytest.approx(math.log(2.5), rel=1e-13)
    assert selberg_direct(0.0, p21, 2) == pytest.approx(2.5, rel=1e-10)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_routes_agree_log_scale(p21, alpha):
    for N in (3, 7, 12):
        lp = selberg_product(alpha, p21, N)
        lc = selberg_closed(alpha, p21, N)
        assert lp == pytest.approx(lc, abs=1e-11 * max(1.0, abs(lp)))


def test_product_is_factorial_times_norms(p21):
    alpha, N = 1.5, 5
    expect = math.log(math.factorial(N))
    for j in range(N):
        expect += math.log(monic_norm(alpha, p21, j))
    assert selberg_product(alpha, p21, N) == pytest.approx(expect, rel=1e-12)


def test_compare_report(p21):
    r = selberg_compare(0.0, p21, 2, direct=True)
    assert r.N == 2
    assert r.log_rel_discrepancy < 1e-12
    assert r.direct_value == pytest.approx(2.5, rel=1e-10)
    assert r.direct_rel_discrepancy < 1e-10
    r3 = selberg_compare(1.0, p21, 3)
    assert r3.direct_value is None


def test_continuity_in_alpha(p21):
    # log Z_N is smooth in alpha; a tiny step moves it a tiny amount
    vals = [selberg_closed(a, p21, 6) for a in (0.999, 1.0, 1.001)]
    assert abs(vals[2] - vals[0]) < 0.1
    assert vals[0] != vals[1] != vals[2]


def test_other_geometry_agreement():
    p = make_params(1.4, 0.5)
    for alpha in (-0.25, 2.0):
        lp = selberg_product(alpha, p, 9)
        lc = selberg_closed(alpha, p, 9)
        assert lp == pytest.approx(lc, abs=1e-11 * max(1.0, abs(lp)))


def test_direct_rejects_large_N(p21):
    with pytest.raises(ValueError):
        selberg_direct(0.0, p21, 3)


@pytest.mark.parametrize("route", [selberg_product, selberg_closed, selberg_compare])
def test_nonfinite_log_raises(p21, route):
    # at N = 700 the degree-699 monic norm overflows on both routes
    with pytest.raises(ValueError, match="not finite"):
        route(0.0, p21, 700)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
def test_product_is_the_sum_of_log_monic_norms(p21, alpha):
    for N in range(1, 41):
        expect = math.lgamma(N + 1)
        for j in range(N):
            expect += log_monic_norm(alpha, p21, j)
        assert selberg_product(alpha, p21, N) == expect


@pytest.mark.parametrize("p", [make_params(2.0, 1.0), make_params(1.0, 0.3),
                               make_params(1.0, 0.95)], ids=["p21", "p1_03", "p1_095"])
@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 2.5, 30.0])
def test_degree_sized_ensemble_rule_is_exact(p, alpha):
    """The N = 2 ensemble rule, sized for degree 2N - 1, gives Z_2 and the
    Heine average to roundoff."""
    z2 = math.exp(selberg_product(alpha, p, 2))
    assert selberg_direct(alpha, p, 2) == pytest.approx(z2, rel=5e-14)
    assert heine_check(alpha, p, 2) <= 1e-13 * p.a ** 2


def test_product_past_the_monic_factor_range():
    """At a = 1000 the monic factor 500^j overflows from j = 115, but its log
    does not: the product route meets the closed one."""
    p = make_params(1000.0, 1.0)
    assert selberg_product(0.0, p, 150) == pytest.approx(selberg_closed(0.0, p, 150), rel=1e-13)
    assert selberg_closed(0.0, p, 150) == pytest.approx(139502.25598075963, rel=1e-14)
