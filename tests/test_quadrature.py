"""Quadrature rules: masses, exactness, parity, and the contour identity."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from ellipoly import (
    area_measure,
    b_minus_measure,
    b_plus_measure,
    build_rule,
    chebyshev_t_measure,
    chebyshev_v_measure,
    chebyshev_w_measure,
    contour_check,
    derived_params,
    flat_measure,
    inner_product,
    lp_norm,
    make_params,
    moment,
    moment_table,
    weight_density,
)
from ellipoly.quadrature import _exact_size, _gauss_jacobi


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 1.0, 4.0])
def test_area_rule_mass_is_one(p21, alpha):
    rule = build_rule(area_measure(p21, alpha))
    assert rule.mass == pytest.approx(1.0, rel=1e-13)


def test_flat_masses(p21):
    # unweighted ellipse area, and the log-divergent first-kind mass
    assert build_rule(flat_measure(p21)).mass == pytest.approx(
        math.pi * p21.a * p21.b, rel=1e-12)
    q = p21.r / p21.c
    assert build_rule(chebyshev_t_measure(p21)).mass == pytest.approx(
        2 * math.pi * math.log(q), rel=1e-10)
    # third/fourth-kind masses: pi*c/(1+2n)(q - 1/q) at n=0 equals 2 pi b
    for mk in (chebyshev_v_measure, chebyshev_w_measure):
        assert build_rule(mk(p21)).mass == pytest.approx(
            2 * math.pi * p21.b, rel=1e-10)


@pytest.mark.parametrize("make", [flat_measure, chebyshev_v_measure,
                                  chebyshev_w_measure])
def test_normalized_flat_type_rules_mass_one(p21, make):
    # normalized = flat / (pi a b); the V/W flat mass 2 pi b is pi a b at a = 2
    assert build_rule(make(p21, normalized=True)).mass == pytest.approx(1.0, rel=1e-13)


def test_derived_rules_mass_one(p21):
    d = derived_params(p21)
    for mk in (b_minus_measure, b_plus_measure):
        for alpha in (0.0, 1.5):
            assert build_rule(mk(d, alpha)).mass == pytest.approx(1.0, rel=1e-12)


def test_low_moment_anchors(p21):
    rule = build_rule(area_measure(p21, 0.0))
    assert moment(0, 0, rule) == pytest.approx(1.0)
    assert moment(1, 1, rule) == pytest.approx(5.0 / 4.0, rel=1e-13)
    assert moment(2, 0, rule) == pytest.approx(3.0 / 4.0, rel=1e-13)
    assert moment(0, 2, rule) == pytest.approx(3.0 / 4.0, rel=1e-13)


def test_odd_moments_vanish_exactly(p21):
    """Nodes come in exact antipodal pairs, so odd moments sum to exact zero."""
    rule = build_rule(area_measure(p21, 1.3))
    for (pq) in ((1, 0), (2, 1), (5, 0), (7, 4), (9, 8)):
        assert moment(*pq, rule) == 0.0


@pytest.mark.parametrize("measure", [
    lambda p: area_measure(p, 1.3),
    # nodes are images of antipodes under the quadratic map, so not
    # antipodal themselves: the half split only reorders the sum
    lambda p: b_minus_measure(derived_params(p), 0.7),
    chebyshev_t_measure,
])
def test_moment_table_matches_moment(p21, measure):
    rule = build_rule(measure(p21), n_radial=24, n_angular=64)
    M = moment_table(10, rule)
    assert M.shape == (11, 11)
    for i in range(11):
        for j in range(11):
            ref = moment(i, j, rule)
            if ref == 0.0:
                assert M[i, j] == 0.0
            else:
                assert abs(M[i, j] - ref) <= 1e-13 * abs(ref), (i, j)


def test_moment_table_odd_parity_exactly_zero(p21):
    M = moment_table(20, build_rule(area_measure(p21, 1.3)))
    p, q = np.indices(M.shape)
    odd = M[(p + q) % 2 == 1]
    assert odd.size == 220
    assert np.all(odd == 0.0)
    assert np.all(M[(p + q) % 2 == 0] != 0.0)


def test_moment_table_rejects_negative_order(p21):
    with pytest.raises(ValueError):
        moment_table(-1, build_rule(area_measure(p21, 0.0), 4, 8))


def test_node_antipodal_structure(p21):
    rule = build_rule(area_measure(p21, 0.0))
    assert rule.nodes.size % 2 == 0
    np.testing.assert_array_equal(rule.nodes[0::2], -rule.nodes[1::2])
    np.testing.assert_array_equal(rule.weights[0::2], rule.weights[1::2])


def test_gauss_exactness_under_refinement(p21):
    # a coarse rule already integrates low-degree moments exactly
    coarse = build_rule(area_measure(p21, 0.7), n_radial=12, n_angular=32)
    fine = build_rule(area_measure(p21, 0.7))
    for pq in ((0, 0), (1, 1), (2, 2), (4, 2), (3, 3)):
        assert moment(*pq, coarse) == pytest.approx(moment(*pq, fine),
                                                    rel=1e-13)


def test_odd_angular_count_rejected(p21):
    with pytest.raises(ValueError):
        build_rule(area_measure(p21, 0.0), n_angular=383)


def test_inner_product_conjugate_symmetry(p21):
    rule = build_rule(area_measure(p21, 0.5))
    f = lambda z: z**2 + 0.3j * z
    g = lambda z: 1.0 + z
    assert inner_product(f, g, rule) == pytest.approx(
        np.conj(inner_product(g, f, rule)))


def test_lp_norm_values(p21):
    rule = build_rule(area_measure(p21, 0.0))
    assert lp_norm(lambda z: np.ones_like(z), 2.0, rule) == pytest.approx(1.0)
    # ||z||_2 = sqrt(<z,z>) = sqrt(5)/2
    assert lp_norm(lambda z: z, 2.0, rule) == pytest.approx(
        math.sqrt(5.0) / 2.0, rel=1e-13)
    # p = 1 is just the integral of |z|
    direct = np.sum(rule.weights * np.abs(rule.nodes))
    assert lp_norm(lambda z: z, 1.0, rule) == pytest.approx(direct)


def test_contour_identity_anchors(p21):
    q2 = (p21.r / p21.c) ** 2
    v0 = contour_check(p21, 0, 0)
    assert v0 == pytest.approx(1j * math.pi / 2 * (q2 - 1 / q2), rel=1e-12)
    v2 = contour_check(p21, 2, 2)
    assert v2 == pytest.approx(1j * math.pi * 3 / 2 * (q2**3 - q2**-3),
                               rel=1e-12)
    # off-diagonal pairs integrate to zero
    assert abs(contour_check(p21, 1, 4)) < 1e-10
    assert abs(contour_check(p21, 3, 0)) < 1e-10


def test_contour_identity_other_geometry():
    p = make_params(1.5, 0.4)
    q2 = (p.r / p.c) ** 2
    for n in (0, 3):
        val = contour_check(p, n, n)
        closed = 1j * math.pi * (n + 1) / 2 * (q2 ** (n + 1) - q2 ** -(n + 1))
        assert val == pytest.approx(closed, rel=1e-11)


@pytest.mark.parametrize("alpha", [1e4, 1e6])
def test_area_rule_past_the_old_alpha_ceiling(p21, alpha):
    """alpha above about 1023 once overflowed the radial weight scale; now
    the rule has unit mass and integrates t^j = |x/a|^2 + |y/b|^2 to the
    j-th power exactly: E[t^j] = j! / (2+alpha)_j under (1+alpha)(1-t)^alpha."""
    rule = build_rule(area_measure(p21, alpha), n_radial=12, n_angular=24)
    assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0)
    t = (rule.nodes.real / p21.a) ** 2 + (rule.nodes.imag / p21.b) ** 2
    for j in range(24):
        want = mp.factorial(j) / mp.rf(2 + mp.mpf(alpha), j)
        assert abs(math.fsum(rule.weights * t ** j) / want - 1) <= 1e-13, j


def test_rule_needs_a_radial_node(p21):
    with pytest.raises(ValueError, match="at least one node"):
        build_rule(area_measure(p21, 0.0), n_radial=0)


GAUSS_ALPHAS = [-0.9, -0.5, 0.0, 1.0, 2.5, 10.0, 100.0, 1000.0]


@pytest.mark.parametrize("k", [1, 2, 5, 12, 96])
@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("pair", ["area", "realline"])
def test_gauss_jacobi_matches_scipy(k, alpha, pair):
    """The (alpha, 0) pair of the area rules and the (alpha+1/2, alpha+1/2)
    pair of the real-line oracle against scipy's rules, mapped to t and
    scaled to unit mass."""
    a, b = (alpha, 0.0) if pair == "area" else (alpha + 0.5, alpha + 0.5)
    t, w = _gauss_jacobi(k, a, b)
    x, ws = roots_jacobi(k, a, b)
    assert np.max(np.abs(2.0 * t - 1.0 - x)) <= 1e-14
    assert np.max(np.abs(w - ws / ws.sum())) <= 1e-11
    assert math.fsum(w) == pytest.approx(1.0, abs=5e-13)


@pytest.mark.parametrize("k", [1, 2, 5, 12, 96])
def test_gauss_legendre_matches_scipy(k):
    t, w = _gauss_jacobi(k, 0.0, 0.0)
    x, ws = roots_legendre(k)
    assert np.max(np.abs(2.0 * t - 1.0 - x)) <= 1e-14
    assert np.max(np.abs(w - ws / 2.0)) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 5, 12, 20])
@pytest.mark.parametrize("a", [1e4, 1e6])
def test_gauss_jacobi_exact_past_scipy_range(k, a):
    """Beyond scipy's range, every monomial t^j with j < 2k integrates to
    B(j+1, a+1) / B(1, a+1), by mpmath."""
    t, w = _gauss_jacobi(k, a, 0.0)
    for j in range(2 * k):
        want = mp.beta(j + 1, a + 1) / mp.beta(1, a + 1)
        assert abs(math.fsum(w * t ** j) / want - 1) <= 1e-13, j


def test_contour_exact_at_its_degree_sized_rule():
    """n + m + 3 points resolve every Laurent degree of the integrand, past
    the 256 points of the old fixed rule too."""
    for p in (make_params(2.0, 1.0), make_params(1.5, 0.4)):
        q2 = (p.r / p.c) ** 2
        for n, m in [(i, j) for i in range(11) for j in range(11)] + [(200, 200), (150, 149)]:
            k = max(n, m)
            scale = math.pi * (k + 1) / 2 * (q2 ** (k + 1) - q2 ** -(k + 1))
            closed = 1j * math.pi * (n + 1) / 2 * (q2 ** (n + 1) - q2 ** -(n + 1)) \
                if n == m else 0.0
            assert abs(contour_check(p, n, m) - closed) <= 1e-13 * scale, (n, m)
    with pytest.raises(ValueError, match="nonnegative"):
        contour_check(make_params(2.0, 1.0), 0, -1)


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 3.7])
@pytest.mark.parametrize("p", [make_params(2.0, 1.0), make_params(1.0, 0.3)],
                         ids=["p21", "p1_03"])
def test_exact_size_rule_matches_default_moments(p, alpha):
    """Every moment <z^j, z^l> with j + l = d on the k x 2k rule of
    _exact_size(d) equals the default rule's, for d <= 20."""
    ref = moment_table(20, build_rule(area_measure(p, alpha)))
    for d in range(21):
        k = _exact_size(d)
        got = moment_table(d, build_rule(area_measure(p, alpha), n_radial=k,
                                         n_angular=2 * k))
        want = np.array([ref[j, d - j] for j in range(d + 1)])
        have = np.array([got[j, d - j] for j in range(d + 1)])
        assert np.max(np.abs(have - want)) <= 1e-10 * np.max(np.abs(want)), d


def test_exact_size_rejects_negative_degree():
    assert [_exact_size(d) for d in range(5)] == [1, 1, 2, 2, 3]
    with pytest.raises(ValueError, match="nonnegative"):
        _exact_size(-1)


@pytest.mark.parametrize("normalized", [True, False])
def test_flat_measure_is_the_alpha_zero_area_weight(p21, normalized):
    """The flat weight is a parameter value: its rule and density are those
    of the alpha = 0 area weight, bit for bit."""
    flat, area = flat_measure(p21, normalized), area_measure(p21, 0.0, normalized)
    assert flat == area
    rf, ra = build_rule(flat, 12, 24), build_rule(area, 12, 24)
    assert np.array_equal(rf.nodes, ra.nodes) and np.array_equal(rf.weights, ra.weights)
    for z in (0.3 + 0.2j, -1.5 + 0.1j, 0.0):
        assert weight_density(flat, z) == weight_density(area, z)
