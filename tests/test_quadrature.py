"""Quadrature rules: masses, exactness, parity, and the contour identity."""

import math

import numpy as np
import pytest

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
)
from ellipoly.quadrature import _exact_size


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


def test_area_rule_beyond_double_range_raises(p21):
    with pytest.raises(ValueError, match=r"not finite for alpha = 10000\.0"):
        build_rule(area_measure(p21, 1e4))


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
