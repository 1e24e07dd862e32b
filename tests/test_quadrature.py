"""Quadrature rules: masses, exactness, parity, and the contour identity."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from ellipoly import (
    MeasureKind,
    area_measure,
    b_minus_measure,
    b_plus_measure,
    base_params,
    build_rule,
    chebyshev_t_measure,
    chebyshev_v_measure,
    chebyshev_w_measure,
    contour_check,
    derived_params,
    flat_measure,
    make_params,
    moment,
    moment_table,
    quadratic_map,
    weight_density,
)
from ellipoly import quadrature
from ellipoly.quadrature import _contour_values, _exact_rule, _exact_size, _gauss_jacobi


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


@pytest.fixture
def cold_table():
    """Empty the process's Gauss-Jacobi table, so the rule under test is
    built by Golub-Welsch here rather than read from an earlier test."""
    _gauss_jacobi.cache_clear()


@pytest.mark.parametrize("k", [1, 2, 5, 12, 96])
@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("pair", ["area", "realline"])
def test_gauss_jacobi_matches_scipy(k, alpha, pair, cold_table):
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
def test_gauss_legendre_matches_scipy(k, cold_table):
    t, w = _gauss_jacobi(k, 0.0, 0.0)
    x, ws = roots_legendre(k)
    assert np.max(np.abs(2.0 * t - 1.0 - x)) <= 1e-14
    assert np.max(np.abs(w - ws / 2.0)) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 5, 12, 20])
@pytest.mark.parametrize("a", [1e4, 1e6])
def test_gauss_jacobi_exact_past_scipy_range(k, a, cold_table):
    """Beyond scipy's range, every monomial t^j with j < 2k integrates to
    B(j+1, a+1) / B(1, a+1), by mpmath."""
    t, w = _gauss_jacobi(k, a, 0.0)
    for j in range(2 * k):
        want = mp.beta(j + 1, a + 1) / mp.beta(1, a + 1)
        assert abs(math.fsum(w * t ** j) / want - 1) <= 1e-13, j


def test_gauss_jacobi_weights_stay_finite_at_large_alpha_and_k(cold_table):
    """Nodes whose polynomial sum leaves the double range get weight 0
    (their true weight is below 1/DBL_MAX), without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, w = _gauss_jacobi(400, 1e4, 0.0)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-13)


def test_gauss_jacobi_table_hands_out_one_rule_per_triple():
    """A repeat call returns the same array objects, from a bounded table."""
    t, w = _gauss_jacobi(12, 0.5, 0.0)
    again = _gauss_jacobi(12, 0.5, 0.0)
    assert again[0] is t and again[1] is w
    assert _gauss_jacobi.cache_info().maxsize is not None


@pytest.mark.parametrize("a, b", [(0.5, 0.0), (0.0, 0.5), (1.5, 1.5)])
def test_gauss_jacobi_table_is_read_only_and_bit_identical(a, b):
    """Both arrays refuse writes, on the a >= b branch and on the mirrored
    a < b one, and equal a fresh Golub-Welsch build bit for bit."""
    t, w = _gauss_jacobi(9, a, b)
    for x in (t, w):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.5
    t0, w0 = _gauss_jacobi.__wrapped__(9, a, b)
    assert t.tobytes() == t0.tobytes() and w.tobytes() == w0.tobytes()


@pytest.mark.parametrize("make", [lambda p: area_measure(p, 0.5), chebyshev_t_measure,
                                  lambda p: b_plus_measure(p, 0.5), chebyshev_v_measure])
def test_writing_into_a_rule_leaves_the_next_build_unchanged(p21, make):
    rule = build_rule(make(p21), 7, 14)
    nodes, weights = rule.nodes.copy(), rule.weights.copy()
    rule.nodes[:] = 0.0
    rule.weights[:] = 0.0
    again = build_rule(make(p21), 7, 14)
    assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)


def test_rule_records_its_shape(p21):
    rule = build_rule(area_measure(p21, 0.5), 9, 18)
    assert rule.shape == (9, 18)
    scaled = dataclasses.replace(rule, weights=2.0 * rule.weights)
    assert scaled.shape == (9, 18)


@pytest.mark.parametrize("measure, degree, shape", [
    (lambda p: area_measure(p, 0.0), 32, (17, 34)),
    (lambda p: area_measure(p, -0.5), 24, (13, 26)),
    (lambda p: area_measure(p, 1.0), 40, (21, 42)),
    (lambda p: area_measure(p, 0.0), 20, (11, 22)),
    (lambda p: b_minus_measure(derived_params(p), 1.5), 20, (21, 42)),
    (lambda p: b_plus_measure(derived_params(p), 1.5), 20, (22, 44)),
    (chebyshev_t_measure, 24, (13, 26)),
    (flat_measure, 24, (13, 26)),
    (chebyshev_v_measure, 24, (25, 50)),
    (chebyshev_w_measure, 24, (25, 50)),
], ids=["gram", "legendre", "moments", "charged", "b_minus", "b_plus",
        "chebyshev_t", "chebyshev_u", "chebyshev_v", "chebyshev_w"])
def test_exact_rule_sizes_are_the_battery_sizes(p21, measure, degree, shape):
    """The shapes the verify battery records, from the degree of each check's
    integrands: 2 nmax for the Gram and plain Hessenberg entries, 2 pmax for
    the moments, 2 nmax + 2 under the charge."""
    assert _exact_rule(measure(p21), degree).shape == shape


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


def test_contour_rows_are_the_single_entries():
    """One n + max(ms) + 3 point rule per n gives every contour_check(p, n, m)
    of the row to roundoff of the larger diagonal."""
    for p in (make_params(2.0, 1.0), make_params(1.5, 0.4)):
        q2 = (p.r / p.c) ** 2
        diag = [math.pi * (k + 1) / 2 * (q2 ** (k + 1) - q2 ** -(k + 1)) for k in range(11)]
        for n in range(11):
            row = _contour_values(p, n, range(11))
            for m in range(11):
                assert abs(row[m] - contour_check(p, n, m)) <= 1e-14 * max(diag[n], diag[m])
    with pytest.raises(ValueError, match="nonnegative"):
        _contour_values(make_params(2.0, 1.0), 3, [0, -1])


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


def _duplicated_mapped_rule(measure, n_radial, n_angular):
    """Nodes and weights of a mapped rule as pushed forward from the whole
    antipodal area rule of the base ellipse, each image node twice (default
    conventions: B-/B+ normalized, V/W flat)."""
    p, kind = measure.params, measure.kind
    pb = base_params(p)
    alpha = 0.0 if measure.alpha is None else measure.alpha
    base = build_rule(area_measure(pb, alpha), n_radial, n_angular)
    nodes, _ = quadratic_map(pb, base.nodes)
    weights = base.weights
    if kind == MeasureKind.B_PLUS:
        weights = weights * (2.0 + alpha) * 2.0 * np.abs(base.nodes) ** 2 / (p.a * p.c)
    elif kind != MeasureKind.B_MINUS:
        weights = weights * 2.0 * np.pi * p.b
        if kind == MeasureKind.CHEBYSHEV_V:
            nodes = -nodes
    return nodes, weights


MAPPED = [lambda p: b_minus_measure(derived_params(p), 0.7),
          lambda p: b_plus_measure(derived_params(p), 1.5),
          chebyshev_v_measure, chebyshev_w_measure]


@pytest.mark.parametrize("make", MAPPED, ids=["b_minus", "b_plus", "chebyshev_v", "chebyshev_w"])
@pytest.mark.parametrize("n_radial, n_angular", [(9, 18), (24, 64)])
def test_mapped_rules_carry_one_node_per_image(p21, make, n_radial, n_angular):
    """z and -z map to one point, so the mapped rule holds n_radial *
    n_angular / 2 distinct nodes: the duplicated rule's even-indexed nodes,
    with doubled weights, the same mass and the same moments."""
    measure = make(p21)
    rule = build_rule(measure, n_radial, n_angular)
    assert rule.nodes.size == rule.weights.size == n_radial * n_angular // 2
    assert rule.shape == (n_radial, n_angular)
    nodes, weights = _duplicated_mapped_rule(measure, n_radial, n_angular)
    assert np.array_equal(nodes[0::2], nodes[1::2])
    assert np.array_equal(rule.nodes, nodes[0::2])
    assert np.array_equal(rule.weights, 2.0 * weights[0::2])
    assert abs(rule.mass - weights.sum()) <= 1e-14 * weights.sum()
    old = moment_table(8, dataclasses.replace(rule, nodes=nodes, weights=weights))
    assert np.max(np.abs(moment_table(8, rule) - old)) <= 1e-14 * np.max(np.abs(old))


def _two_half_moments(pmax, rule):
    """The moment table as two weighted products, over the even- and the
    odd-indexed nodes, added."""
    M = np.zeros((pmax + 1, pmax + 1), dtype=complex)
    for z, w in ((rule.nodes[0::2], rule.weights[0::2]), (rule.nodes[1::2], rule.weights[1::2])):
        P = np.ones((pmax + 1, z.size), dtype=complex)
        for k in range(pmax):
            P[k + 1] = P[k] * z
        M += (P * w) @ P.conj().T
    return M


@pytest.mark.parametrize("make", [lambda p: area_measure(p, 1.3), chebyshev_t_measure] + MAPPED,
                         ids=["area", "chebyshev_t", "b_minus", "b_plus", "chebyshev_v",
                              "chebyshev_w"])
def test_moment_table_on_one_block_is_the_two_half_sum(p21, make):
    """On a rule of at most one block, the half-pair reduction of an
    antipodal rule and the single product over a mapped rule's distinct
    nodes give the old two-half sum bit for bit."""
    measure = make(p21)
    rule = old = build_rule(measure, 24, 64)
    if measure.kind not in (MeasureKind.AREA_ALPHA, MeasureKind.CHEBYSHEV_T):
        nodes, weights = _duplicated_mapped_rule(measure, 24, 64)
        old = dataclasses.replace(rule, nodes=nodes, weights=weights)
    assert np.array_equal(moment_table(12, rule), _two_half_moments(12, old))


@pytest.mark.parametrize("make", [lambda p: area_measure(p, 1.3)] + MAPPED[:1],
                         ids=["antipodal", "mapped"])
def test_moment_table_does_not_depend_on_the_block_size(p21, make, monkeypatch):
    """Blocks of 7 nodes, none of which divides the rule, against one block."""
    rule = build_rule(make(p21), 5, 12)
    assert rule.nodes.size % 7 and (rule.nodes.size // 2) % 7
    monkeypatch.setattr(quadrature, "_BLOCK", 7)
    small = moment_table(10, rule)
    monkeypatch.setattr(quadrature, "_BLOCK", 10**9)
    one = moment_table(10, rule)
    assert np.max(np.abs(small - one)) <= 1e-14 * np.max(np.abs(one))
