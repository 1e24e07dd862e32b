"""Ellipse parameters, conformal maps, and measure densities."""

import math

import numpy as np
import pytest

from ellipoly import (
    ChristoffelBasis,
    GegenbauerBasis,
    area_measure,
    b_minus_measure,
    b_plus_measure,
    base_params,
    chebyshev_t_measure,
    chebyshev_v_measure,
    chebyshev_w_measure,
    derived_params,
    ellipse_h,
    elliptic_to_cartesian,
    flat_measure,
    build_rule,
    focal_j,
    gegenbauer,
    gegenbauer_coeffs,
    gegenbauer_matrix,
    inverse_quadratic_map,
    joukowsky,
    log_monic_norm,
    make_params,
    orthonormal_values,
    quadratic_map,
    recurrence_coeffs,
    turan_determinant,
    weight_density,
)


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0, -math.inf])
def test_every_alpha_entry_point_takes_a_finite_alpha_above_minus_one(p21, alpha):
    calls = (lambda: recurrence_coeffs(alpha, p21, 3),
             lambda: orthonormal_values(alpha, p21, 3, 0.1 + 0.2j),
             lambda: turan_determinant(alpha, 2, 5.0 / 3.0),
             lambda: build_rule(area_measure(p21, alpha)),
             lambda: b_minus_measure(p21, alpha),
             lambda: log_monic_norm(alpha, p21, 3),
             lambda: gegenbauer_matrix(alpha, 3, 0.5),
             lambda: gegenbauer_coeffs(alpha, 3),
             lambda: gegenbauer(alpha),
             lambda: GegenbauerBasis(alpha, p21),
             lambda: ChristoffelBasis(alpha, p21, 1.5))
    for call in calls:
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            call()


def test_negative_degree_is_a_value_error(p21):
    for call in (lambda: gegenbauer_matrix(0.0, -1, 0.5),
                 lambda: orthonormal_values(0.0, p21, -1, 0.1)):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            call()


def test_derived_quantities_p21():
    p = make_params(2.0, 1.0)
    assert p.c == pytest.approx(math.sqrt(3.0))
    assert p.r == 3.0
    assert p.R == pytest.approx(3.0 / math.sqrt(3.0))
    assert p.x_star == pytest.approx(5.0 / 3.0)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.0, 2.0), (2.0, 0.0), (2.0, -1.0)])
def test_degenerate_axes_rejected(a, b):
    with pytest.raises(ValueError):
        make_params(a, b)


@pytest.mark.parametrize("a,b", [(math.inf, 1.0), (2.0, math.nan),
                                 (math.nan, 1.0), (math.inf, math.inf)])
def test_nonfinite_axes_rejected(a, b):
    with pytest.raises(ValueError, match="finite"):
        make_params(a, b)


def test_ellipse_h_center_and_boundary(p21):
    assert ellipse_h(p21, 0j) == 0.0
    theta = np.linspace(0.0, 2 * math.pi, 17)
    boundary = p21.a * np.cos(theta) + 1j * p21.b * np.sin(theta)
    np.testing.assert_allclose(ellipse_h(p21, boundary), 1.0, atol=1e-14)


def test_elliptic_to_cartesian_matches_parametrization(p21):
    z = elliptic_to_cartesian(p21, 1.0, 0.7)
    assert z == pytest.approx(p21.a * math.cos(0.7) + 1j * p21.b * math.sin(0.7))
    # r < 1 stays strictly inside
    inner = elliptic_to_cartesian(p21, 0.5, np.linspace(0, 6.2, 9))
    assert np.all(ellipse_h(p21, inner) < 1.0)


def test_joukowsky_circle_to_boundary(p21):
    # |w| = cR is sent onto the ellipse boundary; w = cR itself to z = a.
    s = p21.c * p21.R
    assert joukowsky(p21, s) == pytest.approx(p21.a)
    w = s * np.exp(1j * np.linspace(0.1, 6.0, 11))
    np.testing.assert_allclose(ellipse_h(p21, joukowsky(p21, w)), 1.0,
                               atol=1e-13)


def test_derived_ellipse_shares_focal_distance(p21):
    d = derived_params(p21)
    assert d.a == pytest.approx((p21.a**2 + p21.b**2) / p21.c)
    assert d.b == pytest.approx(2 * p21.a * p21.b / p21.c)
    assert d.c == pytest.approx(p21.c)
    back = base_params(d)
    assert back.a == pytest.approx(p21.a)
    assert back.b == pytest.approx(p21.b)


def _interior_grid():
    x = np.array([-1.2, -0.6, 0.5, 1.1])
    y = np.array([-0.4, 0.2, 0.45])
    return (x[:, None] + 1j * y[None, :]).ravel()


def test_quadratic_map_round_trip(p21):
    z = _interior_grid()
    w, d = quadratic_map(p21, z)
    assert d.a == pytest.approx(derived_params(p21).a)
    z_back = inverse_quadratic_map(p21, w)
    # the inverse picks the branch with Re z >= 0 (z and -z collapse)
    expect = np.where(z.real >= 0, z, -z)
    np.testing.assert_allclose(z_back, expect, atol=1e-12)


def test_inverse_quadratic_map_rejects_cut(p21):
    # purely imaginary base points map onto the cut Re w < -c, Im w = 0
    with pytest.raises(ValueError):
        inverse_quadratic_map(p21, -p21.c - 1.0 + 0j)


def test_focal_j_pulls_back_to_ellipse_h(p21):
    """j(w(z)) = h(z): the derived weight is the pushforward of the base one."""
    z = _interior_grid()
    w, d = quadratic_map(p21, z)
    np.testing.assert_allclose(focal_j(d, w), ellipse_h(p21, z),
                               rtol=1e-12, atol=1e-13)


def test_weight_densities(p21):
    m = area_measure(p21, 1.0)
    # normalized area weight is (1+alpha)(1-h)^alpha relative to dA
    assert weight_density(m, 0j) == pytest.approx(2.0)
    z = 1.0 + 0.5j
    assert weight_density(m, z) == pytest.approx(2.0 * (1 - ellipse_h(p21, z)))
    mt = chebyshev_t_measure(p21)
    assert weight_density(mt, 0j) == pytest.approx(
        math.pi * p21.a * p21.b / abs(p21.c**2))
    mf = flat_measure(p21)
    assert weight_density(mf, 0.3 + 0.1j) == pytest.approx(
        math.pi * p21.a * p21.b)


@pytest.mark.parametrize("make", [
    lambda p, norm: area_measure(p, 0.7, norm),
    lambda p, norm: b_minus_measure(p, 0.7, norm),
    lambda p, norm: b_plus_measure(p, 0.7, norm),
    lambda p, norm: chebyshev_t_measure(p, norm),
    lambda p, norm: chebyshev_v_measure(p, norm),
    lambda p, norm: chebyshev_w_measure(p, norm),
    lambda p, norm: flat_measure(p, norm),
], ids=["area", "b_minus", "b_plus", "cheb_t", "cheb_v", "cheb_w", "flat"])
def test_normalized_density_is_flat_over_flat_factor(p21, make):
    normed, flat = make(p21, True), make(p21, False)
    for z in (0.3 + 0.2j, -1.1 + 0.4j, 0.5 - 0.6j):
        assert weight_density(normed, z) * normed.flat_factor == pytest.approx(
            weight_density(flat, z), rel=1e-14)
