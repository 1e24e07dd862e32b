"""Polynomial evaluation against independent oracles (scipy.special)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from numpy.polynomial.polynomial import polyval
from scipy.special import (
    eval_chebyt,
    eval_chebyu,
    eval_gegenbauer,
    eval_hermite,
    eval_jacobi,
    eval_legendre,
    hyp2f1,
)

from ellipoly import (
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    eval_family,
    eval_terminating_2f1,
    family_matrix,
    gegenbauer,
    gegenbauer_coeffs,
    gegenbauer_matrix,
    hermite,
    jacobi_half,
    legendre,
    make_params,
    recurrence_coeffs,
)

XGRID = np.linspace(-1.8, 1.8, 13)
# degrees 0 and 1 exercise the recurrence's start rows on their own
NMAXES = (0, 1)


def points_and_rtol(complex_grid):
    """The real grid at 1e-12, and complex points at 1e-10: scipy evaluates
    complex arguments through 2F1, which against mpmath is good to about
    2e-11 relative on this grid (the recurrences to about 1e-15)."""
    return ((XGRID, 1e-12), (complex_grid, 1e-10))


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 2.5])
def test_gegenbauer_matrix_vs_scipy(alpha):
    C = gegenbauer_matrix(alpha, 10, XGRID)
    for n in range(11):
        np.testing.assert_allclose(
            C[n], eval_gegenbauer(n, 1.0 + alpha, XGRID), rtol=1e-12, atol=1e-12)


def test_gegenbauer_complex_vs_coefficients(complex_grid):
    # recurrence on complex arguments vs the explicit Gamma-ratio coefficients
    for alpha in (-0.5, 1.3):
        C = gegenbauer_matrix(alpha, 12, complex_grid)
        for n in range(13):
            expect = polyval(complex_grid, gegenbauer_coeffs(alpha, n))
            np.testing.assert_allclose(C[n], expect, rtol=1e-10, atol=1e-10)


def test_low_degree_gegenbauer_closed_forms():
    lam = 1.7  # alpha = 0.7
    z = 0.4 + 0.25j
    C = gegenbauer_matrix(0.7, 2, z)
    assert C[0] == pytest.approx(1.0)
    assert C[1] == pytest.approx(2 * lam * z)
    assert C[2] == pytest.approx(2 * lam * (1 + lam) * z**2 - lam)


def test_chebyshev_families_vs_scipy(complex_grid):
    for z, rtol in points_and_rtol(complex_grid):
        for nmax in (9,) + NMAXES:
            T = family_matrix(chebyshev_t(), nmax, z)
            U = family_matrix(chebyshev_u(), nmax, z)
            V = family_matrix(chebyshev_v(), nmax, z)
            W = family_matrix(chebyshev_w(), nmax, z)
            assert T.shape == U.shape == V.shape == W.shape == (nmax + 1,) + z.shape
            for n in range(nmax + 1):
                np.testing.assert_allclose(T[n], eval_chebyt(n, z), rtol=rtol)
                np.testing.assert_allclose(U[n], eval_chebyu(n, z), rtol=rtol)
                # V_n = U_n - U_{n-1}, W_n = U_n + U_{n-1}
                um1 = eval_chebyu(n - 1, z) if n else 0.0
                np.testing.assert_allclose(V[n], eval_chebyu(n, z) - um1, rtol=rtol)
                np.testing.assert_allclose(W[n], eval_chebyu(n, z) + um1, rtol=rtol)


def test_legendre_and_hermite_vs_scipy(complex_grid):
    for z, rtol in points_and_rtol(complex_grid):
        for nmax in (8,) + NMAXES:
            P = family_matrix(legendre(), nmax, z)
            H = family_matrix(hermite(), nmax, z)
            # scipy's eval_hermite is real-only; numpy's Hermite series also
            # takes complex points
            Href = hermval(z, np.eye(nmax + 1))
            assert P.shape == H.shape == (nmax + 1,) + z.shape
            for n in range(nmax + 1):
                np.testing.assert_allclose(P[n], eval_legendre(n, z), rtol=rtol,
                                           atol=1e-14)
                np.testing.assert_allclose(H[n], Href[n], rtol=1e-12)
    H = family_matrix(hermite(), 8, XGRID)
    for n in range(9):
        np.testing.assert_allclose(H[n], eval_hermite(n, XGRID), rtol=1e-12)


@pytest.mark.parametrize("alpha,sign", [(0.0, 1), (0.0, -1), (1.5, 1), (1.5, -1)])
def test_jacobi_half_vs_scipy(alpha, sign, complex_grid):
    fam = jacobi_half(alpha, sign)
    for z, rtol in points_and_rtol(complex_grid):
        for nmax in (8,) + NMAXES:
            J = family_matrix(fam, nmax, z)
            assert J.shape == (nmax + 1,) + z.shape
            for n in range(nmax + 1):
                np.testing.assert_allclose(
                    J[n], eval_jacobi(n, alpha + 0.5, sign * 0.5, z),
                    rtol=rtol, atol=1e-13)


def test_eval_family_single_degree(complex_grid):
    fam = gegenbauer(0.3)
    np.testing.assert_allclose(eval_family(fam, 5, complex_grid),
                               gegenbauer_matrix(0.3, 5, complex_grid)[5])


ALL_FAMILIES = (gegenbauer(-0.9), gegenbauer(0.0), gegenbauer(2.5), legendre(),
                chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w(),
                jacobi_half(0.3, 1), jacobi_half(-0.7, -1), hermite())


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f"{f.kind.value}-{f.alpha}-{f.sign}")
@pytest.mark.parametrize("z", [1.3, -1.7, 0.4 + 0.9j, -1.1 + 0.5j])
def test_point_steps_like_a_one_element_array(family, z):
    """A single point is stepped on Python numbers and an array row by row in
    numpy; the two differ only by rounding, so every row agrees to 1e-13
    relative (the points are off the real segment where the rows have zeros).
    A real point keeps every imaginary part exactly zero."""
    nmax = 60
    point = family_matrix(family, nmax, z)
    array = family_matrix(family, nmax, np.array([z]))[:, 0]
    assert point.shape == (nmax + 1,) and point.dtype == complex
    assert np.all(np.abs(point - array) <= 1e-13 * np.abs(array))
    if isinstance(z, float):
        assert np.all(point.imag == 0)


@pytest.mark.parametrize("alpha, a, b", [(0.0, 1.0, 0.1), (2.5, 1.0, 0.3)])
def test_gegenbauer_at_x_star_to_degree_1000_against_mpmath(alpha, a, b):
    """The norm ladder's pass, C_k^{(1+alpha)}(x_star) for k <= 1000, where
    C_1000 is still in range (4.3e87 and 2.2e276), against mpmath at 40 digits:
    the dominant solution at x_star > 1 keeps the forward pass accurate."""
    x = make_params(a, b).x_star
    C = gegenbauer_matrix(alpha, 1000, x)
    with mp.workdps(40):
        ref = np.array([float(mp.gegenbauer(k, 1 + alpha, mp.mpf(x))) for k in range(1001)])
    assert np.all(C.imag == 0)
    np.testing.assert_allclose(C.real, ref, rtol=1e-13, atol=0)


def test_gegenbauer_point_overflow_is_a_silent_non_finite_tail():
    """At x = 5/3 (x_star of p(2,1)) C_k overflows from k = 640: the point pass
    returns inf and then nan there, without raising or warning; callers
    check finiteness themselves."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = gegenbauer_matrix(0.0, 1000, 5.0 / 3.0)
    assert C.shape == (1001,)
    assert np.all(np.isfinite(C[:640])) and not np.any(np.isfinite(C[640:]))
    assert np.isnan(C[-1])


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        gegenbauer(-1.0)
    with pytest.raises(ValueError):
        jacobi_half(0.0, 2)
    with pytest.raises(ValueError):
        jacobi_half(-1.2, 1)


def test_second_kind_quadratic_argument_identities():
    """U_{2n+1}(x) = 2x U_n(2x^2-1) and U_{2n}(x) = W_n(2x^2-1).

    These are the identities that collapse the even/odd split on the derived
    ellipse back into half-degree polynomials in the squared variable.
    """
    x = np.linspace(-1.6, 1.6, 9)
    x2 = 2 * x * x - 1
    U = family_matrix(chebyshev_u(), 17, x)
    Uh = family_matrix(chebyshev_u(), 8, x2)
    Wh = family_matrix(chebyshev_w(), 8, x2)
    for n in range(8):
        np.testing.assert_allclose(U[2 * n + 1], 2 * x * Uh[n], rtol=1e-11)
        np.testing.assert_allclose(U[2 * n], Wh[n], rtol=1e-11, atol=1e-12)


def test_chebyshev_u_at_xstar_q_power_form():
    # U_k(a/c) = (c/2b) (q^{k+1} - q^{-k-1}) with q = (a+b)/c
    p = make_params(2.0, 1.0)
    q = p.r / p.c
    U = gegenbauer_matrix(0.0, 12, np.array([p.a / p.c]))
    for k in range(13):
        closed = p.c / (2 * p.b) * (q ** (k + 1) - q ** (-k - 1))
        assert U[k, 0] == pytest.approx(closed, rel=1e-12)


def test_terminating_2f1_vs_scipy():
    for n in (0, 1, 4, 9):
        for b, c, x in ((2.5, 1.2, -0.4), (6.0, 0.9, 0.3), (3.0, 2.0, -1.5)):
            assert eval_terminating_2f1(n, b, c, x) == pytest.approx(
                hyp2f1(-n, b, c, x), rel=1e-12)
    with pytest.raises(ValueError):
        eval_terminating_2f1(3, 1.0, -2.0, 0.5)  # pole in the c-Pochhammer


def test_recurrence_coefficients_hand_value():
    # alpha = 0, p(2,1): b_1 = sqrt(3)/2 * sqrt(h_0/h_1) = 3/(2 sqrt 5)
    p = make_params(2.0, 1.0)
    a1, b0 = recurrence_coeffs(0.0, p, 0)
    assert b0 == 0.0
    _, b1 = recurrence_coeffs(0.0, p, 1)
    assert b1 == pytest.approx(3.0 / (2.0 * math.sqrt(5.0)), rel=1e-13)


def test_recurrence_coefficients_reconstruct_multiplication(p21, complex_grid):
    """z p_n(z) = a_{n+1} p_{n+1}(z) + b_n p_{n-1}(z) for the orthonormal family."""
    from ellipoly import orthonormal_values

    for alpha in (0.0, 1.5):
        P = orthonormal_values(alpha, p21, 9, complex_grid)
        for n in range(1, 8):
            a_next, b_n = recurrence_coeffs(alpha, p21, n)
            resid = complex_grid * P[n] - a_next * P[n + 1] - b_n * P[n - 1]
            assert np.max(np.abs(resid)) < 1e-11


def test_legendre_is_gegenbauer_minus_half():
    assert legendre() == gegenbauer(-0.5)
