"""Closed-form squared norms, conventions, and Gram-Schmidt recovery."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from ellipoly import (
    ChristoffelBasis,
    GegenbauerBasis,
    area_measure,
    build_rule,
    canonical_measure,
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    closed_norm,
    eval_family,
    flat_measure,
    gegenbauer,
    gegenbauer_coeffs,
    gegenbauer_norm,
    gram_matrix,
    gram_schmidt,
    hermite,
    hessenberg,
    jacobi_half,
    legendre,
    log_monic_norm,
    make_params,
    monic_factor,
    monic_norm,
    orthonormal_values,
)
from ellipoly.norms import _closed_norms, _norm_table
from ellipoly.polynomials import family_matrix
from ellipoly.quadrature import _exact_rule

from conftest import einsum_hessenberg


def test_gegenbauer_norm_anchor(p21):
    # h_1 = (1+alpha)/(2+alpha) * C_1^{(1+alpha)}(5/3); alpha = 0 gives 5/3
    assert gegenbauer_norm(0.0, p21, 1) == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert gegenbauer_norm(0.0, p21, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("family,alpha", [
    (gegenbauer(0.8), 0.8),
    (legendre(), -0.5),
])
def test_closed_norm_matches_quadrature_area(p21, family, alpha):
    g = gram_matrix(family, canonical_measure(family, p21), 8)
    np.testing.assert_allclose(g.diag, g.closed_diag, rtol=1e-11)
    assert g.max_offdiag < 1e-11 * np.max(g.diag)


def test_closed_norm_matches_quadrature_chebyshev(p21):
    for fam in (chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w()):
        g = gram_matrix(fam, canonical_measure(fam, p21), 8)
        np.testing.assert_allclose(g.diag, g.closed_diag, rtol=1e-9)


def test_gram_matrix_normalized_chebyshev(p21):
    # the rules honour normalized=True, so quadrature matches the closed
    # norms converted by flat_factor
    for fam in (chebyshev_t(), chebyshev_u(), chebyshev_v(), chebyshev_w()):
        measure = dataclasses.replace(canonical_measure(fam, p21), normalized=True)
        g = gram_matrix(fam, measure, 8)
        closed = [closed_norm(fam, p21, n, normalized=True) for n in range(9)]
        np.testing.assert_allclose(g.diag, closed, rtol=1e-10)


def test_chebyshev_t_n0_special_branch(p21):
    # the n = 0 norm is the logarithm branch, not the q-power formula
    assert closed_norm(chebyshev_t(), p21, 0) == pytest.approx(
        math.pi * math.log(3.0), rel=1e-14)
    assert closed_norm(chebyshev_u(), p21, 0) == pytest.approx(
        math.pi * p21.a * p21.b, rel=1e-14)


def test_convention_factor(p21):
    # flat (plain d^2 z) and normalized (mass-one) conventions differ by
    # pi a b / (1 + alpha) for the area families
    for alpha in (0.0, 1.0, 2.5):
        fam = gegenbauer(alpha)
        ratio = closed_norm(fam, p21, 3, normalized=False) \
            / closed_norm(fam, p21, 3, normalized=True)
        assert ratio == pytest.approx(math.pi * p21.a * p21.b / (1 + alpha),
                                      rel=1e-13)


def test_monic_norm_anchors(p21):
    assert monic_norm(0.0, p21, 1) == pytest.approx(5.0 / 4.0, rel=1e-13)
    assert monic_norm(3.0, p21, 1) == pytest.approx(0.5, rel=1e-12)
    assert monic_norm(0.0, p21, 0) == pytest.approx(1.0)


def test_monic_norm_two_routes_agree(p21):
    for alpha in (-0.9, -0.5, 0.0, 1.0, 3.7):
        for n in (0, 1, 2, 5, 11, 20, 30):
            lg = log_monic_norm(alpha, p21, n, method="gegenbauer")
            lh = log_monic_norm(alpha, p21, n, method="hypergeometric")
            assert lg == pytest.approx(lh, abs=1e-11)
    with pytest.raises(ValueError):
        log_monic_norm(0.0, p21, 1, method="nosuch")


def test_monic_norm_positive_and_decreasing_in_alpha(p21):
    for alpha in (-0.99, -0.5, 0.0, 2.0, 5.0):
        vals = [monic_norm(alpha, p21, n) for n in range(41)]
        assert all(v > 0.0 for v in vals)
    # the weight concentrates as alpha grows, so each norm shrinks
    for n in (1, 4, 9):
        v = [monic_norm(al, p21, n) for al in (0.0, 1.0, 2.0, 4.0)]
        assert v[0] > v[1] > v[2] > v[3]


def test_gram_schmidt_recovers_gegenbauer(p21):
    alpha = 0.0
    gs = gram_schmidt(area_measure(p21, alpha), 10)
    assert gs[0].shape == (1,)
    assert gs[0][0] == pytest.approx(1.0)
    for n in range(11):
        expect = gegenbauer_coeffs(alpha, n) / p21.c ** np.arange(n + 1) \
            / math.sqrt(gegenbauer_norm(alpha, p21, n))
        np.testing.assert_allclose(gs[n], expect, rtol=1e-8, atol=1e-8)


def test_gram_schmidt_flat_measure_gives_second_kind(p21, complex_grid):
    """Under plain d^2 z the orthonormal family is U_n(z/c)/sqrt(norm)."""
    gs = gram_schmidt(flat_measure(p21), 6)
    for n in range(7):
        got = polyval(complex_grid, gs[n])
        expect = polyval(complex_grid / p21.c, gegenbauer_coeffs(0.0, n)) \
            / math.sqrt(closed_norm(chebyshev_u(), p21, n))
        np.testing.assert_allclose(got, expect, rtol=1e-8, atol=1e-8)


def test_gram_schmidt_rank_deficiency_raises(p21):
    rule = build_rule(area_measure(p21, 0.0), n_radial=4, n_angular=8)
    with pytest.raises(np.linalg.LinAlgError):
        gram_schmidt(area_measure(p21, 0.0), 40, rule=rule)


def test_gram_schmidt_rejects_a_rule_for_another_measure(p21):
    """A rule for alpha = 1 would silently give the alpha = 1 basis; a charged
    rule made by dataclasses.replace keeps its measure and is accepted."""
    rule = build_rule(area_measure(p21, 1.0), 4, 8)
    with pytest.raises(ValueError, match="different measure"):
        gram_schmidt(area_measure(p21, 0.0), 3, rule=rule)
    assert len(gram_schmidt(rule.measure, 3, rule=_charged(rule, 1.5))) == 4


def _values(coeffs, z):
    """Rows of Horner values of gram_schmidt's coefficient vectors at z."""
    return np.array([polyval(z, c) for c in coeffs])


def _interior(p):
    """Five points at 0.8 of the way from the centre to the boundary."""
    t = np.array([0.3, 1.4, 2.5, 3.9, 5.2])
    return 0.8 * (p.a * np.cos(t) + 1j * p.b * np.sin(t))


def _worst_relative_error(coeffs, alpha, p):
    """max over n of max_z |gs_n(z) - p_n(z)| / max_z |p_n(z)| at _interior(p)."""
    z = _interior(p)
    P = orthonormal_values(alpha, p, len(coeffs) - 1, z)
    err = np.max(np.abs(_values(coeffs, z) - P), axis=1)
    return float(np.max(err / np.max(np.abs(P), axis=1)))


def _charged(rule, v):
    return dataclasses.replace(rule, weights=rule.weights * np.abs(v - rule.nodes) ** 2)


@pytest.mark.parametrize("nmax", [2, 3, 5, 9])
@pytest.mark.parametrize("moved", ["charge", "shift"])
def test_gram_schmidt_orthonormal_under_complex_moments(p21, moved, nmax):
    """A charge at 0.3+0.4i in the weight, or the nodes shifted by 0.3i, gives
    a rule whose moments <z^p, z^q> are complex: orthonormality must hold
    under the rule itself."""
    rule = build_rule(area_measure(p21, 1.3))
    if moved == "charge":
        rule = _charged(rule, 0.3 + 0.4j)
    else:
        rule = dataclasses.replace(rule, nodes=rule.nodes + 0.3j)
    P = _values(gram_schmidt(rule.measure, nmax, rule=rule), rule.nodes)
    G = (P.conj() * rule.weights) @ P.T
    assert np.max(np.abs(G - np.eye(nmax + 1))) < 1e-12


@pytest.mark.parametrize("alpha,nmax,tol", [
    (0.0, 40, 5e-9),
    (2.5, 40, 5e-9),
    (30.0, 40, 5e-9),
    (0.0, 60, 1e-6),   # the floor of a monomial representation at this degree
])
def test_gram_schmidt_accuracy_at_high_degree(p21, alpha, nmax, tol):
    gs = gram_schmidt(area_measure(p21, alpha), nmax)
    assert _worst_relative_error(gs, alpha, p21) < tol


@pytest.mark.parametrize("alpha,v", [
    (0.0, 1.5), (1.3, 0.3 + 0.4j), (-0.5, 2.5 - 0.2j), (-0.9, 0.1 + 0.05j),
])
def test_gram_schmidt_reproduces_christoffel_hessenberg(p21, alpha, v):
    """P^H W (z P) from gram_schmidt under the charged rule against the
    Christoffel-formula values integrated on the same rule, every entry,
    including the diagonal and superdiagonal that no closed form covers."""
    plain = build_rule(area_measure(p21, alpha))
    rule = _charged(plain, v)
    P = _values(gram_schmidt(rule.measure, 9, rule=rule), rule.nodes)
    entries = (P.conj() * rule.weights) @ (rule.nodes * P[:9]).T
    ref = einsum_hessenberg(ChristoffelBasis(alpha, p21, v), 9, plain)
    cols = np.sqrt(np.sum(np.abs(ref) ** 2, axis=0))
    assert np.max(np.abs(entries - ref) / cols) < 1e-11


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(ratio=st.floats(0.2, 0.95),
       alpha=st.floats(-0.9, 30.0, exclude_min=True),
       nmax=st.integers(0, 24))
def test_gram_schmidt_matches_closed_basis(ratio, alpha, nmax):
    p = make_params(1.0, ratio)
    gs = gram_schmidt(area_measure(p, alpha), nmax)
    assert _worst_relative_error(gs, alpha, p) < 1e-10


def test_gram_matrix_records_rule_and_errors(p21):
    fam = jacobi_half(1.5, -1)
    from ellipoly import derived_params

    d = derived_params(p21)
    rule = build_rule(canonical_measure(fam, d), n_radial=48, n_angular=128)
    g = gram_matrix(fam, canonical_measure(fam, d), 6, rule=rule)
    assert rule.shape == (48, 128)
    assert g.matrix.shape == (7, 7)
    assert g.max_diag_error < 1e-10
    assert len(g.diag_relative_errors) == 7


def test_closed_norm_rejects_bad_degree(p21):
    with pytest.raises(ValueError):
        closed_norm(gegenbauer(0.0), p21, -1)


def test_gram_matrix_matches_einsum_reference(p21):
    fam = gegenbauer(0.4)
    measure = canonical_measure(fam, p21)
    rule = build_rule(measure, n_radial=12, n_angular=32)
    vals = family_matrix(fam, 9, rule.nodes / p21.c)
    ref = np.einsum("k,ik,jk->ij", rule.weights, vals, vals.conj())
    ref = 0.5 * (ref + ref.conj().T)
    G = gram_matrix(fam, measure, 9, rule=rule).matrix
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_quadrature_hessenberg_matches_einsum_reference(p21):
    """hessenberg's Arnoldi matrix against the closed and the kernel-formula
    bases integrated on the same exact rule."""
    alpha, nmax = 0.4, 9
    for basis, degree in ((GegenbauerBasis(alpha, p21), 2 * nmax),
                          (ChristoffelBasis(alpha, p21, 0.9 + 0.4j), 2 * nmax + 2)):
        ref = einsum_hessenberg(basis, nmax, _exact_rule(area_measure(p21, alpha), degree))
        H = hessenberg(basis, nmax, strategy="quadrature").entries
        assert H.shape == (nmax + 1, nmax)
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref)), basis


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7, 2.5])
def test_gegenbauer_norm_is_the_single_degree_closed_form(alpha):
    p = make_params(1.0, 0.6)
    for k in range(81):
        expect = (1.0 + alpha) / (1.0 + alpha + k) * eval_family(gegenbauer(alpha), k, p.x_star).real
        assert gegenbauer_norm(alpha, p, k) == expect


@pytest.mark.parametrize("call", [
    lambda p: gegenbauer_norm(0.0, p, 700),
    lambda p: log_monic_norm(0.0, p, 660),
    lambda p: closed_norm(gegenbauer(0.0), p, 700),
    lambda p: closed_norm(chebyshev_t(), p, 700),
    lambda p: closed_norm(chebyshev_u(), p, 700),
    lambda p: closed_norm(chebyshev_v(), p, 700),
    lambda p: closed_norm(chebyshev_w(), p, 700),
    lambda p: closed_norm(jacobi_half(0.0, -1), p, 700),
    lambda p: closed_norm(jacobi_half(0.0, 1), p, 700),
], ids=["gegenbauer_norm", "log_monic_norm", "closed_norm", "chebyshev_t", "chebyshev_u",
        "chebyshev_v", "chebyshev_w", "jacobi_half_minus", "jacobi_half_plus"])
def test_norm_beyond_double_range_raises(p21, call):
    # at p(2,1) and alpha = 0, C_n(x_star) overflows the forward recurrence from n = 640
    with pytest.raises(ValueError, match=r"h_\d+ is not finite"):
        call(p21)


@pytest.mark.parametrize("method", ["gegenbauer", "hypergeometric"])
@pytest.mark.parametrize("alpha", [-1.3, -2.5])
def test_log_monic_norm_rejects_alpha_at_most_minus_one(p21, method, alpha):
    with pytest.raises(ValueError, match="alpha must exceed -1"):
        log_monic_norm(alpha, p21, 2, method)


def test_closed_norm_rejects_hermite(p21):
    with pytest.raises(ValueError, match="hermite has no canonical planar weight"):
        closed_norm(hermite(), p21, 2)


_TABLE_FAMILIES = [gegenbauer(0.5), legendre(), chebyshev_t(), chebyshev_u(),
                   chebyshev_v(), chebyshev_w(), jacobi_half(0.5, -1), jacobi_half(0.5, 1)]


@pytest.mark.parametrize("nmax", [0, 1, 50, 600])
@pytest.mark.parametrize("family", _TABLE_FAMILIES,
                         ids=["gegenbauer", "legendre", "chebyshev_t", "chebyshev_u",
                              "chebyshev_v", "chebyshev_w", "jacobi_minus", "jacobi_plus"])
def test_closed_norm_is_the_table_entry(p21, family, nmax):
    """closed_norm is entry n of the one-pass table, bit for bit, in the
    canonical convention and in both forced ones (every tenth degree of the
    long table, whose per-degree calls cost O(nmax^2))."""
    assert np.array_equal(_closed_norms(family, p21, nmax), _norm_table(family, p21, nmax))
    degrees = sorted({*range(0, nmax + 1, 1 if nmax <= 50 else 10), nmax})
    for normalized in (None, True, False):
        table = _closed_norms(family, p21, nmax, normalized)[degrees].tolist()
        assert [closed_norm(family, p21, n, normalized) for n in degrees] == table


def _mp_norm(name, alpha, b, n):
    """Closed norm on the ellipse (1, b) at 50 digits, by routes the library
    does not take: Legendre and Jacobi values, and sinh forms of q-powers."""
    with mp.workdps(50):
        b, al = mp.mpf(b), mp.mpf(alpha)
        c = mp.sqrt(1 - b * b)
        xs, y = (1 + b * b) / (c * c), 2 / (c * c) - 1   # x_star and 2 (a/c)^2 - 1
        if name == "gegenbauer":
            return (1 + al) / (1 + al + n) * mp.gegenbauer(n, 1 + al, xs)
        if name == "legendre":
            return mp.legendre(n, xs) / (1 + 2 * n)
        if name == "jacobi_minus":
            ratio = mp.rf(mp.mpf(0.5), n) / mp.rf(1 + al, n)
            return ratio * (1 + al) / (1 + al + 2 * n) * mp.jacobi(n, al + 0.5, -0.5, y)
        if name == "jacobi_plus":
            ratio = mp.rf(mp.mpf(0.5), n + 1) / mp.rf(1 + al, n + 1)
            pref = 2 * c * (1 + al) * (2 + al) / (2 + al + 2 * n)
            return pref * ratio / c * mp.jacobi(n, al + 0.5, 0.5, y)
        s = mp.acosh(xs)   # (r/c)^(2k) - (c/r)^(2k) = 2 sinh(k s)
        if name == "chebyshev_t":
            return mp.pi * s if n == 0 else mp.pi * mp.sinh(n * s) / (2 * n)
        if name == "chebyshev_u":
            return mp.pi * c * c * mp.sinh((n + 1) * s) / (2 * (n + 1))
        return 2 * mp.pi * c * mp.sinh((n + 0.5) * s) / (1 + 2 * n)


_MP_FAMILIES = {
    "gegenbauer": gegenbauer, "legendre": lambda alpha: legendre(),
    "jacobi_minus": lambda alpha: jacobi_half(alpha, -1),
    "jacobi_plus": lambda alpha: jacobi_half(alpha, 1),
    "chebyshev_t": lambda alpha: chebyshev_t(), "chebyshev_u": lambda alpha: chebyshev_u(),
    "chebyshev_v": lambda alpha: chebyshev_v(), "chebyshev_w": lambda alpha: chebyshev_w(),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(_MP_FAMILIES)),
       b=st.floats(0.05, 0.95),
       alpha=st.floats(-0.9, 4.0, exclude_min=True),
       n=st.integers(0, 200))
def test_closed_norm_against_mpmath(name, b, alpha, n):
    """Every closed norm is accurate or refused: never inf, nan or an
    OverflowError, and refused only where the value is near the double range."""
    want = _mp_norm(name, alpha, b, n)
    try:
        got = closed_norm(_MP_FAMILIES[name](alpha), make_params(1.0, b), n)
    except ValueError:
        assert want > 1e280
        return
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-10 * want


def test_log_monic_norm_past_the_monic_factor_range():
    """The monic factor 500^200 overflows alone; in logs the Gegenbauer route
    meets the hypergeometric one, and monic_norm refuses the linear value."""
    p = make_params(1000.0, 1.0)
    got = log_monic_norm(0.0, p, 200)
    assert got == pytest.approx(log_monic_norm(0.0, p, 200, "hypergeometric"), rel=1e-14)
    assert got == pytest.approx(2485.8698291026794, rel=1e-14)
    with pytest.raises(ValueError, match="overflows the double range"):
        monic_norm(0.0, p, 200)
    with pytest.raises(ValueError, match="monic factor of degree 200 .* overflows"):
        monic_factor(0.0, p, 200)
    assert math.isfinite(monic_factor(0.0, p, 114))
