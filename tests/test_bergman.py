"""Bergman kernel, Christoffel transform, Hessenberg structure, ensemble checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from ellipoly import (
    ChristoffelBasis,
    GegenbauerBasis,
    HessenbergMatrix,
    area_measure,
    bandwidth,
    bergman_kernel,
    build_rule,
    christoffel_entry_closed,
    christoffel_norm_monic,
    christoffel_values,
    heine_check,
    hessenberg,
    make_params,
    monic_norm,
    orthonormal_values,
    recurrence_coeffs,
    turan_determinant,
)
from ellipoly import bergman
from ellipoly.bergman import _charge_qr, _charge_values, _column_ladder
from ellipoly.polynomials import _recurrence_table
from conftest import kernel_quotient


def test_kernel_truncation_one_is_constant(p21):
    # kappa_1 = p_0(z) conj(p_0(w)) = 1/h_0 = 1 for the mass-one measure
    assert bergman_kernel(0.7, p21, 1, 0.4 + 0.2j, -1.0 + 0.1j) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bergman_kernel(0.0, p21, 0, 0j, 0j)


def test_kernel_hermitian(p21):
    za, zb = 0.4 + 0.2j, -0.1 + 0.3j
    assert bergman_kernel(0.5, p21, 5, za, zb) == pytest.approx(
        np.conj(bergman_kernel(0.5, p21, 5, zb, za)))


def test_kernel_reproduces_low_degree(p21):
    rule = build_rule(area_measure(p21, 0.0))
    w = 0.3 + 0.1j
    kv = bergman_kernel(0.0, p21, 6, rule.nodes, w)
    f = lambda z: z**3 - 0.5 * z + 2j
    got = np.sum(rule.weights * f(rule.nodes) * np.conj(kv))
    assert got == pytest.approx(f(w), rel=1e-12)


def test_kernel_diagonal_ladder_nondecreasing(p21):
    vals = [bergman_kernel(0.0, p21, N, 1.5 + 0j, 1.5 + 0j).real
            for N in range(1, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # the step N=5 -> 6 is flat: the degree-5 orthonormal polynomial
    # vanishes at 1.5 (1.5/c = cos(pi/6) is a second-kind Chebyshev root)
    assert vals[5] == pytest.approx(vals[4], abs=1e-15)
    assert vals[6] > vals[5]


def test_christoffel_basis_has_no_degree_cap(p21):
    """Degrees past the old default cap of 24: finite values, and a charged
    Hessenberg matrix that is zero below its subdiagonal."""
    basis = ChristoffelBasis(0.0, p21, 1.5 + 0j)
    assert np.all(np.isfinite(christoffel_values(basis, 30, 0.3 + 0.2j)))
    H = hessenberg(basis, 30)
    l, n = np.indices(H.entries.shape)
    assert np.max(np.abs(H.entries[l > n + 1])) <= 1e-12 * np.max(np.abs(H.entries))
    with pytest.raises(TypeError):
        ChristoffelBasis(0.0, p21, 1.5 + 0j, nmax=12)


def test_christoffel_basis_is_orthonormal_for_charged_weight(p21):
    v = 1.5 + 0j
    basis = ChristoffelBasis(0.0, p21, v)
    rule = build_rule(area_measure(p21, 0.0))
    w = rule.weights * np.abs(v - rule.nodes) ** 2
    P = christoffel_values(basis, 6, rule.nodes)
    G = np.einsum("k,ik,jk->ij", w, P, P.conj())
    np.testing.assert_allclose(G, np.eye(7), atol=5e-13)


def test_christoffel_degree_zero_and_monic_norm(p21):
    basis = ChristoffelBasis(0.0, p21, 1.5 + 0j)
    # h~^(1)_0 = h~_1 kappa_2/kappa_1 = (5/4)(1 + 9/5) = 7/2
    assert christoffel_norm_monic(basis, 0) == pytest.approx(3.5, rel=1e-13)
    z = np.array([0.2 + 0.1j, -0.7 - 0.3j])
    np.testing.assert_allclose(christoffel_values(basis, 0, z)[0],
                               1.0 / math.sqrt(3.5), rtol=1e-13)


def test_christoffel_poly_leading_coefficient(p21):
    basis = ChristoffelBasis(0.0, p21, 1.5 + 0j)
    R = 1e6
    for N in (1, 2, 4):
        lead = christoffel_values(basis, N, R + 0j)[N] / R**N
        assert lead * math.sqrt(christoffel_norm_monic(basis, N)) == \
            pytest.approx(1.0, rel=1e-5)


def test_christoffel_values_near_charge_limit(p21):
    """Continuous from v + 1e-12 to z = v exactly, an ordinary point."""
    for alpha, v, nmax in ((0.0, 0.9 + 0.4j, 5), (0.5, 0.3 + 0.4j, 24)):
        basis = ChristoffelBasis(alpha, p21, v)
        at = christoffel_values(basis, nmax, np.array([basis.v]))
        near = christoffel_values(basis, nmax, np.array([basis.v + 1e-12]))
        np.testing.assert_allclose(at, near, rtol=1e-10)
        assert np.all(np.isfinite(at))


def _mp_kernel_quotient(alpha, a, b, v, nmax, z):
    """The kernel quotient of conftest.kernel_quotient at 40 digits, from
    Gegenbauer values and norms h_n = (1+alpha)/(1+alpha+n) C_n(x*) by the
    same recurrence in mpmath: its cancellation near v costs nothing here."""
    with mp.workdps(40):
        al, a, b = mp.mpf(alpha), mp.mpf(a), mp.mpf(b)
        c = mp.sqrt(a * a - b * b)

        def gegenbauer(x):   # C_0..C_{nmax+1} at x
            C = [mp.mpf(1), 2 * (1 + al) * x]
            for k in range(1, nmax + 1):
                C.append((2 * (k + 1 + al) * x * C[k] - (k + 1 + 2 * al) * C[k - 1]) / (k + 1))
            return C

        h = [(1 + al) / (1 + al + k) * Ck
             for k, Ck in enumerate(gegenbauer((a * a + b * b) / (c * c)))]
        pz = [Ck / mp.sqrt(hk) for Ck, hk in zip(gegenbauer(mp.mpc(z) / c), h)]
        pv = [Ck / mp.sqrt(hk) for Ck, hk in zip(gegenbauer(mp.mpc(v) / c), h)]
        kv, Kz = [mp.mpf(0)], [mp.mpc(0)]
        for x, y in zip(pz, pv):
            kv.append(kv[-1] + abs(y) ** 2)
            Kz.append(Kz[-1] + x * mp.conj(y))
        return np.array([complex((Kz[N + 1] * pv[N + 1] - kv[N + 1] * pz[N + 1])
                                 / ((mp.mpc(v) - mp.mpc(z)) * mp.sqrt(kv[N + 1] * kv[N + 2])))
                         for N in range(nmax + 1)])


@pytest.mark.parametrize("v", [0.3 + 0.4j, 1.5 + 0j])
def test_christoffel_values_match_kernel_quotient_away_from_charge(p21, v):
    """Measured at each point against its largest value: single degrees pass
    near zero (P(1)_14(1.51) is 50 times smaller than its neighbours)."""
    basis = ChristoffelBasis(0.5, p21, v)
    x, y = np.meshgrid(np.linspace(-1.8, 1.8, 13), np.linspace(-0.9, 0.9, 7))
    z = np.concatenate([(x + 1j * y).ravel(), v + 1e-2 * np.exp(2j * np.pi * np.arange(8) / 8)])
    z = z[np.abs(z - v) >= 1e-2]
    for nmax in (9, 24):
        ref = kernel_quotient(basis, nmax, z)
        got = christoffel_values(basis, nmax, z)
        gap = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
        assert np.max(gap) <= 1e-13, nmax


@pytest.mark.parametrize("dist", [1e-4, 1e-6, 1.01e-8, 5e-9])
def test_christoffel_values_near_charge_against_mpmath(p21, dist):
    """Near the charge the kernel quotient loses about eps/|z - v| to
    cancellation; the QR-step values keep full accuracy right up to v."""
    v = 0.3 + 0.4j
    basis = ChristoffelBasis(0.5, p21, v)
    for theta in (0.7, 2.9):
        z = complex(v + dist * np.exp(1j * theta))
        ref = _mp_kernel_quotient(0.5, 2.0, 1.0, v, 24, z)
        got = christoffel_values(basis, 24, z)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, theta


def test_christoffel_monic_norm_is_the_qr_diagonal(p21):
    """Leading coefficients: P(1)_N = p_N / R[N, N] + lower terms, so the
    monic charged norm is R[N, N]^2 times the plain one."""
    basis = ChristoffelBasis(0.7, p21, 0.8 + 0.2j)
    _, R = _charge_qr(basis, 12)
    for N in range(13):
        assert christoffel_norm_monic(basis, N) == pytest.approx(
            R[N, N].real ** 2 * monic_norm(0.7, p21, N), rel=1e-12)


@pytest.mark.parametrize("v", [complex(math.nan, 0.0), complex(0.3, math.inf), -math.inf])
def test_christoffel_basis_rejects_a_non_finite_charge(p21, v):
    calls = (lambda b: christoffel_values(b, 5, 0.1 + 0.2j),
             lambda b: christoffel_norm_monic(b, 3),
             lambda b: christoffel_entry_closed(b, 0, 4),
             lambda b: hessenberg(b, 5))
    for call in calls:
        with pytest.raises(ValueError, match="charge v must be finite"):
            call(ChristoffelBasis(0.5, p21, v))


def test_christoffel_real_charge_real_axis(p21):
    basis = ChristoffelBasis(0.0, p21, 1.5 + 0j)
    vals = christoffel_values(basis, 5, np.array([0.25, -0.8]))
    assert np.max(np.abs(vals.imag)) == 0.0


def test_closed_entry_matches_quadrature_complex_charge(p21):
    basis = ChristoffelBasis(0.0, p21, 0.9 + 0.4j)
    H = hessenberg(basis, 8, strategy="quadrature")
    worst = max(abs(H.entries[l, n] - christoffel_entry_closed(basis, l, n))
                for n in range(2, 8) for l in range(n - 1))
    assert worst < 1e-12


def test_hessenberg_gegenbauer_strategies_agree(p21):
    basis = GegenbauerBasis(1.2, p21)
    Hc = hessenberg(basis, 10, strategy="closed")
    Hq = hessenberg(basis, 10, strategy="quadrature")
    assert Hc.strategy == "closed" and Hq.strategy == "quadrature"
    np.testing.assert_allclose(Hq.entries, Hc.entries, atol=1e-11)
    assert bandwidth(Hc, 1e-12) == 2


@pytest.mark.parametrize("nmax", [1, 9, 24])
def test_quadrature_hessenberg_runs_on_its_exact_rule(p21, nmax):
    """Arnoldi leaves exact zeros below the subdiagonal, and each path records
    the rule it ran on: exact for degree 2 nmax, plus 2 for the charge."""
    basis = GegenbauerBasis(0.5, p21)
    charged_basis = ChristoffelBasis(0.5, p21, 1.5 + 0j)
    plain = hessenberg(basis, nmax, strategy="quadrature")
    charged = hessenberg(charged_basis, nmax, strategy="quadrature")
    assert plain.rule_shape == (nmax + 1, 2 * nmax + 2)
    assert charged.rule_shape == (nmax + 2, 2 * nmax + 4)
    assert hessenberg(basis, nmax).rule_shape is None
    assert hessenberg(charged_basis, nmax).rule_shape is None
    l, n = np.indices(plain.entries.shape)
    for H in (plain, charged):
        assert np.all(H.entries[l > n + 1] == 0)


@pytest.mark.parametrize("alpha, b, v", [(0.0, 1.0, 1.0), (0.5, 1.0, 0.3 + 0.4j),
                                         (-0.64, 0.81, -0.06 - 0.17j), (2.3, 0.17, 2.5 + 1.0j)])
def test_christoffel_closed_hessenberg_is_the_qr_step(alpha, b, v):
    """'closed' is the default for the charged basis too, builds no rule, and
    matches Arnoldi on the charged rule to roundoff per column norm."""
    basis = ChristoffelBasis(alpha, make_params(2.0, b), v)
    for nmax in (9, 24, 60):
        H = hessenberg(basis, nmax, strategy="closed")
        assert H.strategy == "closed" and H.rule_shape is None
        assert np.array_equal(hessenberg(basis, nmax).entries, H.entries)
        Hq = hessenberg(basis, nmax, strategy="quadrature")
        gap = np.max(np.abs(H.entries - Hq.entries), axis=0) / Hq.column_norms()
        assert np.max(gap) <= 1e-13, nmax
    for strategy in ("matmul", "auto"):
        with pytest.raises(ValueError, match="unknown strategy"):
            hessenberg(basis, 5, strategy=strategy)


def _synthetic(entries):
    entries = np.asarray(entries, dtype=complex)
    return HessenbergMatrix(basis_label="synthetic", nmax=entries.shape[1],
                            entries=entries, strategy="synthetic")


def test_bandwidth_synthetic_cases():
    nmax = 5
    sub = np.zeros((nmax + 1, nmax))
    for n in range(nmax):
        sub[n + 1, n] = 1.0
    assert bandwidth(_synthetic(sub), 1e-12) == 0  # pure shift: disc case

    tri = sub.copy()
    for n in range(1, nmax):
        tri[n - 1, n] = 0.5
    assert bandwidth(_synthetic(tri), 1e-12) == 2  # three-term recurrence

    diag = sub.copy()
    for n in range(nmax):
        diag[n, n] = 0.25
    assert bandwidth(_synthetic(diag), 1e-12) == 1

    full = np.ones((nmax + 1, nmax))
    assert bandwidth(_synthetic(full), 1e-12) == nmax

    hole = tri.copy()
    hole[0, nmax - 1] = np.nan   # a NaN never counts as above the tolerance
    assert bandwidth(_synthetic(hole), 1e-12) == 2


def test_turan_zeros_at_edges_and_nonzero_inside():
    for alpha in (-0.5, 0.0, 1.3):
        for l in range(6):
            assert abs(turan_determinant(alpha, l, 1.0)) < 1e-13
            assert abs(turan_determinant(alpha, l, -1.0)) < 1e-13
            assert abs(turan_determinant(alpha, l, 5.0 / 3.0)) > 1e-6


@pytest.mark.filterwarnings("error")
def test_turan_raises_where_its_terms_overflow():
    """Delta_l(5/3) itself leaves the double range from l = 333 at alpha = 0:
    the determinant raises ValueError there, without numpy warnings, instead
    of returning inf or nan."""
    assert math.isfinite(turan_determinant(0.0, 332, 5.0 / 3.0))
    for alpha, l, x in ((0.0, 333, 5.0 / 3.0), (0.0, 1000, 5.0 / 3.0)):
        with pytest.raises(ValueError, match=f"Delta_{l}.* is not finite"):
            turan_determinant(alpha, l, x)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 5.0, 50.0, 300.0])
def test_turan_on_the_interval_matches_mpmath(alpha):
    """On [-1, 1] the determinant steps the bounded ratios C_k(x)/C_k(1), so
    it stays finite where C_k(1) overflows (alpha = 300, l = 1000) and is
    exactly 0 at x = +-1; elsewhere it matches a 60-digit recurrence of the
    same ratios to 5e-16 absolute, for l up to 1000."""
    ls = list(range(12)) + [97, 333, 640, 998, 999, 1000]
    with mp.workdps(60):
        for x in (1.0, -1.0, 0.5, -0.3, 0.99):
            al, X = mp.mpf(alpha), mp.mpf(x)
            t = [mp.mpf(1), X]
            for k in range(1, 1002):
                t.append((2 * (k + 1 + al) * X * t[k] - k * t[k - 1]) / (k + 2 + 2 * al))
            for l in ls:
                got = turan_determinant(alpha, l, x)
                if abs(x) == 1.0:
                    assert got == 0.0, (x, l)
                assert abs(got - float(t[l + 1] ** 2 - t[l] * t[l + 2])) <= 5e-16, (x, l)


@pytest.mark.parametrize("l", range(328, 333))
def test_turan_near_its_overflow_edge_matches_mpmath(l):
    """Where (C_{l+1}(5/3)/C_{l+1}(1))^2 alone would overflow, Delta_l(5/3)
    still matches a 30-digit mpmath value.  The two terms of Delta are about
    1.1e5 times Delta here, so the recurrence's last-ulp errors in C_k bound
    the relative accuracy near 1e-11."""
    x = 5.0 / 3.0
    with mp.workdps(30):
        t0, t1, t2 = (mp.gegenbauer(k, 1, x) / mp.gegenbauer(k, 1, 1) for k in (l, l + 1, l + 2))
        want = t1 * t1 - t0 * t2
    assert abs(turan_determinant(0.0, l, x) / want - 1) <= 1e-10


@pytest.mark.parametrize("alpha, l, x, approx", [
    (300.0, 1000, 1.05, -5.6218133e92),
    (50.0, 600, 1.2, -7.0816791e236),
    (4.0, 900, 1.02, -3.9704082e134),
])
def test_turan_beyond_the_interval_matches_mpmath(alpha, l, x, approx):
    """For x > 1 the ratios C_k(x)/C_k(1) grow but C_k(1) itself is never
    formed: at alpha = 300, l = 1000 it overflows, and Delta does not.  Delta
    matches a 60-digit recurrence of the same ratios to 1e-14 of the size of
    its two terms, t_{l+1}^2 + |t_l t_{l+2}|."""
    with mp.workdps(60):
        al, X = mp.mpf(alpha), mp.mpf(x)
        t = [mp.mpf(1), X]
        for k in range(1, l + 2):
            t.append((2 * (k + 1 + al) * X * t[k] - k * t[k - 1]) / (k + 2 + 2 * al))
        want = t[l + 1] ** 2 - t[l] * t[l + 2]
        scale = t[l + 1] ** 2 + abs(t[l] * t[l + 2])
        got = turan_determinant(alpha, l, x)
        assert abs(got - want) <= 1e-14 * scale
    assert got == pytest.approx(approx, rel=1e-7)


def test_turan_where_the_middle_term_vanishes():
    """C_1(0) = 0: Delta_0(0) = -t_0 t_2 = C_2(1)^{-1} lambda = 1/4 at alpha = 0.5."""
    assert turan_determinant(0.5, 0, 0.0) == pytest.approx(0.25, rel=1e-14)


def test_heine_average_matches_monic(p21):
    assert heine_check(0.0, p21, 1) < 1e-12
    assert heine_check(0.0, p21, 2) < 1e-8
    assert heine_check(1.0, p21, 2) < 1e-8
    with pytest.raises(ValueError):
        heine_check(0.0, p21, 3)


def test_heine_other_geometry():
    p = make_params(1.3, 0.6)
    assert heine_check(0.5, p, 2) < 1e-8


def test_christoffel_norm_ladder_consistent(p21):
    # h~^(1)_N = h~_{N+1} kappa_{N+2}/kappa_{N+1}
    basis = ChristoffelBasis(0.7, p21, 0.8 + 0.2j)
    for N in range(4):
        ratio = christoffel_norm_monic(basis, N) / monic_norm(0.7, p21, N + 1)
        k1 = bergman_kernel(0.7, p21, N + 2, basis.v, basis.v).real
        k0 = bergman_kernel(0.7, p21, N + 1, basis.v, basis.v).real
        assert ratio == pytest.approx(k1 / k0, rel=1e-12)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.2])
def test_closed_hessenberg_is_recurrence_coeffs(p21, alpha):
    nmax = 30
    H = hessenberg(GegenbauerBasis(alpha, p21), nmax, strategy="closed").entries
    expect = np.zeros((nmax + 1, nmax), dtype=complex)
    for n in range(nmax):
        a_next, b_n = recurrence_coeffs(alpha, p21, n)
        expect[n + 1, n] = a_next
        if n >= 1:
            expect[n - 1, n] = b_n
    assert np.array_equal(H, expect)


@pytest.mark.filterwarnings("error")
def test_closed_hessenberg_raises_past_the_double_range():
    """At alpha = 0, C_first(x_star) overflows (first = 640 at p(2,1), 240 at
    p(1, 0.9)), so a_first (column first - 1) is the first closed entry that is
    not finite.  Every closed path that reads that column raises and names the
    degree, without warnings; one column short stays finite.  The monic
    Christoffel norm of degree N reads h_{N+1}, so it raises from N = first - 1."""
    for a, b, first in ((2.0, 1.0, 640), (1.0, 0.9, 240)):
        p = make_params(a, b)
        plain, charged = GegenbauerBasis(0.0, p), ChristoffelBasis(0.0, p, 1.5)
        assert np.all(np.isfinite(hessenberg(plain, first - 1).entries))
        assert np.all(np.isfinite(hessenberg(charged, first - 40).entries))
        assert np.all(np.isfinite(christoffel_values(charged, first - 2, 0.3 + 0.1j)))
        for call in (lambda: hessenberg(plain, first), lambda: hessenberg(plain, first + 60),
                     lambda: hessenberg(charged, first - 1),
                     lambda: hessenberg(charged, first + 60),
                     lambda: christoffel_values(charged, first - 1, 0.3 + 0.1j)):
            with pytest.raises(ValueError, match=f"not finite from degree {first - 1} "):
                call()
        assert math.isfinite(christoffel_norm_monic(charged, first - 2))
        with pytest.raises(ValueError, match=f"_{first} .*not finite"):
            christoffel_norm_monic(charged, first - 1)


@pytest.mark.parametrize("a, b, nmax", [(2.0, 1.0, 60), (2.0, 1.0, 400),
                                        (1.0, 0.9, 60), (1.0, 0.9, 200)])
def test_christoffel_values_sweep_matches_the_dense_solve(a, b, nmax):
    """R from _charge_qr is exactly zero past its second superdiagonal, so the
    three-term forward sweep solves R^T x = p as a dense solve does, to
    roundoff in each degree's largest value over the points.  At p(1, 0.9)
    the closed Hessenberg stops at degree 239, so the long case there is
    nmax 200."""
    p = make_params(a, b)
    z = np.array([0.0, 0.3 + 0.4j, -1.1 + 0.2j, 0.7 * a - 0.2j * b, 1.2 * a + 0.5j,
                  -0.4 - 0.9j * b])
    for alpha, v in ((0.0, 0.3 + 0.4j), (1.3, -1.1 + 0.2j)):
        basis = ChristoffelBasis(alpha, p, v)
        _, R = _charge_qr(basis, nmax)
        assert not np.triu(R, 3).any()
        ref = np.linalg.solve(R.T, orthonormal_values(alpha, p, nmax, z))
        got = christoffel_values(basis, nmax, z)
        gap = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert np.max(gap) <= 1e-14, (alpha, v)


@pytest.mark.parametrize("n", [0, 1, 50, 600])
def test_closed_entry_reads_its_column_of_one_ladder(p21, n, monkeypatch):
    """Column n's cached ladder is, bit for bit, the prefix of one ladder
    through a higher degree, and christoffel_entry_closed reads the same
    entries from either."""
    basis = ChristoffelBasis(0.5, p21, 0.3 + 0.4j)
    pv, kv, h = _charge_values(basis, 602)
    long = (pv, kv) + _recurrence_table(0.5, p21, 600, h)
    column = _column_ladder(basis, n)
    for got, ref in zip(column, long, strict=True):
        assert got == ref[: len(got)]
    rows = sorted({0, n // 2, n - 2} & set(range(n - 1)))
    values = [christoffel_entry_closed(basis, l, n) for l in rows]
    monkeypatch.setattr(bergman, "_column_ladder", lambda basis, n: long)
    assert [christoffel_entry_closed(basis, l, n) for l in rows] == values


@pytest.mark.parametrize("alpha, b, v", [(0.0, 1.0, 1.5), (-0.64, 0.81, -0.06 - 0.17j),
                                         (2.3, 0.17, 1.44 + 0.39j)])
def test_closed_entry_ladder_is_cached_and_read_only(alpha, b, v):
    """christoffel_entry_closed reads one ladder per (basis, column): the charge
    values of _charge_values(basis, n + 2) and, row for row and bit for bit,
    the recurrence table that each entry used to build to index l + 2, in
    tuples nobody can write to."""
    basis = ChristoffelBasis(alpha, make_params(2.0, b), v)
    n = 14
    ladder = _column_ladder(basis, n)
    assert _column_ladder(basis, n) is ladder
    pv, kv, a, bb = ladder
    ref_pv, ref_kv, _ = _charge_values(basis, n + 2)
    assert np.array_equal(pv, ref_pv) and np.array_equal(kv, ref_kv)
    for l in range(n - 1):
        ref_a, ref_b = _recurrence_table(alpha, basis.params, l + 2)
        assert np.array_equal(a[: l + 3], ref_a) and np.array_equal(bb[: l + 3], ref_b)
    for arr in ladder:
        with pytest.raises(TypeError, match="does not support item assignment"):
            arr[0] = 1.0
    # the cache does not change a value: a fresh basis with equal fields agrees
    for l in range(n - 1):
        fresh = ChristoffelBasis(alpha, make_params(2.0, b), v)
        assert christoffel_entry_closed(fresh, l, n) == christoffel_entry_closed(basis, l, n)
