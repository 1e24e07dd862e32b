"""Degeneration regimes: Hermite plane, truncated-unitary disc, real line."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ellipoly import (
    LimitRegime,
    disc_limit,
    disc_reference,
    gegenbauer_norm,
    hermite_limit,
    make_params,
    realline_constant,
    realline_limit,
)
from ellipoly.limits import _degree, _planar_entries


def test_hermite_diagonal_target_hand_value(p21):
    # n = m = 1: target pi * 1! * a b * (2 x*)^1 = 20 pi / 3
    rep = hermite_limit(p21, 1, 1, (10.0, 100.0, 1000.0))
    assert rep.target == pytest.approx(20.0 * math.pi / 3.0)
    assert rep.verdict
    assert rep.residuals[-1] < 1e-2
    assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
    # O(1/alpha): each decade of alpha buys about a decade of accuracy
    assert rep.residuals[1] / rep.residuals[0] < 0.3


def test_hermite_offdiagonal_noise(p21):
    rep = hermite_limit(p21, 0, 2, (10.0, 100.0, 1000.0))
    assert rep.target == 0.0
    assert rep.verdict
    assert max(rep.residuals) < rep.noise_floor


def test_hermite_rejects_bad_sequence(p21):
    with pytest.raises(ValueError):
        hermite_limit(p21, 1, 1, (100.0, 10.0))
    with pytest.raises(ValueError):
        hermite_limit(p21, 1, 1, (10.0,))


def test_disc_reference_matches_beta_moment():
    # <z^n, z^n> on the alpha-weighted unit-a disc is a^{2n} n! / (alpha+2)_n
    for a, alpha in ((1.0, 0.0), (1.0, 2.0), (1.7, 0.5)):
        for n in range(5):
            poch = 1.0
            for k in range(n):
                poch *= alpha + 2.0 + k
            expect = a ** (2 * n) * math.factorial(n) / poch
            got = disc_reference(a, alpha, n, n)
            assert got.real == pytest.approx(expect, rel=1e-12)
            assert abs(got.imag) < 1e-15
    assert abs(disc_reference(1.0, 0.0, 2, 0)) < 1e-15
    # exact by rotation invariance, not roundoff scaled up by a^(n+m)
    assert disc_reference(10.0, 0.0, 12, 2) == 0
    assert disc_reference(1000.0, 0.0, 60, 58) == 0


def test_disc_limit_converges(p21_unused=None):
    rep = disc_limit(1.0, 2, 2, 0.0, (0.9, 0.99, 0.999))
    assert rep.regime is LimitRegime.DISC_TRUNCATED_UNITARY
    assert rep.verdict
    assert rep.residuals[-1] < 1e-3
    off = disc_limit(1.0, 2, 0, 2.0, (0.9, 0.99, 0.999))
    assert off.verdict


def test_disc_limit_rejects_bad_sequence():
    with pytest.raises(ValueError):
        disc_limit(1.0, 1, 1, 0.0, (0.99, 0.9))
    with pytest.raises(ValueError):
        disc_limit(1.0, 1, 1, 0.0, (0.9, 1.0))  # b must stay below a


def test_realline_constant_is_beta_integral():
    # sqrt(pi) Gamma(1+alpha) / (2 Gamma(3/2+alpha)) = int_0^1 (1-t^2)^alpha dt
    for alpha in (-0.5, 0.0, 1.3, 4.0):
        val, err = quad(lambda t: (1 - t * t) ** alpha, 0.0, 1.0)
        assert realline_constant(alpha) == pytest.approx(val, rel=1e-10)


def test_realline_diagonal_converges():
    rep = realline_limit(2.0, 3, 3, 0.0, (0.3, 0.1, 0.03))
    assert rep.verdict
    assert rep.residuals[-1] < 1e-2
    assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]


def test_realline_offdiagonal_exact_zero_target():
    rep = realline_limit(2.0, 1, 3, 0.0, (0.3, 0.1, 0.03))
    assert rep.target == 0.0
    assert rep.verdict
    assert max(rep.residuals) < rep.noise_floor


def test_realline_rejects_bad_sequence():
    with pytest.raises(ValueError):
        realline_limit(2.0, 1, 1, 0.0, (0.03, 0.1))
    with pytest.raises(ValueError):
        realline_limit(1.0, 1, 1, 0.0, (1.0, 0.5))


def test_reports_carry_parameters(p21):
    rep = hermite_limit(p21, 2, 2, (10.0, 100.0))
    assert rep.parameters == (10.0, 100.0)
    assert len(rep.values) == len(rep.residuals) == 2
    assert rep.tolerance == 1e-2
    d = disc_limit(1.0, 1, 1, 0.0, (0.9, 0.99))
    assert "closed_diag" in d.extras or d.extras  # formula recorded for diagonals


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hermite_runs_to_alpha_1e6(p21, n):
    """The alpha -> infinity limit followed three decades past the old
    ceiling near alpha = 1023, at its O(1/alpha) rate."""
    rep = hermite_limit(p21, n, n, (10.0, 1e2, 1e3, 1e4, 1e5, 1e6))
    assert rep.verdict
    assert rep.residuals[-1] <= 1e-5


def test_hermite_high_degree_raises_only_out_of_range(p21):
    """The target pi a b n! (2 x*)^n leaves the double range at n = 138 on
    p(2,1): degree 200 raises a clear error instead of an OverflowError,
    while degree 100 at moderate alpha stays finite."""
    rep = hermite_limit(p21, 100, 100, (10.0, 20.0))
    assert all(math.isfinite(abs(v)) for v in rep.values)
    assert math.isfinite(rep.target)
    with pytest.raises(ValueError, match="not finite"):
        hermite_limit(p21, 200, 200, (10.0, 100.0, 1000.0))


@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_disc_reference_on_the_unit_disc_area_rule(alpha):
    """The area rule on the unit disc gives the diagonal n! a^{2n}/(2+alpha)_n."""
    for a in (1.0, 1.7):
        for n in range(11):
            want = math.factorial(n) * a ** (2 * n) / math.prod(
                2.0 + alpha + j for j in range(n))
            assert abs(disc_reference(a, alpha, n, n) - want) <= 1e-13 * want, (a, n)


def test_disc_reference_at_large_alpha_and_degree_is_quiet():
    """At alpha = 1000 and degree 500 some radial node sums leave the double
    range; the rule drops them without a warning and keeps the moment."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = disc_reference(1.0, 1000.0, 250, 250)
    want = math.exp(math.lgamma(251) + math.lgamma(1002) - math.lgamma(1252))
    assert abs(got - want) <= 1e-11 * want


def test_rule_table_takes_a_zero_dimensional_alpha():
    """The shared Gauss-Jacobi table is keyed by floats, so an alpha given
    as a 0-d array gives the same values as the float."""
    assert disc_reference(1.0, np.array(0.5), 3, 3) == disc_reference(1.0, 0.5, 3, 3)
    got = realline_limit(2.0, 1, 1, np.array(0.5), (0.3, 0.1))
    want = realline_limit(2.0, 1, 1, 0.5, (0.3, 0.1))
    assert got.target == want.target and got.values == want.values


@pytest.mark.parametrize("alpha", [1100.0, 1e4])
@pytest.mark.parametrize("a", [1.0, 1.5])
def test_disc_reference_past_the_old_alpha_ceiling(a, alpha):
    """The diagonal n! a^{2n} / (2+alpha)_n (by mpmath) and exact zeros off
    it, where the old reference returned nan."""
    for n in range(5):
        for m in range(5):
            got = disc_reference(a, alpha, n, m)
            want = mp.factorial(n) * mp.mpf(a) ** (2 * n) / mp.rf(2 + mp.mpf(alpha), n) \
                if n == m else 0
            scale = math.sqrt(float(mp.factorial(n) / mp.rf(2 + mp.mpf(alpha), n)
                                    * mp.factorial(m) / mp.rf(2 + mp.mpf(alpha), m))) \
                * a ** (n + m)
            assert abs(got - complex(want)) <= 1e-13 * scale, (n, m)


@pytest.mark.parametrize("alpha", [-0.4, 0.0, 2.5])
def test_realline_target_is_the_closed_diagonal(alpha):
    """With a unit-mass oracle rule the target needs no prefactor: it is the
    closed diagonal (1+alpha)/(1+alpha+n) (2+2alpha)_n / n!."""
    for n in range(7):
        rep = realline_limit(2.0, n, n, alpha, (0.3, 0.1))
        assert rep.target == pytest.approx(rep.extras["closed_diagonal"], rel=2e-14)


@pytest.mark.parametrize("alpha", [100.0, 1000.0])
def test_realline_target_at_large_alpha(alpha):
    for n in range(7):
        rep = realline_limit(2.0, n, n, alpha, (0.3, 0.1))
        a = mp.mpf(alpha)
        want = (1 + a) / (1 + a + n) * mp.rf(2 + 2 * a, n) / mp.factorial(n)
        assert rep.target == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("p", [make_params(2.0, 1.0), make_params(1.0, 0.3),
                               make_params(1.0, 0.95)], ids=["p21", "p1_03", "p1_095"])
@pytest.mark.parametrize("alpha", [-0.9, 0.0, 2.5, 10.0, 100.0, 1000.0])
def test_planar_entry_is_the_closed_norm(p, alpha):
    """The degree-sized area rule reproduces <C_n, C_m>_alpha = delta_nm h_n
    from the paper's closed norm, across alpha up to 1e3."""
    h = [gegenbauer_norm(alpha, p, n) for n in range(7)]
    for n in range(7):
        for m in range(7):
            want = h[n] if n == m else 0.0
            got = _planar_entries(p, alpha, [(n, m)], _degree([(n, m)]))[1][0]
            assert abs(got - want) <= 5e-12 * math.sqrt(h[n] * h[m]), (n, m)


@pytest.mark.parametrize("call", [
    lambda p: hermite_limit(p, -1, 0, (10.0, 100.0)),
    lambda p: disc_limit(1.0, 0, -2, 0.0, (0.9, 0.99)),
    lambda p: realline_limit(2.0, 2, -1, 0.0, (0.3, 0.1)),
    lambda p: disc_reference(1.0, 0.0, -1, 3),
], ids=["hermite", "disc", "realline", "disc_reference"])
def test_negative_degrees_rejected(p21, call):
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        call(p21)


def test_reports_record_rule_sizes(p21):
    assert hermite_limit(p21, 3, 2, (10.0, 100.0)).extras["rule_nodes"] == [3, 6]
    assert disc_limit(1.0, 2, 2, 0.0, (0.9, 0.99)).extras["rule_nodes"] == [3, 6]
    real = realline_limit(2.0, 4, 4, 0.0, (0.3, 0.1))
    assert real.extras["rule_nodes"] == [5, 10]
    assert real.extras["oracle_nodes"] == 5


@pytest.mark.parametrize("alpha", [1e3, 1e4])
def test_closed_diagonals_at_large_alpha(alpha):
    """The recorded closed diagonals n! a^{2n}/(2+alpha)_n (disc) and
    (1+alpha)/(1+alpha+n) (2+2alpha)_n/n! (real line) are summed from
    log(. + j) terms, so they stay at roundoff where lgamma differences lost
    about eps * lgamma(alpha); against mpmath at 50 digits."""
    with mp.workdps(50):
        al = mp.mpf(alpha)
        for n in range(6):
            for a in (1.0, 1.5):
                got = disc_limit(a, n, n, alpha, (0.9 * a, 0.99 * a)).extras["closed_diagonal"]
                want = mp.factorial(n) * mp.mpf(a) ** (2 * n) / mp.rf(2 + al, n)
                assert abs(got - want) <= 1e-14 * want, (n, a)
            got = realline_limit(2.0, n, n, alpha, (0.3, 0.1)).extras["closed_diagonal"]
            want = (1 + al) / (1 + al + n) * mp.rf(2 + 2 * al, n) / mp.factorial(n)
            assert abs(got - want) <= 1e-14 * want, n


def test_disc_limit_past_the_double_range_raises():
    """The closed diagonal, the disc reference and the monic values are taken
    in logs: out of the double range they raise ValueError, not OverflowError
    and not nan, while degree 40 at the same radius stays finite."""
    with pytest.raises(ValueError, match="closed diagonal .* not finite"):
        disc_limit(1000.0, 60, 60, 0.0, (990.0, 999.0))
    with pytest.raises(ValueError, match="not finite"):
        disc_reference(1000.0, 0.0, 60, 60)
    rep = disc_limit(1000.0, 40, 40, 0.0, (990.0, 999.0))
    want = math.exp(math.lgamma(41) + 80 * math.log(1000.0) - math.lgamma(42))
    assert rep.extras["closed_diagonal"] == pytest.approx(want, rel=1e-13)
    assert rep.target.real == pytest.approx(want, rel=1e-12)
    assert all(math.isfinite(abs(v)) for v in rep.values)


@pytest.mark.parametrize("a", [10.0, 100.0])
@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_disc_limit_is_scale_free(a, alpha):
    """Residuals on the unit-disc scale: at radius a with b/a held fixed the
    verdicts are those at a = 1 and the diagonal residuals agree, where the
    unscaled residuals grew like a^(n+m)."""
    for n in range(5):
        for m in range(5):
            unit = disc_limit(1.0, n, m, alpha, (0.9, 0.99, 0.999))
            rep = disc_limit(a, n, m, alpha, (0.9 * a, 0.99 * a, 0.999 * a))
            assert rep.verdict == unit.verdict, (n, m)
            if n == m:
                for got, want in zip(rep.residuals, unit.residuals):
                    assert got == pytest.approx(want, rel=1e-9), n


@pytest.mark.parametrize("n", [216, 250])
def test_realline_limit_past_the_double_range_raises(n):
    """At alpha = 1000 the planar entries leave the double range from degree
    214 and the closed diagonal from degree 219: both raise ValueError, not
    OverflowError, with no numpy warning and no non-finite report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            realline_limit(2.0, n, n, 1000.0, (0.3, 0.1, 0.03))
