"""Finite or raise: over one grid of parameters, ellipses and degrees, each
public route returns a finite value or raises ValueError, with no warning.

The grid reaches past the double range on purpose (alpha = 300, n = 2000,
the near-circle (1, 1 - 1e-9) and the near-segment (1, 1e-6)); a silent inf
or nan is the failure.  A raise is accepted here, premature or not.
"""

import cmath

import pytest

from ellipoly import (
    chebyshev_t,
    chebyshev_u,
    chebyshev_v,
    chebyshev_w,
    closed_norm,
    eval_family,
    gegenbauer,
    jacobi_half,
    legendre,
    make_params,
    turan_determinant,
)

ALPHAS = (-0.9, 0.0, 3.0, 300.0)
ELLIPSES = ((2.0, 1.0), (1.0, 0.9), (1.0, 1.0 - 1e-9), (1000.0, 1.0), (1.0, 1e-6))
DEGREES = (10, 100, 700, 2000)


def _families(alpha):
    return (gegenbauer(alpha), legendre(), chebyshev_t(), chebyshev_u(), chebyshev_v(),
            chebyshev_w(), jacobi_half(alpha, -1), jacobi_half(alpha, 1))


# route name -> (alpha, p, n) -> [(label, call)]
ROUTES = {
    "closed_norm": lambda alpha, p, n: [
        (fam, lambda fam=fam: closed_norm(fam, p, n)) for fam in _families(alpha)],
    "turan_determinant": lambda alpha, p, n: [
        (x, lambda x=x: turan_determinant(alpha, n, x)) for x in (p.x_star, 0.37)],
    "eval_family": lambda alpha, p, n: [
        (fam, lambda fam=fam: eval_family(fam, n, complex(0.3 * p.a, 0.2 * p.b) / p.c))
        for fam in _families(alpha)],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_call_is_finite_or_raises(route, alpha):
    silent = []
    for a, b in ELLIPSES:
        p = make_params(a, b)
        for n in DEGREES:
            for label, call in ROUTES[route](alpha, p, n):
                try:
                    value = call()
                except ValueError:
                    continue
                if not cmath.isfinite(value):
                    silent.append((label, (a, b), n, value))
    assert not silent, f"{len(silent)} silent non-finite values, first {silent[:3]}"
