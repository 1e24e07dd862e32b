#!/usr/bin/env python3
"""Three degenerations of the weighted ellipse, with convergence tables.

  hermite   alpha -> infinity at fixed geometry: rescaled inner products
            collapse onto Hermite-style diagonal targets at rate O(1/alpha);
  disc      b -> a at fixed alpha: monic polynomials degenerate to
            monomials and the Gram entries approach disc moments;
  realline  b -> 0 at fixed alpha: the planar pairing collapses onto the
            classical real-line Gegenbauer orthogonality with weight
            (1-x^2)^(alpha+1/2).

Each regime is checked against an independently computed target and, where
useful, a closed-form constant.
"""

import math

import numpy as np

from ellipoly import (
    disc_limit,
    disc_reference,
    hermite_limit,
    make_params,
    realline_constant,
    realline_limit,
)

LINE = "-" * 72


def show(report, label):
    print(f"{label}  target = {report.target:.6g}")
    for t, v, r in zip(report.parameters, report.values, report.residuals):
        print(f"    param {t:12.6g}   value {v.real:16.9g}   residual {r:10.3e}")
    print(f"    verdict: {'converged' if report.verdict else 'NOT converged'}"
          f" (tol {report.tolerance:g})")


def main():
    p = make_params(2.0, 1.0)

    print("hermite regime (alpha -> infinity), diagonal n=m=1:")
    r = hermite_limit(p, 1, 1, [10.0, 100.0, 1000.0])
    show(r, "  I_11 -> pi 1! a b (2 x*)")
    exact = math.pi * p.a * p.b * 2.0 * p.x_star
    print(f"    closed target check: {exact:.12f} = 20 pi / 3")
    print("  off-diagonal (0,2): target is zero, residuals are noise")
    r = hermite_limit(p, 0, 2, [10.0, 100.0, 1000.0])
    print("    residuals:", " ".join(f"{x:.2e}" for x in r.residuals),
          f"(floor {r.noise_floor:g})")
    print(LINE)

    print("disc regime (b -> a), monic Gram vs disc moments, a = 2;")
    print("absolute residual on the unit-disc scale, |value - target| a^-(n+m),")
    print("decays like n(1 - b/a), so higher degrees need b pushed closer to a:")
    for n, bs in ((1, [1.6, 1.9, 1.99, 1.999]),
                  (3, [1.9, 1.99, 1.999, 1.9999, 1.99995])):
        r = disc_limit(2.0, n, n, 0.5, bs)
        show(r, f"  <ptilde_{n}, ptilde_{n}>")
    ref = disc_reference(2.0, 0.5, 3, 3)
    closed = 4.0 ** 3 * math.gamma(4) * math.gamma(2.5) / math.gamma(5.5)
    print(f"  disc reference n=3: quadrature {ref.real:.12f}"
          f" vs closed {closed:.12f}")
    print(LINE)

    print("realline regime (b -> 0), alpha = 1, a = 2:")
    for n, m in ((2, 2), (1, 3)):
        r = realline_limit(2.0, n, m, 1.0, [0.5, 0.2, 0.05, 0.01])
        kind = "diagonal" if n == m else "off-diagonal"
        show(r, f"  <C_{n}, C_{m}> ({kind})")
    c = realline_constant(1.0)
    quad = float(np.trapezoid((1 - np.linspace(0, 1, 200001) ** 2),
                              np.linspace(0, 1, 200001)))
    print(f"  collapse constant alpha=1: closed {c:.12f}"
          f" vs integral of (1-t^2) on [0,1] = {quad:.12f}")


if __name__ == "__main__":
    main()
