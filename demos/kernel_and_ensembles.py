#!/usr/bin/env python3
"""Bergman kernel, contour identity, Turan determinant, Heine average.

Four shorter stories that round out the library:

  * the truncated Bergman kernel reproduces polynomials of lower degree;
  * a contour integral around the ellipse ties the first-kind family to
    the planar norms (diagonal in n, with a q-power closed value);
  * the normalized Turan determinant vanishes only at x = +-1, which is
    the obstruction to any finite-band recurrence under a point charge;
  * the Heine identity: the determinantal N-point average of
    prod_i (z - z_i) equals the monic orthogonal polynomial.
"""

import numpy as np

from ellipoly import (
    area_measure,
    bergman_kernel,
    build_rule,
    contour_check,
    heine_check,
    make_params,
    turan_determinant,
)

LINE = "-" * 72
ALPHA = 0.0


def main():
    p = make_params(2.0, 1.0)

    print("truncated kernel reproduces low-degree polynomials:")
    rule = build_rule(area_measure(p, ALPHA))

    def f(z):
        return z ** 3 - 0.5 * z + 2j

    for w0 in (0.3 + 0.1j, -1.2 + 0.4j):
        # <f, K_6(., w0)> against the rule: sum of w_k f(z_k) conj(K_6(z_k, w0))
        K = bergman_kernel(ALPHA, p, 6, rule.nodes, w0)
        got = complex(np.sum(rule.weights * f(rule.nodes) * np.conj(K)))
        print(f"  w = {w0}:  |K_6 f - f| = {abs(got - f(w0)):.3e}")
    print(LINE)

    print("contour identity (trapezoid is exact for Laurent polynomials):")
    q2 = (p.r / p.c) ** 2
    for n in (0, 1, 4):
        got = contour_check(p, n, n)
        want = 1j * np.pi * (n + 1) / 2.0 * (q2 ** (n + 1) - q2 ** -(n + 1))
        print(f"  n=m={n}: {got:.6f}  closed {want:.6f}"
              f"  |diff| = {abs(got - want):.3e}")
    off = max(abs(contour_check(p, n, m))
              for n in range(4) for m in range(4) if n != m)
    print(f"  off-diagonal max |I(n,m)| = {off:.3e}")
    print(LINE)

    print("Turan determinant Delta_l(x), alpha = 0:")
    for x in (1.0, -1.0, 0.3, p.x_star):
        vals = [turan_determinant(ALPHA, l, x) for l in (1, 3, 5)]
        tag = " <- x* (nonzero: no finite band)" if x == p.x_star else ""
        print(f"  x = {x:+.6f}: " + " ".join(f"{v:+.3e}" for v in vals) + tag)
    print("  (interior values are positive; beyond |x|=1 the sign is free,")
    print("   only the magnitude matters for the recurrence obstruction)")
    print(LINE)

    print("Heine ensemble average vs monic polynomial (max grid deviation):")
    for N in (1, 2):
        dev = heine_check(ALPHA, p, N)
        print(f"  N={N}: {dev:.3e}")
    dev = heine_check(1.5, make_params(1.3, 0.6), 2)
    print(f"  N=2 on a=1.3, b=0.6 at alpha=1.5: {dev:.3e}")


if __name__ == "__main__":
    main()
