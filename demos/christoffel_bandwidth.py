#!/usr/bin/env python3
"""Multiplication-matrix bandwidth, before and after a Christoffel transform.

The plain orthonormal basis satisfies a three-term recurrence: the
multiplication-by-z matrix is tridiagonal (bandwidth 2).  Inserting one
point charge, weight |v - z|^2 dA_alpha, destroys this: the transformed
Hessenberg matrix has no finite band at any reasonable tolerance, although
the below-band entries do decay geometrically with the aspect ratio.

One exception is worth seeing up close.  At v = 1.5 on the a=2, b=1
ellipse, v/c = cos(pi/6) is a zero of the degree-5 second-kind Chebyshev
polynomial, so the degree-5 orthonormal polynomial vanishes at the charge
and a single column of the matrix collapses to rounding level.
"""

import numpy as np

from ellipoly import (
    ChristoffelBasis,
    GegenbauerBasis,
    bandwidth,
    bergman_kernel,
    christoffel_entry_closed,
    hessenberg,
    make_params,
    orthonormal_values,
)

LINE = "-" * 72
ALPHA = 0.0


def column_profile(H, n):
    col = np.abs(H.entries[: n + 2, n])
    below = col[: n - 1] if n >= 1 else col[:0]
    return float(below.max()) if below.size else 0.0


def main():
    p = make_params(2.0, 1.0)
    nmax = 9

    plain = hessenberg(GegenbauerBasis(ALPHA, p), nmax)
    print("plain Gegenbauer basis:")
    print(f"  bandwidth at tol 1e-10 : {bandwidth(plain, 1e-10)}  (tridiagonal)")
    print(LINE)

    for v in (1.5, 1.6):
        basis = ChristoffelBasis(ALPHA, p, v)
        H = hessenberg(basis, nmax)
        print(f"charged weight |{v} - z|^2 dA,  bandwidth at tol 1e-6: "
              f"{bandwidth(H, 1e-6)}  (= nmax: no finite band)")
        print("  largest below-band entry per column:")
        for n in range(4, nmax):
            print(f"    n={n}: {column_profile(H, n):.3e}")
        print()

    print("why column 4 collapses at v=1.5: p_5(v) sits at rounding level")
    for v in (1.5, 1.6):
        p5 = orthonormal_values(ALPHA, p, 5, complex(v))[5]
        print(f"  v={v}: |p_5(v)| = {abs(p5):.3e}")
    print(LINE)

    # Below-band entries have a closed form in kernel and charge values;
    # the default matrix is one shifted QR step of the plain one, and
    # Arnoldi on the charged quadrature rule checks both.
    basis = ChristoffelBasis(ALPHA, p, 1.6)
    for label, strategy in (("QR step", "closed"), ("quadrature", "quadrature")):
        H = hessenberg(basis, nmax, strategy=strategy)
        worst = max(abs(christoffel_entry_closed(basis, l, n) - H.entries[l, n])
                    for n in range(2, nmax) for l in range(n - 1))
        print(f"closed-form vs {label} below-band entries (v=1.6): {worst:.3e}")

    # The decay rate of the off-band mass tracks the aspect ratio b/a.
    print("total below-band mass shrinks as the ellipse flattens (v=1.5):")
    for b in (0.5, 0.1, 0.02):
        q = make_params(2.0, b)
        basis = ChristoffelBasis(ALPHA, q, 1.5)
        Hq = hessenberg(basis, nmax)
        mass = max(column_profile(Hq, n) for n in range(2, nmax))
        print(f"  b={b}: {mass:.3e}")

    # Sanity: the kernel ladder kappa_N(v, v) is flat exactly where p_5(v)=0.
    k = [bergman_kernel(ALPHA, p, N, 1.5, 1.5).real for N in range(4, 8)]
    steps = np.diff(k)
    print(LINE)
    print("kernel ladder kappa_N(1.5, 1.5) increments for N=4..7:",
          " ".join(f"{s:.3e}" for s in steps))


if __name__ == "__main__":
    main()
