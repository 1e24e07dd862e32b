"""Ellipse geometry, conformal maps, and the measure families used throughout.

The domain is the open ellipse

    E = {z = x + iy : (x/a)^2 + (y/b)^2 < 1},   a > b > 0,

with focal distance c = sqrt(a^2 - b^2).  Every measure in this package is a
weight on E (or on the derived ellipse obtained from the quadratic map
w = c*(2*(z/c)^2 - 1)).  Densities are tracked relative to the normalized
area measure dA = d^2z / (pi*a*b), which assigns mass one to E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EllipseParams",
    "Measure",
    "MeasureKind",
    "make_params",
    "derived_params",
    "base_params",
    "ellipse_h",
    "focal_j",
    "elliptic_to_cartesian",
    "joukowsky",
    "quadratic_map",
    "inverse_quadratic_map",
    "weight_density",
    "area_measure",
    "b_minus_measure",
    "b_plus_measure",
    "chebyshev_t_measure",
    "chebyshev_v_measure",
    "chebyshev_w_measure",
    "flat_measure",
]


@dataclass(frozen=True)
class EllipseParams:
    """Semi-axes of an ellipse together with derived constants.

    Attributes
    ----------
    a, b : float
        Semi-major and semi-minor axis, a > b > 0.
    c : float
        Focal distance sqrt(a^2 - b^2); foci at +-c on the real axis.
    R : float
        Joukowsky radius ratio (a + b)/c = sqrt((a + b)/(a - b)).
    r : float
        Outer Joukowsky radius a + b; |w| in (c, r) sweeps E minus the
        focal segment.
    x_star : float
        (a^2 + b^2)/(a^2 - b^2), the argument at which the closed-form
        Gegenbauer norms are evaluated.  Satisfies (R^2 + R^-2)/2 = x_star.
    """

    a: float
    b: float
    c: float
    R: float
    r: float
    x_star: float


def make_params(a: float, b: float) -> EllipseParams:
    """Validate semi-axes and assemble an EllipseParams record."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"semi-axes must be finite, got a={a}, b={b}")
    if not (a > b > 0.0):
        raise ValueError(f"ellipse requires a > b > 0, got a={a}, b={b}")
    c = math.sqrt(a * a - b * b)
    return EllipseParams(
        a=a,
        b=b,
        c=c,
        R=(a + b) / c,
        r=a + b,
        x_star=(a * a + b * b) / (a * a - b * b),
    )


def derived_params(p: EllipseParams) -> EllipseParams:
    """Image of the ellipse under w = c*(2*(z/c)^2 - 1).

    The image is again an ellipse with semi-axes
    a~ = (a^2 + b^2)/c, b~ = 2ab/c and the same focal distance c.
    """
    return make_params((p.a * p.a + p.b * p.b) / p.c, 2.0 * p.a * p.b / p.c)


def base_params(p: EllipseParams) -> EllipseParams:
    """Preimage ellipse whose derived ellipse is p.

    Inverts derived_params: with c = sqrt(a^2 - b^2) of p,
    (a0 + b0)^2 = c*(a + b) and (a0 - b0)^2 = c*(a - b).  Every ellipse is
    a derived ellipse, so this never fails for valid params.
    """
    s = math.sqrt(p.c * (p.a + p.b))
    d = math.sqrt(p.c * (p.a - p.b))
    return make_params((s + d) / 2.0, (s - d) / 2.0)


def ellipse_h(p: EllipseParams, z):
    """h(z) = (Re z / a)^2 + (Im z / b)^2; the domain is {h < 1}."""
    z = np.asarray(z)
    return (z.real / p.a) ** 2 + (z.imag / p.b) ** 2


def focal_j(p: EllipseParams, w):
    """j(w) = (a/b^2)|c + w| - (c/b^2) Re(c + w).

    Satisfies 0 <= j < 1 on E and j = 1 on the boundary; under the
    quadratic map, 1 - h(z) = 1 - j(w(z)) on the derived ellipse.
    """
    w = np.asarray(w)
    return (p.a * np.abs(p.c + w) - p.c * (p.c + w.real)) / (p.b * p.b)


def elliptic_to_cartesian(p: EllipseParams, r, theta):
    """Map elliptic coordinates (r, theta) to z = a r cos(theta) + i b r sin(theta).

    r in [0, 1) covers the open ellipse; the area Jacobian is a*b*r.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return p.a * r * np.cos(theta) + 1j * p.b * r * np.sin(theta)


def joukowsky(p: EllipseParams, w):
    """z = (w + c^2/w)/2.  Maps the circle |w| = s (c < s <= a+b) to the
    confocal ellipse with semi-axes ((s + c^2/s)/2, (s - c^2/s)/2)."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("joukowsky map is singular at w = 0")
    return (w + p.c * p.c / w) / 2.0


def quadratic_map(p: EllipseParams, z) -> tuple:
    """w = c*(2*(z/c)^2 - 1) together with the parameters of the image ellipse."""
    z = np.asarray(z, dtype=complex)
    w = p.c * (2.0 * (z / p.c) ** 2 - 1.0)
    return w, derived_params(p)


def inverse_quadratic_map(p: EllipseParams, w):
    """Principal branch z = c*sqrt((w + c)/(2c)), Re z >= 0.

    Here p describes the *base* ellipse (the preimage); w lives on its
    derived ellipse.  The branch cut is the real ray {Im w = 0, Re w < -c};
    points on the cut are rejected since both square roots are equally valid
    there.
    """
    w = np.asarray(w, dtype=complex)
    on_cut = (w.imag == 0.0) & (w.real < -p.c)
    if np.any(on_cut):
        raise ValueError("inverse quadratic map is not defined on the cut Re(w) < -c, Im(w) = 0")
    return p.c * np.sqrt((w + p.c) / (2.0 * p.c))


class MeasureKind(Enum):
    AREA_ALPHA = "area_alpha"
    B_MINUS = "b_minus"
    B_PLUS = "b_plus"
    CHEBYSHEV_T = "chebyshev_t"
    CHEBYSHEV_V = "chebyshev_v"
    CHEBYSHEV_W = "chebyshev_w"


# measures that carry an alpha parameter
_ALPHA_KINDS = {MeasureKind.AREA_ALPHA, MeasureKind.B_MINUS, MeasureKind.B_PLUS}


@dataclass(frozen=True)
class Measure:
    """A weight on the ellipse, in one of two bookkeeping conventions.

    normalized=True uses the probability normalizations: dA_alpha for
    AREA_ALPHA, dB_alpha^-/dB_alpha^+ for the mapped-Jacobi weights (all of
    mass one), and d^2z/(pi*a*b*...) for the Chebyshev weights.

    normalized=False is the flat-d^2z convention: the bare densities
    (1 - h)^alpha d^2z (plain d^2z at alpha = 0), d^2z/|z^2 - c^2|,
    d^2z/|c + z|, d^2z/|c - z|.
    Chebyshev closed norms are classically quoted in this convention.
    """

    kind: MeasureKind
    params: EllipseParams
    alpha: float | None = None
    normalized: bool = True

    def __post_init__(self):
        if self.kind in _ALPHA_KINDS:
            if self.alpha is None:
                raise ValueError(f"{self.kind.value} measure requires alpha")
            if not self.alpha > -1.0:
                raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind.value} measure takes no alpha")

    @property
    def flat_factor(self) -> float:
        """Total factor converting the normalized form to the flat-d^2z form."""
        p, al = self.params, self.alpha
        if self.kind == MeasureKind.AREA_ALPHA:
            return math.pi * p.a * p.b / (1.0 + al)
        if self.kind == MeasureKind.B_MINUS:
            return 2.0 * math.pi * p.b / (1.0 + al)
        if self.kind == MeasureKind.B_PLUS:
            return 2.0 * math.pi * p.a * p.b / ((1.0 + al) * (2.0 + al))
        # Chebyshev: normalized form is defined as flat / (pi a b)
        return math.pi * p.a * p.b


def area_measure(params: EllipseParams, alpha: float, normalized: bool = True) -> Measure:
    """dA_alpha = (1 + alpha)(1 - h(z))^alpha dA (normalized), or (1-h)^alpha d^2z (flat)."""
    return Measure(MeasureKind.AREA_ALPHA, params, float(alpha), normalized)


def b_minus_measure(params: EllipseParams, alpha: float, normalized: bool = True) -> Measure:
    """dB_alpha^- = (1+alpha)/(2 pi b) (1 - j(w))^alpha / |c + w| d^2w on params."""
    return Measure(MeasureKind.B_MINUS, params, float(alpha), normalized)


def b_plus_measure(params: EllipseParams, alpha: float, normalized: bool = True) -> Measure:
    """dB_alpha^+ = (1+alpha)(2+alpha)/(2 pi a b) (1 - j(w))^alpha d^2w on params."""
    return Measure(MeasureKind.B_PLUS, params, float(alpha), normalized)


def chebyshev_t_measure(params: EllipseParams, normalized: bool = False) -> Measure:
    """d^2z / |z^2 - c^2| (flat convention by default)."""
    return Measure(MeasureKind.CHEBYSHEV_T, params, None, normalized)


def chebyshev_v_measure(params: EllipseParams, normalized: bool = False) -> Measure:
    """d^2z / |c - z|, the weight under which the third-kind family is orthogonal."""
    return Measure(MeasureKind.CHEBYSHEV_V, params, None, normalized)


def chebyshev_w_measure(params: EllipseParams, normalized: bool = False) -> Measure:
    """d^2z / |c + z|, the weight under which the fourth-kind family is orthogonal."""
    return Measure(MeasureKind.CHEBYSHEV_W, params, None, normalized)


def flat_measure(params: EllipseParams, normalized: bool = False) -> Measure:
    """Unweighted d^2z (flat) or dA = d^2z/(pi a b): the alpha = 0 area weight."""
    return area_measure(params, 0.0, normalized)


def weight_density(m: Measure, z) -> float:
    """Density of the measure at an interior point z, relative to dA = d^2z/(pi a b).

    Raises for points outside the open domain and at non-integrable
    singular points (the foci for the Chebyshev weights).
    """
    p = m.params
    z = complex(z)
    if ellipse_h(p, z) >= 1.0:
        raise ValueError(f"point {z} is not inside the open ellipse")
    if m.kind == MeasureKind.AREA_ALPHA:
        base = (1.0 - ellipse_h(p, z)) ** m.alpha
    elif m.kind == MeasureKind.B_MINUS:
        if z == -p.c:
            raise ValueError("B^- weight is singular at w = -c")
        base = (1.0 - focal_j(p, z)) ** m.alpha / abs(p.c + z)
    elif m.kind == MeasureKind.B_PLUS:
        base = (1.0 - focal_j(p, z)) ** m.alpha
    elif m.kind == MeasureKind.CHEBYSHEV_T:
        if z == p.c or z == -p.c:
            raise ValueError("Chebyshev-T weight is singular at the foci")
        base = 1.0 / abs(z * z - p.c * p.c)
    elif m.kind == MeasureKind.CHEBYSHEV_V:
        if z == p.c:
            raise ValueError("Chebyshev-V weight is singular at z = c")
        base = 1.0 / abs(p.c - z)
    else:
        if z == -p.c:
            raise ValueError("Chebyshev-W weight is singular at z = -c")
        base = 1.0 / abs(p.c + z)
    # base is the flat d^2z density, and d^2z = pi a b dA
    flat = math.pi * p.a * p.b * base
    return flat / m.flat_factor if m.normalized else flat
