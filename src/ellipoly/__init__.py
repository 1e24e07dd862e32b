"""Planar orthogonal polynomials on weighted elliptic domains.

Closed-form norms, quadrature, Gram verification, Bergman kernels,
Christoffel transforms, multiplication-matrix bandwidth analysis, a
complex-plane Selberg integral, and three limiting regimes.
"""

__version__ = "0.1.0"

from .bergman import (
    ChristoffelBasis,
    GegenbauerBasis,
    HessenbergMatrix,
    bandwidth,
    bergman_kernel,
    christoffel_entry_closed,
    christoffel_norm_monic,
    christoffel_values,
    heine_check,
    hessenberg,
    orthonormal_values,
    turan_determinant,
)
from .geometry import (
    EllipseParams,
    Measure,
    MeasureKind,
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
    focal_j,
    inverse_quadratic_map,
    joukowsky,
    make_params,
    quadratic_map,
    weight_density,
)
from .limits import (
    LimitRegime,
    LimitReport,
    disc_limit,
    disc_reference,
    hermite_limit,
    realline_constant,
    realline_limit,
)
from .norms import (
    GramResult,
    canonical_measure,
    closed_norm,
    gram_matrix,
    gram_schmidt,
    log_monic_norm,
    monic_factor,
    monic_norm,
)
from .polynomials import (
    FamilyKind,
    PolynomialFamily,
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
    gegenbauer_norm,
    hermite,
    jacobi_half,
    legendre,
    recurrence_coeffs,
)
from .quadrature import (
    QuadratureRule,
    build_rule,
    contour_check,
    moment,
    moment_table,
)
from .selberg import (
    SelbergResult,
    selberg_closed,
    selberg_compare,
    selberg_direct,
    selberg_product,
)
from .verification import CheckResult, run_all
