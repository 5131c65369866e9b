"""Numerics for the conformally invariant logarithmic energy on the n-sphere:
spectral multipliers, conformal-map machinery, the log-Sobolev deficit, and
moving-spheres diagnostics."""

from .conformal import (
    ConformalMap,
    ExtremizerParams,
    LiftedInversion,
    LiftedReflection,
    Moebius,
    PoleError,
    SigmaRegion,
    antisymmetry_defect,
    apply_map,
    cap_points,
    extremizer,
    inverse_stereographic,
    jacobian,
    kernel_l,
    map_with_jacobian,
    region_of,
    sample_region,
    stereographic,
)
from .dynamics import (
    FitResult,
    FlowResult,
    MovingSphereReport,
    critical_alpha,
    critical_lambda,
    deficit_gradient,
    deficit_value,
    fit_extremizer,
    minimize_deficit,
    moving_sphere_profile,
    random_positive_init,
)
from .energy import (
    DeficitReport,
    ELResidual,
    beckner_deficit,
    beckner_rhs,
    constant_Cn,
    el_residual,
    energy_direct,
    energy_direct_extrapolated,
    energy_spectral,
    gibbs_gap,
    verify_conf_E,
    verify_conf_H,
)
from .harmonics import (
    HarmonicCoeffs,
    analyze,
    apply_H,
    apply_P2s,
    as_evaluable,
    evaluate_at,
    evaluate_on_grid,
    h_multiplier_table,
    multiplier_H,
    multiplier_P2s,
    pv_apply_H,
    random_coeffs,
    synthesize,
)
from .specfun import digamma, ln_gamma
from .sphere import (
    GridFunction,
    QuadratureGrid,
    build_grid,
    integrate,
    north_pole,
    sphere_area,
    sphere_point,
)

__version__ = "0.1.0"
