"""Extremal logarithmic derivatives (simple partial fractions) on [-1, 1].

Closed-form minimal-deviation fractions with a fixed pole, alternance and
pole-location verification, Cauchy/Borchardt determinant-permanent
machinery, derivative lower bounds for rooted polynomials, and an
alternance-certified minimax approximation solver.
"""

from .bernstein import (
    AsymptoticRatios,
    CorollaryReport,
    RootedPolynomial,
    asymptotic_ratios,
    check_corollary,
    random_rooted_polynomial,
    witness_ratio_empirical,
)
from .cauchy import (
    BorchardtReport,
    CauchyPair,
    KomarovDecomposition,
    NonvanishingReport,
    borchardt_batch,
    borchardt_check,
    cauchy_det_closed_form,
    komarov_coefficients,
    matrix_a,
    matrix_b,
    nonvanishing_witness,
    permanent_ryser,
    random_cauchy_pair,
)
from .cheb import (
    ChebKind,
    EllipseParam,
    PointLocation,
    cheb_t,
    cheb_u,
    chebyshev_points,
    ellipse_classify,
    eval_cheb,
    joukowski,
    solve_t_equals,
)
from .config import DEFAULTS, Config, load_config
from .errors import (
    DomainError,
    EvaluationError,
    SimplefracError,
    TheoremRangeError,
    ToleranceNotMetError,
)
from .extremal import (
    AlternanceReport,
    DvpBracket,
    FixedPoleClass,
    LambdaBounds,
    LogDerivative,
    NormEstimate,
    PoleAnnulusReport,
    UnweightedCandidateFraction,
    WeightedExtremalFraction,
    alternance_points_weighted,
    build_candidate_unweighted,
    build_extremal_weighted,
    dvp_bracket,
    eval_ld,
    extremal_weighted_norm,
    lambda_bounds,
    sup_norm,
    verify_pole_annulus,
    weighted_sup_norm,
)
from .minimax import (
    ApproxOptions,
    ApproxResult,
    CertificateReport,
    TargetFunction,
    certify_optimality,
    dvp_lower_bound,
    residual_alternance,
    solve_best_ld,
)
from .targets import SampledFunction, load_sampled_csv, parse_target

__version__ = "0.1.0"
