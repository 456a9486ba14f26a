"""Variance-optimal hedging for exponential-Lévy models.

Closed-form initial capital, hedge ratios and exact hedging-error
variance for European claims under discrete or continuous rebalancing,
via transform representations of the payoff and contour quadrature, with
a Monte Carlo backtester that independently verifies every number.
"""

from .models import (
    Gaussian,
    Hyperbolic,
    LevyModelSpec,
    MertonJD,
    MomentStrip,
    NIG,
    UnsupportedModelError,
    VG,
    cumulant,
    cumulant_derivatives,
    gaussian_benchmark,
    mgf_step,
    no_arbitrage_check,
    sample_increment,
    sample_increments,
    strip_of_finiteness,
)
from .numerics import (
    ContourSpec,
    DomainError,
    QuadratureResult,
    bessel_k1,
    beta,
    double_contour_integrate,
    log_gamma,
)
from .payoffs import (
    Line,
    PointMass,
    QuadratureWarning,
    TransformMeasure,
    abscissa_admissible,
    call,
    call_low_moment,
    digital,
    evaluate_payoff,
    log_contract,
    power_call,
    power_call_fractional,
    put,
    self_quanto_call,
)
from .hedge import (
    ContinuousHedgeCoefficients,
    DiscreteHedgeCoefficients,
    DiscreteHedgeState,
    FixedCapitalStrategy,
    ForbiddenJumpError,
    GainsPathResult,
    NegativeCapitalWarning,
    NegativeVarianceError,
    coefficients,
    coefficients_ct,
    error_variance,
    error_variance_ct,
    gains_explicit,
    initial_capital,
    initial_capital_ct,
    mean_variance_tradeoff,
    phi_ct,
    phi_step,
    price_process,
    price_process_ct,
    risk_min_fixed_capital,
    xi,
    xi_ct,
)
from .simulate import (
    BacktestReport,
    PathGrid,
    backtest_continuous_approx,
    backtest_discrete,
    simulate_paths,
)

__version__ = "0.1.0"
