"""Arbitrage-free randomization of implied-volatility parametrizations.

Replaces one parameter of a base parametrization (or the spot itself)
with a moment-matched discrete mixture, prices as the convex combination
of Black-Scholes values, and recovers the implied-vol surface either by
root finding or through analytic Taylor expansions around the forward.
"""
from .arbitrage import (
    ArbReport,
    SliceSet,
    check_butterfly,
    check_calendar,
    default_strike_grid,
    interp_total_variance,
)
from .calibration import (
    FitConfig,
    FitResult,
    Quote,
    QuoteSet,
    fit_slice,
    fit_surface,
    select_liquid,
    variance_of_randomizer,
)
from .expansion import evaluate_polynomial
from .parametrizations import (
    FlatParams,
    RandomizerSpec,
    SabrParams,
    SliceParams,
    hagan_vol,
    params_from_json,
    params_to_json,
)
from .pricing import (
    MarketContext,
    OptionKey,
    OptionType,
    bs_price,
    implied_vol_brent,
    log_moneyness,
)
from .errors import RandvolError
from .quadrature import (
    DiscreteGiven,
    Gamma,
    LogNormal,
    QuadratureRule,
    SpotLogNormal,
    moments,
    quadrature_for,
)
from .randomization import (
    DensityCurve,
    RandomizedSlice,
    density,
    expansion_coefficients,
    implied_vol_grid,
    randomize,
    randomized_iv,
    randomized_price,
    randomized_prices,
)

__version__ = "0.1.0"
