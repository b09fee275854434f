"""Football tournament forecasting with zero-inflated generalized Poisson models.

Pipeline: replay Elo over match history, fit weighted per-team goal
regressions, forecast exact scores through a nested two-stage model,
and Monte Carlo a full EURO-format tournament.
"""

from .elo import DEFAULT_K_FACTORS, EloRating, expected_score, goal_multiplier, replay_history
from .errors import (
    ConfigError,
    DataError,
    FileAccessError,
    FitError,
    InsufficientDataError,
    ParameterError,
)
from .forecast import MatchForecast, score_grid
from .metrics import OutcomeDistribution, brier, distributions_from_aggregate, mld, rps
from .regression import (
    FitConfig,
    RegressionCoefficients,
    TeamModel,
    chi_square_gof,
    fit_team_models,
)
from .tournament import Fixture, SimulationAggregate, monte_carlo
from .weights import WeightConfig, match_weight

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DEFAULT_K_FACTORS",
    "EloRating",
    "FileAccessError",
    "FitConfig",
    "FitError",
    "Fixture",
    "InsufficientDataError",
    "MatchForecast",
    "OutcomeDistribution",
    "ParameterError",
    "RegressionCoefficients",
    "SimulationAggregate",
    "TeamModel",
    "WeightConfig",
    "brier",
    "chi_square_gof",
    "distributions_from_aggregate",
    "expected_score",
    "fit_team_models",
    "goal_multiplier",
    "match_weight",
    "mld",
    "monte_carlo",
    "replay_history",
    "rps",
    "score_grid",
]
