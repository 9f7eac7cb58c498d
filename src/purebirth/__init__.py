"""Pure-birth continuous-time Markov chain model of infection spread.

Rate families, exact and asymptotic expected absorption times, numerical
Kolmogorov forward solutions, hypoexponential hitting-time laws, and
reproducible exact-event Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .analytic import (AbsorptionTimeReport, HittingTimeDistribution,
                       expected_absorption_time, hitting_time_distribution)
from .errors import (MissingParameter, OutOfRange, PureBirthError,
                     StateOutOfRange, ToleranceNotMet)
from .forward import (DistributionSnapshot, SolverConfig, forward_grid,
                      forward_probabilities, mean_state)
from .montecarlo import (MonteCarloSummary, StateHistogram, Trajectory,
                         empirical_distribution_at, estimate_absorption_time,
                         simulate_path)
from .rates import (RateModel, build_rate_model, hypergeometric_mixing,
                    power_law, rate_vector, yule_scaled)

__all__ = [
    "AbsorptionTimeReport", "DistributionSnapshot",
    "HittingTimeDistribution", "MissingParameter", "MonteCarloSummary",
    "OutOfRange", "PureBirthError", "RateModel", "SolverConfig",
    "StateHistogram", "StateOutOfRange", "ToleranceNotMet", "Trajectory",
    "build_rate_model", "empirical_distribution_at",
    "estimate_absorption_time", "expected_absorption_time", "forward_grid",
    "forward_probabilities", "hitting_time_distribution",
    "hypergeometric_mixing", "mean_state", "power_law", "rate_vector",
    "simulate_path", "yule_scaled",
]
