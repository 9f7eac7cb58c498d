"""Pure-birth continuous-time Markov chain model of infection spread.

Rate families, exact and asymptotic expected absorption times, numerical
Kolmogorov forward solutions, hypoexponential hitting-time laws, and
reproducible exact-event Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .analytic import (AbsorptionTimeReport, HittingTimeDistribution,
                       PowerLawTimeReport, expected_absorption_time,
                       harmonic_number, hitting_time_distribution,
                       powerlaw_expected_time)
from .errors import (CapRequired, MissingParameter, OutOfRange,
                     PureBirthError, RepeatedRates, StateOutOfRange,
                     ToleranceNotMet, WrongFamily)
from .forward import (DistributionSnapshot, SolverConfig,
                      absorption_probability, forward_grid,
                      forward_probabilities, mean_state)
from .montecarlo import (ExplosionReport, MonteCarloSummary, StateHistogram,
                         Trajectory, empirical_distribution_at,
                         estimate_absorption_time, explosion_study,
                         replicate_stream, simulate_path)
from .rates import (RateModel, build_rate_model, hypergeometric_mixing,
                    power_law, rate_at, rate_vector, yule_scaled)

__all__ = [
    "AbsorptionTimeReport", "CapRequired", "DistributionSnapshot",
    "ExplosionReport", "HittingTimeDistribution", "MissingParameter",
    "MonteCarloSummary", "OutOfRange", "PowerLawTimeReport",
    "PureBirthError", "RateModel", "RepeatedRates", "SolverConfig",
    "StateHistogram", "StateOutOfRange", "ToleranceNotMet", "Trajectory",
    "WrongFamily", "absorption_probability", "build_rate_model",
    "empirical_distribution_at", "estimate_absorption_time",
    "expected_absorption_time", "explosion_study", "forward_grid",
    "forward_probabilities", "harmonic_number", "hitting_time_distribution",
    "hypergeometric_mixing", "mean_state", "power_law",
    "powerlaw_expected_time", "rate_at", "rate_vector", "replicate_stream",
    "simulate_path", "yule_scaled",
]
