"""Pure-birth continuous-time Markov chain model of infection spread.

Rate families, exact and asymptotic expected absorption times, numerical
Kolmogorov forward solutions, hypoexponential hitting-time laws, and
reproducible exact-event Monte Carlo simulation.

``import purebirth`` loads none of its modules: each name below is imported
from its module the first time it is used (PEP 562), and then bound here.
So building a model loads ``rates`` and ``errors`` only, and an engine
module loads with the first of its names that a call uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "analytic": ("AbsorptionTimeReport", "HittingTimeDistribution",
                 "expected_absorption_time", "hitting_time_distribution"),
    "errors": ("MissingParameter", "OutOfRange", "PureBirthError",
               "StateOutOfRange", "ToleranceNotMet"),
    "forward": ("DistributionSnapshot", "SolverConfig", "forward_grid",
                "forward_probabilities", "mean_state"),
    "montecarlo": ("MonteCarloSummary", "StateHistogram", "Trajectory",
                   "empirical_distribution_at", "estimate_absorption_time",
                   "simulate_path"),
    "rates": ("RateModel", "build_rate_model", "hypergeometric_mixing",
              "power_law", "rate_vector", "yule_scaled"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # later lookups find the name here and do not come back
    globals()[name] = value
    return value


def __dir__():
    return __all__
