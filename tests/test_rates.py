import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import purebirth
from purebirth import errors
from purebirth import (MissingParameter, OutOfRange,
                       RateModel, SolverConfig, StateOutOfRange,
                       build_rate_model,
                       empirical_distribution_at, estimate_absorption_time,
                       expected_absorption_time, forward_grid,
                       forward_probabilities, hitting_time_distribution,
                       hypergeometric_mixing, power_law, rate_vector,
                       simulate_path, yule_scaled)
from purebirth.montecarlo import event_time_blocks
from scalar_oracles import rate_list


# per family: its constructor, and for each of its keys in build_rate_model
# the RateModel field and a valid value, in the constructor's order
FAMILIES = {
    "hypergeometric": (hypergeometric_mixing, {
        "N": ("population", 10), "lambda": ("contact_rate", 2.0),
        "p": ("transmission_prob", 0.3)}),
    "yule": (yule_scaled, {
        "N": ("population", 10), "mu": ("per_capita_rate", 1.0),
        "p": ("transmission_prob", 0.3)}),
    "powerlaw": (power_law, {
        "c": ("coefficient", 1.0), "exponent": ("exponent", 2.0),
        "cap": ("state_cap", 10)}),
}


def three_ways(family, **values):
    """Builders of one model by its constructor, by build_rate_model and
    by RateModel(...), from the given values by key and valid others."""
    constructor, keys = FAMILIES[family]
    values = {key: values.get(key, valid) for key, (_, valid) in keys.items()}
    fields = {field: values[key] for key, (field, _) in keys.items()}
    return [lambda: constructor(*values.values()),
            lambda: build_rate_model({"family": family, **values}),
            lambda: RateModel(family, **fields)]


class TestBuildRateModel:
    def test_minimal_hypergeometric(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_vector(model).size == 3
        assert model.absorbing_state == 4

    def test_population_of_one_rejected(self):
        with pytest.raises(OutOfRange):
            hypergeometric_mixing(1, 1.0, 1.0)

    def test_powerlaw_without_cap_rejected(self):
        # the cap had an exception class of its own, CapRequired
        for build in (lambda: power_law(1.0, 2.0),
                      lambda: build_rate_model(
                          {"family": "powerlaw", "c": 1.0, "exponent": 2.0})):
            with pytest.raises(MissingParameter, match="^cap is required "
                                                       "for the powerlaw "
                                                       "family$"):
                build()

    def test_missing_parameters(self):
        with pytest.raises(MissingParameter):
            build_rate_model({"family": "yule", "N": 10, "p": 0.5})
        with pytest.raises(MissingParameter):
            build_rate_model({"family": "hypergeometric", "N": 10, "p": 0.5})
        with pytest.raises(MissingParameter):
            build_rate_model({"N": 10, "p": 0.5})

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_transmission_prob_out_of_range(self, p):
        with pytest.raises(OutOfRange):
            hypergeometric_mixing(10, 1.0, p)

    def test_certain_transmission_allowed(self):
        assert hypergeometric_mixing(10, 1.0, 1.0).transmission_prob == 1.0

    @pytest.mark.parametrize("rate", [0.0, -2.0])
    def test_nonpositive_rates_rejected(self, rate):
        with pytest.raises(OutOfRange):
            hypergeometric_mixing(10, rate, 0.5)
        with pytest.raises(OutOfRange):
            yule_scaled(10, rate, 0.5)
        with pytest.raises(OutOfRange):
            power_law(rate, 2.0, 100)

    @pytest.mark.parametrize("family, key, value", [
        ("hypergeometric", "lambda", math.nan),
        ("hypergeometric", "lambda", math.inf),
        ("hypergeometric", "p", math.nan),
        ("hypergeometric", "N", math.inf),
        ("yule", "mu", math.inf),
        ("yule", "mu", math.nan),
        ("powerlaw", "c", math.inf),
        ("powerlaw", "exponent", math.nan),
        ("powerlaw", "exponent", -math.inf),
        ("powerlaw", "cap", math.nan),
    ])
    def test_non_finite_input_rejected(self, family, key, value):
        spec = {"hypergeometric": {"N": 10, "lambda": 1.0, "p": 0.5},
                "yule": {"N": 10, "mu": 1.0, "p": 0.5},
                "powerlaw": {"c": 1.0, "exponent": 2.0, "cap": 10}}[family]
        with pytest.raises(OutOfRange):
            build_rate_model({"family": family, **spec, key: value})

    @pytest.mark.parametrize("build", [
        lambda: yule_scaled(10, 1e308, 1.0),
        lambda: hypergeometric_mixing(10, 1e308, 1.0),
        lambda: power_law(1e308, 2.0, 10),
        lambda: power_law(1.0, 400.0, 10),     # 9.0 ** 400 raises
    ], ids=["yule", "hypergeometric", "powerlaw-c", "powerlaw-exponent"])
    def test_overflowing_largest_rate_rejected(self, build):
        with pytest.raises(OutOfRange):
            build()

    @pytest.mark.parametrize("build, smallest", [
        (lambda: power_law(1.0, -400.0, 10), 0.0),   # 9 ** -400 underflows
        (lambda: power_law(2.0 ** -1073, 1.0, 5), 2.0 ** -1073),  # subnormal
        (lambda: power_law(6e-309, 1.0, 3), 6e-309),
        (lambda: power_law(1e-306, 0.0, 2000), 1e-306),
        # m / lambda_min = 2e307 is finite, but a draw of -ln U = 18 is not
        (lambda: power_law(1e-307, 1.0, 3), 1e-307),
        (lambda: hypergeometric_mixing(10 ** 6, 1e-300, 1.0), 2e-306 / 1e6),
    ], ids=["zero", "subnormal", "two-states", "many-states", "largest-draw",
            "mixing"])
    def test_overflowing_holding_time_rejected(self, build, smallest):
        # 37 m / lambda_min overflows: a sampled absorption time could
        with pytest.raises(OutOfRange) as error:
            build()
        message = str(error.value)
        assert message.startswith("a holding time overflows a float: the "
                                  "smallest rate is ")
        assert float(message.rsplit(" ", 1)[1]) == pytest.approx(
            smallest, rel=1e-12)

    def test_decreasing_rates_peak_at_state_one(self):
        # c k^exponent with a large negative exponent is largest at k = 1
        assert rate_vector(power_law(1.0, -300.0, 10))[0] == 1.0

    def test_unknown_family(self):
        with pytest.raises(OutOfRange):
            build_rate_model({"family": "logistic"})
        # the name is refused before any value is read
        with pytest.raises(OutOfRange, match="^unknown rate family: "):
            build_rate_model({"family": "logistic", "N": "ten", "p": True})

    def test_family_aliases(self):
        # the names RateModel takes, passed as they are: these aliases and
        # case-foldings were taken as "hypergeometric"
        spec = {"N": 4, "lambda": 1.0, "p": 1.0}
        assert build_rate_model({"family": "hypergeometric", **spec}) == \
            hypergeometric_mixing(4, 1.0, 1.0)
        for name in ("HypergeometricMixing", "MIXING", " hypergeometric"):
            with pytest.raises(OutOfRange, match="^unknown rate family: "
                                                 f"{name!r}$"):
                build_rate_model({"family": name, **spec})

    @pytest.mark.parametrize("key, value", [("mu", "abc"), ("N", "ten"),
                                            ("mu", [1]), ("mu", True),
                                            ("N", True), ("p", np.True_)])
    def test_non_numeric_value_names_its_key(self, key, value):
        # "abc" and "ten" raised a bare ValueError, [1] a TypeError; the
        # bools were taken as 1.0 (N = True was reported as "got 1")
        spec = {"family": "yule", "N": 10, "mu": 1.0, "p": 0.3, key: value}
        rule = "an integer >= 2" if key == "N" else "a finite number"
        with pytest.raises(OutOfRange, match=f"^{key} must be {rule}, got "
                                             f"{re.escape(repr(value))}$"):
            build_rate_model(spec)

    def test_numeric_strings_refused(self):
        # build_rate_model and the constructors took "10" as 10 and "1.0"
        # as 1.0, while RateModel refused both
        for key, value in {"N": "10", "mu": "1.0", "p": "0.3"}.items():
            for build in three_ways("yule", **{key: value}):
                with pytest.raises(OutOfRange, match=f"^{key} must be "):
                    build()

    def test_time_unit_carried(self):
        assert yule_scaled(5, 1.0, 0.5, "hours").time_unit == "hours"

    @pytest.mark.parametrize("unit", [5, None, b"hours", ["hours"]])
    def test_time_unit_must_be_a_str(self, unit):
        # 5 and None were stored and carried into the engines' reports
        fields = {"population": 10, "per_capita_rate": 1.0,
                  "transmission_prob": 0.3}
        builds = [lambda: yule_scaled(10, 1, 0.3, unit),
                  lambda: RateModel("yule", **fields, time_unit=unit)]
        if unit:  # build_rate_model maps a missing or empty unit to "time"
            builds.append(lambda: build_rate_model(
                {"family": "yule", "N": 10, "mu": 1, "p": 0.3,
                 "time_unit": unit}))
        message = f"^time_unit must be a str, got {re.escape(repr(unit))}$"
        for build in builds:
            with pytest.raises(OutOfRange, match=message):
                build()

    @pytest.mark.parametrize("spec", [{}, {"time_unit": None},
                                      {"time_unit": ""}])
    def test_missing_time_unit_is_time(self, spec):
        model = build_rate_model({"family": "yule", "N": 10, "mu": 1,
                                  "p": 0.3, **spec})
        assert model.time_unit == "time"


YULE_FIELDS = {"family": "yule", "population": 10, "per_capita_rate": 1.0,
               "transmission_prob": 0.3}


class TestRateModelChecksItself:
    """A RateModel built directly passes the checks of build_rate_model."""

    def test_negative_rate_refused(self):
        # its exact_mean was -8.49 and its Monte Carlo mean -9.24
        with pytest.raises(OutOfRange, match="mu must be positive"):
            RateModel(family="yule", population=10, per_capita_rate=-1.0,
                      transmission_prob=0.3)

    def test_powerlaw_without_cap_refused(self):
        # rate_vector raised a TypeError on it
        with pytest.raises(MissingParameter,
                           match="^cap is required for the powerlaw family$"):
            RateModel(family="powerlaw", coefficient=1.0, exponent=2.0)

    @pytest.mark.parametrize("field, value, error", [
        ("family", "Yule", OutOfRange),
        ("family", "logistic", OutOfRange),
        ("population", None, MissingParameter),
        ("population", 1, OutOfRange),
        ("population", 10.0, OutOfRange),
        ("population", True, OutOfRange),
        ("per_capita_rate", None, MissingParameter),
        ("per_capita_rate", 0.0, OutOfRange),
        ("per_capita_rate", math.inf, OutOfRange),
        ("per_capita_rate", "1", OutOfRange),
        ("per_capita_rate", 1e308, OutOfRange),
        ("transmission_prob", None, MissingParameter),
        ("transmission_prob", 1.5, OutOfRange),
        ("transmission_prob", math.nan, OutOfRange),
        ("transmission_prob", True, OutOfRange),
        ("transmission_prob", "0.3", OutOfRange),
        ("per_capita_rate", [1], OutOfRange),
    ])
    def test_mixing_fields_checked(self, field, value, error):
        with pytest.raises(error):
            RateModel(**{**YULE_FIELDS, field: value})

    @pytest.mark.parametrize("fields, error", [
        ({"family": "hypergeometric", "population": 10,
          "transmission_prob": 0.3}, MissingParameter),
        ({"family": "hypergeometric", "population": 10, "contact_rate": -1.0,
          "transmission_prob": 0.3}, OutOfRange),
        ({"family": "powerlaw", "exponent": 2.0, "state_cap": 10},
         MissingParameter),
        ({"family": "powerlaw", "coefficient": 1.0, "exponent": math.nan,
          "state_cap": 10}, OutOfRange),
        ({"family": "powerlaw", "coefficient": 1.0, "exponent": 2.0,
          "state_cap": 10.0}, OutOfRange),
        ({"family": "powerlaw", "coefficient": 1.0, "exponent": 2.0,
          "state_cap": 1}, OutOfRange),
        ({"family": "powerlaw", "coefficient": 1.0, "exponent": -400.0,
          "state_cap": 10}, OutOfRange),
    ], ids=["no-lambda", "negative-lambda", "no-c", "nan-exponent",
            "float-cap", "cap-1", "underflowing-rate"])
    def test_other_families_checked(self, fields, error):
        with pytest.raises(error):
            RateModel(**fields)

    def test_numpy_numbers_accepted(self):
        model = RateModel(family="yule", population=np.int64(10),
                          per_capita_rate=np.float32(1.0),
                          transmission_prob=np.float64(0.3))
        assert model == RateModel(**YULE_FIELDS)
        assert (rate_vector(model)
                == rate_vector(RateModel(**YULE_FIELDS))).all()

    def test_replace_checks_again(self):
        model = yule_scaled(10, 1.0, 0.3)
        with pytest.raises(OutOfRange):
            dataclasses.replace(model, transmission_prob=0.0)

    @pytest.mark.parametrize("build, fields", [
        (lambda: yule_scaled(10, 1.0, 0.3), YULE_FIELDS),
        (lambda: hypergeometric_mixing(np.int64(12), 2, 0.5),
         {"family": "hypergeometric", "population": 12, "contact_rate": 2.0,
          "transmission_prob": 0.5}),
        (lambda: power_law(1, 2, 10),
         {"family": "powerlaw", "coefficient": 1.0, "exponent": 2.0,
          "state_cap": 10}),
        (lambda: yule_scaled(np.int32(10), np.float32(1.0), np.float64(0.3)),
         YULE_FIELDS),
    ], ids=["yule", "hypergeometric", "powerlaw", "numpy-yule"])
    def test_direct_model_equals_the_built_one(self, build, fields):
        model = build()
        assert model == RateModel(**fields)
        assert type(model.absorbing_state) is int


class TestRateAt:
    """The rate of each state, read from rate_vector: entry k - 1 of the
    vector from state 1 is lambda_k."""

    def test_hand_evaluated_mixing_rate(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_vector(model)[1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_absorbing_state_rate_is_zero(self):
        # the absorbing/cap state has no holding time, so no entry
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_vector(model, 4).size == 0
        assert rate_vector(power_law(1.0, 2.0, 5), 5).size == 0

    def test_powerlaw_inverse_square(self):
        model = power_law(3.0, -2.0, 100)
        assert rate_vector(model)[1] == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_state_out_of_range(self, k):
        with pytest.raises(StateOutOfRange):
            rate_vector(hypergeometric_mixing(4, 1.0, 1.0), k)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 101])
    def test_symmetry(self, n):
        rates = rate_vector(hypergeometric_mixing(n, 1.3, 0.31))
        assert (rates == rates[::-1]).all()

    @pytest.mark.parametrize("n", [3, 10, 11, 40])
    def test_maximum_at_half_population(self, n):
        rates = rate_vector(hypergeometric_mixing(n, 2.0, 0.7))
        best = rates.max()
        assert rates[n // 2 - 1] == best
        assert rates[-(-n // 2) - 1] == best

    def test_scaling_linearity(self):
        lam, p = 2.5, 0.31
        base = rate_vector(hypergeometric_mixing(20, 1.0, 1.0))
        scaled = rate_vector(hypergeometric_mixing(20, lam, p))
        by_p = rate_vector(hypergeometric_mixing(20, lam, 1.0))
        by_lam = rate_vector(hypergeometric_mixing(20, 1.0, p))
        np.testing.assert_allclose(scaled, lam * p * base, rtol=1e-15, atol=0)
        np.testing.assert_allclose(scaled, p * by_p, rtol=1e-15, atol=0)
        np.testing.assert_allclose(scaled, lam * by_lam, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_yule_equivalence(self, n):
        mu, p = 0.7, 0.31
        yule = rate_vector(yule_scaled(n, mu, p))
        mixing = rate_vector(hypergeometric_mixing(n, n * mu, p))
        assert (yule == mixing).all()

    def test_positive_on_transient_states(self):
        for model in (hypergeometric_mixing(12, 0.5, 0.31),
                      power_law(2.0, 2.0, 9),
                      power_law(2.0, -2.0, 9)):
            rates = rate_vector(model)
            assert rates.size == model.absorbing_state - 1
            assert (rates > 0.0).all()


class TestTransientStates:
    """States 1 .. absorbing_state - 1, one rate each."""

    def test_small_populations(self):
        for n in (2, 3):
            model = hypergeometric_mixing(n, 1, 1)
            assert model.absorbing_state == n
            assert rate_vector(model).size == n - 1

    def test_powerlaw_cap(self):
        model = power_law(1.0, 2.0, 5)
        assert model.absorbing_state == 5
        assert rate_vector(model).tolist() == [1.0, 4.0, 9.0, 16.0]


def test_effective_contact_rate():
    assert yule_scaled(10, 0.5, 1.0).effective_contact_rate == 5.0
    assert hypergeometric_mixing(10, 2.0, 1.0).effective_contact_rate == 2.0


def test_rates_match_pair_sampling_probability():
    # rate = lambda * p * P(pair is one infected, one susceptible), with the
    # pair uniform over N choose 2 -- checked against direct enumeration
    n, lam, p = 7, 1.7, 0.31
    rates = rate_vector(hypergeometric_mixing(n, lam, p))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in range(1, n):
        infected = set(range(k))
        mixed = sum(1 for i, j in pairs if (i in infected) != (j in infected))
        expected = lam * p * mixed / len(pairs)
        assert rates[k - 1] == pytest.approx(expected, rel=1e-14)


class TestRateVector:
    @pytest.mark.parametrize("model", [
        hypergeometric_mixing(200_000, 1.37, 0.31),
        yule_scaled(200_000, 0.73, 0.29),
        hypergeometric_mixing(2, 2.0, 0.5),
        yule_scaled(6700, 3.0, 0.31),
        power_law(1.3, 1.0, 5000),
        power_law(0.7, 2.0, 5000),
    ])
    @pytest.mark.parametrize("start", [1, 2])
    def test_bitwise_equal_to_rate_at(self, model, start):
        start = min(start, model.absorbing_state - 1)
        assert (rate_vector(model, start)
                == np.array(rate_list(model, start))).all()

    @pytest.mark.parametrize("exponent", [1.7, -1.7, 2.5, -1.0, -2.0, 3.0])
    def test_power_laws_within_one_ulp(self, exponent):
        # numpy's power may round differently from C's pow
        unit = rate_vector(power_law(1.0, exponent, 200_000))
        oracle = np.array(rate_list(power_law(1.0, exponent, 200_000)))
        assert (np.abs(unit - oracle) <= np.spacing(oracle)).all()
        scaled = rate_vector(power_law(0.7, exponent, 200_000))
        assert (scaled == 0.7 * unit).all()

    def test_later_start_is_a_suffix(self):
        model = hypergeometric_mixing(10, 1.0, 0.5)
        assert (rate_vector(model, 4) == rate_vector(model)[3:]).all()
        assert rate_vector(model, 10).size == 0
        assert rate_vector(model).size == model.absorbing_state - 1

    @pytest.mark.parametrize("start", [0, 11])
    def test_start_outside_state_space(self, start):
        with pytest.raises(StateOutOfRange, match=f"start_state {start} "):
            rate_vector(hypergeometric_mixing(10, 1.0, 0.5), start)


def test_public_names():
    assert sorted(purebirth.__all__) == [
        "AbsorptionTimeReport", "DistributionSnapshot",
        "HittingTimeDistribution", "MissingParameter", "MonteCarloSummary",
        "OutOfRange", "PureBirthError", "RateModel", "SolverConfig",
        "StateHistogram", "StateOutOfRange", "ToleranceNotMet", "Trajectory",
        "build_rate_model", "empirical_distribution_at",
        "estimate_absorption_time", "expected_absorption_time",
        "forward_grid", "forward_probabilities", "hitting_time_distribution",
        "hypergeometric_mixing", "mean_state", "power_law", "rate_vector",
        "simulate_path", "yule_scaled",
    ]
    assert len(purebirth.__all__) == 26
    assert all(hasattr(purebirth, name) for name in purebirth.__all__)


def _absorbed(model, start, t):
    """P(T <= t), the forward solution's mass at the absorbing state."""
    return float(forward_probabilities(model, start, t).probabilities[-1])


def _explosion(model, start, replicates, seed):
    """(E(T) report, Monte Carlo summary): the explosion subcommand's two
    library calls, in its order."""
    return (expected_absorption_time(model, start),
            estimate_absorption_time(model, start, replicates, seed))


# every engine gets its states through rate_vector; a fractional state
# used to give states 1.5, 2.5, ... or a mean from start_state=1.5, True
# ran as state 1 and None raised a TypeError in explosion_study.
# "rate_at" is one state's rate, as the removed scalar rate_at gave it;
# "absorption_probability" and "explosion_study" run the calls that
# replaced those functions, _absorbed and _explosion.
STATE_TAKERS = {
    "rate_at": lambda m, k: rate_vector(m, k)[0],
    "rate_vector": lambda m, k: rate_vector(m, k),
    "expected_absorption_time": lambda m, k: expected_absorption_time(m, k),
    "hitting_time_distribution":
        lambda m, k: hitting_time_distribution(m, k),
    "forward_probabilities": lambda m, k: forward_probabilities(m, k, 1.0),
    "absorption_probability": lambda m, k: _absorbed(m, k, 1.0),
    "forward_grid_no_times": lambda m, k: forward_grid(m, k, []),
    "probability_of":
        lambda m, k: forward_probabilities(m, 1, 1.0).probability_of(k),
    "estimate_absorption_time":
        lambda m, k: estimate_absorption_time(m, k, 10, 1),
    "empirical_distribution_at":
        lambda m, k: empirical_distribution_at(m, k, 1.0, 10, 1),
    "explosion_study": lambda m, k: _explosion(m, k, 10, 1),
    "simulate_path": lambda m, k: simulate_path(m, k, 1),
}


@pytest.mark.parametrize("state", [1.5, 2.0, np.float64(3.0), True, None])
@pytest.mark.parametrize("engine", STATE_TAKERS)
def test_every_engine_takes_only_integer_states(engine, state):
    with pytest.raises(StateOutOfRange, match="not an integer"):
        STATE_TAKERS[engine](power_law(1.0, 2.0, 50), state)


def _snapshot(snap):
    return snap.states.tolist(), snap.probabilities.tolist()


def _law(law):
    return law.cdf([0.0, 1.0]).tolist(), law.pdf([0.0, 1.0]).tolist()


def _histogram(hist):
    return hist.states.tolist(), hist.counts.tolist()


def _summary(summary):
    return summary.mean, summary.std_error, set(summary.quantiles.values())


# from the absorbing state T = 0 in every engine; three of them refused
# it.  Each entry is (what the engine reports from the state cap 50 of
# power_law(1, 2, 50), what that must be).
FROM_ABSORBING = {
    "rate_vector": (lambda m, k: rate_vector(m, k).tolist(), []),
    "expected_absorption_time": (
        lambda m, k: dataclasses.astuple(expected_absorption_time(m, k))[:2],
        (0.0, 0.0)),
    "hitting_time_distribution": (
        lambda m, k: _law(hitting_time_distribution(m, k)),
        ([1.0, 1.0], [0.0, 0.0])),
    "forward_probabilities": (
        lambda m, k: _snapshot(forward_probabilities(m, k, 1.0)),
        ([50], [1.0])),
    "absorption_probability": (lambda m, k: _absorbed(m, k, 1.0), 1.0),
    "forward_grid": (
        lambda m, k: [_snapshot(s) for s in forward_grid(m, k, [0.0, 1.0])],
        [([50], [1.0])] * 2),
    "estimate_absorption_time": (
        lambda m, k: _summary(estimate_absorption_time(m, k, 10, 1)),
        (0.0, 0.0, {0.0})),
    "empirical_distribution_at": (
        lambda m, k: _histogram(empirical_distribution_at(m, k, 1.0, 10, 1)),
        ([50], [10])),
    "explosion_study": (
        lambda m, k: _summary(_explosion(m, k, 10, 1)[1]),
        (0.0, 0.0, {0.0})),
    "explosion_study_analytic_mean": (
        lambda m, k: _explosion(m, k, 10, 1)[0].exact_mean, 0.0),
    "simulate_path": (
        lambda m, k: dataclasses.astuple(simulate_path(m, k, 1)),
        ([(0.0, 50)], 0.0)),
    "event_time_blocks": (
        lambda m, k: [(first, times.tolist())
                      for first, times in event_time_blocks(m, k, 3, 1)],
        [(0, [[0.0]] * 3)]),
}


@pytest.mark.parametrize("engine", FROM_ABSORBING)
def test_every_engine_gives_t_zero_from_the_absorbing_state(engine):
    report, expected = FROM_ABSORBING[engine]
    assert report(power_law(1.0, 2.0, 50), 50) == expected


@pytest.mark.parametrize("name", ["Yule", "mixing", "power-law"])
def test_build_rate_model_and_rate_model_refuse_the_same_names(name):
    # build_rate_model took these as yule, hypergeometric and powerlaw
    message = f"^unknown rate family: {name!r}$"
    with pytest.raises(OutOfRange, match=message):
        build_rate_model({"family": name, "N": 10, "mu": 1.0, "p": 0.3,
                          "lambda": 1.0, "c": 1.0, "exponent": 2.0,
                          "cap": 10})
    with pytest.raises(OutOfRange, match=message):
        RateModel(**{**YULE_FIELDS, "family": name})


YULE_SPEC = {"family": "yule", "N": 10, "mu": 1.0, "p": 0.3}


@pytest.mark.parametrize("key, build", [
    ("mu", lambda: RateModel(**{**YULE_FIELDS, "per_capita_rate": 10 ** 400})),
    ("mu", lambda: build_rate_model({**YULE_SPEC, "mu": 10 ** 400})),
    ("N", lambda: build_rate_model({**YULE_SPEC, "N": 10 ** 400})),
    ("cap", lambda: power_law(1.0, 2.0, 10 ** 400)),
    ("c", lambda: power_law(10 ** 400, 2.0, 5)),
    ("abs_tol", lambda: SolverConfig(10 ** 400)),
    # past Python's 4300-digit limit, printing the int is a ValueError
    ("mu", lambda: build_rate_model({**YULE_SPEC, "mu": 10 ** 5000})),
], ids=["RateModel-mu", "build-mu", "build-N", "power_law-cap",
        "power_law-c", "SolverConfig-abs_tol",
        "build-mu-5000-digits"])
def test_an_int_too_large_for_a_float_names_its_parameter(key, build):
    # each let OverflowError out: "int too large to convert to float"; then
    # each message printed all 401 digits, and "mu" was "not a number"
    with pytest.raises(OutOfRange) as refused:
        build()
    assert str(refused.value) == (
        f"{key} must be a finite number, got one too large for a float")


@pytest.mark.parametrize("kind", [int, float, np.int32, np.int64, np.float32,
                                  np.float64, Fraction],
                         ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_numeric_type_gives_float_and_int_fields(family, kind):
    # RateModel stored each value as given: a Fraction rate gave an object
    # rate vector, on which the forward solver and the sampler failed
    integral = kind in (int, np.int32, np.int64)
    count = kind if integral else int
    values = {"N": count(12), "cap": count(12), "lambda": kind(2),
              "mu": kind(3), "p": kind(1 if integral else "0.3"),
              "c": kind(3), "exponent": kind(2 if integral else "0.5")}
    models = [build() for build in three_ways(family, **values)]
    assert models[0] == models[1] == models[2]
    for model in models:
        for field, _ in FAMILIES[family][1].values():
            integer = field in ("population", "state_cap")
            assert type(getattr(model, field)) is (int if integer else float)
        assert rate_vector(model).dtype == np.float64


def test_a_fraction_model_runs_every_engine():
    # forward_probabilities raised a bare TypeError on it, and
    # estimate_absorption_time numpy's UFuncTypeError
    model = RateModel(family="yule", population=50,
                      per_capita_rate=Fraction(1, 3), transmission_prob=0.31)
    same = yule_scaled(50, 1 / 3, 0.31)
    assert model == same
    for engine in (lambda m: expected_absorption_time(m, 1),
                   lambda m: forward_probabilities(m, 1, 1.0),
                   lambda m: estimate_absorption_time(m, 1, 100, 7)):
        np.testing.assert_equal(vars(engine(model)), vars(engine(same)))


@pytest.mark.parametrize("family, key, value", [
    ("yule", "N", 10.0),
    ("hypergeometric", "N", np.float64(10)),
    ("powerlaw", "cap", 10.0),
    ("powerlaw", "cap", 2.5),
    ("hypergeometric", "lambda", "2"),
    ("powerlaw", "c", "1"),
    ("powerlaw", "exponent", "2"),
    ("powerlaw", "cap", "10"),
])
def test_every_entry_point_refuses_the_same_values(family, key, value):
    # an integral float for N or the cap, and any numeric string, were
    # taken by build_rate_model and the constructors but not by RateModel
    for build in three_ways(family, **{key: value}):
        with pytest.raises(OutOfRange, match=f"^{key} must be "):
            build()


HUGE = 10 ** 5000


@pytest.mark.parametrize("call, error, message", [
    (lambda m: forward_probabilities(m, -HUGE, 1.0), StateOutOfRange,
     "start_state <negative integer of 5001 digits> is not an integer in "
     "[1, 5]"),
    (lambda m: simulate_path(m, 1, -HUGE), OutOfRange,
     "master_seed must be an integer >= 0, got <negative integer of 5001 "
     "digits>"),
    (lambda m: estimate_absorption_time(m, 1, -HUGE, 1), OutOfRange,
     "replicates must be an integer >= 2, got <negative integer of 5001 "
     "digits>"),
    (lambda m: forward_probabilities(m, 1, 1.0).probability_of(HUGE),
     StateOutOfRange, "state <integer of 5001 digits> is not an integer in "
                      "[1, 5]"),
], ids=["forward-start", "simulate-seed", "estimate-replicates",
        "probability_of"])
def test_a_refused_huge_integer_is_named_by_its_digit_count(call, error,
                                                            message):
    # past Python's 4300-digit limit, printing the int was a bare ValueError
    with pytest.raises(error) as refused:
        call(power_law(1, 2, 5))
    assert str(refused.value) == message


@pytest.mark.parametrize("k", [20, 21, 22, 399, 400, 4299, 4300, 4301])
def test_describe_counts_digits_exactly(k):
    # 10**k has k + 1 digits and 10**k - 1 has k
    assert errors.describe(10 ** k) == f"<integer of {k + 1} digits>"
    assert errors.describe(-10 ** k - 1) == \
        f"<negative integer of {k + 1} digits>"
    assert errors.describe(10 ** k - 1) == (
        repr(10 ** k - 1) if k == 20 else f"<integer of {k} digits>")
    # abs(np.int64(-2**63)) overflows, with a RuntimeWarning
    assert errors.describe(np.int64(-2 ** 63)) == repr(np.int64(-2 ** 63))


def test_a_refused_400_digit_integer_gives_a_short_message():
    # the message printed all 401 digits: 442 characters
    with pytest.raises(OutOfRange) as refused:
        RateModel(**{**YULE_FIELDS, "population": -10 ** 400})
    assert str(refused.value) == ("N must be an integer >= 2, got <negative "
                                  "integer of 401 digits>")


@pytest.mark.parametrize("key, build", [
    ("mu", lambda: yule_scaled(10, True, 0.3)),
    ("exponent", lambda: power_law(1, np.True_, 5)),
], ids=["yule_scaled-mu", "power_law-exponent"])
def test_family_constructors_take_no_bool(key, build):
    # mu and the exponent were taken as 1.0
    with pytest.raises(OutOfRange, match=f"^{key} must be a finite number, "
                                         "got "):
        build()


# every forward entry point gets its times through errors.require_times;
# "2", True and np.True_ ran as t = 2.0 and 1.0, [1.0, 2.0] let an
# IndexError out of forward_grid and the ragged [[1.0], [1.0, 2.0]] a bare
# ValueError out of np.asarray
TIME_TAKERS = {
    "forward_grid": lambda m, t: forward_grid(m, 1, [t]),
    "forward_probabilities": lambda m, t: forward_probabilities(m, 1, t),
    "absorption_probability": lambda m, t: _absorbed(m, 1, t),
}


@pytest.mark.parametrize("t", ["2", True, np.True_, None, [1.0, 2.0],
                               [[1.0], [1.0, 2.0]]])
@pytest.mark.parametrize("engine", TIME_TAKERS)
def test_every_forward_engine_takes_only_times(engine, t):
    with pytest.raises(OutOfRange, match="^times must be a 1-d sequence of "
                                         "finite numbers >= 0, got "):
        TIME_TAKERS[engine](power_law(1.0, 2.0, 50), t)


def test_a_float64_times_array_is_not_copied():
    t = np.linspace(0.0, 1.0, 5)
    assert errors.require_times("t", t) is t
    assert errors.require_times("times", t, ndim=1) is t
