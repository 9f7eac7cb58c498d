import math

import numpy as np
import pytest

import purebirth
from purebirth import (CapRequired, MissingParameter, OutOfRange,
                       StateOutOfRange, build_rate_model,
                       hypergeometric_mixing, power_law, rate_at,
                       rate_vector, yule_scaled)


class TestBuildRateModel:
    def test_minimal_hypergeometric(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_vector(model).size == 3
        assert model.absorbing_state == 4

    def test_population_of_one_rejected(self):
        with pytest.raises(OutOfRange):
            hypergeometric_mixing(1, 1.0, 1.0)

    def test_powerlaw_without_cap_rejected(self):
        with pytest.raises(CapRequired):
            power_law(1.0, 2.0)

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

    def test_decreasing_rates_peak_at_state_one(self):
        # c k^exponent with a large negative exponent is largest at k = 1
        assert rate_at(power_law(1.0, -400.0, 10), 1) == 1.0

    def test_unknown_family(self):
        with pytest.raises(OutOfRange):
            build_rate_model({"family": "logistic"})

    def test_family_aliases(self):
        spec = {"N": 4, "lambda": 1.0, "p": 1.0}
        for name in ("HypergeometricMixing", "hypergeometric", "MIXING"):
            assert build_rate_model({"family": name, **spec}).family == \
                "hypergeometric"

    def test_time_unit_carried(self):
        assert yule_scaled(5, 1.0, 0.5, "hours").time_unit == "hours"


class TestRateAt:
    def test_hand_evaluated_mixing_rate(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_at(model, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_absorbing_state_rate_is_zero(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert rate_at(model, 4) == 0.0
        assert rate_at(power_law(1.0, 2.0, 5), 5) == 0.0

    def test_powerlaw_inverse_square(self):
        model = power_law(3.0, -2.0, 100)
        assert rate_at(model, 2) == pytest.approx(0.75, rel=1e-15)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_state_out_of_range(self, k):
        with pytest.raises(StateOutOfRange):
            rate_at(hypergeometric_mixing(4, 1.0, 1.0), k)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 50, 101])
    def test_symmetry(self, n):
        model = hypergeometric_mixing(n, 1.3, 0.31)
        for k in range(1, n):
            assert rate_at(model, k) == rate_at(model, n - k)

    @pytest.mark.parametrize("n", [3, 10, 11, 40])
    def test_maximum_at_half_population(self, n):
        model = hypergeometric_mixing(n, 2.0, 0.7)
        rates = {k: rate_at(model, k)
                 for k in range(1, model.absorbing_state)}
        best = max(rates.values())
        assert rates[n // 2] == best
        assert rates[-(-n // 2)] == best

    def test_scaling_linearity(self):
        lam, p = 2.5, 0.31
        base = hypergeometric_mixing(20, 1.0, 1.0)
        scaled = hypergeometric_mixing(20, lam, p)
        by_p = hypergeometric_mixing(20, lam, 1.0)
        by_lam = hypergeometric_mixing(20, 1.0, p)
        for k in range(1, base.absorbing_state):
            assert rate_at(scaled, k) == pytest.approx(
                lam * p * rate_at(base, k), rel=1e-15)
            assert rate_at(scaled, k) == pytest.approx(
                p * rate_at(by_p, k), rel=1e-15)
            assert rate_at(scaled, k) == pytest.approx(
                lam * rate_at(by_lam, k), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_yule_equivalence(self, n):
        mu, p = 0.7, 0.31
        yule = yule_scaled(n, mu, p)
        mixing = hypergeometric_mixing(n, n * mu, p)
        for k in range(1, n + 1):
            assert rate_at(yule, k) == rate_at(mixing, k)

    def test_positive_on_transient_states(self):
        for model in (hypergeometric_mixing(12, 0.5, 0.31),
                      power_law(2.0, 2.0, 9),
                      power_law(2.0, -2.0, 9)):
            for k in range(1, model.absorbing_state):
                assert rate_at(model, k) > 0.0


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
    model = hypergeometric_mixing(n, lam, p)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in range(1, model.absorbing_state):
        infected = set(range(k))
        mixed = sum(1 for i, j in pairs if (i in infected) != (j in infected))
        expected = lam * p * mixed / len(pairs)
        assert rate_at(model, k) == pytest.approx(expected, rel=1e-14)


def rate_at_oracle(model, start=1):
    return np.array([rate_at(model, k)
                     for k in range(start, model.absorbing_state)])


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
                == rate_at_oracle(model, start)).all()

    @pytest.mark.parametrize("exponent", [1.7, -1.7, 2.5, -1.0, -2.0, 3.0])
    def test_power_laws_within_one_ulp(self, exponent):
        # numpy's power may round differently from C's pow
        unit = rate_vector(power_law(1.0, exponent, 200_000))
        oracle = rate_at_oracle(power_law(1.0, exponent, 200_000))
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
        "AbsorptionTimeReport", "CapRequired", "DistributionSnapshot",
        "ExplosionReport", "HittingTimeDistribution", "MissingParameter",
        "MonteCarloSummary", "OutOfRange", "PowerLawTimeReport",
        "PureBirthError", "RateModel", "RepeatedRates", "SolverConfig",
        "StateHistogram", "StateOutOfRange", "ToleranceNotMet",
        "Trajectory", "WrongFamily", "absorption_probability",
        "build_rate_model", "empirical_distribution_at",
        "estimate_absorption_time", "expected_absorption_time",
        "explosion_study", "forward_grid", "forward_probabilities",
        "harmonic_number", "hitting_time_distribution",
        "hypergeometric_mixing", "mean_state", "power_law",
        "powerlaw_expected_time", "rate_at", "rate_vector",
        "replicate_stream", "simulate_path", "yule_scaled",
    ]
    assert all(hasattr(purebirth, name) for name in purebirth.__all__)
