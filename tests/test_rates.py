import math

import pytest

from purebirth import (CapRequired, MissingParameter, OutOfRange,
                       StateOutOfRange, build_rate_model,
                       hypergeometric_mixing, power_law, rate_at,
                       transient_states, yule_scaled)


class TestBuildRateModel:
    def test_minimal_hypergeometric(self):
        model = hypergeometric_mixing(4, 1.0, 1.0)
        assert transient_states(model) == [1, 2, 3]
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
        rates = {k: rate_at(model, k) for k in transient_states(model)}
        best = max(rates.values())
        assert rates[n // 2] == best
        assert rates[-(-n // 2)] == best

    def test_scaling_linearity(self):
        lam, p = 2.5, 0.31
        base = hypergeometric_mixing(20, 1.0, 1.0)
        scaled = hypergeometric_mixing(20, lam, p)
        by_p = hypergeometric_mixing(20, lam, 1.0)
        by_lam = hypergeometric_mixing(20, 1.0, p)
        for k in transient_states(base):
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
            for k in transient_states(model):
                assert rate_at(model, k) > 0.0


class TestTransientStates:
    def test_small_populations(self):
        assert transient_states(hypergeometric_mixing(3, 1, 1)) == [1, 2]
        assert transient_states(hypergeometric_mixing(2, 1, 1)) == [1]

    def test_powerlaw_cap(self):
        assert transient_states(power_law(1.0, 2.0, 5)) == [1, 2, 3, 4]


def test_effective_contact_rate():
    assert yule_scaled(10, 0.5, 1.0).effective_contact_rate == 5.0
    assert hypergeometric_mixing(10, 2.0, 1.0).effective_contact_rate == 2.0


def test_rates_match_pair_sampling_probability():
    # rate = lambda * p * P(pair is one infected, one susceptible), with the
    # pair uniform over N choose 2 -- checked against direct enumeration
    n, lam, p = 7, 1.7, 0.31
    model = hypergeometric_mixing(n, lam, p)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in transient_states(model):
        infected = set(range(k))
        mixed = sum(1 for i, j in pairs if (i in infected) != (j in infected))
        expected = lam * p * mixed / len(pairs)
        assert rate_at(model, k) == pytest.approx(expected, rel=1e-14)
