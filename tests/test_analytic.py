import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from purebirth import (OutOfRange, RepeatedRates, StateOutOfRange,
                       ToleranceNotMet, absorption_probability,
                       expected_absorption_time, harmonic_number,
                       hitting_time_distribution, hypergeometric_mixing,
                       power_law, powerlaw_expected_time, rate_at,
                       rate_vector, yule_scaled)
from purebirth.analytic import DISTINCT_RTOL, EULER_GAMMA, LAW_ROUNDOFF_TOL

# frozen from the direct-summation oracle (1999/620) * H_1999
EXACT_MEAN_FANS = 26.367029579220898


class TestHarmonicNumber:
    def test_first_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_large_n_bracket(self):
        h = harmonic_number(1999)
        assert math.log(1999) < h <= math.log(1999) + 1.0

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_log_bracket(self, n):
        h = harmonic_number(n)
        assert math.log(n) < h <= math.log(n) + 1.0

    def test_matches_fsum_oracle(self):
        assert harmonic_number(1999) == \
            math.fsum(1.0 / k for k in range(1, 2000))

    def test_rejects_nonpositive(self):
        with pytest.raises(OutOfRange):
            harmonic_number(0)


class TestExpectedAbsorptionTime:
    def test_three_individuals(self):
        # lambda_1 = lambda_2 = 2/3, so E(T) = 3/2 + 3/2
        report = expected_absorption_time(hypergeometric_mixing(3, 1.0, 1.0))
        assert report.exact_mean == pytest.approx(3.0, rel=1e-14)
        assert report.variance == pytest.approx(4.5, rel=1e-14)

    @pytest.mark.parametrize("lam,p", [(1.0, 1.0), (2.0, 0.5), (0.3, 0.31)])
    def test_single_transient_state(self, lam, p):
        report = expected_absorption_time(hypergeometric_mixing(2, lam, p))
        assert report.exact_mean == pytest.approx(1.0 / (lam * p), rel=1e-14)

    def test_fans_example_exact(self):
        model = yule_scaled(2000, 1.0, 0.31, "hours")
        report = expected_absorption_time(model)
        assert report.exact_mean == pytest.approx(EXACT_MEAN_FANS, rel=1e-12)
        assert report.exact_mean > report.approx_mean
        assert report.time_unit == "hours"

    def test_refined_diagnostic_tracks_exact(self):
        report = expected_absorption_time(yule_scaled(2000, 1.0, 0.31))
        assert report.approx_mean_refined == pytest.approx(
            (math.log(2000) + EULER_GAMMA) / 0.31, rel=1e-14)
        # the Euler-Mascheroni refinement lands much closer than ln(N)
        assert abs(report.approx_mean_refined - report.exact_mean) < \
            abs(report.approx_mean - report.exact_mean)

    def test_no_approximation_for_mixing_family(self):
        report = expected_absorption_time(hypergeometric_mixing(50, 1.0, 0.5))
        assert report.approx_mean is None

    def test_later_start_state(self):
        model = hypergeometric_mixing(5, 1.0, 1.0)
        full = expected_absorption_time(model, 1).exact_mean
        tail = expected_absorption_time(model, 3).exact_mean
        head = sum(1.0 / rate_at(model, k) for k in (1, 2))
        assert tail == pytest.approx(full - head, rel=1e-12)

    def test_start_state_must_be_transient(self):
        model = hypergeometric_mixing(5, 1.0, 1.0)
        for start in (0, 5, 6):
            with pytest.raises(StateOutOfRange):
                expected_absorption_time(model, start)

    def test_sanity_envelope_for_large_populations(self):
        for n in (100, 1000, 10000):
            report = expected_absorption_time(yule_scaled(n, 1.0, 0.31))
            gap = abs(report.exact_mean - report.approx_mean)
            assert gap / report.exact_mean < 0.15


def fsum_moments(model, start):
    """(E(T), Var(T)) by exactly rounded sums over rate_at, one state at a
    time: the reference the vector sums are held to."""
    rates = [rate_at(model, k) for k in range(start, model.absorbing_state)]
    return (math.fsum(1.0 / lam for lam in rates),
            math.fsum(1.0 / lam ** 2 for lam in rates))


class TestVectorSumOracles:
    @pytest.mark.parametrize("model", [
        yule_scaled(200_000, 1.0, 0.31),
        hypergeometric_mixing(200_000, 1.0, 0.31),
    ])
    @pytest.mark.parametrize("start", [1, 100_000])
    def test_moments_match_fsum(self, model, start):
        report = expected_absorption_time(model, start)
        mean, variance = fsum_moments(model, start)
        assert report.exact_mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert report.variance == pytest.approx(variance, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, mu, p", [
        (2, 1.0, 1.0), (3, 0.5, 0.2), (2000, 1.0, 0.31), (6700, 3.0, 0.31),
        (200_000, 1.0, 0.31), (10 ** 6, 2.0, 0.9)])
    def test_yule_matches_harmonic_closed_form(self, n, mu, p):
        closed = (n - 1) / (p * mu * n) * harmonic_number(n - 1)
        exact = expected_absorption_time(yule_scaled(n, mu, p)).exact_mean
        assert exact == pytest.approx(closed, rel=1e-10, abs=0)

    def test_underflowing_rate_is_an_error(self):
        # 9^-400 underflows to 0, so E(T) would overflow a float
        with pytest.raises(OutOfRange, match="overflows"):
            expected_absorption_time(power_law(1.0, -400.0, 10))


mixing_models = st.sampled_from([hypergeometric_mixing, yule_scaled])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(family=mixing_models, n=st.integers(2, 3000),
       rate=st.floats(1e-3, 1e3), p=st.floats(1e-3, 1.0),
       q=st.floats(1e-3, 1.0), data=st.data())
def test_property_moments_scale_as_inverse_p(family, n, rate, p, q, data):
    # every rate is proportional to p, so p E(T) and p^2 Var(T) do not
    # depend on p
    start = data.draw(st.integers(1, n - 1), label="start")
    a = expected_absorption_time(family(n, rate, p), start)
    b = expected_absorption_time(family(n, rate, q), start)
    assert p * a.exact_mean == pytest.approx(q * b.exact_mean, rel=1e-12)
    assert p * p * a.variance == pytest.approx(q * q * b.variance, rel=1e-12)


class TestApproximation:
    def test_fans_recipe(self):
        model = yule_scaled(2000, 1.0, 0.31, "hours")
        assert expected_absorption_time(model).approx_mean == \
            pytest.approx(24.52, abs=0.01)

    def test_cruise_recipe(self):
        model = yule_scaled(6700, 3.0, 0.31, "days")
        assert expected_absorption_time(model).approx_mean == \
            pytest.approx(9.47, abs=0.01)

    def test_two_individuals(self):
        model = yule_scaled(2, 1.0, 1.0)
        assert expected_absorption_time(model).approx_mean == \
            pytest.approx(math.log(2.0), rel=1e-15)

    def test_convergence_with_population(self):
        errors = []
        ratios = []
        for n in (100, 1000, 10000, 100000):
            report = expected_absorption_time(yule_scaled(n, 1.0, 0.31))
            errors.append(abs(report.exact_mean - report.approx_mean)
                          / report.exact_mean)
            ratios.append(report.exact_mean / report.approx_mean)
        assert errors == sorted(errors, reverse=True)
        # the ratio converges to (ln N + gamma) / ln N, undershooting it
        # slightly through the (N-1)/N factor and H_{N-1} < ln N + gamma
        gaps = [abs(r - (math.log(n) + EULER_GAMMA) / math.log(n))
                for n, r in zip((100, 1000, 10000, 100000), ratios)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-4
        assert ratios == sorted(ratios, reverse=True)


class TestInverseProportionality:
    @pytest.mark.parametrize("n", [2, 5, 17, 100])
    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 2.0), (4.0, 0.5)])
    def test_scaling(self, n, a, b):
        base = expected_absorption_time(
            hypergeometric_mixing(n, 1.0, 0.5)).exact_mean
        scaled = expected_absorption_time(
            hypergeometric_mixing(n, a * 1.0, b * 0.5)).exact_mean
        assert scaled == pytest.approx(base / (a * b), rel=1e-12)

    def test_monotone_in_p_and_lambda(self):
        grid = [0.1, 0.2, 0.4, 0.8, 1.0]
        means_p = [expected_absorption_time(
            hypergeometric_mixing(12, 1.0, p)).exact_mean for p in grid]
        means_lam = [expected_absorption_time(
            hypergeometric_mixing(12, lam, 0.5)).exact_mean for lam in grid]
        assert all(a > b for a, b in zip(means_p, means_p[1:]))
        assert all(a > b for a, b in zip(means_lam, means_lam[1:]))


def test_harmonic_reindexing_identity():
    for n in (2, 3, 10, 500):
        forward = math.fsum(1.0 / k for k in range(1, n))
        backward = math.fsum(1.0 / (n - k) for k in range(1, n))
        assert forward == pytest.approx(backward, rel=1e-12)


class TestHittingTimeDistribution:
    def test_two_distinct_rates(self):
        # powerlaw c=1 exponent=1 with cap 3 has rates 1, 2
        dist = hitting_time_distribution(power_law(1.0, 1.0, 3))
        np.testing.assert_allclose(dist.rates, [1.0, 2.0])
        t = np.linspace(0.0, 5.0, 101)
        expected = 2.0 * (np.exp(-t) - np.exp(-2.0 * t))
        np.testing.assert_allclose(dist.pdf(t), expected, atol=1e-12)
        assert dist.mean() == pytest.approx(1.5, rel=1e-15)

    def test_single_stage(self):
        model = hypergeometric_mixing(2, 2.0, 0.5)  # lambda_1 = 1
        dist = hitting_time_distribution(model)
        t = np.linspace(0.0, 4.0, 50)
        np.testing.assert_allclose(dist.pdf(t), np.exp(-t), atol=1e-14)

    def test_symmetric_rates_rejected(self):
        with pytest.raises(RepeatedRates):
            hitting_time_distribution(hypergeometric_mixing(4, 1.0, 1.0))

    def test_repeated_rates_name_their_states(self):
        # k (10 - k) from state 3: states 3 and 7 both have rate 21 lambda/90
        with pytest.raises(RepeatedRates, match="states 3 and 7 coincide"):
            hitting_time_distribution(hypergeometric_mixing(10, 1, 1), 3)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(3, 400), data=st.data())
    def test_mixing_rates_repeat_below_the_midpoint(self, n, data):
        # k (N - k) = j (N - j) for k != j exactly when j = N - k, and the
        # least repeated rate in states start..N-1 is that of start, N-start
        start = data.draw(st.integers(1, n - 1), label="start")
        model = hypergeometric_mixing(n, 1.0, 0.5)
        if 2 * start < n:
            with pytest.raises(RepeatedRates,
                               match=f"states {start} and {n - start} "):
                hitting_time_distribution(model, start)
        else:
            # distinct rates: the law, or a refusal of its conditioning
            try:
                law = hitting_time_distribution(model, start)
            except ToleranceNotMet as exc:
                assert "absorption_probability" in str(exc)
            else:
                assert law.rates.size == n - start

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exponent=st.floats(1e-9, 1e-6), cap=st.integers(2, 300))
    def test_distinctness_matches_pairwise_oracle(self, exponent, cap):
        # k^exponent for a tiny exponent puts neighbours within 1e-9 of
        # each other past k of about exponent / 1e-9
        rates = rate_vector(power_law(1.0, exponent, cap))
        gaps = np.abs(rates[:, None] - rates[None, :])
        scale = np.maximum(rates[:, None], rates[None, :])
        close = gaps <= DISTINCT_RTOL * scale
        np.fill_diagonal(close, False)
        try:
            hitting_time_distribution(power_law(1.0, exponent, cap))
            repeated = False
        except RepeatedRates:
            repeated = True
        except ToleranceNotMet:
            # distinct rates this close give partial fractions that
            # overflow or cancel
            repeated = False
        assert repeated == close.any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, start", [
        (power_law(1.0, 1.0, 8), 1),
        (power_law(2.0, -2.0, 7), 1),
        (hypergeometric_mixing(9, 1.0, 0.5), 5),
        (power_law(1.0, 2.0, 2000), 1),
    ])
    def test_coefficients_match_elementwise_oracle(self, model, start):
        # 2000 states span several row blocks of the product
        dist = hitting_time_distribution(model, start)
        rates = rate_vector(model, start)
        oracle = np.empty(rates.size)
        for k in range(rates.size):
            others = np.delete(rates, k)
            oracle[k] = np.prod(others / (others - rates[k]))
        np.testing.assert_array_equal(dist.coefficients, oracle)

    def test_mixing_model_distinct_past_midpoint(self):
        # k(N-k) is strictly decreasing above N/2, so these rates are distinct
        model = hypergeometric_mixing(9, 1.0, 0.5)
        dist = hitting_time_distribution(model, start_state=5)
        exact = expected_absorption_time(model, 5).exact_mean
        assert dist.implied_mean() == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("model", [
        power_law(1.0, 1.0, 8),
        power_law(0.5, 2.0, 10),
        power_law(2.0, -2.0, 7),
    ])
    def test_partial_fraction_invariants(self, model):
        dist = hitting_time_distribution(model)
        assert math.fsum(dist.coefficients) == pytest.approx(1.0, abs=1e-8)
        t = np.linspace(0.0, 50.0, 2001)
        assert (dist.pdf(t) >= -1e-12).all()
        # termwise analytic integral of the density
        total = math.fsum(dist.coefficients)
        assert total == pytest.approx(1.0, abs=1e-8)
        exact = expected_absorption_time(model).exact_mean
        assert dist.implied_mean() == pytest.approx(exact, rel=1e-8)

    def test_quadrature_mean_matches(self):
        model = power_law(1.0, 1.0, 6)
        dist = hitting_time_distribution(model)
        mean, _ = quad(lambda t: t * dist.pdf(t), 0.0, np.inf)
        assert mean == pytest.approx(dist.mean(), rel=1e-6)

    def test_cdf_limits(self):
        dist = hitting_time_distribution(power_law(1.0, 2.0, 9))
        assert dist.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dist.cdf(1e3) == pytest.approx(1.0, abs=1e-10)

    def test_start_state_validation(self):
        with pytest.raises(StateOutOfRange):
            hitting_time_distribution(power_law(1.0, 1.0, 5), start_state=5)


class TestLawConditioning:
    # kappa = sum |C_k| bounds the cancellation in 1 - sum C_k e^{-lambda_k t}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [
        power_law(1.0, 1.0, 120),    # kappa = 2^119: pdf(0.1) was -9.2e18
        power_law(1.0, 1e-6, 150),   # coefficients overflow: all nan
        power_law(1.0, 1.0, 30),     # kappa = 2^29: just past the limit
    ], ids=["kappa-6.6e35", "overflow", "kappa-5.4e8"])
    def test_ill_conditioned_law_refused(self, model):
        with pytest.raises(ToleranceNotMet, match="absorption_probability"):
            hitting_time_distribution(model)

    @pytest.mark.filterwarnings("error")
    def test_well_conditioned_law_kept(self):
        # kappa = 78 on the benchmark's law job; 2^24 - 1 for rates 1..24
        model = power_law(1.0, 2.0, 2000)
        law = hitting_time_distribution(model)
        kappa = float(np.sum(np.abs(law.coefficients)))
        assert kappa == pytest.approx(78.25, abs=0.01)
        assert float(law.cdf(1.0)) == pytest.approx(
            absorption_probability(model, 1, 1.0), abs=1e-10)
        law = hitting_time_distribution(power_law(1.0, 1.0, 25))
        kappa = float(np.sum(np.abs(law.coefficients)))
        assert kappa == pytest.approx(2.0 ** 24 - 1.0, rel=1e-12)
        assert kappa * 2.0 ** -52 <= LAW_ROUNDOFF_TOL

    def test_refused_law_is_available_from_the_forward_solver(self):
        # the linear chain's law is (1 - e^{-t})^{119}
        model = power_law(1.0, 1.0, 120)
        for t in (2.0, 5.0, 8.0):
            assert absorption_probability(model, 1, t) == pytest.approx(
                (1.0 - math.exp(-t)) ** 119, abs=1e-10)


class TestPowerLawExpectedTime:
    def test_inverse_square_rates_cubic_sum(self):
        report = powerlaw_expected_time(1.0, -2, 3)
        assert report.value == 14.0
        assert report.growth == pytest.approx(9.0, rel=1e-15)

    def test_quadratic_rates_first_term(self):
        report = powerlaw_expected_time(1.0, 2, 1)
        assert report.value == 1.0
        assert report.limit == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        assert report.tail_bound == 1.0

    def test_single_inverse_square_term(self):
        assert powerlaw_expected_time(2.0, -2, 1).value == 0.5

    def test_partial_sum_below_limit(self):
        for n in (10, 100, 1000):
            report = powerlaw_expected_time(1.5, 2, n)
            assert report.value < report.limit
            assert report.limit - report.value < report.tail_bound

    def test_cubic_growth_ratio(self):
        n = 10 ** 4
        big = powerlaw_expected_time(1.0, -2, 2 * n).value
        small = powerlaw_expected_time(1.0, -2, n).value
        assert big / small == pytest.approx(8.0, rel=0.01)

    def test_coefficient_scales_inversely(self):
        assert powerlaw_expected_time(2.0, -2, 20).value == \
            powerlaw_expected_time(1.0, -2, 20).value / 2.0

    def test_rejects_other_exponents(self):
        with pytest.raises(OutOfRange):
            powerlaw_expected_time(1.0, 1, 5)
        with pytest.raises(OutOfRange):
            powerlaw_expected_time(-1.0, 2, 5)
        with pytest.raises(OutOfRange):
            powerlaw_expected_time(1.0, 2, 0)

    @pytest.mark.parametrize("exponent", [2, -2])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, c, exponent):
        # nan used to give a nan value, and inf with exponent -2 gave 0.0
        with pytest.raises(OutOfRange, match="finite"):
            powerlaw_expected_time(c, exponent, 10)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 10 ** 5])
    @pytest.mark.parametrize("c", [1.0, 0.3])
    def test_square_sum_identity(self, n, c):
        direct = sum(k * k for k in range(1, n + 1))
        assert powerlaw_expected_time(c, -2, n).value == direct / c

    def test_quadratic_rates_match_fsum(self):
        oracle = math.fsum(1.0 / k ** 2 for k in range(1, 10 ** 5 + 1)) / 1.5
        assert powerlaw_expected_time(1.5, 2, 10 ** 5).value == \
            pytest.approx(oracle, rel=1e-12, abs=0)

    def test_matches_model_rate_sum(self):
        # the standalone report agrees with summing 1/rate over the model
        model = power_law(1.0, -2.0, 21)
        exact = expected_absorption_time(model).exact_mean
        assert powerlaw_expected_time(1.0, -2, 20).value == \
            pytest.approx(exact, rel=1e-12)
