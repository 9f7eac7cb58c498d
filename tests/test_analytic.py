import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from purebirth import (OutOfRange, StateOutOfRange,
                       ToleranceNotMet, expected_absorption_time,
                       forward_probabilities,
                       hitting_time_distribution, hypergeometric_mixing,
                       power_law, rate_vector, yule_scaled)
from purebirth import analytic
from purebirth.analytic import (EULER_GAMMA, LAW_ROUNDOFF_TOL, _LEAF,
                                 _partial_fractions)
from scalar_oracles import harmonic, rate_at, rate_list

# where the law's refusals send a caller for P(T <= t)
FORWARD_CDF = re.escape("use forward_probabilities(...).probabilities[-1] "
                        "for P(T <= t)")

# frozen from the direct-summation oracle (1999/620) * H_1999
EXACT_MEAN_FANS = 26.367029579220898


class TestHarmonicNumber:
    """The tests' own H_n, which the yule closed form is checked with."""

    def test_first_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_large_n_bracket(self):
        h = harmonic(1999)
        assert math.log(1999) < h <= math.log(1999) + 1.0

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_log_bracket(self, n):
        h = harmonic(n)
        assert math.log(n) < h <= math.log(n) + 1.0

    def test_matches_fsum_oracle(self):
        # H_1999 in exact rational arithmetic, rounded once
        exact = float(sum(Fraction(1, k) for k in range(1, 2000)))
        assert harmonic(1999) == pytest.approx(exact, rel=2e-16, abs=0)


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

    def test_start_state_must_be_in_the_chain(self):
        model = hypergeometric_mixing(5, 1.0, 1.0)
        for start in (0, 6):
            with pytest.raises(StateOutOfRange):
                expected_absorption_time(model, start)
        # from the absorbing state T = 0 (this start was refused)
        report = expected_absorption_time(model, 5)
        assert (report.exact_mean, report.variance) == (0.0, 0.0)

    def test_sanity_envelope_for_large_populations(self):
        for n in (100, 1000, 10000):
            report = expected_absorption_time(yule_scaled(n, 1.0, 0.31))
            gap = abs(report.exact_mean - report.approx_mean)
            assert gap / report.exact_mean < 0.15


def fsum_moments(model, start):
    """(E(T), Var(T)) by exactly rounded sums over the scalar rate oracle,
    one state at a time: the reference the vector sums are held to."""
    rates = rate_list(model, start)
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
        closed = (n - 1) / (p * mu * n) * harmonic(n - 1)
        exact = expected_absorption_time(yule_scaled(n, mu, p)).exact_mean
        assert exact == pytest.approx(closed, rel=1e-10, abs=0)

    def test_underflowing_rate_is_an_error(self):
        # 9^-400 underflows to 0, so E(T) would overflow a float
        with pytest.raises(OutOfRange, match="overflows"):
            expected_absorption_time(power_law(1.0, -400.0, 10))

    @pytest.mark.parametrize("c", [1e-160, 1e-200])
    def test_overflowing_variance_is_none(self, c):
        # a valid model whose squared rates are subnormal (1e-160) or 0:
        # Var(T) overflows a float, E(T) does not
        report = expected_absorption_time(power_law(c, 1.0, 4))
        assert report.variance is None
        mean = math.fsum(1.0 / (c * k) for k in (1, 2, 3))
        assert math.isfinite(report.exact_mean)
        assert report.exact_mean == pytest.approx(mean, rel=1e-15, abs=0)


# each builds a model whose absorbing state is `absorbing`
LEAF_MODELS = {
    "yule": lambda absorbing: yule_scaled(absorbing, 1.0, 0.31),
    "hypergeometric": lambda absorbing: hypergeometric_mixing(absorbing, 2.0,
                                                              0.7),
    "powerlaw+1": lambda absorbing: power_law(1.5, 1.0, absorbing),
    "powerlaw-1": lambda absorbing: power_law(1.5, -1.0, absorbing),
    "powerlaw+2": lambda absorbing: power_law(1.5, 2.0, absorbing),
    "powerlaw-2": lambda absorbing: power_law(0.5, -2.0, absorbing),
}


class TestLeafSums:
    """E(T) and Var(T) are summed leaf by leaf along np.sum's pairwise
    tree, and equal np.sum over the whole rate vector to the bit."""

    @pytest.mark.parametrize("count", [
        _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 9, 199_999, 10 ** 6 - 1])
    @pytest.mark.parametrize("family", LEAF_MODELS)
    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_bitwise_equal_to_np_sum(self, count, family, where):
        # count transient states, from state 1 or from the middle state
        start = 1 if where == "first" else count
        model = LEAF_MODELS[family](start + count)
        rates = rate_vector(model, start)
        assert rates.size == count
        report = expected_absorption_time(model, start)
        if family != "powerlaw-2":  # its E(T) is an exact integer sum
            assert report.exact_mean == float(np.sum(1.0 / rates))
        assert report.variance == float(np.sum(1.0 / rates ** 2))

    def test_variance_overflowing_in_a_later_leaf_is_none(self):
        # 1/lambda_k^2 = (k / 4e-150)^2 overflows from k = 53 632 on, in
        # a leaf after the first
        model = power_law(4e-150, -1.0, 70_000)
        rates = rate_vector(model)
        with np.errstate(over="ignore"):
            squares = 1.0 / rates ** 2
        assert np.isfinite(squares[:_LEAF]).all()
        assert not np.isfinite(squares).all()
        report = expected_absorption_time(model)
        assert report.variance is None
        assert report.exact_mean == float(np.sum(1.0 / rates))

    def test_too_many_states_are_refused_at_once(self):
        # 2^52 - 1 states would take days of sums
        model = yule_scaled(2 ** 52, 1.0, 0.31)
        started = time.perf_counter()
        with pytest.raises(OutOfRange, match="4503599627370495 transient"):
            expected_absorption_time(model)
        assert time.perf_counter() - started < 1.0

    def test_the_bound_counts_transient_states(self, monkeypatch):
        monkeypatch.setattr(analytic, "MAX_SUM_STATES", 100)
        model = yule_scaled(201, 1.0, 0.31)
        assert expected_absorption_time(model, 101).exact_mean > 0.0
        with pytest.raises(OutOfRange, match="101 transient states"):
            expected_absorption_time(model, 100)

    def test_memory_at_a_million_states(self):
        # one 256 KB row of steps and two of work: the whole rate vector
        # alone would be 8 MB
        model = yule_scaled(10 ** 6, 1.0, 0.31)
        tracemalloc.start()
        try:
            expected_absorption_time(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


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
        assert dist.implied_mean() == pytest.approx(1.5, rel=1e-15)

    def test_single_stage(self):
        model = hypergeometric_mixing(2, 2.0, 0.5)  # lambda_1 = 1
        dist = hitting_time_distribution(model)
        t = np.linspace(0.0, 4.0, 50)
        np.testing.assert_allclose(dist.pdf(t), np.exp(-t), atol=1e-14)

    def test_symmetric_rates_rejected(self):
        with pytest.raises(ToleranceNotMet):
            hitting_time_distribution(hypergeometric_mixing(4, 1.0, 1.0))

    @pytest.mark.parametrize("rates", [[3.0, 1.0, 2.0, 1.0], [5.0, 5.0]])
    def test_repeated_rates_are_refused_before_the_product(self, rates):
        # a tie was refused by kappa = inf or nan, after one block
        with pytest.raises(ToleranceNotMet,
                           match="repeat; " + FORWARD_CDF):
            _partial_fractions(np.array(rates))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(3, 400), data=st.data())
    def test_mixing_rates_repeat_below_the_midpoint(self, n, data):
        # k (N - k) = j (N - j) for k != j exactly when j = N - k, and the
        # least repeated rate in states start..N-1 is that of start, N-start
        start = data.draw(st.integers(1, n - 1), label="start")
        model = hypergeometric_mixing(n, 1.0, 0.5)
        if 2 * start < n:
            with pytest.raises(ToleranceNotMet):
                hitting_time_distribution(model, start)
        else:
            # distinct rates: the law, or a refusal of its conditioning
            try:
                law = hitting_time_distribution(model, start)
            except ToleranceNotMet as exc:
                assert re.search(FORWARD_CDF, str(exc))
            else:
                assert law.rates.size == n - start

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(model_start=st.one_of(
        st.integers(3, 400).flatmap(lambda n: st.tuples(
            st.just(hypergeometric_mixing(n, 1.0, 0.5)),
            st.integers(1, n - 1))),
        st.tuples(st.builds(power_law, st.just(1.0),
                            st.just(0.0) | st.floats(1e-12, 1e-2),
                            st.integers(2, 300)),
                  st.just(1))))
    def test_close_rates_are_refused(self, model_start):
        # one way: any pair within 1e-9 relative makes kappa too large
        model, start = model_start
        rates = np.sort(rate_vector(model, start))
        if (np.diff(rates) <= 1e-9 * rates[1:]).any():
            with pytest.raises(ToleranceNotMet):
                hitting_time_distribution(model, start)

    @pytest.mark.parametrize("start", [1, 20_000])
    def test_refusal_costs_one_block(self, start):
        # the whole O(m^2) product took 1.4 s from the midpoint; from start
        # 1 the rates repeat, and from 20 000 the first block overflows
        model = hypergeometric_mixing(40_000, 1.0, 0.31)
        began = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match=FORWARD_CDF):
            hitting_time_distribution(model, start)
        assert time.perf_counter() - began < 0.1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, start", [
        (power_law(1.0, 1.0, 8), 1),
        (power_law(2.0, -2.0, 7), 1),
        (hypergeometric_mixing(9, 1.0, 0.5), 5),
        (power_law(1.0, 2.0, 2000), 1),
    ])
    def test_coefficients_match_elementwise_oracle(self, model, start):
        # 2000 states span several bands and blocks of the product, and
        # 1561 of its coefficients are +0 or -0
        dist = hitting_time_distribution(model, start)
        oracle = elementwise_oracle(rate_vector(model, start))
        assert_bitwise_equal(dist.coefficients, oracle)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(200, 1100), power=st.floats(2.0, 6.0),
           order=st.sampled_from(["increasing", "decreasing", "shuffled"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_coefficients_match_the_oracle_to_the_bit(self, m, power, order,
                                                      seed):
        # rates k^power past m = 256 cross band and block edges, and from
        # m of about 300 whole blocks underflow to 0 and stop early, with
        # an odd or even number of sign flips left in decreasing order
        rates = np.arange(1.0, m + 1.0) ** power
        if order == "decreasing":
            rates = rates[::-1].copy()
        elif order == "shuffled":
            rates = np.random.default_rng(seed).permutation(rates)
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = elementwise_oracle(rates)
        kappa = float(np.sum(np.abs(oracle)))
        if kappa * 2.0 ** -52 <= LAW_ROUNDOFF_TOL:
            assert_bitwise_equal(_partial_fractions(rates), oracle)
        else:
            # decreasing rates past m of about 1000 overflow in this order
            with pytest.raises(ToleranceNotMet):
                _partial_fractions(rates)

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
        assert mean == pytest.approx(
            expected_absorption_time(model).exact_mean, rel=1e-6)

    def test_cdf_limits(self):
        dist = hitting_time_distribution(power_law(1.0, 2.0, 9))
        assert dist.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dist.cdf(1e3) == pytest.approx(1.0, abs=1e-10)

    def test_start_state_validation(self):
        model = power_law(1.0, 1.0, 5)
        for start in (0, 6):
            with pytest.raises(StateOutOfRange):
                hitting_time_distribution(model, start_state=start)
        # from the absorbing state (refused before) T = 0: a point mass
        law = hitting_time_distribution(model, start_state=5)
        assert law.cdf(0.0) == 1.0 and law.pdf(0.0) == 0.0
        assert law.cdf([0.5, 1e3]).tolist() == [1.0, 1.0]
        assert law.pdf([[0.5], [1e3]]).tolist() == [[0.0], [0.0]]
        assert law.implied_mean() == 0.0


class TestLawConditioning:
    # kappa = sum |C_k| bounds the cancellation in 1 - sum C_k e^{-lambda_k t}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [
        power_law(1.0, 1.0, 120),    # kappa = 2^119: pdf(0.1) was -9.2e18
        power_law(1.0, 1e-6, 150),   # coefficients overflow: all nan
        power_law(1.0, 1.0, 30),     # kappa = 2^29: just past the limit
    ], ids=["kappa-6.6e35", "overflow", "kappa-5.4e8"])
    def test_ill_conditioned_law_refused(self, model):
        with pytest.raises(ToleranceNotMet, match=FORWARD_CDF):
            hitting_time_distribution(model)

    @pytest.mark.filterwarnings("error")
    def test_well_conditioned_law_kept(self):
        # kappa = 78 on the benchmark's law job; 2^24 - 1 for rates 1..24
        model = power_law(1.0, 2.0, 2000)
        law = hitting_time_distribution(model)
        kappa = float(np.sum(np.abs(law.coefficients)))
        assert kappa == pytest.approx(78.25, abs=0.01)
        assert float(law.cdf(1.0)) == pytest.approx(
            forward_probabilities(model, 1, 1.0).probabilities[-1],
            abs=1e-10)
        law = hitting_time_distribution(power_law(1.0, 1.0, 25))
        kappa = float(np.sum(np.abs(law.coefficients)))
        assert kappa == pytest.approx(2.0 ** 24 - 1.0, rel=1e-12)
        assert kappa * 2.0 ** -52 <= LAW_ROUNDOFF_TOL

    def test_refused_law_is_available_from_the_forward_solver(self):
        # the linear chain's law is (1 - e^{-t})^{119}
        model = power_law(1.0, 1.0, 120)
        for t in (2.0, 5.0, 8.0):
            assert forward_probabilities(model, 1, t).probabilities[-1] == \
                pytest.approx((1.0 - math.exp(-t)) ** 119, abs=1e-10)


def elementwise_oracle(rates):
    """Each C_k by its own np.prod, in ascending j order."""
    oracle = np.empty(rates.size)
    for k in range(rates.size):
        others = np.delete(rates, k)
        oracle[k] = np.prod(others / (others - rates[k]))
    return oracle


def reference_cdf(law, t):
    # the law's cdf written out as one expression, temporaries and all
    t = np.asarray(t, dtype=float)
    return 1.0 - (law.coefficients
                  * np.exp(-np.multiply.outer(t, law.rates))).sum(axis=-1)


def reference_pdf(law, t):
    t = np.asarray(t, dtype=float)
    return (law.coefficients * law.rates
            * np.exp(-np.multiply.outer(t, law.rates))).sum(axis=-1)


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestLawEvaluation:
    """cdf and pdf fill one times x states array in place; the values are
    those of the plain expressions, to the bit."""

    @pytest.mark.parametrize("model", [power_law(1.0, 2.0, 2000),
                                       power_law(1.0, 1.0, 8)],
                             ids=["bench-law", "small"])
    def test_bitwise_equal_to_the_expressions(self, model):
        # the benchmark's grid: 200 points on [0, 4 E(T)]
        law = hitting_time_distribution(model)
        t = np.linspace(0.0, 4.0 * expected_absorption_time(model).exact_mean,
                        200)
        assert_bitwise_equal(law.cdf(t), reference_cdf(law, t))
        assert_bitwise_equal(law.pdf(t), reference_pdf(law, t))
        for scalar in (0.0, 0.37, float(t[117])):
            assert_bitwise_equal(law.cdf(scalar), reference_cdf(law, scalar))
            assert_bitwise_equal(law.pdf(scalar), reference_pdf(law, scalar))

    @pytest.mark.parametrize("model", [power_law(1.0, 2.0, 2000),
                                       power_law(1.0, 1.0, 8)],
                             ids=["bench-law", "small"])
    def test_bitwise_equal_where_exp_underflows(self, model):
        # exp is subnormal from about -708 down and 0 from about -745.13;
        # the rate 1 of the small law puts -t itself on the exp axis
        law = hitting_time_distribution(model)
        edges = np.array([708.0, 745.13, 745.1332, 745.14, 746.0])
        x = np.concatenate([np.linspace(700.0, 760.0, 61), edges,
                            np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf)])
        t = np.multiply.outer(x, 1.0 / law.rates[::400]).reshape(-1)
        t = np.concatenate([x, t])
        assert_bitwise_equal(law.cdf(t), reference_cdf(law, t))
        assert_bitwise_equal(law.pdf(t), reference_pdf(law, t))

    @pytest.mark.parametrize("method", ["cdf", "pdf"])
    def test_a_python_float_gives_a_numpy_float(self, method):
        law = hitting_time_distribution(power_law(1.0, 2.0, 20))
        assert type(getattr(law, method)(1.5)) is np.float64
        assert type(getattr(law, method)(2)) is np.float64

    @pytest.mark.parametrize("method", ["cdf", "pdf"])
    def test_times_of_any_numeric_type_give_the_same_values(self, method):
        # each is the float64 array np.asarray(t, dtype=float), as before
        law = hitting_time_distribution(power_law(1.0, 2.0, 20))
        evaluate = getattr(law, method)
        t = np.array([0.0, 0.5, 1.25, 3.0])
        expected = evaluate(t)
        for same in ([0.0, 0.5, 1.25, 3.0], t.astype(np.float32),
                     [0, np.float64(0.5), np.float32(1.25), np.int64(3)]):
            assert_bitwise_equal(evaluate(same), expected)
        for whole in (3, np.int64(3), np.int32(3), np.float64(3.0)):
            assert_bitwise_equal(evaluate(whole), expected[-1])

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("method", ["cdf", "pdf"])
    def test_times_keep_their_shape(self, method, shape):
        law = hitting_time_distribution(power_law(1.0, 2.0, 20))
        t = np.linspace(0.0, 3.0, max(1, math.prod(shape))).reshape(shape)
        values = getattr(law, method)(t)
        assert np.shape(values) == shape
        flat = getattr(law, method)(t.reshape(-1))
        assert_bitwise_equal(np.reshape(values, -1), flat)

    @staticmethod
    def bench_law_peaks(points):
        """Traced peaks of building the benchmark's law and of one cdf call
        on points times."""
        model = power_law(1.0, 2.0, 2000)
        tracemalloc.start()
        try:
            law = hitting_time_distribution(model)
            build_peak = tracemalloc.get_traced_memory()[1]
            t = np.linspace(0.0, 4.0 * np.sum(1.0 / law.rates), points)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            law.cdf(t)
            cdf_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return build_peak, cdf_peak

    def test_memory_of_the_bench_law(self):
        # one 512 KB band buffer for the build; for a call, one block of 32
        # x 1999 times (512 KB) with its 64 KB mask, and the values
        build_peak, cdf_peak = self.bench_law_peaks(200)
        assert build_peak <= 2.5e6
        assert cdf_peak <= 1e6

    def test_memory_on_many_times(self):
        # the same block: the whole 20 000 x 1999 array would be 320 MB
        assert self.bench_law_peaks(20_000)[1] <= 1e6


def powerlaw_time(c, exponent, n, start=1):
    """The report of rates c k**exponent on states start..n."""
    return expected_absorption_time(power_law(c, exponent, n + 1), start)


class TestPowerLawExpectedTime:
    """expected_absorption_time on the paper's c k^2 and c / k^2 models:
    for c / k^2 the exact integer sum and its n^3/(3c) growth, for c k^2
    the bound pi^2/(6c) as approx_mean."""

    def test_inverse_square_rates_cubic_sum(self):
        report = powerlaw_time(1.0, -2, 3)
        assert report.exact_mean == 14.0
        assert report.approx_mean == pytest.approx(9.0, rel=1e-15)

    def test_quadratic_rates_first_term(self):
        report = powerlaw_time(1.0, 2, 1)
        assert report.exact_mean == 1.0
        assert report.approx_mean == pytest.approx(math.pi ** 2 / 6.0,
                                                   rel=1e-15)

    def test_single_inverse_square_term(self):
        assert powerlaw_time(2.0, -2, 1).exact_mean == 0.5

    def test_partial_sum_below_limit(self):
        for n in (10, 100, 1000):
            report = powerlaw_time(1.5, 2, n)
            assert report.exact_mean < report.approx_mean
            # the tail past n is below 1/(c n)
            assert report.approx_mean - report.exact_mean < 1.0 / (1.5 * n)

    def test_cubic_growth_ratio(self):
        n = 10 ** 4
        big = powerlaw_time(1.0, -2, 2 * n).exact_mean
        small = powerlaw_time(1.0, -2, n).exact_mean
        assert big / small == pytest.approx(8.0, rel=0.01)

    def test_coefficient_scales_inversely(self):
        assert powerlaw_time(2.0, -2, 20).exact_mean == \
            powerlaw_time(1.0, -2, 20).exact_mean / 2.0

    @pytest.mark.parametrize("exponent", [2, -2])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, "1", True])
    def test_rejects_non_finite_coefficient(self, c, exponent):
        # the model refuses such a c before any sum is taken
        with pytest.raises(OutOfRange, match="finite"):
            powerlaw_time(c, exponent, 10)

    @pytest.mark.parametrize("c", [2, np.int64(2), np.float64(2.0),
                                   np.float32(2.0)])
    def test_coefficient_of_any_real_type_accepted(self, c):
        assert powerlaw_time(c, 2, 10).exact_mean == \
            powerlaw_time(2.0, 2, 10).exact_mean

    @pytest.mark.parametrize("exponent", [2, -2])
    @pytest.mark.parametrize("c, n", [(np.float32(3), 10 ** 6),
                                      (Fraction(1, 3), 10)])
    def test_coefficient_is_taken_as_a_float(self, c, n, exponent):
        report = powerlaw_time(c, exponent, n)
        assert type(report.exact_mean) is float
        assert type(report.approx_mean) is float
        assert report == powerlaw_time(float(c), exponent, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 10 ** 5])
    @pytest.mark.parametrize("c", [1.0, 0.3])
    def test_square_sum_identity(self, n, c):
        direct = sum(k * k for k in range(1, n + 1))
        assert powerlaw_time(c, -2, n).exact_mean == direct / c

    @pytest.mark.parametrize("start", [2, 3, 500, 999, 1000, 1001])
    @pytest.mark.parametrize("c", [1.0, 0.3, 3.0])
    def test_square_sum_from_a_later_start(self, start, c):
        # the sum of k^2 over start..n in integers, then one division by c
        direct = sum(k * k for k in range(start, 1001))
        report = powerlaw_time(c, -2, 1000, start)
        assert report.exact_mean == direct / c
        assert report.approx_mean == 1000 ** 3 / (3.0 * c)
        assert powerlaw_time(c, -2, 1000, np.int64(start)) == report

    def test_quadratic_rates_match_fsum(self):
        oracle = math.fsum(1.0 / k ** 2 for k in range(1, 10 ** 5 + 1)) / 1.5
        assert powerlaw_time(1.5, 2, 10 ** 5).exact_mean == \
            pytest.approx(oracle, rel=1e-12, abs=0)

    def test_matches_model_rate_sum(self):
        # the integer sum agrees with summing 1/rate over the rate vector
        rates = rate_vector(power_law(1.0, -2.0, 21))
        assert powerlaw_time(1.0, -2, 20).exact_mean == \
            pytest.approx(float(np.sum(1.0 / rates)), rel=1e-12)

    def test_other_exponents_have_no_approximation(self):
        for exponent in (1.0, 2.5, -1.0):
            assert powerlaw_time(1.0, exponent, 10).approx_mean is None


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, [0.0, -1e-300],
                               [1.0, math.nan], "1", None, True, [1, "a"],
                               [[1.0], [1.0, 2.0]]])
@pytest.mark.parametrize("method", ["cdf", "pdf"])
def test_law_takes_only_finite_nonnegative_times(method, t):
    # cdf(-1.0) was -3.4e146 and pdf(-1.0) 1.2e149 here; the ragged
    # [[1.0], [1.0, 2.0]] let numpy's bare ValueError out
    law = hitting_time_distribution(power_law(1.0, 2.0, 20))
    with pytest.raises(OutOfRange, match="t must be finite and >= 0"):
        getattr(law, method)(t)
