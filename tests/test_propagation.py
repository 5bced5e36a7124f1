import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsim import propagation
from radsim.errors import ParameterError
from radsim.propagation import (PropagationParams, expected_infected_closed_form,
                                inflection_time, monte_carlo_propagation, simulate_curve,
                                step_recurrence, write_curve_csv)
from radsim.signals import _MAX_SAMPLES
from reference import (exact_count_distribution, exact_mean_and_variance, geometric_monte_carlo,
                       reference_monte_carlo)

P100 = PropagationParams(n_computers=100, comms_per_interval=15, initial_infected=1)


def rk4_logistic(params, n_max, h=0.01):
    """Independent fine-step integration of df/dx = (M/N) f (1 - f/N)."""
    big_n = params.n_computers
    rate = params.comms_per_interval / big_n

    def rhs(y):
        return rate * y * (1.0 - y / big_n)

    f = float(params.initial_infected)
    out = [f]
    steps_per_unit = int(round(1.0 / h))
    for _ in range(n_max):
        for _ in range(steps_per_unit):
            k1 = rhs(f)
            k2 = rhs(f + h * k1 / 2)
            k3 = rhs(f + h * k2 / 2)
            k4 = rhs(f + h * k3)
            f += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        out.append(f)
    return np.array(out)


class TestParams:
    def test_valid(self):
        p = PropagationParams(10, 3, 2)
        assert p.n_computers == 10

    @pytest.mark.parametrize("kwargs", [
        dict(n_computers=0, comms_per_interval=1),
        dict(n_computers=5, comms_per_interval=0),
        dict(n_computers=5, comms_per_interval=1, initial_infected=0),
        dict(n_computers=5, comms_per_interval=1, initial_infected=6),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            PropagationParams(**kwargs)


class TestClosedForm:
    def test_starts_at_x0(self):
        assert expected_infected_closed_form(P100, 0) == 1.0

    def test_n20(self):
        # 100 / (1 + 99 * exp(-3)), checked against high-precision evaluation
        assert expected_infected_closed_form(P100, 20) == pytest.approx(16.86647887068201, abs=1e-9)

    def test_n60(self):
        assert expected_infected_closed_form(P100, 60) == pytest.approx(98.79298967342723, abs=1e-9)

    def test_saturation(self):
        assert abs(expected_infected_closed_form(P100, 1000) - 100.0) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            expected_infected_closed_form(P100, -1)

    def test_matches_rk4_integration(self):
        oracle = rk4_logistic(P100, 100)
        values = np.array([expected_infected_closed_form(P100, n) for n in range(101)])
        rel = np.abs(values - oracle) / oracle
        assert rel.max() < 1e-6


class TestRecurrence:
    def test_fixed_point_zero(self):
        assert step_recurrence(P100, 0.0) == 0.0

    def test_fixed_point_full(self):
        assert step_recurrence(P100, 100.0) == 100.0

    def test_one_step_from_one(self):
        # 1 + 0.15 * 1 * 0.99 by hand
        assert step_recurrence(P100, 1.0) == pytest.approx(1.1485, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            step_recurrence(P100, -0.5)
        with pytest.raises(ParameterError):
            step_recurrence(P100, 100.5)

    def test_against_closed_form(self):
        # The discrete recurrence genuinely lags the continuous logistic in
        # mid-growth; the gap scales with M/N. Measured bounds, not a claim
        # of equality: ~14.9% at M/N=0.15, ~5.4% at 0.05, ~2.2% at 0.02.
        for m, steps, bound in ((15, 120, 0.15), (5, 400, 0.055), (2, 800, 0.025)):
            p = PropagationParams(100, m, 1)
            cf = np.array([expected_infected_closed_form(p, n) for n in range(steps + 1)])
            rec = simulate_curve(p, steps, "recurrence")
            assert np.max(np.abs(rec - cf) / cf) < bound


class TestCurve:
    def test_hundred_machine_scenario_phases(self):
        curve = simulate_curve(P100, 100, "closed_form")
        values = curve
        assert values[20] < 0.2 * 100
        assert values[60] > 0.95 * 100

    def test_single_computer_constant(self):
        p = PropagationParams(1, 1, 1)
        curve = simulate_curve(p, 10, "closed_form")
        assert np.allclose(curve, 1.0)

    def test_n_max_zero(self):
        curve = simulate_curve(P100, 0, "recurrence")
        assert len(curve) == 1
        assert curve[0] == 1.0

    def test_methods_agree_at_zero(self):
        for method in ("closed_form", "recurrence"):
            assert simulate_curve(P100, 5, method)[0] == 1.0

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            simulate_curve(P100, 5, "exact")

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 500), m=st.integers(1, 20), x0=st.integers(1, 100))
    def test_monotone_increasing_and_bounded(self, n, m, x0):
        x0 = min(x0, n - 1)
        # The discrete map overshoots N once M exceeds N, so the recurrence
        # is only exercised in its stable regime; the closed form has no
        # such restriction.
        cases = [("closed_form", PropagationParams(n, m, x0)),
                 ("recurrence", PropagationParams(n, min(m, n), x0))]
        for method, p in cases:
            v = simulate_curve(p, 50, method)
            diffs = np.diff(v)
            assert np.all(diffs >= 0)
            # strictly increasing until float saturation flattens the tail
            below_cap = v[:-1] < p.n_computers * (1 - 1e-12)
            assert np.all(diffs[below_cap] > 0)
            assert np.all(v <= p.n_computers)

    def test_recurrence_overshoot_rejected(self):
        # M > N drives the discrete map above N; the next step's domain
        # check stops the simulation rather than returning nonsense.
        with pytest.raises(ParameterError):
            simulate_curve(PropagationParams(2, 3, 1), 50, "recurrence")


class TestInflection:
    def test_hundred_machine_scenario(self):
        t = inflection_time(P100)
        assert t == pytest.approx(30.6341323342306, abs=1e-9)
        assert expected_infected_closed_form(P100, t) == pytest.approx(50.0, abs=1e-6)

    def test_symmetric_start(self):
        assert inflection_time(PropagationParams(2, 1, 1)) == 0.0

    def test_inverse_in_comm_rate(self):
        t15 = inflection_time(PropagationParams(100, 15, 1))
        t30 = inflection_time(PropagationParams(100, 30, 1))
        assert t30 == pytest.approx(t15 / 2, rel=1e-12)

    def test_seed_count_just_below_n(self):
        # N/X0 - 1 rounds to 0 here; (N - X0)/X0 = 1/X0 does not.
        big_n = 2 ** 60 - 1
        t = inflection_time(PropagationParams(big_n, 1, big_n - 1))
        assert t == pytest.approx(big_n * math.log(1 / (big_n - 1)), rel=1e-12)

    def test_no_inflection_when_saturated(self):
        with pytest.raises(ParameterError):
            inflection_time(PropagationParams(5, 1, 5))


class TestMonteCarlo:
    def test_single_computer_constant(self):
        curve = monte_carlo_propagation(PropagationParams(1, 1, 1), seed=0, n_max=5, trials=10)
        assert np.array_equal(curve, np.ones(6))

    def test_two_computers_many_comms(self):
        # P(the infected->susceptible pair never drawn in 50 tries) = 2^-50,
        # so every trial saturates; the mean is exactly 2.
        curve = monte_carlo_propagation(PropagationParams(2, 50, 1), seed=1, n_max=1, trials=10)
        assert curve[1] == 2.0

    def test_deterministic_per_seed(self):
        a = monte_carlo_propagation(P100, seed=7, n_max=30, trials=20)
        b = monte_carlo_propagation(P100, seed=7, n_max=30, trials=20)
        assert np.array_equal(a, b)

    def test_mean_nondecreasing_and_bounded(self):
        curve = monte_carlo_propagation(P100, seed=3, n_max=60, trials=50)
        v = curve
        assert np.all(np.diff(v) >= 0)
        assert v[0] == 1.0
        assert np.all(v <= 100.0)

    def test_tracks_closed_form(self):
        # The agent model's mean lags the logistic near the inflection (timing
        # jitter across trials): its exact mean does, by 12.4% of N here.
        cf = np.array([expected_infected_closed_form(P100, n) for n in range(101)])
        mean, variance = exact_mean_and_variance(P100, 100)
        assert np.max(np.abs(cf - mean)) <= 0.13 * 100
        # Standard scores of the Monte Carlo mean against the exact one on
        # steps 10..80. At 1000 trials the largest over those steps was 5.35
        # on seeds 0..9999 (99.9% of seeds below 4.22), and 3.48 for the agent
        # loop on seeds 0..299. The logistic itself scores 16.9 and the
        # recurrence 14.0. The saturated tail (steps >= 90) is left out: its
        # variance is so small that scores there reach 10.2 on those seeds.
        mc = monte_carlo_propagation(P100, seed=109, n_max=100, trials=1000)
        z = (mc - mean)[10:81] / np.sqrt(variance[10:81] / 1000)
        assert np.max(np.abs(z)) < 6.0

    def test_comms_per_interval_at_its_bound(self):
        # n_max * M is about 2**63.3: neither the horizon nor a step may wrap.
        curve = monte_carlo_propagation(PropagationParams(3, _MAX_SAMPLES // 2, 1), 0, 20, 5)
        assert np.array_equal(curve, [1.0] + [3.0] * 20)

    def test_many_machines_few_pairs(self):
        # A trial draws at most n_max * M = 12 waits, whatever N. Each is
        # Geometric(about 1e-12), so no infection falls inside the 4 steps.
        curve = monte_carlo_propagation(PropagationParams(10 ** 12, 3, 1), 0, 4, 50)
        assert np.array_equal(curve, np.ones(5))

    def test_pair_indices_past_int64(self):
        # 100 000 waits of about N/k pairs each (k = N - X), summing to about
        # 12 N, or 1.5 * 2**63: the sums must not wrap, and every trial
        # saturates within the 40 steps of N/2 pairs. About 670 machines are
        # still clean after step 10; p(X) computed from X rounded to float64
        # (ulp 256 here) would have infected them long before.
        big_n = _MAX_SAMPLES
        params = PropagationParams(big_n, big_n // 2, big_n - 100_000)
        curve = monte_carlo_propagation(params, 0, 40, 5)
        assert curve[0] == pytest.approx(params.initial_infected, rel=1e-15)
        assert np.all(np.diff(curve) >= 0) and curve[-1] == float(big_n)
        assert big_n - curve[10] > 256

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            monte_carlo_propagation(P100, seed=0, n_max=5, trials=0)
        with pytest.raises(ParameterError):
            monte_carlo_propagation(P100, seed=0, n_max=-1, trials=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            monte_carlo_propagation(P100, seed=-1, n_max=5, trials=1)


def assert_mean_of_counts(curve, params, trials):
    """``curve`` is a nondecreasing mean of whole counts in [X0, N] over ``trials``."""
    assert curve[0] == params.initial_infected
    assert np.all(np.diff(curve) >= 0)
    assert np.all(curve <= params.n_computers)
    assert np.array_equal(np.round(curve * trials) / trials, curve)


class TestMonteCarloMatchesReference:
    """The count chain against the agent loop and the exact law of the count."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 60), m=st.integers(1, 200), data=st.data(),
           n_max=st.integers(0, 80), trials=st.integers(1, 300),
           seed=st.integers(0, 2 ** 128))
    def test_any_input(self, n, m, data, n_max, trials, seed):
        params = PropagationParams(n, m, data.draw(st.integers(1, n), label="x0"))
        assert_mean_of_counts(monte_carlo_propagation(params, seed, n_max, trials), params, trials)

    @pytest.mark.parametrize("params, n_max, trials, final", [
        (PropagationParams(2, 3, 1), 10, 4, 2.0),  # P(a trial ends at 1) = 2^-30
        (PropagationParams(2, 50, 1), 1, 10, 2.0),  # P(a trial ends at 1) = 2^-50
        (PropagationParams(1, 1, 1), 5, 3, 1.0),
        (PropagationParams(5, 3, 5), 8, 2, 5.0),
        (PropagationParams(40, 7, 1), 0, 3, 1.0),
    ], ids=["n2", "n2-many-comms", "n1", "x0-is-n", "n_max-0"])
    def test_edge_cases(self, params, n_max, trials, final):
        for simulate in (monte_carlo_propagation, reference_monte_carlo):
            curve = simulate(params, 5, n_max, trials)
            assert_mean_of_counts(curve, params, trials)
            assert curve.shape == (n_max + 1,) and curve[-1] == final

    def test_agrees_in_distribution(self):
        # The count after 2 steps at (N, M, X0) = (6, 3, 1), one trial per
        # seed, from both simulations, against its exact law.
        params, seeds = PropagationParams(6, 3, 1), 10_000
        expected = exact_count_distribution(params, 2)[-1, 1:] * seeds
        for simulate in (reference_monte_carlo, monte_carlo_propagation):
            counts = [int(simulate(params, seed, 2, 1)[-1]) for seed in range(seeds)]
            observed = np.bincount(counts, minlength=7)[1:]
            # Chi-square on the counts 1..6: 5 degrees of freedom, P(> 25.74) = 1e-4.
            assert np.sum((observed - expected) ** 2 / expected) < 25.74

    def test_agrees_in_distribution_below_five_machines(self):
        # At N = 4, p(2) = 1/3: numpy's geometric sampler would search uniforms
        # there, while the waits are drawn by inversion. The count after
        # 2 steps at (N, M, X0) = (4, 2, 1), one trial per seed, against its law.
        params, seeds = PropagationParams(4, 2, 1), 10_000
        expected = exact_count_distribution(params, 2)[-1, 1:] * seeds
        counts = [int(monte_carlo_propagation(params, seed, 2, 1)[-1]) for seed in range(seeds)]
        observed = np.bincount(counts, minlength=5)[1:]
        # Chi-square on the counts 1..4: 3 degrees of freedom, P(> 21.11) = 1e-4.
        assert np.sum((observed - expected) ** 2 / expected) < 21.11

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.integers(5, 200), st.integers(5, 2 ** 40)), m=st.integers(1, 500),
           n_max=st.integers(0, 60), trials=st.integers(1, 12), seed=st.integers(0, 2 ** 64),
           block_values=st.sampled_from([1, 5, 64, propagation._BLOCK_VALUES]), data=st.data())
    def test_geometric_sampler_from_five_machines(self, n, m, n_max, trials, seed, block_values,
                                                  data):
        # For p < 1/3, numpy's geometric draws ceil(E / -log1p(-p)) from one
        # standard exponential E, and p(X) <= N / (4 (N - 1)) < 1/3 once N >= 5.
        # Small blocks split a trial's waits into chunks.
        x0 = data.draw(st.one_of(st.integers(1, 3), st.integers(1, n)), label="x0")
        params = PropagationParams(n, m, x0)
        with mock.patch.object(propagation, "_BLOCK_VALUES", block_values):
            curve = monte_carlo_propagation(params, seed, n_max, trials)
        assert np.array_equal(curve, geometric_monte_carlo(params, seed, n_max, trials))

    def test_trial_in_chunks(self):
        # 19 999 waits per trial: three chunks of at most 8192, pair indices
        # carried across each chunk edge, as one geometric row sums them.
        params = PropagationParams(20_000, 100, 1)
        assert min(params.n_computers - 1, 200 * 100) > 2 * propagation._BLOCK_VALUES
        for seed in (0, 1):
            assert np.array_equal(monte_carlo_propagation(params, seed, 200, 3),
                                  geometric_monte_carlo(params, seed, 200, 3))

    def test_memory_bounded_by_the_block(self, traced_peak):
        # A million waits per trial, drawn a block at a time: a million-state
        # array alone would be 8 MB.
        params = PropagationParams(10 ** 6 + 1, 10 ** 6, 1)
        assert traced_peak(lambda: monte_carlo_propagation(params, 0, 2, 2)) < 1_000_000

    @pytest.mark.parametrize("block_values", [1, 7, 64, 1000])
    def test_small_blocks(self, monkeypatch, block_values):
        cases = ((P100, 60, 25), (PropagationParams(20, 3, 2), 40, 11),
                 (PropagationParams(2, 1, 1), 6, 9))
        expected = [monte_carlo_propagation(p, 8, n_max, trials) for p, n_max, trials in cases]
        monkeypatch.setattr(propagation, "_BLOCK_VALUES", block_values)
        for (params, n_max, trials), want in zip(cases, expected):
            assert np.array_equal(monte_carlo_propagation(params, 8, n_max, trials), want)


def test_curve_csv_round_trip(tmp_path):
    curve = simulate_curve(P100, 40, "closed_form")
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    text = path.read_text()
    assert text.startswith("n,expected_infected\n")
    # full float precision survives the file
    steps, values = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(steps, np.arange(len(curve)))
    assert np.array_equal(values, curve)
    # at least 9 significant digits in a representative row
    row20 = text.splitlines()[21].split(",")[1]
    assert len(row20.replace(".", "").replace("-", "").lstrip("0")) >= 9


@pytest.mark.parametrize("make", [
    lambda n_max: simulate_curve(P100, n_max, "closed_form"),
    lambda n_max: simulate_curve(P100, n_max, "recurrence"),
    lambda n_max: monte_carlo_propagation(P100, 4, n_max, 3),
], ids=["closed_form", "recurrence", "monte_carlo"])
@pytest.mark.parametrize("n_max", [0, 1, 37])
def test_curve_is_float64_array_indexed_by_step(make, n_max):
    curve = make(n_max)
    assert type(curve) is np.ndarray
    assert curve.dtype == np.float64
    assert curve.shape == (n_max + 1,)


def test_monte_carlo_csv_bytes(tmp_path):
    # Fractional means (200 trials) written as full-precision reprs, one row per step.
    curve = monte_carlo_propagation(P100, seed=109, n_max=100, trials=200)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    rows = [f"{int(n)},{float(v)!r}" for n, v in enumerate(curve)]
    assert path.read_bytes() == "\n".join(["n,expected_infected", *rows, ""]).encode()
