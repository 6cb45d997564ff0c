import math

import numpy as np
import pytest

from conftest import make_generic_channel, trial_point
from coopalign.errors import GenericityError, ParameterError
from coopalign.tradeoff import (Lemma1Report, RateReport, centralized_report,
                                illustrating_example, lemma1_check,
                                normalized_bound_slope, optimal_tradeoff,
                                rx_sum_upper_bound, tdma_report,
                                top_half_slope, tx_sum_upper_bound)


class TestSlopes:
    def test_top_half_slope_exact_line(self):
        P = 2.0 ** np.arange(1.0, 9.0)
        assert top_half_slope(P, 0.7 * np.log2(P) + 2.0) == pytest.approx(0.7)

    @pytest.mark.parametrize("P", [[1e2], [1e2, 1e4]])
    def test_top_half_slope_needs_two_points(self, P):
        with pytest.raises(ParameterError, match="2 points"):
            top_half_slope(P, np.ones(len(P)))

    def test_top_half_ignores_low_powers(self):
        P = np.array([1e2, 1e4, 1e6, 1e8])
        vals = 0.5 * np.log2(P)
        vals[0] += 5.0                       # low-power transient
        assert top_half_slope(P, vals) == pytest.approx(0.5)


class TestPoints:
    def test_optimal_curve_frozen(self):
        assert optimal_tradeoff(0.0) == 0.5
        assert optimal_tradeoff(0.5) == 0.75
        assert optimal_tradeoff(1.0) == 1.0
        assert optimal_tradeoff(2.0) == 1.0
        with pytest.raises(ParameterError):
            optimal_tradeoff(-0.2)

    def test_timeshare_segment_matches_optimal_curve(self):
        # the straight segment between (0, 1/2) and (1, 1) is the curve
        for lam in np.linspace(0.0, 1.0, 21):
            shared = ((1 - lam) * optimal_tradeoff(0.0)
                      + lam * optimal_tradeoff(1.0))
            assert shared == pytest.approx(optimal_tradeoff(lam))

    def test_centralized_run_point(self):
        # K - 1 observations in and K - 1 messages out: alpha = 2(K-1)/K
        _, _, alpha, dof = trial_point({"scheme": "centralized", "N": 1,
                                        "rng_seed": 5})
        assert abs(alpha - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
        assert abs(dof - 1.0) <= 0.05

    def test_tdma_run_point(self):
        # no backhaul, each user on air 1/K of the time
        _, _, alpha, dof = trial_point({"scheme": "tdma", "N": 1,
                                        "rng_seed": 5})
        assert alpha == 0.0
        assert abs(dof - 1.0 / 3.0) <= 0.02


class TestRateReport:
    def _report(self):
        P = np.logspace(2, 8, 7)
        rate = 0.25 * np.log2(P)
        return RateReport(P_grid=P, rates=np.stack([rate] * 3, axis=1),
                          rb_bar=0.5 * np.log2(P))

    def test_slopes_exact_on_linear_data(self):
        rep = self._report()
        np.testing.assert_allclose(rep.rate_slopes(), 0.25, rtol=1e-12)
        assert rep.load_slope() == pytest.approx(0.5)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e2, 1e4, 1e6], rates=np.zeros((3, 3)),
                       rb_bar=np.zeros(3))
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e4, 1e2, 1e6, 1e8], rates=np.zeros((4, 3)),
                       rb_bar=np.zeros(4))


class TestBounds:
    def test_rx_closed_form_all_ones(self):
        h = np.ones((3, 3))
        got = rx_sum_upper_bound(h, 1.0, 0.0)
        assert got == pytest.approx(4.75488750216347, abs=1e-12)
        assert got == pytest.approx(3 * math.log2(3))
        assert rx_sum_upper_bound(h, 1.0, 2.0) == pytest.approx(got + 6.0)

    def test_tx_closed_form_all_ones(self):
        h = np.ones((3, 3))
        got = tx_sum_upper_bound(h, 1.0, 0.0)
        assert got == pytest.approx(9.96578428466209, abs=1e-12)
        assert got == pytest.approx(3 * math.log2(10))

    def test_power_validation(self):
        with pytest.raises(ParameterError):
            rx_sum_upper_bound(np.ones((3, 3)), 0.0, 0.0)
        with pytest.raises(ParameterError):
            tx_sum_upper_bound(np.ones((3, 3)), -1.0, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_normalized_slope_tracks_optimal(self, rng, alpha):
        ch = make_generic_channel(rng, n=1)
        for fn in (rx_sum_upper_bound, tx_sum_upper_bound):
            s = normalized_bound_slope(fn, ch.h, alpha)
            assert abs(s - optimal_tradeoff(alpha)) <= 1e-2

    def test_slope_grid_validation(self, rng):
        ch = make_generic_channel(rng, n=1)
        with pytest.raises(ParameterError):
            normalized_bound_slope(rx_sum_upper_bound, ch.h, 0.0,
                                   P_grid=[1e2, 1e4, 1e6])


class TestLemma1:
    def test_random_mix_never_violates(self):
        rep = lemma1_check(K=3, n=2, trials=200, rng_seed=1)
        assert isinstance(rep, Lemma1Report)
        assert rep.all_passed
        assert rep.failures == 0
        assert rep.max_ratio <= 1.0 + 1e-6
        assert rep.trials == 200

    def test_zero_power_hits_equality(self):
        rep = lemma1_check(K=1, n=1, P_vec=[0.0], trials=5, rng_seed=2)
        assert rep.all_passed
        assert rep.max_ratio == pytest.approx(1.0)

    def test_coherent_construction_stays_below(self):
        rep = lemma1_check(K=4, n=1, P_vec=[2.0, 2.0, 2.0, 2.0],
                           trials=300, rng_seed=3)
        assert rep.all_passed

    def test_validation(self):
        with pytest.raises(ParameterError):
            lemma1_check(K=0, n=1)


class TestIllustratingExample:
    def test_slopes_near_one(self):
        rep = illustrating_example(1.5 + 0.5j, rng_seed=4)
        assert rep.rates.shape == (5, 3)
        for s in rep.rate_slopes():
            assert abs(s - 1.0) <= 0.1
        assert abs(rep.load_slope() - 1.0) <= 0.1

    def test_zero_gamma_rejected(self):
        with pytest.raises(ParameterError):
            illustrating_example(0.0)

    def test_zero_gain_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        h[0, 1] = 0.0
        with pytest.raises(GenericityError):
            illustrating_example(2.0, base_H=h)

    def test_degenerate_coefficients_rejected(self):
        # all-ones gains cancel the first decode coefficient exactly
        with pytest.raises(GenericityError):
            illustrating_example(1.0, base_H=np.ones((3, 3)))


def _assert_scheme_point(scheme, N, value):
    """Trial 0 at eps = 0.01 ships 3 * 2^9 symbols, and every row, and the
    load and rate slopes, sit at the frozen operating point."""
    rows, trace, alpha, dof = trial_point({"scheme": scheme, "N": N,
                                           "eps": 0.01})
    assert sum(r["length"] for r in trace if r["stage"] == "backhaul") \
        == 3 * 2 ** 9
    for r in rows:
        assert r["alpha"] == pytest.approx(value, abs=1e-12)
        assert r["dof"] == pytest.approx(value, abs=1e-12)
    assert alpha == pytest.approx(value, abs=1e-12)
    assert dof == pytest.approx(value, abs=1e-12)


class TestSchemeReports:
    def test_rx_scheme_point(self):
        _assert_scheme_point("rx-coop", 2, 0.989998994056806)

    def test_tx_scheme_point(self):
        _assert_scheme_point("tx-coop", 1, 0.989961329635562)

    def test_centralized_report_limits(self, rng):
        ch = make_generic_channel(rng, n=1)
        rep = centralized_report(ch.h)
        assert abs(rep.load_slope() - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
        assert abs(rep.rate_slopes().mean() - 1.0) <= 0.05

    def test_tdma_report_limits(self, rng):
        ch = make_generic_channel(rng, n=1)
        rep = tdma_report(ch.h)
        assert rep.load_slope() == 0.0
        assert abs(rep.rate_slopes().mean() - 1.0 / 3.0) <= 0.02
