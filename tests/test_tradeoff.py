import math

import numpy as np
import pytest

from conftest import make_generic_channel
from coopalign.backhaul import BackhaulLedger
from coopalign.errors import GenericityError, ParameterError
from coopalign.tradeoff import (Lemma1Report, RateReport, TradeoffPoint,
                                centralized_baseline, centralized_report,
                                fit_slope, illustrating_example, lemma1_check,
                                measured_tradeoff_point,
                                normalized_bound_slope, optimal_tradeoff,
                                rx_load_limit, rx_scheme_report,
                                rx_sum_upper_bound, tdma_baseline,
                                tdma_report, timeshare,
                                top_half_slope, tx_load_limit,
                                tx_scheme_report, tx_sum_upper_bound)


class TestSlopes:
    def test_fit_slope_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert fit_slope(x, 0.7 * x + 2.0) == pytest.approx(0.7)

    def test_top_half_ignores_low_powers(self):
        P = np.array([1e2, 1e4, 1e6, 1e8])
        vals = 0.5 * np.log2(P)
        vals[0] += 5.0                       # low-power transient
        assert top_half_slope(P, vals) == pytest.approx(0.5)


class TestPoints:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TradeoffPoint(alpha=-0.1, dof=0.5)
        with pytest.raises(ParameterError):
            TradeoffPoint(alpha=0.5, dof=1.5)

    def test_optimal_curve_frozen(self):
        assert optimal_tradeoff(0.0) == 0.5
        assert optimal_tradeoff(0.5) == 0.75
        assert optimal_tradeoff(1.0) == 1.0
        assert optimal_tradeoff(2.0) == 1.0
        with pytest.raises(ParameterError):
            optimal_tradeoff(-0.2)

    def test_timeshare_endpoints_and_midpoint(self):
        p0 = TradeoffPoint(0.0, 0.5, "lo")
        p1 = TradeoffPoint(1.0, 1.0, "hi")
        assert timeshare(p0, p1, 0.0).dof == p0.dof
        assert timeshare(p0, p1, 1.0).alpha == p1.alpha
        mid = timeshare(p0, p1, 0.5)
        assert (mid.alpha, mid.dof) == (0.5, 0.75)
        with pytest.raises(ParameterError):
            timeshare(p0, p1, 1.1)

    def test_timeshare_segment_matches_optimal_curve(self):
        # the straight segment between (0, 1/2) and (1, 1) is the curve
        p0 = TradeoffPoint(0.0, optimal_tradeoff(0.0), "a")
        p1 = TradeoffPoint(1.0, optimal_tradeoff(1.0), "b")
        for lam in np.linspace(0.0, 1.0, 21):
            pt = timeshare(p0, p1, lam)
            assert pt.dof == pytest.approx(optimal_tradeoff(pt.alpha))

    def test_centralized_baseline(self):
        assert centralized_baseline(2) == TradeoffPoint(1.0, 1.0, "centralized")
        p = centralized_baseline(3)
        assert p.alpha == pytest.approx(4.0 / 3.0)
        assert p.dof == 1.0
        assert centralized_baseline(100).alpha == pytest.approx(1.98)
        with pytest.raises(ParameterError):
            centralized_baseline(1)

    def test_tdma_baseline(self):
        p = tdma_baseline()
        assert (p.alpha, p.dof) == (0.0, pytest.approx(1.0 / 3.0))
        assert tdma_baseline(1).dof == 1.0


class TestRateReport:
    def _report(self):
        P = np.logspace(2, 8, 7)
        rate = 0.25 * np.log2(P)
        return RateReport(P_grid=P, rates=np.stack([rate] * 3, axis=1),
                          rb_bar=0.5 * np.log2(P), label="synthetic")

    def test_slopes_exact_on_linear_data(self):
        rep = self._report()
        np.testing.assert_allclose(rep.rate_slopes(), 0.25, rtol=1e-12)
        assert rep.mean_rate_slope() == pytest.approx(0.25)
        assert rep.load_slope() == pytest.approx(0.5)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e2, 1e4, 1e6], rates=np.zeros((3, 3)),
                       rb_bar=np.zeros(3))
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e4, 1e2, 1e6, 1e8], rates=np.zeros((4, 3)),
                       rb_bar=np.zeros(4))

    def test_measured_point_zero_traffic_means_zero_alpha(self):
        rep = self._report()
        pt = measured_tradeoff_point(BackhaulLedger(), rep)
        assert pt.alpha == 0.0
        assert pt.dof == pytest.approx(0.25)

    def test_measured_point_without_ledger_uses_load_slope(self):
        pt = measured_tradeoff_point(None, self._report())
        assert pt.alpha == pytest.approx(0.5)


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


class TestSchemeReports:
    def test_load_limits_frozen(self):
        assert rx_load_limit(2, 0.01) == pytest.approx(0.0257521457581204,
                                                       abs=1e-15)
        assert tx_load_limit(2, 0.01) == pytest.approx(0.989998994056806,
                                                       abs=1e-15)

    def test_rx_scheme_point(self):
        report, ledger = rx_scheme_report(2, eps=0.01)
        assert ledger.total_symbols == 3 * 2 ** 9
        pt = measured_tradeoff_point(ledger, report)
        assert pt.alpha == pytest.approx(0.989998994056806, abs=1e-12)
        assert pt.dof == pytest.approx(0.989998994056806, abs=1e-12)

    def test_rx_scheme_point_unlifted(self):
        report, ledger = rx_scheme_report(2, eps=0.01, dense_limit=False)
        pt = measured_tradeoff_point(ledger, report)
        assert pt.alpha == pytest.approx(rx_load_limit(2, 0.01), abs=1e-12)

    def test_tx_scheme_point(self):
        report, ledger = tx_scheme_report(1, eps=0.01)
        assert ledger.total_symbols == 3 * 2 ** 9
        pt = measured_tradeoff_point(ledger, report)
        assert pt.alpha == pytest.approx(0.989961329635562, abs=1e-12)
        assert pt.dof == pytest.approx(0.989961329635562, abs=1e-12)

    def test_centralized_report_limits(self, rng):
        ch = make_generic_channel(rng, n=1)
        rep = centralized_report(ch.h)
        pt = measured_tradeoff_point(None, rep)
        assert abs(pt.alpha - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
        assert abs(pt.dof - 1.0) <= 0.05

    def test_tdma_report_limits(self, rng):
        ch = make_generic_channel(rng, n=1)
        rep = tdma_report(ch.h)
        pt = measured_tradeoff_point(None, rep)
        assert pt.alpha == 0.0
        assert abs(pt.dof - 1.0 / 3.0) <= 0.02
