import math

import numpy as np
import pytest

from conftest import (exact_observations, load_slope, make_generic_channel,
                      rate_slopes, trial_point)
from coopalign import harness
from coopalign.detection import ReducedSpec, reduced_error_sweep
from coopalign.errors import GenericityError, ParameterError
from coopalign.harness import config_from_dict, run_trial
from coopalign.lattice import (SubstreamTable, channel_inverse,
                               channel_is_generic, illustrating_gains,
                               random_gains)
from coopalign.tradeoff import (Lemma1Report, RateReport, centralized_report,
                                decode_coefficients, illustrating_example,
                                lemma1_check,
                                normalized_bound_slope, optimal_tradeoff,
                                rx_sum_upper_bound, tdma_report,
                                top_half_slope, tx_sum_upper_bound)
from coopalign.tx_protocol import verify_diagonalization


# The per-point forms of the bounds and reports, kept as references: one
# power point at a time, with the arithmetic in the order the array forms
# keep, so the bytes must agree.  2,000 draws: an array abs, an array ** 2
# or a changed addition order moves the last bit on only 0.1-1 % of them.
ORACLE_DRAWS = 2000


def _draws(rng, count=ORACLE_DRAWS):
    """Gains scaled by 10^+-2 per entry and sorted 4- to 8-point grids."""
    for _ in range(count):
        h = random_gains(rng) * 10.0 ** rng.uniform(-2, 2, size=(3, 3))
        yield h, np.sort(10.0 ** rng.uniform(0.1, 12, size=rng.integers(4, 9)))


def rx_bound_loop(h, P, Rb_bar):
    K = h.shape[0]
    total = 0.0
    for l in range(2, K + 2):
        i = (l - 1) % K          # receiver l, 0-based
        j = (l - 2) % K          # transmitter l-1, 0-based
        total += np.log2(1.0 + P * (abs(h[i, j]) ** 2 + abs(h[i, i]) ** 2))
    return float(total + K * Rb_bar)


def tx_bound_loop(h, P, Rb_bar):
    K = h.shape[0]
    # magnitudes from the parts, as the bound takes them
    row_mass = np.hypot(h.real, h.imag).sum(axis=1) ** 2
    total = float(np.sum(np.log2(1.0 + P * row_mass)))
    return total + K * float(Rb_bar)


def bound_slope_loop(bound_loop, h, alpha, P_grid):
    vals = [bound_loop(h, P, alpha * np.log2(P)) for P in P_grid]
    return top_half_slope(P_grid, vals) / (2.0 * h.shape[0])


def _diagonalize(h):
    rng = np.random.default_rng(0)
    streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
    return verify_diagonalization(streams, exact_observations(streams), h,
                                  1e6)


def tdma_loop(h, P_grid):
    K = h.shape[0]
    rates = np.zeros((P_grid.size, K))
    for i, P in enumerate(P_grid):
        for k in range(K):
            rates[i, k] = np.log2(1.0 + K * P * abs(h[k, k]) ** 2) / K
    return rates


def illustrating_loop(gamma, h, P_grid):
    h = illustrating_gains(gamma, h)
    g = abs(gamma)
    c2 = abs(gamma * h[1, 1] - h[2, 1])
    c1 = abs(h[0, 0] - h[0, 2] * h[1, 0] / h[1, 2])
    c3 = abs(gamma * h[1, 2] - h[2, 1] * h[0, 2] / h[0, 1])
    n2 = g ** 2 + 2.0
    n1 = 2.0 + abs(h[0, 2] / h[1, 2]) ** 2
    n3 = 2.0 + abs(h[2, 1] / h[0, 1]) ** 2
    rates = np.zeros((P_grid.size, 3))
    rb = np.zeros(P_grid.size)
    for i, P in enumerate(P_grid):
        rates[i, 0] = np.log2(1.0 + c1 ** 2 * P / n1)
        rates[i, 1] = np.log2(1.0 + c2 ** 2 * P / n2)
        rates[i, 2] = np.log2(1.0 + c3 ** 2 * P / n3)
        v32 = (abs(h[2, 0]) ** 2 + abs(h[2, 1]) ** 2 + abs(h[2, 2]) ** 2) * P + 1.0
        v21 = ((abs(h[0, 1]) ** 2
                + abs(h[0, 2] * h[1, 0] / h[1, 2]) ** 2
                + abs(h[0, 2]) ** 2) * P
               + abs(h[0, 2] / h[1, 2]) ** 2)
        v13 = ((abs(gamma * h[1, 0]) ** 2
                + abs(h[2, 1]) ** 2
                + abs(h[2, 1] * h[0, 2] / h[0, 1]) ** 2) * P
               + abs(h[2, 1] / h[0, 1]) ** 2)
        rb[i] = (np.log2(1.0 + v32) + np.log2(1.0 + v21) + np.log2(1.0 + v13)) / 3.0
    return rates, rb


def bounds_rows_loop(trial, h, alpha_grid, P_grid):
    rows = []
    for a in alpha_grid:
        for P in P_grid:
            l2 = np.log2(P)
            for name, fn in (("rx-bound", rx_bound_loop),
                             ("tx-bound", tx_bound_loop)):
                bound = fn(h, P, a * l2)
                rows.append({"trial": trial, "P": float(P),
                             "scheme": "bounds-only", "alpha": float(a),
                             "dof": float(bound / (6.0 * l2)),
                             "load_bits": float(a * l2),
                             "rate_bits": float(bound), "detail": name})
    return rows


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
        np.testing.assert_allclose(rate_slopes(rep), 0.25, rtol=1e-12)
        assert load_slope(rep) == pytest.approx(0.5)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e2, 1e4, 1e6], rates=np.zeros((3, 3)),
                       rb_bar=np.zeros(3))
        with pytest.raises(ParameterError):
            RateReport(P_grid=[1e4, 1e2, 1e6, 1e8], rates=np.zeros((4, 3)),
                       rb_bar=np.zeros(4))

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (12,)])
    def test_rates_are_one_column_per_user(self, shape):
        with pytest.raises(ParameterError, match="4x3"):
            RateReport(P_grid=[1e2, 1e4, 1e6, 1e8], rates=np.zeros(shape),
                       rb_bar=np.zeros(4))


@pytest.mark.parametrize("P", [-1e3, np.inf, np.nan],
                         ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("call", [
    lambda h, P: rx_sum_upper_bound(h, P, 0.0),
    lambda h, P: tx_sum_upper_bound(h, P, 0.0),
    tdma_report,
    centralized_report,
    lambda h, P: illustrating_example(1.5, h, P),
], ids=["rx-bound", "tx-bound", "tdma", "centralized", "illustrating"])
def test_one_power_intake(call, P):
    # negative P gave nan rates and a log2 warning from centralized and the
    # example, and inf gave inf rates from every report; one bad point ends
    # an otherwise good grid
    h = random_gains(np.random.default_rng(5))
    with pytest.raises(ParameterError, match="P must be finite and > 0"):
        call(h, np.array([1e2, 1e3, 1e4, P]))


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
            s = normalized_bound_slope(fn, ch, alpha, np.logspace(6, 12, 8))
            assert abs(s - optimal_tradeoff(alpha)) <= 1e-2

    def test_slope_grid_validation(self, rng):
        ch = make_generic_channel(rng, n=1)
        with pytest.raises(ParameterError):
            normalized_bound_slope(rx_sum_upper_bound, ch, 0.0,
                                   [1e2, 1e4, 1e6])

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("call", [
        lambda h: rx_sum_upper_bound(h, 1e3, 0.0),
        lambda h: tx_sum_upper_bound(h, np.logspace(2, 8, 7), np.zeros(7)),
        lambda h: normalized_bound_slope(rx_sum_upper_bound, h, 0.5,
                                         np.logspace(2, 8, 7)),
        lambda h: normalized_bound_slope(tx_sum_upper_bound, h, 0.5,
                                         np.logspace(2, 8, 7)),
        lambda h: tdma_report(h, np.logspace(2, 8, 7)),
        # these read the corner of a larger matrix, or indexed past a
        # smaller one, or (the hub) raised SingularChannelError
        lambda h: centralized_report(h, np.logspace(2, 8, 7)),
        lambda h: illustrating_gains(1.5, h),
        lambda h: decode_coefficients(1.5, h),
        lambda h: illustrating_example(1.5, h, np.logspace(2, 8, 7)),
        lambda h: channel_is_generic(h, 1),
        lambda h: reduced_error_sweep(
            ReducedSpec(((1, 1), (2, 2)), 1, 1), h, [1e4], 4, 0),
        _diagonalize,
    ], ids=["rx", "tx", "rx-slope", "tx-slope", "tdma", "centralized",
            "example-gains", "decode", "example", "screen", "ml-sweep",
            "diagonalization"])
    def test_gains_other_than_3x3_rejected(self, call, n):
        h = np.ones((n, n), dtype=np.complex128) + np.eye(n)
        with pytest.raises(ParameterError, match="3x3"):
            call(h)

    def test_nested_lists_read_as_the_array(self, rng):
        # the example used to raise TypeError on nested lists
        h, P = random_gains(rng), np.logspace(2, 8, 7)
        for report in (lambda g: illustrating_example(1.5, g, P),
                       lambda g: centralized_report(g, P)):
            a, b = report(h), report(h.tolist())
            np.testing.assert_array_equal(a.rates, b.rates)
            np.testing.assert_array_equal(a.rb_bar, b.rb_bar)

    def test_array_power_validation(self):
        with pytest.raises(ParameterError):
            rx_sum_upper_bound(np.ones((3, 3)), np.array([1.0, 0.0]),
                               np.zeros(2))

    def test_bounds_match_per_point_loops(self, rng):
        for h, P in _draws(rng):
            alpha = rng.uniform(0.0, 2.0)
            load = alpha * np.log2(P)
            for fn, loop in ((rx_sum_upper_bound, rx_bound_loop),
                             (tx_sum_upper_bound, tx_bound_loop)):
                want = [loop(h, p, r) for p, r in zip(P, load)]
                assert np.array_equal(fn(h, P, load), want)
                assert normalized_bound_slope(fn, h, alpha, P) \
                    == bound_slope_loop(loop, h, alpha, P)

    def test_bounds_only_rows_match_per_point_loop(self, rng):
        for _ in range(ORACLE_DRAWS):
            P = np.unique(10.0 ** rng.uniform(0.01, 14, size=rng.integers(4, 9)))
            if P.size < 4:
                continue
            alphas = rng.uniform(0.0, 3.0, size=rng.integers(1, 5))
            cfg = config_from_dict({
                "scheme": "bounds-only", "N": 1, "P_grid": P.tolist(),
                "alpha_grid": alphas.tolist(),
                "rng_seed": int(rng.integers(2 ** 63))})
            rows, listing, _ = run_trial(cfg, 0)
            h = np.array(listing).view(np.complex128)[..., 0]
            assert rows == bounds_rows_loop(0, h, cfg.alpha_grid, cfg.P_grid)

    def test_bounds_only_calls_each_bound_once_per_alpha(self, monkeypatch):
        calls = []
        for name in ("rx_sum_upper_bound", "tx_sum_upper_bound"):
            fn = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        cfg = config_from_dict({"scheme": "bounds-only", "N": 1,
                                "alpha_grid": [0.0, 0.25, 0.5, 1.0]})
        rows, _, _ = run_trial(cfg, 0)
        assert len(rows) == 2 * 4 * len(cfg.P_grid)
        assert calls == ["rx_sum_upper_bound", "tx_sum_upper_bound"] * 4


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

    @pytest.mark.parametrize("kwargs", [
        {"K": 1.5}, {"K": True}, {"n": 0}, {"n": 2.0}, {"trials": 0},
        {"trials": "3"},
        # the config's rule for a seed: a plain int in [0, 2^64)
        {"rng_seed": -1}, {"rng_seed": 2 ** 64}, {"rng_seed": 1.5},
        {"rng_seed": None}, {"rng_seed": np.int64(3)}])
    def test_arguments_refused_with_parameter_error(self, kwargs):
        # K = 1.5 raised a bare TypeError, rng_seed = -1 a bare ValueError,
        # and rng_seed = None ran on fresh entropy
        args = {"K": 2, "n": 2, "trials": 5, "rng_seed": 0, **kwargs}
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            lemma1_check(**args)


class TestIllustratingExample:
    GRID = np.logspace(3, 7, 5)

    def test_slopes_near_one(self):
        h = random_gains(np.random.default_rng(4))
        rep = illustrating_example(1.5 + 0.5j, h, self.GRID)
        assert rep.rates.shape == (5, 3)
        for s in rate_slopes(rep):
            assert abs(s - 1.0) <= 0.1
        assert abs(load_slope(rep) - 1.0) <= 0.1

    def test_zero_gamma_rejected(self):
        with pytest.raises(ParameterError):
            illustrating_example(0.0, np.ones((3, 3), dtype=np.complex128),
                                 self.GRID)

    def test_zero_gain_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        h[0, 1] = 0.0
        with pytest.raises(GenericityError):
            illustrating_example(2.0, h, self.GRID)

    def test_degenerate_coefficients_rejected(self):
        # all-ones gains cancel the first decode coefficient exactly
        with pytest.raises(GenericityError):
            illustrating_example(1.0, np.ones((3, 3), dtype=np.complex128),
                                 self.GRID)

    def test_matches_per_point_loop(self, rng):
        for h, P in _draws(rng):
            gamma = complex(*rng.normal(size=2))
            rep = illustrating_example(gamma, h, P)
            rates, rb = illustrating_loop(gamma, h, P)
            assert np.array_equal(rep.rates, rates)
            assert np.array_equal(rep.rb_bar, rb)


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
        rep = centralized_report(ch, np.logspace(4, 10, 7))
        assert abs(load_slope(rep) - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
        assert abs(rate_slopes(rep).mean() - 1.0) <= 0.05

    def test_centralized_report_matches_per_point_loop(self, rng):
        # reference: one power point at a time, with the report's arithmetic
        # in the same order, so the bytes must agree; the inverse is not
        # under test, so it comes from the same channel_inverse
        def loop(h, P_grid):
            hinv = channel_inverse(h)
            noise_rows = 2.0 * np.sum(np.hypot(hinv.real, hinv.imag) ** 2,
                                      axis=1)
            row_pow = [np.sum(np.hypot(h[l].real, h[l].imag) ** 2)
                       for l in (1, 2)]
            rates = np.zeros((P_grid.size, 3))
            rb = np.zeros(P_grid.size)
            for i, P in enumerate(P_grid):
                rates[i] = np.log2(1.0 + P / noise_rows)
                up = sum(np.log2(1.0 + P * g + 1.0) for g in row_pow)
                rb[i] = (up + float(np.sum(rates[i, 1:]))) / 3
            return rates, rb

        for _ in range(200):
            h = random_gains(rng) * 10.0 ** rng.uniform(-2, 2, size=(3, 3))
            P = np.sort(10.0 ** rng.uniform(0.1, 12, size=rng.integers(4, 9)))
            rep = centralized_report(h, P)
            rates, rb = loop(h, P)
            assert np.array_equal(rep.rates, rates)
            assert np.array_equal(rep.rb_bar, rb)

    def test_tdma_report_matches_per_point_loop(self, rng):
        for h, P in _draws(rng):
            rep = tdma_report(h, P)
            assert np.array_equal(rep.rates, tdma_loop(h, P))
            assert not rep.rb_bar.any()

    def test_tdma_report_limits(self, rng):
        ch = make_generic_channel(rng, n=1)
        rep = tdma_report(ch, np.logspace(4, 10, 7))
        assert load_slope(rep) == 0.0
        assert abs(rate_slopes(rep).mean() - 1.0 / 3.0) <= 0.02
