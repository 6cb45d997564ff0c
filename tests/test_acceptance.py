"""End-to-end acceptance gate: one test per shipped guarantee, each printed
as a single PASS/FAIL line in the terminal summary (see conftest hook).

Every test carries its tolerance inline; none of them may be loosened to
make a failing build pass.
"""

import dataclasses
import time

import numpy as np

from conftest import make_generic_channel
from coopalign.detection import ReducedSpec, reduced_error_sweep
from coopalign.harness import config_from_dict, run_experiment
from coopalign.lattice import (ChannelMatrix, SubstreamTable,
                               exact_observations, require_generic)
from coopalign.rx_protocol import run_rx_protocol, run_rx_slots
from coopalign.rx_protocol import expected_message_count as rx_count
from coopalign.tradeoff import (centralized_report, illustrating_example,
                                lemma1_check, measured_tradeoff_point,
                                normalized_bound_slope, optimal_tradeoff,
                                rx_load_limit, rx_scheme_report,
                                rx_sum_upper_bound, tdma_report, timeshare,
                                TradeoffPoint, tx_scheme_report,
                                tx_sum_upper_bound)
from coopalign.tx_protocol import run_tx_backhaul, verify_diagonalization
from coopalign.tx_protocol import expected_message_count as tx_count

CRITERIA = {
    "test_c01_rx_recovery":
        "C1  receiver protocol: exact recovery, 3N^9 symbols "
        "(N=1,2,3 x 100 trials, under 60s)",
    "test_c02_tx_equality":
        "C2  transmitter protocol: builds receive combinations, "
        "residual <= 1e-9 (N=1,2 x 100 trials, under 120s)",
    "test_c03_rx_load":
        "C3  receiver backhaul load per log2(P) within 5% of its limit "
        "(N=2, eps=0.01, P=1e8)",
    "test_c04_operating_points":
        "C4  measured operating points never beat the optimal curve "
        "by more than 0.02; baselines land where they should",
    "test_c05_bound_slopes":
        "C5  normalized converse-bound slopes within 1% of (1+a)/2 "
        "at a = 0, 1/2, 1",
    "test_c06_entropy_inequality":
        "C6  covariance determinant inequality: 0 failures over 1080 "
        "instances (K=1,2,3 x n=1,2,4,8)",
    "test_c07_illustrating_example":
        "C7  proportional-gains example: rate slopes and load slope "
        "within 0.1 of 1",
    "test_c08_reduced_ml":
        "C8  reduced ML detector: noiseless-exact, error rate "
        "non-increasing in P within 2 sigma (1e4 trials/point)",
    "test_c09_error_confinement":
        "C9  detection errors stay confined to their time slot",
    "test_c10_determinism":
        "C10 identical config and seed give byte-identical results.csv",
}


def test_c01_rx_recovery():
    rng = np.random.default_rng(np.random.SeedSequence(101))
    t0 = time.monotonic()
    for n in (1, 2, 3):
        for _ in range(100):
            ch = ChannelMatrix.random(rng)
            require_generic(ch, n)
            streams = tuple(SubstreamTable.random(i, n, 5, rng)
                            for i in (1, 2, 3))
            res = run_rx_protocol(streams)
            for i in range(3):
                np.testing.assert_array_equal(res.recovered[i],
                                              streams[i].values)
            assert res.ledger.total_symbols == rx_count(n) == 3 * n ** 9
    assert time.monotonic() - t0 < 60.0


def test_c02_tx_equality():
    rng = np.random.default_rng(np.random.SeedSequence(102))
    t0 = time.monotonic()
    for n in (1, 2):
        for _ in range(100):
            ch = make_generic_channel(rng, n=n)
            streams = tuple(SubstreamTable.random(i, n, 5, rng)
                            for i in (1, 2, 3))
            res = run_tx_backhaul(streams)
            want = exact_observations(streams)
            for i in range(3):
                np.testing.assert_array_equal(res.built[i].values,
                                              want[i].values)
            assert res.ledger.total_symbols <= tx_count(n)
            assert res.ledger.total_symbols == 3 * (n + 1) ** 9
            chk = verify_diagonalization(streams, res.built, ch, 1e8)
            assert chk.residual <= 1e-9
    assert time.monotonic() - t0 < 120.0


def test_c03_rx_load():
    # budget-priced per-user load at the top power point, no dense-lattice lift
    report, _ = rx_scheme_report(2, eps=0.01, rng_seed=103, dense_limit=False)
    assert report.P_grid[-1] == 1e8
    measured = report.rb_bar[-1] / np.log2(1e8)
    limit = rx_load_limit(2, 0.01)
    assert abs(measured - limit) <= 0.05 * limit


def test_c04_operating_points():
    rng = np.random.default_rng(np.random.SeedSequence(104))
    points = []
    for maker in (rx_scheme_report, tx_scheme_report):
        report, ledger = maker(2, eps=0.01)
        points.append(measured_tradeoff_point(ledger, report))
    ch = make_generic_channel(rng, n=1)
    cen = measured_tradeoff_point(None, centralized_report(ch.h))
    points.append(cen)
    points.append(measured_tradeoff_point(None, tdma_report(ch.h)))
    points.append(measured_tradeoff_point(
        None, illustrating_example(1.5 + 0.5j, rng_seed=9)))
    for pt in points:
        assert pt.dof <= optimal_tradeoff(pt.alpha) + 0.02, pt
    assert abs(cen.alpha - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
    assert abs(cen.dof - 1.0) <= 0.05
    # the timesharing segment between the curve's endpoints stays on it
    p0 = TradeoffPoint(0.0, optimal_tradeoff(0.0), "a")
    p1 = TradeoffPoint(1.0, optimal_tradeoff(1.0), "b")
    for lam in np.linspace(0.0, 1.0, 21):
        pt = timeshare(p0, p1, lam)
        assert abs(pt.dof - optimal_tradeoff(pt.alpha)) <= 1e-12


def test_c05_bound_slopes():
    rng = np.random.default_rng(np.random.SeedSequence(105))
    ch = make_generic_channel(rng, n=1)
    grid = np.logspace(6, 12, 8)
    for alpha in (0.0, 0.5, 1.0):
        want = optimal_tradeoff(alpha)
        for fn in (rx_sum_upper_bound, tx_sum_upper_bound):
            got = normalized_bound_slope(fn, ch.h, alpha, grid)
            assert abs(got - want) <= 0.01 * want, (fn.__name__, alpha, got)


def test_c06_entropy_inequality():
    total = 0
    for K in (1, 2, 3):
        for n in (1, 2, 4, 8):
            rep = lemma1_check(K=K, n=n, trials=90,
                               rng_seed=1000 * K + n)
            assert rep.failures == 0, (K, n, rep.worst)
            total += rep.trials
    assert total == 1080
    assert total >= 1000


def test_c07_illustrating_example():
    rep = illustrating_example(1.5 + 0.5j, P_grid=np.logspace(3, 7, 5),
                               rng_seed=7)
    for s in rep.rate_slopes():
        assert abs(s - 1.0) <= 0.1
    assert abs(rep.load_slope() - 1.0) <= 0.1


def test_c08_reduced_ml():
    rng = np.random.default_rng(np.random.SeedSequence(108))
    ch = make_generic_channel(rng, n=1)
    spec = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=1)
    t0 = time.monotonic()
    P_grid = np.logspace(2, 5, 4)                     # three decades
    clean = reduced_error_sweep(spec, ch, P_grid, trials=2000,
                                rng_seed=108, noisy=False)
    assert not clean.any()
    trials = 10000
    rates = reduced_error_sweep(spec, ch, P_grid, trials=trials, rng_seed=108)
    for k in range(len(rates) - 1):
        sigma = np.sqrt((rates[k] * (1 - rates[k])
                         + rates[k + 1] * (1 - rates[k + 1])) / trials)
        assert rates[k + 1] <= rates[k] + 2.0 * sigma, rates
    assert time.monotonic() - t0 < 300.0


def test_c09_error_confinement():
    rng = np.random.default_rng(np.random.SeedSequence(109))
    slots = [tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
             for _ in range(4)]
    clean = run_rx_slots(slots, rng_seed=99)
    dirty = run_rx_slots(slots, error_slot=2, rng_seed=99)
    for t in (0, 1, 3):
        for i in range(3):
            np.testing.assert_array_equal(dirty[t].recovered[i],
                                          clean[t].recovered[i])
        assert [m.digest for m in dirty[t].ledger.messages] \
            == [m.digest for m in clean[t].ledger.messages]
        assert not any(dirty[t].contaminated)
    assert any(dirty[2].contaminated)


def test_c10_determinism(tmp_path):
    base = config_from_dict({
        "scheme": "rx-coop", "N": 1, "trials": 5, "rng_seed": 31,
        "P_grid": [1e2, 1e4, 1e6, 1e8],
        "output_dir": str(tmp_path / "a")})
    run_experiment(base)
    run_experiment(dataclasses.replace(base, output_dir=str(tmp_path / "b")))
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
