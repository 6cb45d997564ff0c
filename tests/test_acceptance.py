"""End-to-end acceptance gate: one test per shipped guarantee, each printed
as a single PASS/FAIL line in the terminal summary (see conftest hook).

Every test carries its tolerance inline; none of them may be loosened to
make a failing build pass.
"""

import dataclasses
import time

import numpy as np

from conftest import (exact_observations, load_slope, make_generic_channel,
                      rate_slopes, rx_index, trial_point)
from coopalign import rx_protocol
from coopalign.detection import ReducedSpec, reduced_error_sweep
from coopalign.errors import ProtocolError
from coopalign.harness import config_from_dict, run_experiment
from coopalign.lattice import SubstreamTable, random_gains, require_generic
from coopalign.rx_protocol import run_rx_protocol
from coopalign.tradeoff import (centralized_report, illustrating_example,
                                lemma1_check, normalized_bound_slope,
                                optimal_tradeoff, rx_sum_upper_bound,
                                tdma_report, tx_sum_upper_bound)
from coopalign.tx_protocol import run_tx_backhaul, verify_diagonalization

CRITERIA = {
    "test_c01_rx_recovery":
        "C1  receiver protocol: exact recovery, 3N^9 symbols "
        "(N=1,2,3 x 100 trials, under 60s)",
    "test_c02_tx_equality":
        "C2  transmitter protocol: builds receive combinations, "
        "residual <= 1e-9 (N=1,2 x 100 trials, under 120s)",
    "test_c03_rx_load":
        "C3  receiver backhaul load per log2(P) within 5% of its "
        "dense-lattice limit (N=2, eps=0.01, P=1e8)",
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
        "C9  a detection error the exchange reads shows in its time slot "
        "and stays confined to it",
    "test_c10_determinism":
        "C10 identical config and seed give byte-identical results.csv",
}


def test_c01_rx_recovery():
    rng = np.random.default_rng(np.random.SeedSequence(101))
    t0 = time.monotonic()
    for n in (1, 2, 3):
        for _ in range(100):
            h = random_gains(rng)
            require_generic(h, n)
            streams = tuple(SubstreamTable.random(i, n, 5, rng)
                            for i in (1, 2, 3))
            res = run_rx_protocol(streams)
            for i in range(3):
                np.testing.assert_array_equal(res.recovered[i],
                                              streams[i].values)
            assert res.ledger.total_symbols == 3 * n ** 9
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
                np.testing.assert_array_equal(res.built[i], want[i])
            assert res.ledger.total_symbols <= 3 * (n + 1) ** 9
            assert res.ledger.total_symbols == 3 * (n + 1) ** 9
            chk = verify_diagonalization(streams, res.built, ch, 1e8)
            assert chk.residual <= 1e-9
    assert time.monotonic() - t0 < 120.0


def test_c03_rx_load():
    # budget-priced per-user load at the top power point, as `coopalign run`
    # writes it
    rows, _, _, _ = trial_point({"scheme": "rx-coop", "N": 2, "eps": 0.01,
                                 "rng_seed": 103})
    top = rows[-1]
    assert top["P"] == 1e8
    eps = 0.01
    limit = (1 - eps) * 3 ** 9 / (3 ** 9 + 2 * eps)
    assert abs(top["alpha"] - limit) <= 0.05 * limit


def test_c04_operating_points():
    rng = np.random.default_rng(np.random.SeedSequence(104))
    points = []
    for scheme in ("rx-coop", "tx-coop"):
        _, _, alpha, dof = trial_point({"scheme": scheme, "N": 2, "eps": 0.01})
        points.append((alpha, dof))
    ch = make_generic_channel(rng, n=1)
    for report in (centralized_report(ch, np.logspace(4, 10, 7)),
                   tdma_report(ch, np.logspace(4, 10, 7)),
                   illustrating_example(1.5 + 0.5j,
                                        random_gains(np.random.default_rng(9)),
                                        np.logspace(3, 7, 5))):
        points.append((load_slope(report), rate_slopes(report).mean()))
    for alpha, dof in points:
        assert dof <= optimal_tradeoff(alpha) + 0.02, (alpha, dof)
    cen_alpha, cen_dof = points[2]
    assert abs(cen_alpha - 4.0 / 3.0) <= 0.05 * 4.0 / 3.0
    assert abs(cen_dof - 1.0) <= 0.05
    # the timesharing segment between the curve's endpoints stays on it
    for lam in np.linspace(0.0, 1.0, 21):
        shared = (1 - lam) * optimal_tradeoff(0.0) + lam * optimal_tradeoff(1.0)
        assert abs(shared - optimal_tradeoff(lam)) <= 1e-12


def test_c05_bound_slopes():
    rng = np.random.default_rng(np.random.SeedSequence(105))
    ch = make_generic_channel(rng, n=1)
    grid = np.logspace(6, 12, 8)
    for alpha in (0.0, 0.5, 1.0):
        want = optimal_tradeoff(alpha)
        for fn in (rx_sum_upper_bound, tx_sum_upper_bound):
            got = normalized_bound_slope(fn, ch, alpha, grid)
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
    rep = illustrating_example(1.5 + 0.5j,
                               random_gains(np.random.default_rng(7)),
                               np.logspace(3, 7, 5))
    for s in rate_slopes(rep):
        assert abs(s - 1.0) <= 0.1
    assert abs(load_slope(rep) - 1.0) <= 0.1


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


def test_c09_error_confinement(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(109))
    slots = [tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
             for _ in range(4)]
    clean = [run_rx_protocol(streams) for streams in slots]

    build = rx_protocol.receiver_nodes

    def corrupted(streams):
        # one step on receiver 1's entry at label (1,2) = 2, which its
        # 1->2 payload reads
        nodes = build(streams)
        label = (1, 2, 1, 1, 1, 1, 1, 1, 1)
        nodes[1].tables["obs"][rx_index(nodes[1], "obs", label)] += 1
        return nodes

    dirty = []
    for t, streams in enumerate(slots):
        with monkeypatch.context() as m:
            if t == 2:
                m.setattr(rx_protocol, "receiver_nodes", corrupted)
            try:
                dirty.append(run_rx_protocol(streams))
            except ProtocolError:
                dirty.append(None)
    for t in (0, 1, 3):
        for i in range(3):
            np.testing.assert_array_equal(dirty[t].recovered[i],
                                          slots[t][i].values)
        assert [m.digest for m in dirty[t].ledger.messages] \
            == [m.digest for m in clean[t].ledger.messages]
    assert dirty[2] is None or any(
        not np.array_equal(dirty[2].recovered[i], slots[2][i].values)
        for i in range(3))


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
