import numpy as np
import pytest

from conftest import make_generic_channel
from coopalign.detection import (ReducedSpec, candidate_tables, genie_detect,
                                 ml_detect_reduced, ml_detect_reduced_batch,
                                 reduced_carriers, reduced_error_sweep,
                                 reduced_power_scale, reduced_signal)
from coopalign.errors import MLBudgetError, ParameterError
from coopalign.lattice import SubstreamTable, exact_observations


def _streams(rng, n=1, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


class TestGenie:
    def test_exact_mode_matches_observations(self, rng):
        streams = _streams(rng)
        rep = genie_detect(streams)
        want = exact_observations(streams)
        assert rep.errors_injected == 0
        assert rep.symbol_error_flags == (False, False, False)
        for i in range(3):
            np.testing.assert_array_equal(rep.tables[i].values, want[i].values)

    def test_forced_errors_flag_and_stay_in_range(self, rng):
        streams = _streams(rng)
        rep = genie_detect(streams, error_rate=1.0, rng_seed=3)
        assert rep.errors_injected == 3
        assert rep.symbol_error_flags == (True, True, True)
        q = streams[0].q
        want = exact_observations(streams)
        for i in range(3):
            diff = rep.tables[i].values - want[i].values
            assert np.abs(diff).sum() == 1          # exactly one unit step
            assert np.abs(rep.tables[i].values).max() <= 3 * q

    def test_seed_reproducibility(self, rng):
        streams = _streams(rng)
        a = genie_detect(streams, error_rate=0.5, rng_seed=11)
        b = genie_detect(streams, error_rate=0.5, rng_seed=11)
        for i in range(3):
            np.testing.assert_array_equal(a.tables[i].values,
                                          b.tables[i].values)

    def test_rate_validation(self, rng):
        with pytest.raises(ParameterError):
            genie_detect(_streams(rng), error_rate=1.5)


class TestReduced:
    SPEC = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=1)

    def test_label_count_and_candidates(self):
        assert self.SPEC.table_size == 4
        assert self.SPEC.alphabet_size == 7
        assert self.SPEC.n_candidates == 7 ** 4

    def test_budget_guard(self):
        big = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=2, q_red=1)
        with pytest.raises(MLBudgetError):
            candidate_tables(big)

    def test_candidate_enumeration_lexicographic(self):
        cands = candidate_tables(self.SPEC)
        assert cands.shape == (7 ** 4, 4)
        np.testing.assert_array_equal(cands[0], [-3, -3, -3, -3])
        np.testing.assert_array_equal(cands[1], [-3, -3, -3, -2])
        np.testing.assert_array_equal(cands[-1], [3, 3, 3, 3])

    def test_carriers_match_direct_products(self, rng):
        ch = make_generic_channel(rng, n=1)
        carr = reduced_carriers(self.SPEC, ch)
        labels = self.SPEC.labels()
        assert labels[0] == (1, 1)
        for k, (e0, e1) in enumerate(labels):
            want = ch.h[0, 0] ** e0 * ch.h[1, 1] ** e1
            assert abs(carr[k] - want) <= 1e-12 * abs(want)

    def test_noiseless_detection_exact(self, rng):
        ch = make_generic_channel(rng, n=1)
        gamma = reduced_power_scale(self.SPEC, ch, 1e4)
        tables = rng.integers(-3, 4, size=(40, 4), dtype=np.int64)
        ys = [reduced_signal(t, self.SPEC, ch, gamma) for t in tables]
        det = ml_detect_reduced_batch(np.asarray(ys), self.SPEC, ch, gamma)
        np.testing.assert_array_equal(det, tables)
        one = ml_detect_reduced(ys[0], self.SPEC, ch, gamma)
        np.testing.assert_array_equal(one, tables[0])

    def test_error_rate_decreases_with_power(self, rng):
        ch = make_generic_channel(rng, n=1)
        rates = reduced_error_sweep(self.SPEC, ch, [1e2, 1e4, 1e6],
                                    trials=400, rng_seed=5)
        assert rates[0] >= rates[-1]
        noiseless = reduced_error_sweep(self.SPEC, ch, [1e2], trials=100,
                                        rng_seed=5, noisy=False)
        assert noiseless[0] == 0.0
