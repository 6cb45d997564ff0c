import hashlib

import numpy as np
import pytest

from conftest import candidate_tables, make_generic_channel
from coopalign import _kernels, detection
from coopalign.detection import (ReducedSpec, grid_points, reduced_carriers,
                                 reduced_error_sweep)
from coopalign.errors import MLBudgetError, ParameterError
from coopalign.lattice import random_gains


class TestReduced:
    SPEC = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=1)

    def test_label_count_and_candidates(self):
        assert self.SPEC.table_size == 4
        assert self.SPEC.alphabet_size == 7
        assert self.SPEC.n_candidates == 7 ** 4

    def test_budget_guard(self):
        # 7^9 candidates: no such spec can be made
        with pytest.raises(MLBudgetError):
            ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=2, q_red=1)

    @pytest.mark.parametrize("coords", [(1, 1), None])
    def test_coordinates_must_be_pairs(self, coords):
        # both used to raise a bare TypeError from tuple()
        with pytest.raises(ParameterError, match="active_coords"):
            ReducedSpec(active_coords=coords, n_red=1, q_red=1)

    def test_budget_check_matches_candidate_count(self):
        # the table-size shortcut never changes the verdict
        for n_red, q_red in ((1, 1), (2, 1), (1, 2), (3, 1)):
            count = (6 * q_red + 1) ** ((n_red + 1) ** 2)
            for budget in (0, 1, count - 1, count, count + 1, 10 ** 6):
                if budget == 0:
                    # a budget is a count, refused by the one count rule
                    with pytest.raises(ParameterError, match="ml_budget"):
                        ReducedSpec(((1, 1), (2, 2)), n_red, q_red, budget)
                elif count > budget:
                    with pytest.raises(MLBudgetError):
                        ReducedSpec(((1, 1), (2, 2)), n_red, q_red, budget)
                else:
                    spec = ReducedSpec(((1, 1), (2, 2)), n_red, q_red, budget)
                    assert spec.n_candidates == count

    def test_candidate_enumeration_lexicographic(self):
        # the oracle of the sweep's grid order
        cands = candidate_tables(self.SPEC)
        assert cands.shape == (7 ** 4, 4)
        np.testing.assert_array_equal(cands[0], [-3, -3, -3, -3])
        np.testing.assert_array_equal(cands[1], [-3, -3, -3, -2])
        np.testing.assert_array_equal(cands[-1], [3, 3, 3, 3])

    @pytest.mark.parametrize("spec", [
        SPEC, ReducedSpec(active_coords=((1, 2),), n_red=2, q_red=2),
        ReducedSpec(active_coords=((3, 2),), n_red=4, q_red=1)])
    def test_candidate_rows_are_mixed_radix_expansions(self, spec):
        # row r is r in base A, first label most significant, digits -3q..3q
        cands = candidate_tables(spec)
        A, q = spec.alphabet_size, spec.q_red
        r = np.arange(spec.n_candidates)
        for pos in range(spec.table_size):
            place = A ** (spec.table_size - 1 - pos)
            np.testing.assert_array_equal(cands[:, pos], r // place % A - 3 * q)

    @pytest.mark.parametrize("spec", [
        SPEC, ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=2),
        ReducedSpec(active_coords=((1, 2),), n_red=2, q_red=2),
        ReducedSpec(active_coords=((3, 2),), n_red=4, q_red=1)])
    def test_sweep_points_and_indices_follow_the_oracle(self, monkeypatch, spec):
        # point r is oracle row r times the carriers, up to the rounding of
        # an m-term sum; a noiseless observation is gamma times the point of
        # the table sent, whose oracle row is the table drawn from the
        # power level's stream
        h = random_gains(np.random.default_rng(4))
        carriers = reduced_carriers(spec, h)
        tables = candidate_tables(spec)
        points = grid_points(spec, carriers)
        assert points.shape == (spec.n_candidates,)
        err = np.abs(points - tables @ carriers)
        assert np.all(err <= 8 * np.finfo(float).eps
                      * (np.abs(tables) @ np.abs(carriers)))
        seen, kernel = [], _kernels.nearest_point

        def record(y, candidates, gamma):
            seen.append((y, gamma))
            return kernel(y, candidates, gamma)

        monkeypatch.setattr(_kernels, "nearest_point", record)
        q = spec.q_red
        rates = reduced_error_sweep(spec, h, [1e2, 1e5], 300, rng_seed=9,
                                    noisy=False)
        assert rates.tolist() == [0.0, 0.0] and len(seen) == 2
        for k, (y, gamma) in enumerate(seen):
            at = {z: i for i, z in enumerate((gamma * points).tolist())}
            assert len(at) == spec.n_candidates
            sent = [at[z] for z in y.tolist()]
            drawn = np.random.default_rng(
                np.random.SeedSequence(entropy=9, spawn_key=(k,))).integers(
                    -3 * q, 3 * q + 1, size=(300, spec.table_size), dtype=np.int64)
            np.testing.assert_array_equal(tables[sent], drawn)

    def test_carriers_match_direct_products(self, rng):
        h = make_generic_channel(rng, n=1)
        carr = reduced_carriers(self.SPEC, h)
        labels = self.SPEC.labels()
        assert labels[0] == (1, 1)
        for k, (e0, e1) in enumerate(labels):
            want = h[0, 0] ** e0 * h[1, 1] ** e1
            assert abs(carr[k] - want) <= 1e-12 * abs(want)

    def test_noiseless_detection_exact(self, rng):
        ch = make_generic_channel(rng, n=1)
        for trials in (40, 1):  # 1: a single observation sample
            rates = reduced_error_sweep(self.SPEC, ch, [1e4], trials=trials,
                                        rng_seed=3, noisy=False)
            assert rates.tolist() == [0.0]

    def test_error_rate_decreases_with_power(self, rng):
        ch = make_generic_channel(rng, n=1)
        rates = reduced_error_sweep(self.SPEC, ch, [1e2, 1e4, 1e6],
                                    trials=400, rng_seed=5)
        assert rates[0] >= rates[-1]
        noiseless = reduced_error_sweep(self.SPEC, ch, [1e2], trials=100,
                                        rng_seed=5, noisy=False)
        assert noiseless[0] == 0.0


def test_sweep_picks_digest(monkeypatch):
    """24,000 noisy detections (q_red 1 and 2, seeds 0-5, four power points,
    500 trials each) pick exactly what the brute-force kernel picked."""
    picks = []
    kernel = _kernels.nearest_point

    def record(y, candidates, gamma):
        picks.append(kernel(y, candidates, gamma))
        return picks[-1]

    monkeypatch.setattr(_kernels, "nearest_point", record)
    rates = []
    for q_red in (1, 2):
        spec = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=q_red)
        for seed in range(6):
            h = random_gains(np.random.default_rng(seed))
            rates.append(reduced_error_sweep(spec, h, [1e2, 1e3, 1e4, 1e5],
                                             trials=500, rng_seed=seed))
    picks = np.concatenate(picks).astype(np.int64)
    assert picks.size == 24_000
    assert hashlib.sha256(picks.tobytes()).hexdigest() == \
        "76616a53f08696597795d8f32a5d613d79484b039a3ac8f79342083191fb9302"
    rates = np.concatenate(rates).astype(np.float64)
    assert hashlib.sha256(rates.tobytes()).hexdigest() == \
        "fd100cf9d6f24b2098a8c02d26579a578cb0c6c288b74e96488d27e0f5011370"


@pytest.mark.parametrize("kwargs, name", [
    ({"trials": 0}, "trials"), ({"trials": -3}, "trials"),
    ({"trials": 2.5}, "trials"), ({"trials": True}, "trials"),
    ({"P_grid": [-1.0]}, "P_grid"), ({"P_grid": [1e2, 0.0]}, "P_grid"),
    ({"P_grid": [float("nan")]}, "P_grid"), ({"P_grid": [float("inf")]}, "P_grid"),
    ({"P_grid": ["1e2"]}, "P_grid"),
    # the config's rule for a seed: a plain int in [0, 2^64)
    ({"rng_seed": None}, "rng_seed"), ({"rng_seed": True}, "rng_seed"),
    ({"rng_seed": -1}, "rng_seed"), ({"rng_seed": 2 ** 64}, "rng_seed"),
    ({"rng_seed": 1.5}, "rng_seed"), ({"rng_seed": "3"}, "rng_seed"),
    ({"rng_seed": np.int64(3)}, "rng_seed"),
    ({"noisy": "no"}, "noisy"), ({"noisy": 0}, "noisy"), ({"noisy": None}, "noisy")])
def test_sweep_rejects_bad_inputs_before_building_candidates(monkeypatch, kwargs,
                                                             name):
    def unreachable(*args):
        raise AssertionError("carriers or candidates built for a rejected sweep")

    monkeypatch.setattr(detection, "reduced_carriers", unreachable)
    monkeypatch.setattr(_kernels, "Candidates", unreachable)
    args = {"P_grid": [1e2], "trials": 10, "rng_seed": 1, "noisy": True, **kwargs}
    with pytest.raises(ParameterError, match=name):
        reduced_error_sweep(TestReduced.SPEC, random_gains(np.random.default_rng(0)),
                            args["P_grid"], args["trials"], rng_seed=args["rng_seed"],
                            noisy=args["noisy"])


@pytest.mark.parametrize("P", [True, False])
def test_sweep_refuses_a_bool_power(P):
    # [True] gave rate [1.]: the same rule as nearest_point's gamma
    with pytest.raises(ParameterError, match="not a bool"):
        reduced_error_sweep(TestReduced.SPEC, random_gains(np.random.default_rng(0)),
                            [P], 4, 0)


@pytest.mark.parametrize("rng_seed", [0, 2 ** 64 - 1])
def test_sweep_takes_every_64_bit_seed(rng_seed):
    rates = reduced_error_sweep(TestReduced.SPEC, random_gains(np.random.default_rng(0)),
                                [1e2], 4, rng_seed=rng_seed)
    assert rates.shape == (1,)


def test_sweep_builds_candidates_once(monkeypatch):
    # one carrier table and one candidate build per sweep, and one kernel
    # call per power point over every candidate, which pipebench's traced
    # pair count relies on
    carrier_calls, builds, calls = [], [], []
    carriers, build = detection.reduced_carriers, _kernels.Candidates
    kernel = _kernels.nearest_point

    def count_carriers(spec, h):
        carrier_calls.append(spec)
        return carriers(spec, h)

    def count_builds(base):
        builds.append(len(base))
        return build(base)

    def count_calls(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(detection, "reduced_carriers", count_carriers)
    monkeypatch.setattr(_kernels, "Candidates", count_builds)
    monkeypatch.setattr(_kernels, "nearest_point", count_calls)
    spec = ReducedSpec(active_coords=((1, 1), (2, 2)), n_red=1, q_red=2)
    P_grid = [1e2, 1e3, 1e4, 1e5]
    reduced_error_sweep(spec, random_gains(np.random.default_rng(1)), P_grid,
                        trials=20, rng_seed=1)
    assert len(carrier_calls) == 1
    assert builds == [spec.n_candidates]
    assert calls == [spec.n_candidates] * len(P_grid)
