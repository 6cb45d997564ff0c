import numpy as np
import pytest

from conftest import oracle_monomial, oracle_observations
from coopalign.errors import (GenericityError, ParameterError,
                              PowerTooLowError, SymbolRangeError)
from coopalign.indices import IndexVector, iter_cube
from coopalign.lattice import (ChannelMatrix, ObservationTable, SubstreamTable,
                               apply_channel, channel_is_generic,
                               complex_awgn, derive_params,
                               exact_observations, monomial_table,
                               monomial_value,
                               reconstructed_receive, require_generic,
                               synthesize_transmit)


def test_channel_matrix_shapes(rng):
    ch = ChannelMatrix.random(rng)
    assert ch.h.shape == (3, 3)
    assert ch.h.dtype == np.complex128


def test_illustrating_channel_structure(rng):
    g = 1.25 - 0.5j
    ch = ChannelMatrix.illustrating(g, rng)
    assert ch.h[2, 0] == g * ch.h[1, 0]
    assert ch.h[2, 2] == g * ch.h[1, 2]


def test_complex_awgn_unit_variance(rng):
    z = complex_awgn(rng, 200000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 2e-2
    assert abs(np.mean(z.real ** 2) - 0.5) < 2e-2


class TestSchemeParams:
    def test_derive_params_exponents(self):
        p = derive_params(1e6, 1, eps=0.05)
        dims = 2 ** 9
        u = (1 - 0.05) / (dims + 2 * 0.05)
        assert p.dims == dims
        assert np.isclose(3 * p.q, 1e6 ** u)
        assert np.isclose(p.gamma, 1e6 ** ((dims - 2 + 4 * 0.05)
                                           / (2 * (dims + 2 * 0.05))))

    def test_q_int_power_floor(self):
        # desk-scale powers give q below one symbol: deliberately an error
        with pytest.raises(PowerTooLowError):
            derive_params(1e6, 2).q_int

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            derive_params(0.5, 1)
        with pytest.raises(ParameterError):
            derive_params(1e4, 0)
        with pytest.raises(ParameterError):
            derive_params(1e4, 1, eps=1.5)


class TestTables:
    def test_substream_alphabet_guard(self, rng):
        bad = np.full((1,) * 9, 7, dtype=np.int64)
        with pytest.raises(SymbolRangeError):
            SubstreamTable(owner=1, n=1, q=5, values=bad)

    def test_substream_lookup_zero_convention(self, rng):
        t = SubstreamTable.random(1, 2, 5, rng)
        inside = IndexVector.filled(1)
        assert t.lookup(inside) == t.values[(0,) * 9]
        outside = inside.shift((1, 1), -1)
        assert t.lookup(outside) == 0
        assert t.lookup(IndexVector.filled(3)) == 0

    def test_observation_range_guard(self):
        bad = np.full((2,) * 9, 16, dtype=np.int64)
        with pytest.raises(SymbolRangeError):
            ObservationTable(receiver=1, n=1, values=bad, q=5)

    def test_observation_slab_extracts_fixed_coordinate(self, rng):
        streams = tuple(SubstreamTable.random(i, 2, 5, rng) for i in (1, 2, 3))
        obs = exact_observations(streams)[0]
        sl = obs.slab((3, 1), 2)
        assert sl.shape == (3,) * 8
        np.testing.assert_array_equal(sl, obs.values[:, :, :, :, :, :, 1])


class TestMonomials:
    def test_monomial_value_matches_log_oracle(self, rng):
        ch = ChannelMatrix.random(rng)
        for lab in ((1,) * 9, (2, 1, 3, 1, 1, 2, 1, 1, 1), (3,) * 9):
            s = IndexVector(lab)
            want = oracle_monomial(ch.h, lab)
            assert abs(monomial_value(ch, s) - want) <= 1e-9 * abs(want)

    def test_monomial_table_agrees_pointwise(self, rng):
        ch = ChannelMatrix.random(rng)
        table = monomial_table(ch, 2)
        for s in iter_cube(2):
            got = table[s.as_array_index()]
            want = monomial_value(ch, s)
            assert abs(got - want) <= 1e-12 * abs(want)


class TestGenericity:
    def test_random_channels_pass(self, rng):
        hits = sum(channel_is_generic(ChannelMatrix.random(rng), 1)
                   for _ in range(20))
        assert hits >= 18

    def test_duplicate_carrier_fails(self):
        h = np.ones((3, 3), dtype=np.complex128)
        assert not channel_is_generic(h, 1)
        with pytest.raises(GenericityError):
            require_generic(h, 1)


class TestObservations:
    def test_exact_observations_match_bruteforce(self, rng):
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
        got = exact_observations(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(got[i].values, want[i])

    def test_exact_observations_match_bruteforce_depth2(self, rng):
        streams = tuple(SubstreamTable.random(i, 2, 3, rng) for i in (1, 2, 3))
        got = exact_observations(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(got[i].values, want[i])

    def test_stream_order_enforced(self, rng):
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (2, 1, 3))
        with pytest.raises(ParameterError):
            exact_observations(streams)

    def test_physical_receive_equals_integer_reconstruction(self, rng):
        # y_i from complex superposition == carrier-weighted integer table
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
        ch = ChannelMatrix.random(rng)
        params = derive_params(1e6, 1)
        x = [synthesize_transmit(s, ch, params) for s in streams]
        y = apply_channel(x, ch)
        obs = exact_observations(streams)
        for i in range(3):
            recon = reconstructed_receive(obs[i], ch, params)
            assert abs(y[i] - recon) <= 1e-9 * max(abs(y[i]), 1.0)
