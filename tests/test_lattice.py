import itertools

import numpy as np
import pytest

from conftest import (oracle_channel_is_generic, oracle_monomial,
                      oracle_observations)
from coopalign.errors import GenericityError, ParameterError, SymbolRangeError
from coopalign.lattice import (ChannelMatrix, ObservationTable, SubstreamTable,
                               channel_is_generic, complex_awgn,
                               exact_observations, monomial_table,
                               require_generic)


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


class TestTables:
    def test_substream_alphabet_guard(self, rng):
        bad = np.full((1,) * 9, 7, dtype=np.int64)
        with pytest.raises(SymbolRangeError):
            SubstreamTable(owner=1, n=1, q=5, values=bad)

    def test_observation_range_guard(self):
        bad = np.full((2,) * 9, 16, dtype=np.int64)
        with pytest.raises(SymbolRangeError):
            ObservationTable(receiver=1, n=1, values=bad, q=5)


class TestMonomials:
    def test_monomial_table_agrees_pointwise(self, rng):
        ch = ChannelMatrix.random(rng)
        table = monomial_table(ch, 2)
        for lab in itertools.product(range(1, 3), repeat=9):
            got = table[tuple(c - 1 for c in lab)]
            want = oracle_monomial(ch.h, lab)
            assert abs(got - want) <= 1e-9 * abs(want)
        # exponents up to 3, from a depth-3 table
        deep = monomial_table(ch, 3)
        for lab in ((2, 1, 3, 1, 1, 2, 1, 1, 1), (3,) * 9):
            want = oracle_monomial(ch.h, lab)
            got = deep[tuple(c - 1 for c in lab)]
            assert abs(got - want) <= 1e-9 * abs(want)


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

    @pytest.mark.parametrize("n,draws", [(1, 70), (2, 40), (3, 2)])
    def test_screen_matches_oracle_on_random_channels(self, n, draws):
        rng = np.random.default_rng(np.random.SeedSequence(606 + n))
        for _ in range(draws):
            h = ChannelMatrix.random(rng).h
            assert channel_is_generic(h, n) == oracle_channel_is_generic(h, n)

    @pytest.mark.parametrize("values,verdict", [
        # b lies outside the real-part window that a's sorted neighbour c
        # sets, so (a, b) is never compared, though within tolerance
        ((1 + 100j, 1 + 35e-9, 1 + 70e-9 + 100j), True),
        # b lies inside that window; the pair tolerance then uses |a| and |b|
        ((1 + 100j, 1 + 20e-9, 1 + 40e-9 + (100 + 60e-9) * 1j), False),
    ])
    def test_window_comes_from_sorted_neighbour(self, monkeypatch, values,
                                                verdict):
        import conftest
        import coopalign.lattice as lattice

        def table(h, upper):
            return np.array(values)

        monkeypatch.setattr(lattice, "monomial_table", table)
        monkeypatch.setattr(conftest, "monomial_table", table)
        h = np.ones((3, 3), dtype=np.complex128)
        assert channel_is_generic(h, 1) == verdict
        assert oracle_channel_is_generic(h, 1) == verdict

    def test_screen_matches_oracle_on_constructed_channels(self):
        h = ChannelMatrix.random(np.random.default_rng(607)).h

        def edit(at, value):
            g = h.copy()
            g[at] = value
            return g

        # (channel, depth, verdict or None when only agreement is asserted)
        cases = [
            # (h11/h33)^2 = 1 needs an exponent gap of 2, first at n = 2
            (edit((2, 2), -h[0, 0]), 2, False),
            (edit((2, 2), -h[0, 0]), 1, None),
            (edit((1, 1), h[0, 0] * (1 + 5e-10)), 1, False),
            (edit((1, 1), h[0, 0] * (1 + 1e-7)), 1, True),
            # a cube root of unity needs a gap of 3, first at n = 3
            (edit((1, 1), h[0, 0] * np.exp(2j * np.pi / 3)), 3, False),
            (np.ones((3, 3), dtype=np.complex128), 1, False),
            (edit((1, 2), 0.0), 1, False),
        ]
        # straddle the relative tolerance in magnitude and in phase
        for d in (1e-10, 4e-10, 9.9e-10, 1.01e-9, 2.5e-9, 1e-8):
            cases.append((edit((1, 1), h[0, 0] * (1 + d)), 2, None))
            cases.append((edit((1, 1), h[0, 0] * np.exp(1j * d)), 2, None))
        for g, n, verdict in cases:
            got = channel_is_generic(g, n)
            assert got == oracle_channel_is_generic(g, n)
            assert verdict is None or got == verdict


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
        gamma = 1e3                         # any common transmit scale
        x = np.array([gamma * np.sum(monomial_table(ch, 1) * s.values)
                      for s in streams])
        y = ch.h @ x
        obs = exact_observations(streams)
        for i in range(3):
            recon = gamma * np.sum(monomial_table(ch, 2) * obs[i].values)
            assert abs(y[i] - recon) <= 1e-9 * max(abs(y[i]), 1.0)
