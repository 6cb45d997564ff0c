import gc
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (make_generic_channel, narrowest_cube_dtype,
                      oracle_monomial, oracle_observations, stream_sets)
from coopalign.backhaul import BackhaulLedger
from coopalign.errors import (GenericityError, ParameterError, ProtocolError,
                              SingularChannelError)
from coopalign.indices import AXIS
from coopalign.lattice import SubstreamTable, exact_observations, random_gains
from coopalign.tx_protocol import (channel_inverse, expected_symbol_count,
                                   run_tx_backhaul, transmitter_nodes,
                                   tx_round, verify_diagonalization)


def _streams(rng, n, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


def _zero_streams(n):
    return tuple(SubstreamTable(owner=i, n=n, q=5,
                                values=np.zeros((n,) * 9, dtype=np.int64))
                 for i in (1, 2, 3))


def _digest(block):
    return hashlib.sha256(block.tobytes()).hexdigest()[:16]


def _relabel(stream, coord):
    # slab (2,1) = 1 of a user's symbols as an (N+1)^8 block, each symbol
    # moved one label up on ``coord``
    own = stream.values.take(0, axis=AXIS[(2, 1)])
    n = own.shape[0]
    axis = AXIS[coord] - (AXIS[coord] > AXIS[(2, 1)])
    out = np.zeros((n + 1,) * 8, dtype=np.int64)
    out[tuple(slice(1, None) if ax == axis else slice(0, n)
              for ax in range(8))] = own
    return out


class TestExchange:
    @pytest.mark.parametrize("n", [1, 2])
    def test_built_tables_match_receive_combinations(self, rng, n):
        streams = _streams(rng, n)
        res = run_tx_backhaul(streams)
        want = exact_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(res.built[i], want[i])

    def test_built_matches_bruteforce_oracle(self, rng):
        streams = _streams(rng, 1)
        res = run_tx_backhaul(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(res.built[i], want[i])

    @pytest.mark.parametrize("n", [1, 2])
    def test_ledger_symbol_count(self, rng, n):
        streams = _streams(rng, n)
        res = run_tx_backhaul(streams)
        assert res.ledger.total_symbols == expected_symbol_count(n)
        assert expected_symbol_count(n) == 3 * (n + 1) ** 9
        assert len(res.ledger.messages) == 3 * (n + 1)
        assert all(m.length == (n + 1) ** 8 for m in res.ledger.messages)
        assert all(m.alphabet_halfwidth == 15 for m in res.ledger.messages)

    def test_link_cycle(self, rng):
        res = run_tx_backhaul(_streams(rng, 1))
        links = [(m.source, m.destination) for m in res.ledger.messages]
        assert links == [(3, 2), (2, 1), (1, 3)] * 2

    def test_round1_opener_is_single_term(self, rng):
        # round 1 rides on the empty slab 0: the opening 3->2 payload is a
        # bare re-label of transmitter 3's own symbols, the next message
        # stacks one more term
        streams = _streams(rng, 2)
        res = run_tx_backhaul(streams)
        m32, m21, _ = res.ledger.messages[:3]
        assert m32.digest == _digest(_relabel(streams[2], (2, 3)))
        assert m21.digest == _digest(_relabel(streams[2], (1, 3))
                                     + _relabel(streams[1], (1, 2)))

    def test_zero_streams_zero_tables(self):
        streams = _zero_streams(1)
        res = run_tx_backhaul(streams)
        for t in res.built:
            assert not t.any()
        assert all(m.digest == _digest(np.zeros(m.length, dtype=np.int64))
                   for m in res.ledger.messages)

    def test_stream_validation(self, rng):
        swapped = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (2, 1, 3))
        with pytest.raises(ParameterError, match="user order"):
            run_tx_backhaul(swapped)
        a = SubstreamTable.random(1, 1, 5, rng)
        b = SubstreamTable.random(2, 1, 3, rng)
        c = SubstreamTable.random(3, 1, 5, rng)
        with pytest.raises(ParameterError, match="half-width"):
            run_tx_backhaul((a, b, c))

    def test_slab_monotone_growth(self, rng):
        nodes = transmitter_nodes(_streams(rng, 2))
        ledger = BackhaulLedger()
        for r in range(1, 4):
            tx_round(nodes, r, ledger)
            for node in nodes.values():
                assert node.slabs == set(range(1, r + 1))
            assert len(ledger.messages) == 3 * r

    def test_skipping_a_round_raises(self, rng):
        nodes = transmitter_nodes(_streams(rng, 1))
        with pytest.raises(ProtocolError) as err:
            tx_round(nodes, 2, BackhaulLedger())
        assert (err.value.round_index, err.value.node) == (2, 3)

    def test_out_of_range_symbol_refused_at_send(self, rng):
        # transmitter 3's opening payload is its own symbols re-labelled;
        # one entry past +-3q is refused by the sender, nothing is logged
        nodes = transmitter_nodes(_streams(rng, 1))
        nodes[3].tables["own"][(0,) * 9] = 16
        ledger = BackhaulLedger()
        with pytest.raises(ProtocolError, match="half-width 15 on link 3->2") \
                as err:
            tx_round(nodes, 1, ledger)
        assert (err.value.round_index, err.value.node) == (1, 3)
        assert ledger.messages == []


@settings(max_examples=30, deadline=None)
@given(stream_sets())
def test_built_tables_exact_for_any_tables(streams):
    res = run_tx_backhaul(streams)
    n, q = streams[0].n, streams[0].q
    dtype = narrowest_cube_dtype(n, q)
    for built, want in zip(res.built, exact_observations(streams)):
        for cube in (built, want):
            assert cube.dtype == dtype and cube.shape == (n + 1,) * 9
        np.testing.assert_array_equal(built, want)
        # each combination sums three symbols in +-q
        assert np.abs(want).max() <= 3 * q


class TestInverseChannel:
    def test_generic_inverse(self, rng):
        h = make_generic_channel(rng, n=1)
        hinv = channel_inverse(h)
        assert np.abs(h @ hinv - np.eye(3)).max() <= 1e-9

    def test_singular_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        with pytest.raises(SingularChannelError):
            channel_inverse(h)

    def test_shape_rejected(self):
        with pytest.raises(SingularChannelError):
            channel_inverse(np.ones((2, 2), dtype=np.complex128))


class TestDiagonalization:
    def test_transmit_sample_matches_resummation(self, rng):
        streams = _streams(rng, 1)
        h = make_generic_channel(rng, n=1)
        hinv = channel_inverse(h)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, h, 250.0)
        want = np.array([
            sum(oracle_monomial(hinv, lab)
                * t[tuple(c - 1 for c in lab)]
                for lab in itertools.product(range(1, 3), repeat=9))
            for t in built])
        scale = np.sqrt(250.0 / np.mean(np.abs(want) ** 2))
        for got, w in zip(chk.x / scale, want):
            assert abs(got - w) <= 1e-9 * max(abs(w), 1.0)

    def test_scale_meets_average_power(self, rng):
        streams = _streams(rng, 1)
        ch = make_generic_channel(rng, n=1)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, ch, 250.0)
        assert np.mean(np.abs(chk.x) ** 2) == pytest.approx(250.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_interference_cancels(self, rng, n):
        streams = _streams(rng, n)
        ch = make_generic_channel(rng, n=n)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, ch, 1e6)
        assert chk.ok
        assert chk.residual <= 1e-9

    def test_zero_streams_zero_residual(self, rng):
        streams = _zero_streams(1)
        ch = make_generic_channel(rng, n=1)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, ch, 1e6)
        assert chk.residual == 0.0
        assert not np.abs(chk.x).any()

    @pytest.mark.parametrize("h", [
        # a diagonal channel: the off-diagonal inverse gains are 0, so every
        # transmit carrier is 0 and the check would compare zero signals
        np.diag([1e-3, 2e-3, 3e-3]).astype(np.complex128),
        # large gains: inverse gains near 1e-40, whose products underflow
        random_gains(np.random.default_rng(3)) * 1e40,
    ], ids=["diagonal", "underflow"])
    def test_vanishing_transmit_carrier_raises(self, rng, h):
        streams = _streams(rng, 1)
        built = run_tx_backhaul(streams).built
        with pytest.raises(GenericityError, match="a carrier is zero"):
            verify_diagonalization(streams, built, h, 1e6)

    def test_bounded_memory_at_depth_4(self, rng):
        # the dense carrier table and each carrier product were 31 MB at
        # N = 4; the streamed sums hold about one leaf.  With the cyclic
        # collector off, built cubes that a reference cycle kept alive
        # would stay traced after the call
        streams = _streams(rng, 4)
        h = make_generic_channel(rng, n=1)
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            built = run_tx_backhaul(streams).built
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            chk = verify_diagonalization(streams, built, h, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
            del built
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert chk.ok
        assert peak - before <= 8 * 2 ** 20
        assert after - base <= 2 ** 16
