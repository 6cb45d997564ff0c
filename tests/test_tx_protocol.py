import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (make_generic_channel, oracle_monomial,
                      oracle_observations, stream_sets)
from coopalign.backhaul import BackhaulLedger
from coopalign.errors import ProtocolError, SingularChannelError
from coopalign.indices import AXIS
from coopalign.lattice import SubstreamTable, exact_observations
from coopalign.tx_protocol import (InverseChannel, expected_symbol_count,
                                   run_tx_backhaul, transmitter_nodes,
                                   tx_round, verify_diagonalization)


def _streams(rng, n, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


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
            np.testing.assert_array_equal(res.built[i].values,
                                          want[i].values)

    def test_built_matches_bruteforce_oracle(self, rng):
        streams = _streams(rng, 1)
        res = run_tx_backhaul(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(res.built[i].values, want[i])

    @pytest.mark.parametrize("n", [1, 2])
    def test_ledger_symbol_count(self, rng, n):
        streams = _streams(rng, n)
        res = run_tx_backhaul(streams)
        assert res.ledger.total_symbols == expected_symbol_count(n)
        assert expected_symbol_count(n) == 3 * (n + 1) ** 9
        assert len(res.ledger.messages) == 3 * (n + 1)
        assert all(m.length == (n + 1) ** 8 for m in res.ledger.messages)
        assert all(m.alphabet_halfwidth == 15 for m in res.ledger.messages)
        assert res.rounds == n + 1

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
        streams = tuple(SubstreamTable.zeros(i, 1, 5) for i in (1, 2, 3))
        res = run_tx_backhaul(streams)
        for t in res.built:
            assert not t.values.any()
        assert all(m.digest == _digest(np.zeros(m.length, dtype=np.int64))
                   for m in res.ledger.messages)

    def test_stream_validation(self, rng):
        swapped = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (2, 1, 3))
        with pytest.raises(ProtocolError):
            run_tx_backhaul(swapped)
        a = SubstreamTable.random(1, 1, 5, rng)
        b = SubstreamTable.random(2, 1, 3, rng)
        c = SubstreamTable.random(3, 1, 5, rng)
        with pytest.raises(ProtocolError):
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
    for built, want in zip(res.built, exact_observations(streams)):
        np.testing.assert_array_equal(built.values, want.values)


class TestInverseChannel:
    def test_generic_inverse(self, rng):
        ch = make_generic_channel(rng, n=1)
        inv = InverseChannel.of(ch)
        assert inv.product_residual <= 1e-9
        np.testing.assert_allclose(inv.h @ inv.hinv, np.eye(3), atol=1e-9)

    def test_singular_rejected(self):
        h = np.ones((3, 3), dtype=np.complex128)
        with pytest.raises(SingularChannelError):
            InverseChannel.of(h)

    def test_shape_rejected(self):
        with pytest.raises(SingularChannelError):
            InverseChannel.of(np.ones((2, 2), dtype=np.complex128))


class TestDiagonalization:
    def test_transmit_sample_matches_resummation(self, rng):
        streams = _streams(rng, 1)
        ch = make_generic_channel(rng, n=1)
        inv = InverseChannel.of(ch)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, ch, 250.0)
        want = np.array([
            sum(oracle_monomial(inv.hinv, lab)
                * t.values[tuple(c - 1 for c in lab)]
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
        streams = tuple(SubstreamTable.zeros(i, 1, 5) for i in (1, 2, 3))
        ch = make_generic_channel(rng, n=1)
        built = run_tx_backhaul(streams).built
        chk = verify_diagonalization(streams, built, ch, 1e6)
        assert chk.residual == 0.0
        assert not np.abs(chk.x).any()
