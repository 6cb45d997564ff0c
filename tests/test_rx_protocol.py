import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import stream_sets
from coopalign.backhaul import BackhaulLedger, run_round
from coopalign.errors import ProtocolError
from coopalign.indices import AXIS
from coopalign.lattice import SubstreamTable, exact_observations
from coopalign import rx_protocol
from coopalign.rx_protocol import RX_STEPS, receiver_nodes, run_rx_protocol


def _streams(rng, n, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


def _fresh_nodes(streams):
    return receiver_nodes(exact_observations(streams), streams[0].q)


def _digest(values):
    return hashlib.sha256(
        np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def _corrupted_tables(streams, delta):
    # one entry of receiver 1's combination table on slab (3,1) = 2
    tables = exact_observations(streams)
    tables[0][0, 1, 0, 0, 0, 0, 1, 0, 0] += delta
    return tables


def _rx_round(nodes, r, n):
    run_round(RX_STEPS, nodes, r, n - r, BackhaulLedger(), first=r == 0)


def _interference_sums(node, slab, n):
    # receiver i's combinations minus its own symbols shifted on (i,i)
    i = node.node
    out = np.zeros((n + 1,) * 8, dtype=np.int64)
    node.add_term(out, (+1, "obs", (), 0), slab, None)
    node.add_term(out, (-1, "resolved", (((i, i), -1),), 0), slab, None)
    return out


class TestRecovery:
    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_recovery(self, rng, n):
        streams = _streams(rng, n)
        res = run_rx_protocol(streams)
        for i in range(3):
            np.testing.assert_array_equal(res.recovered[i],
                                          streams[i].values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ledger_symbol_count(self, rng, n):
        streams = _streams(rng, n)
        res = run_rx_protocol(streams)
        assert res.ledger.total_symbols == 3 * n ** 9
        assert len(res.ledger.messages) == 3 * n
        assert all(m.length == n ** 8 for m in res.ledger.messages)

    def test_zero_streams_zero_traffic(self):
        zeros = np.zeros((2,) * 9, dtype=np.int64)
        streams = tuple(SubstreamTable(owner=i, n=2, q=5, values=zeros)
                        for i in (1, 2, 3))
        res = run_rx_protocol(streams)
        for i in range(3):
            assert not res.recovered[i].any()
        assert all(m.digest == _digest(np.zeros(m.length))
                   for m in res.ledger.messages)

    def test_recovered_streams_roundtrip(self, rng):
        streams = _streams(rng, 1)
        res = run_rx_protocol(streams)
        for i in range(3):
            # the recovered arrays pass the stream alphabet check
            back = SubstreamTable(owner=i + 1, n=1, q=5,
                                  values=res.recovered[i])
            np.testing.assert_array_equal(back.values, streams[i].values)


@settings(max_examples=30, deadline=None)
@given(stream_sets())
def test_recovery_exact_for_any_tables(streams):
    res = run_rx_protocol(streams)
    for i in range(3):
        np.testing.assert_array_equal(res.recovered[i], streams[i].values)


class TestMessageClasses:
    def test_depth1_seed_is_plain_symbol(self, rng):
        # round 0 opens with user-1's sole symbol, alphabet half-width q
        streams = _streams(rng, 1)
        res = run_rx_protocol(streams)
        first = res.ledger.messages[0]
        assert (first.source, first.destination, first.round_index) == (3, 1, 0)
        assert first.alphabet_halfwidth == 5
        assert first.digest == _digest([streams[0].values[(0,) * 9]])

    def test_depth1_frozen_prices(self, rng):
        # one symbol per link at half-widths (q, 3q, 2q) = (5, 15, 10)
        streams = _streams(rng, 1)
        led = run_rx_protocol(streams).ledger
        assert [m.alphabet_halfwidth for m in led.messages] == [5, 15, 10]
        assert sum(led.per_link_bits().values()) / 3 \
            == pytest.approx(4.26864845060098, abs=1e-12)

    def test_depth2_halfwidth_schedule(self, rng):
        # later rounds all ride the widest class
        streams = _streams(rng, 2)
        led = run_rx_protocol(streams).ledger
        hws = [m.alphabet_halfwidth for m in led.messages]
        assert hws == [5, 15, 10, 15, 15, 15]

    def test_link_cycle(self, rng):
        streams = _streams(rng, 2)
        led = run_rx_protocol(streams).ledger
        links = [(m.source, m.destination) for m in led.messages]
        assert links == [(3, 1), (1, 2), (2, 3)] * 2


class TestStateMachine:
    def test_round0_resolves_top_slab_only(self, rng):
        streams = _streams(rng, 2)
        nodes = _fresh_nodes(streams)
        _rx_round(nodes, 0, 2)
        for i in (1, 2, 3):
            own = streams[i - 1].values
            got = nodes[i].tables["resolved"]
            np.testing.assert_array_equal(
                got[:, :, :, :, :, :, 1], own[:, :, :, :, :, :, 1])
            assert not got[:, :, :, :, :, :, 0].any()
            assert nodes[i].slabs == {2}

    def test_known_sums_stay_within_twice_q(self, rng):
        # interference sums carry at most two in-range symbols
        streams = _streams(rng, 2)
        nodes = _fresh_nodes(streams)
        for r in range(2):
            _rx_round(nodes, r, 2)
            for node in nodes.values():
                for slab in node.slabs | {3}:
                    block = _interference_sums(node, slab, 2)
                    assert np.abs(block).max() <= 2 * node.q, (node.node, slab)

    def test_missing_prerequisite_raises(self, rng):
        # round 1 reads the slab round 0 resolves; skipping round 0 is
        # caught where receiver 3 first reads it
        nodes = _fresh_nodes(_streams(rng, 2))
        with pytest.raises(ProtocolError) as err:
            _rx_round(nodes, 1, 2)
        assert (err.value.round_index, err.value.node) == (1, 3)

    @pytest.mark.parametrize("delta,where,text", [
        # far off: receiver 1's 1->2 payload leaves +-3q and the sender
        # refuses it
        pytest.param(40, (0, 1), "half-width 15 on link 1->2", id="send"),
        # inside the payload alphabet, but receiver 2's resolved symbol
        # leaves +-q on this data and the store check refuses it
        pytest.param(-10, (0, 2), "stored entry outside half-width 5",
                     id="store"),
    ])
    def test_strict_mode_flags_inconsistent_subtraction(self, rng, delta,
                                                        where, text):
        nodes = receiver_nodes(_corrupted_tables(_streams(rng, 2), delta), 5)
        with pytest.raises(ProtocolError, match=text) as err:
            for r in range(2):
                _rx_round(nodes, r, 2)
        assert (err.value.round_index, err.value.node) == where


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("receiver,coord", [(1, (1, 2)), (2, (2, 3)),
                                            (3, (3, 1))],
                         ids=["rx1", "rx2", "rx3"])
def test_corrupted_read_is_observed(rng, monkeypatch, receiver, coord,
                                    delta):
    # N = 1: receiver i's outgoing payload reads its combination at label
    # coord = 2 (all other coordinates 1), so a one-step error there must
    # either trip a range check or come out in some recovered stream
    streams = _streams(rng, 1)
    tables = exact_observations(streams)
    label = [0] * 9
    label[AXIS[coord]] = 1
    tables[receiver - 1][tuple(label)] += delta
    monkeypatch.setattr(rx_protocol, "exact_observations", lambda s: tables)
    try:
        res = run_rx_protocol(streams)
    except ProtocolError:
        return
    assert any(not np.array_equal(res.recovered[i], streams[i].values)
               for i in range(3))
