import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import exact_observations, rx_index, stream_sets
from coopalign.backhaul import BackhaulLedger, run_round
from coopalign.errors import ParameterError, ProtocolError
from coopalign.indices import AXIS
from coopalign.lattice import SubstreamTable
from coopalign import rx_protocol
from coopalign.rx_protocol import (FREE, PADS, RX_STEPS, receiver_nodes,
                                   resolved_symbols, run_rx_protocol)


def _streams(rng, n, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


def _fresh_nodes(streams):
    return receiver_nodes(streams)


def _digest(values):
    return hashlib.sha256(
        np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def _corrupt(nodes, receiver, label, delta):
    # one entry of a receiver's combination table, found by its label
    node = nodes[receiver]
    node.tables["obs"][rx_index(node, "obs", label)] += delta
    return nodes


def _corrupted_nodes(streams, delta):
    # receiver 1's combination at (1,2) = 2 on slab (3,1) = 2
    return _corrupt(receiver_nodes(streams), 1, (1, 2, 1, 1, 1, 1, 2, 1, 1),
                    delta)


def _rx_round(nodes, r, n):
    run_round(RX_STEPS, nodes, r, n - r, BackhaulLedger(), first=r == 0)


def _interference_sums(node, slab, n):
    # receiver i's combinations minus its own symbols shifted on (i,i), at
    # the labels {1..n}^8 a payload carries on slab ``slab``; the resolved
    # table holds slabs 1..n and reads as zero above them
    i = node.node
    label = [None] * 9
    for c, u in zip(FREE, np.indices((n,) * 8).reshape(8, -1) + 1):
        label[AXIS[c]] = u
    label[AXIS[(3, 1)]] = np.full(n ** 8, slab)
    out = node.tables["obs"][rx_index(node, "obs", label)].astype(np.int64)
    if slab <= n:
        label[AXIS[(i, i)]] = label[AXIS[(i, i)]] - 1
        out -= node.tables["resolved"][rx_index(node, "resolved", label)]
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
            got = resolved_symbols(nodes[i])
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
        nodes = _corrupted_nodes(_streams(rng, 2), delta)
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
    label = [1] * 9
    label[AXIS[coord]] = 2
    build = rx_protocol.receiver_nodes
    monkeypatch.setattr(rx_protocol, "receiver_nodes",
                        lambda s: _corrupt(build(s), receiver, label, delta))
    try:
        res = run_rx_protocol(streams)
    except ProtocolError:
        return
    assert any(not np.array_equal(res.recovered[i], streams[i].values)
               for i in range(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layout_holds_the_combinations(rng, n):
    # every label a receiver's layout holds, label 0 of a low-end axis and
    # N+1 of a high-end one included, reads as exact_observations with zero
    # outside {1..n+1}^9; the resolved table starts empty
    streams = _streams(rng, n)
    nodes = receiver_nodes(streams)
    for i, want in zip((1, 2, 3), exact_observations(streams)):
        ext = np.zeros((n + 2,) * 9, dtype=want.dtype)
        ext[(slice(1, None),) * 9] = want
        ext = np.moveaxis(ext, AXIS[(3, 1)], 0)
        held = nodes[i].tables["obs"].reshape((n + 1,) * 9)
        at = (slice(1, None),) + tuple(slice(1 - p, n + 2 - p)
                                       for p in PADS[i, "obs"])
        np.testing.assert_array_equal(held, ext[at])
        assert held.dtype == want.dtype
        assert not nodes[i].tables["resolved"].any()


def test_layout_drops_only_labels_no_term_reads():
    # a table holds labels 1 - pad .. n + 1 - pad on each free coordinate;
    # a term reads labels 1 + d .. n + d there, so its shift d lies in
    # {-pad, 1 - pad}: no (receiver, table, coordinate) is read at both -1
    # and +1, and label n + 1 of a low-end axis is never read
    seen = set()
    for at, (_, name, shifts, _) in rx_protocol._node_terms(RX_STEPS):
        pads = dict(zip(FREE, PADS[at, name]))
        for c, d in shifts:
            assert -pads[c] <= d <= 1 - pads[c], (at, name, c, d)
            seen.add((at, name, c, d))
    assert not {(at, name, c) for at, name, c, d in seen if d < 0} \
        & {(at, name, c) for at, name, c, d in seen if d > 0}


def test_plan_refuses_a_read_two_layers_away():
    with pytest.raises(ParameterError):
        rx_protocol._flat([0, 1, 2], 4)
