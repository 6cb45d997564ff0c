import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import stream_sets
from coopalign.backhaul import BackhaulLedger, run_round
from coopalign.detection import genie_detect
from coopalign.errors import ParameterError, ProtocolError
from coopalign.lattice import SubstreamTable
from coopalign import rx_protocol
from coopalign.rx_protocol import (RX_STEPS, expected_message_count,
                                   receiver_nodes, run_rx_protocol,
                                   run_rx_slots)


def _streams(rng, n, q=5):
    return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))


def _fresh_nodes(streams):
    return receiver_nodes(genie_detect(streams).tables, streams[0].q)


def _digest(values):
    return hashlib.sha256(
        np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def _corrupted_report(streams, delta):
    # one entry of receiver 1's combination table on slab (3,1) = 2
    rep = genie_detect(streams)
    rep.tables[0].values[0, 1, 0, 0, 0, 0, 1, 0, 0] += delta
    return rep


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
        assert res.contaminated == (False, False, False)
        assert res.rounds == n

    @pytest.mark.parametrize("n", [1, 2])
    def test_ledger_symbol_count(self, rng, n):
        streams = _streams(rng, n)
        res = run_rx_protocol(streams)
        assert res.ledger.total_symbols == expected_message_count(n)
        assert expected_message_count(n) == 3 * n ** 9
        assert len(res.ledger.messages) == 3 * n
        assert all(m.length == n ** 8 for m in res.ledger.messages)

    def test_zero_streams_zero_traffic(self):
        streams = tuple(SubstreamTable.zeros(i, 2, 5) for i in (1, 2, 3))
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
    assert not any(res.contaminated)


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
        rep = _corrupted_report(_streams(rng, 2), delta)
        nodes = receiver_nodes(rep.tables, 5)
        with pytest.raises(ProtocolError, match=text) as err:
            for r in range(2):
                _rx_round(nodes, r, 2)
        assert (err.value.round_index, err.value.node) == where

    def test_loose_mode_flags_and_continues(self, rng):
        rep = _corrupted_report(_streams(rng, 2), 40)
        nodes = receiver_nodes(rep.tables, 5)
        ledger = BackhaulLedger()
        for r in range(2):
            run_round(RX_STEPS, nodes, r, 2 - r, ledger, first=r == 0,
                      strict=False)
        assert nodes[2].range_violation
        assert all(node.slabs == {1, 2} for node in nodes.values())
        assert len(ledger.messages) == 6

    def test_genie_with_errors_completes_on_corruption(self, rng,
                                                        monkeypatch):
        # the send check is strict-only: the same corruption that exact-genie
        # refuses at receiver 1 runs through and flags receiver 2
        streams = _streams(rng, 2)
        rep = _corrupted_report(streams, 40)
        monkeypatch.setattr(rx_protocol, "genie_detect",
                            lambda *a, **k: rep)
        res = run_rx_protocol(streams, detector_mode="genie-with-errors")
        assert len(res.ledger.messages) == 6
        assert res.contaminated[1]
        with pytest.raises(ProtocolError) as err:
            run_rx_protocol(streams)
        assert (err.value.round_index, err.value.node) == (0, 1)


class TestErrorHandling:
    def test_unknown_detector_mode(self, rng):
        with pytest.raises(ParameterError):
            run_rx_protocol(_streams(rng, 1), detector_mode="oracle")

    def test_error_injection_flags_receivers(self, rng):
        streams = _streams(rng, 1)
        res = run_rx_protocol(streams, detector_mode="genie-with-errors",
                              error_rate=1.0, rng_seed=9)
        assert res.contaminated == (True, True, True)
        assert res.report.errors_injected == 3

    def test_clean_mode_ignores_error_rate(self, rng):
        streams = _streams(rng, 1)
        res = run_rx_protocol(streams, detector_mode="exact-genie",
                              error_rate=1.0)
        assert res.contaminated == (False, False, False)


class TestSlots:
    def test_error_slot_is_isolated(self, rng):
        slots = [_streams(rng, 1) for _ in range(3)]
        clean = run_rx_slots(slots, rng_seed=42)
        dirty = run_rx_slots(slots, error_slot=1, rng_seed=42)
        for t in (0, 2):
            for i in range(3):
                np.testing.assert_array_equal(dirty[t].recovered[i],
                                              clean[t].recovered[i])
            assert [m.digest for m in dirty[t].ledger.messages] \
                == [m.digest for m in clean[t].ledger.messages]
        assert any(dirty[1].contaminated)
        assert not any(clean[1].contaminated)
