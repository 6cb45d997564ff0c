import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from coopalign import backhaul, tx_protocol
from coopalign.backhaul import (DIGEST_CHUNK, BackhaulLedger,
                                BackhaulMessage, DigestWorker, Layout,
                                NodeState, Step, payload_digest, run_round)
from coopalign.errors import ParameterError, ProtocolError
from coopalign.lattice import STEP_TERMS, SubstreamTable
from coopalign.rx_protocol import RX_STEPS, receiver_nodes, run_rx_protocol
from coopalign.tx_protocol import TX_STEPS, run_tx_backhaul, transmitter_nodes


def _msg(src, dst, length, hw, rnd=0):
    return BackhaulMessage(source=src, destination=dst, round_index=rnd,
                           length=length, alphabet_halfwidth=hw,
                           digest="0" * 16)


def _one_link(value, halfwidth=1):
    """Node 1 sends its one-entry table (alphabet +-halfwidth*q, q = 5) to
    node 2, which stores it within +-q; returns the nodes and the ledger."""
    whole = (slice(None),) * 8
    layout = Layout(block=(1,) * 8, side=1, labels=whole, region=whole,
                    reads={("own", ()): {}})
    nodes = {i: NodeState(node=i, q=5, bound=5, slab_coord=(3, 1),
                          store="kept",
                          tables={"own": np.full((1,) * 9, value, np.int64),
                                  "kept": np.zeros((1,) * 9, np.int64)},
                          layout=layout)
             for i in (1, 2)}
    step = Step(1, 2, send=((+1, "own", (), 0),), receive=(),
                halfwidth=(halfwidth, halfwidth))
    ledger = BackhaulLedger()
    with DigestWorker() as worker:
        run_round((step,), nodes, 0, 1, ledger, worker)
    return nodes, ledger


def test_step_rejects_self_link():
    with pytest.raises(ParameterError):
        Step(1, 1, send=(), receive=(), halfwidth=(1, 1))


def test_bits_log_cardinality():
    assert _msg(1, 2, 3, 5).bits == pytest.approx(3 * math.log2(11))


def test_digest_tracks_payload():
    (_, a), (_, b) = _one_link(3), _one_link(4)
    m = a.messages[0]
    assert m.digest == hashlib.sha256(
        np.array([3], dtype=np.int64).tobytes()).hexdigest()[:16]
    assert m.digest != b.messages[0].digest
    assert (m.length, m.alphabet_halfwidth) == (1, 5)
    rec = m.trace_record()
    assert rec["stage"] == "backhaul"
    assert rec["length"] == 1 and rec["payload_digest"] == m.digest


def test_narrow_payload_digested_as_int64_bytes():
    # a payload held in int16 keeps the digest of its int64 bytes
    block = np.arange(-300, 300, 7).reshape(2, -1)
    want = hashlib.sha256(block.astype(np.int64).tobytes()).hexdigest()[:16]
    for t in (np.int16, np.int64):
        assert payload_digest(block.astype(t)) == want


@pytest.mark.parametrize("size", [0, 3 * DIGEST_CHUNK + 5])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_chunked_digest_is_the_int64_digest(size, dtype):
    # an empty payload, and one of three whole chunks and a short fourth
    block = np.random.default_rng(size).integers(-100, 101, size)
    want = hashlib.sha256(block.tobytes()).hexdigest()[:16]
    assert payload_digest(block.astype(dtype)) == want


def test_step_rejects_too_many_terms():
    # the cube types hold sums of at most STEP_TERMS reads
    term = (+1, "own", (), 0)
    Step(1, 2, send=(term,) * 3, receive=(term,) * (STEP_TERMS - 3),
         halfwidth=(1, 1))
    with pytest.raises(ParameterError, match="terms"):
        Step(1, 2, send=(term,) * 3, receive=(term,) * (STEP_TERMS - 2),
             halfwidth=(1, 1))


@pytest.mark.parametrize("halfwidth,node,text", [
    # alphabet +-q: the sender refuses a payload entry past it
    pytest.param(1, 1, "half-width 5 on link 1->2", id="send"),
    # alphabet +-2q: the payload passes, the destination refuses to store
    pytest.param(2, 2, "stored entry outside half-width 5", id="store"),
])
def test_range_checked_at_edge(halfwidth, node, text):
    for edge in (5, -5):
        nodes, led = _one_link(edge, halfwidth)
        assert led.total_symbols == 1 and nodes[2].slabs == {1}
        with pytest.raises(ProtocolError, match=text) as err:
            _one_link(edge + (1 if edge > 0 else -1), halfwidth)
        assert (err.value.round_index, err.value.node) == (0, node)


@pytest.mark.parametrize("build,steps,outside,unstored", [
    # round 1 reads transmitter 3's built slab 0, below its table, and
    # round 2 its slab 1
    pytest.param(transmitter_nodes, TX_STEPS, (1, 1), (2, 2), id="tx"),
    # round 0 reads receiver 3's resolved slab N+1 = 3, above its table,
    # and round 1 its slab 2
    pytest.param(receiver_nodes, RX_STEPS, (2, 0), (1, 1), id="rx"),
])
def test_store_read_outside_its_table_is_zero(rng, build, steps, outside,
                                              unstored):
    # (slab, round) of each read; node 3's first read of its store table
    node = build(_streams(rng, 2))[3]
    term = next(t for t in steps[0].send if t[1] == node.store)
    out = np.zeros(node.layout.block, dtype=node.tables[node.store].dtype)
    node.add_term(out, term, *outside)
    assert not out.any()
    slab, round_index = unstored
    with pytest.raises(ProtocolError, match=f"slab {slab + term[3]} read "
                       "before it was stored") as err:
        node.add_term(out, term, slab, round_index)
    assert (err.value.round_index, err.value.node) == (round_index, 3)


class TestLedger:
    def _three_round_ledger(self):
        # the depth-1 receiver-side run: one symbol each on links
        # 3->1 (halfwidth q), 1->2 (3q), 2->3 (2q) at q = 5
        led = BackhaulLedger()
        led.add(_msg(3, 1, 1, 5))
        led.add(_msg(1, 2, 1, 15))
        led.add(_msg(2, 3, 1, 10))
        return led

    def test_totals_and_per_link(self):
        led = self._three_round_ledger()
        assert led.total_symbols == 3
        per = led.per_link_bits()
        assert set(per) == {(3, 1), (1, 2), (2, 3)}
        assert per[(3, 1)] == pytest.approx(math.log2(11))

    def test_per_class_average(self):
        # frozen: (log2 11 + log2 31 + log2 21)/3
        led = self._three_round_ledger()
        assert sum(led.per_link_bits().values()) / 3 \
            == pytest.approx(4.26864845060098, abs=1e-12)

    def test_empty_ledger(self):
        led = BackhaulLedger()
        assert led.total_symbols == 0
        assert led.per_link_bits() == {}
        assert led.trace_records() == []


# ============================================================
# the digest thread of an exchange
# ============================================================


def _streams(rng, n):
    return tuple(SubstreamTable.random(i, n, 5, rng) for i in (1, 2, 3))


def _inline_trace(monkeypatch, run, streams):
    # the exchange with every payload hashed on the calling thread
    with monkeypatch.context() as m:
        m.setattr(backhaul.DigestWorker, "take", lambda *args: False)
        return run(streams).ledger.trace_records()


def _off_main(monkeypatch, before):
    """Make the digest call ``before()`` first on any thread but the main
    one; returns the sizes of the payloads hashed there."""
    sizes = []
    digest = backhaul.payload_digest

    def patched(a):
        if threading.current_thread() is not threading.main_thread():
            sizes.append(a.size)
            before()
        return digest(a)

    monkeypatch.setattr(backhaul, "payload_digest", patched)
    return sizes


@pytest.mark.parametrize("run,n", [(run_tx_backhaul, 3),
                                   (run_tx_backhaul, 4),
                                   (run_rx_protocol, 4)],
                         ids=["tx-3", "tx-4", "rx-4"])
def test_slow_digest_thread_hashes_the_payload_as_sent(rng, monkeypatch, run,
                                                       n):
    # the thread sleeps before it hashes, so the destination has long
    # finished in place the block a tx payload views; the trace must still
    # be the one of the exchange that hashes every payload inline
    streams = _streams(rng, n)
    want = _inline_trace(monkeypatch, run, streams)
    sizes = _off_main(monkeypatch, lambda: time.sleep(0.02))
    threads = threading.active_count()
    assert run(streams).ledger.trace_records() == want
    assert sizes and min(sizes) > DIGEST_CHUNK
    assert threading.active_count() == threads


def test_concurrent_exchanges_keep_their_traces(rng, monkeypatch):
    # six threads on two cores, switching every 10 us: three tx exchanges,
    # each with its own digest thread, must each log the inline trace
    streams = [_streams(rng, 3) for _ in range(3)]
    want = [_inline_trace(monkeypatch, run_tx_backhaul, s) for s in streams]
    got = [None] * 3

    def exchange(k):
        got[k] = run_tx_backhaul(streams[k]).ledger.trace_records()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=exchange, args=(k,))
                   for k in range(3)]
        for t in runners:
            t.start()
        for t in runners:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_protocol_error_mid_round_joins_the_digest_thread(rng, monkeypatch):
    # a stored entry of transmitter 3's slab (2,1) = 1 is lowered after
    # round 1; round 2's 2->1 step then stores an entry past +-3q at
    # transmitter 1, as it does with every payload hashed inline, while the
    # slow digest thread still holds a payload
    streams = _streams(rng, 3)
    tx_round = tx_protocol.tx_round

    def corrupting(nodes, r, *args, **kwargs):
        tx_round(nodes, r, *args, **kwargs)
        if r == 1:
            nodes[3].stored()[2, 2, 0, 0, 2, 2, 1, 2, 1] -= 15

    monkeypatch.setattr(tx_protocol, "tx_round", corrupting)
    sizes = _off_main(monkeypatch, lambda: time.sleep(0.05))
    threads = threading.active_count()
    with pytest.raises(ProtocolError, match="stored entry outside half-width "
                       "15") as err:
        run_tx_backhaul(streams)
    assert (err.value.round_index, err.value.node) == (2, 1)
    assert sizes
    assert threading.active_count() == threads


def test_digest_thread_error_reaches_the_caller(rng, monkeypatch):
    def fail():
        raise RuntimeError("digest failed")

    sizes = _off_main(monkeypatch, fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="digest failed"):
        run_tx_backhaul(_streams(rng, 3))
    assert sizes
    assert threading.active_count() == threads
