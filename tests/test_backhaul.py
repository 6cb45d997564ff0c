import hashlib
import math

import numpy as np
import pytest

from coopalign.backhaul import (BackhaulLedger, BackhaulMessage, NodeState,
                                Step, payload_digest, run_round)
from coopalign.errors import ParameterError, ProtocolError
from coopalign.lattice import STEP_TERMS


def _msg(src, dst, length, hw, rnd=0):
    return BackhaulMessage(source=src, destination=dst, round_index=rnd,
                           length=length, alphabet_halfwidth=hw,
                           digest="0" * 16)


def _one_link(value, halfwidth=1):
    """Node 1 sends its one-entry table (alphabet +-halfwidth*q, q = 5) to
    node 2, which stores it within +-q; returns the nodes and the ledger."""
    nodes = {i: NodeState(node=i, q=5, bound=5, slab_coord=(3, 1),
                          store="kept",
                          tables={"own": np.full((1,) * 9, value, np.int64),
                                  "kept": np.zeros((1,) * 9, np.int64)})
             for i in (1, 2)}
    step = Step(1, 2, send=((+1, "own", (), 0),), receive=(),
                halfwidth=(halfwidth, halfwidth))
    ledger = BackhaulLedger()
    run_round((step,), nodes, 0, 1, ledger)
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
