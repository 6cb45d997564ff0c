import math

import numpy as np
import pytest

from coopalign.backhaul import BackhaulLedger, BackhaulMessage
from coopalign.errors import ParameterError, SymbolRangeError


def _msg(src, dst, payload, hw, rnd=0):
    return BackhaulMessage(source=src, destination=dst, round_index=rnd,
                           payload=np.asarray(payload), alphabet_halfwidth=hw)


def test_message_rejects_self_link():
    with pytest.raises(ParameterError):
        _msg(1, 1, [0], 5)


def test_payload_flattened_int64():
    m = _msg(3, 1, np.arange(8).reshape(2, 2, 2), 10)
    assert m.payload.shape == (8,)
    assert m.payload.dtype == np.int64
    assert m.length == 8


def test_alphabet_validation_is_explicit():
    # construction tolerates out-of-range entries so contaminated runs can
    # still be traced; validation is a separate call
    m = _msg(1, 2, [7], 5)
    with pytest.raises(SymbolRangeError):
        m.validate_alphabet()
    _msg(1, 2, [5, -5], 5).validate_alphabet()


def test_bits_log_cardinality():
    m = _msg(1, 2, [1, -2, 0], 5)
    assert m.bits == pytest.approx(3 * math.log2(11))


def test_digest_tracks_payload():
    a, b = _msg(1, 2, [1, 2], 5), _msg(1, 2, [1, 3], 5)
    assert a.digest() != b.digest()
    assert a.digest() == _msg(3, 2, [1, 2], 9).digest()
    rec = a.trace_record()
    assert rec["stage"] == "backhaul"
    assert rec["length"] == 2 and rec["payload_digest"] == a.digest()


class TestLedger:
    def _three_round_ledger(self):
        # the depth-1 receiver-side run: one symbol each on links
        # 3->1 (halfwidth q), 1->2 (3q), 2->3 (2q) at q = 5
        led = BackhaulLedger()
        led.add(_msg(3, 1, [2], 5))
        led.add(_msg(1, 2, [-11], 15))
        led.add(_msg(2, 3, [9], 10))
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
        assert led.rb_bar_bits() == pytest.approx(4.26864845060098, abs=1e-12)

    def test_empty_ledger(self):
        led = BackhaulLedger()
        assert led.total_symbols == 0
        assert led.rb_bar_bits() == 0.0
        assert led.trace_records() == []
