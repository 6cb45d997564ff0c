"""Transmitter-side cooperation: backhaul exchange that hands every
transmitter the receive combinations of its own receiver, then channel
inversion so each receiver sees only its own symbols.

The combination cube {1..N+1}^9 is built slab by slab along coordinate
(2,1), bottom up, one round per slab value r = 1..N+1, by the three steps
of TX_STEPS run on the exchange engine in backhaul.py:

  3 -> 2  transmitter 3 re-labels its finished slab r-1, swaps its own
          symbol term from the old label to the new one, and sends;
          transmitter 2 swaps the user-2 term the same way and owns slab r,
  2 -> 1  same pattern off the slab transmitter 2 just finished,
  1 -> 3  same pattern off transmitter 1's fresh slab, closing the round.

Every term in each swap shares the shifted coordinate that can leave the
cube, so the zero-fill convention keeps all three construction steps exact
at the boundary.  Round 1 starts from the empty slab 0, which makes the
first payload a plain re-label of the senders' own symbols.

After the exchange, transmitter i modulates carriers built from the entries
of the inverse channel matrix.  Pushing those through the channel telescopes
every cross-user term away, leaving receiver i a clean carrier-weighted sum
of user i's symbols; verify_diagonalization measures the float residual of
that cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backhaul import BackhaulLedger, NodeState, Step, run_round
from .errors import ProtocolError, SingularChannelError
from .lattice import ObservationTable, _as_gain_array, monomial_table


DET_FLOOR = 1e-12             # smallest accepted |det h|
INVERSE_TOL = 1e-9            # largest accepted max|h @ hinv - I|


@dataclass(eq=False)
class InverseChannel:
    """Channel inverse with an explicit invertibility certificate."""

    h: np.ndarray
    hinv: np.ndarray
    product_residual: float

    @classmethod
    def of(cls, channel):
        h = _as_gain_array(channel)
        if h.shape != (3, 3):
            raise SingularChannelError(f"need a 3x3 gain matrix, got {h.shape}")
        det = np.linalg.det(h)
        if abs(det) <= DET_FLOOR:
            raise SingularChannelError(
                f"gain matrix determinant {abs(det):.3g} below threshold")
        try:
            hinv = np.linalg.inv(h)
        except np.linalg.LinAlgError as exc:
            raise SingularChannelError(f"gain matrix not invertible: {exc}") from exc
        resid = float(np.abs(h @ hinv - np.eye(3)).max())
        if not np.isfinite(resid) or resid > INVERSE_TOL:
            raise SingularChannelError(
                f"gain matrix too close to singular: inverse residual {resid:.3g}")
        return cls(h=h, hinv=hinv, product_residual=resid)


# terms: (sign, table, ((coordinate, shift), ...), slab offset); offset 0 is
# the slab built this round, -1 the slab below it
TX_STEPS = (
    Step(3, 2,
         send=((+1, "built", (((3, 1), 1),), -1),
               (-1, "own", (((3, 1), 1), ((3, 3), -1)), -1),
               (+1, "own", (((2, 3), -1),), 0)),
         receive=((-1, "own", (((3, 1), 1), ((3, 2), -1)), -1),
                  (+1, "own", (((2, 2), -1),), 0)),
         halfwidth=(3, 3)),
    Step(2, 1,
         send=((+1, "built", (((1, 3), -1), ((2, 3), 1)), 0),
               (-1, "own", (((1, 3), -1), ((2, 2), -1), ((2, 3), 1)), 0),
               (+1, "own", (((1, 2), -1),), 0)),
         receive=((-1, "own", (((1, 3), -1), ((2, 3), 1)), -1),
                  (+1, "own", (((1, 1), -1),), 0)),
         halfwidth=(3, 3)),
    Step(1, 3,
         send=((+1, "built", (((1, 2), 1), ((3, 2), -1)), 0),
               (-1, "own", (((1, 1), -1), ((1, 2), 1), ((3, 2), -1)), 0),
               (+1, "own", (((3, 1), -1),), 0)),
         receive=((-1, "own", (((1, 2), 1), ((1, 3), -1), ((3, 2), -1)), 0),
                  (+1, "own", (((3, 3), -1),), 0)),
         halfwidth=(3, 3)),
)


def transmitter_nodes(all_streams):
    """Fresh transmitter states holding each user's own symbols."""
    a, b, c = all_streams
    if (a.owner, b.owner, c.owner) != (1, 2, 3):
        raise ProtocolError("streams must be given in user order (1, 2, 3)")
    if not (a.n == b.n == c.n and a.q == b.q == c.q):
        raise ProtocolError("streams must share lattice depth and half-width")
    n, q = a.n, a.q
    return {m: NodeState(node=m, q=q, bound=3 * q, slab_coord=(2, 1),
                         store="built",
                         tables={"own": all_streams[m - 1].values,
                                 "built": np.zeros((n + 1,) * 9, dtype=np.int64)})
            for m in (1, 2, 3)}


def tx_round(nodes, r, ledger):
    """Run round r (slab r) of the exchange, logging to the ledger."""
    run_round(TX_STEPS, nodes, r, r, ledger, first=r == 1)


@dataclass
class TxProtocolResult:
    built: tuple                  # three ObservationTables, receiver order
    ledger: BackhaulLedger
    rounds: int


def run_tx_backhaul(all_streams) -> TxProtocolResult:
    """Run the full (N+1)-round transmitter exchange on one time slot."""
    nodes = transmitter_nodes(all_streams)
    n, q = all_streams[0].n, all_streams[0].q
    ledger = BackhaulLedger()
    for r in range(1, n + 2):
        tx_round(nodes, r, ledger)
    built = tuple(ObservationTable(receiver=m, n=n, q=q,
                                   values=nodes[m].tables["built"])
                  for m in (1, 2, 3))
    return TxProtocolResult(built=built, ledger=ledger, rounds=n + 1)


def expected_symbol_count(n: int) -> int:
    """Three payloads of (n+1)^8 entries per round, n+1 rounds."""
    return 3 * (n + 1) ** 9


# ============================================================
# channel inversion transmit
# ============================================================


@dataclass
class DiagonalizationCheck:
    x: np.ndarray                 # transmit samples
    residual: float               # max relative mismatch over receivers

    @property
    def ok(self):
        return self.residual <= 1e-9


def verify_diagonalization(all_streams, built, channel, P) -> DiagonalizationCheck:
    """Check that inversion-precoded transmission of the built combination
    cubes at average power P hands each receiver only its own symbols.

    Each noiseless receive sample is compared against the interference-free
    prediction; the mismatch is reported relative to the peak predicted
    signal magnitude, so it measures how exactly the cross-user carriers
    telescope away.
    """
    inv = InverseChannel.of(channel)
    carriers = monomial_table(inv.hinv, all_streams[0].n + 1)
    raw = np.array([np.sum(carriers * t.values) for t in built])
    del carriers
    # scale the realised samples to average power P
    mean_pow = float(np.mean(np.abs(raw) ** 2))
    scale = float(np.sqrt(P / mean_pow)) if mean_pow > 0 else 1.0
    x = scale * raw
    h = inv.h
    carriers = monomial_table(inv.hinv, all_streams[0].n)
    predicted = scale * np.array(
        [np.sum(carriers * s.values) for s in all_streams], dtype=np.complex128)
    # fall back to pre-cancellation mass when the predicted signal is zero
    denom = float(np.abs(predicted).max())
    if denom == 0.0:
        denom = max(float((np.abs(h) @ np.abs(x)).max()), 1e-300)
    residual = float((np.abs(h @ x - predicted) / denom).max())
    return DiagonalizationCheck(x=x, residual=residual)
