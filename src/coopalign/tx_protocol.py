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
from .errors import SingularChannelError
from .lattice import carrier_sums, stream_params


DET_FLOOR = 1e-12             # smallest accepted |det h|
INVERSE_TOL = 1e-9            # largest accepted max|h @ hinv - I|


def channel_inverse(h) -> np.ndarray:
    """Inverse of the 3x3 gain matrix h, certified by its determinant and by
    the residual max|h @ hinv - I|; raises SingularChannelError otherwise."""
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
    return hinv


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
    n, q = stream_params(all_streams)
    dtype = all_streams[0].values.dtype
    return {m: NodeState(node=m, q=q, bound=3 * q, slab_coord=(2, 1),
                         store="built",
                         tables={"own": all_streams[m - 1].values,
                                 "built": np.zeros((n + 1,) * 9, dtype=dtype)})
            for m in (1, 2, 3)}


def tx_round(nodes, r, ledger):
    """Run round r (slab r) of the exchange, logging to the ledger."""
    run_round(TX_STEPS, nodes, r, r, ledger, first=r == 1)


@dataclass
class TxProtocolResult:
    """Outcome of the N+1 rounds: the nodes' own built cubes, not copies."""

    built: tuple                  # three (N+1,)^9 cubes of the streams' type,
                                  # receiver order
    ledger: BackhaulLedger


def run_tx_backhaul(all_streams) -> TxProtocolResult:
    """Run the full (N+1)-round transmitter exchange on one time slot."""
    n, _ = stream_params(all_streams)
    nodes = transmitter_nodes(all_streams)
    ledger = BackhaulLedger()
    for r in range(1, n + 2):
        tx_round(nodes, r, ledger)
    built = tuple(nodes[m].tables["built"] for m in (1, 2, 3))
    return TxProtocolResult(built=built, ledger=ledger)


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


def verify_diagonalization(all_streams, built, h, P) -> DiagonalizationCheck:
    """Check that inversion-precoded transmission of the built combination
    cubes at average power P hands each receiver only its own symbols.

    Each noiseless receive sample is compared against the interference-free
    prediction; the mismatch is reported relative to the peak predicted
    signal magnitude, so it measures how exactly the cross-user carriers
    telescope away.

    Both sets of carrier sums are streamed by lattice.carrier_sums, which
    reproduces np.sum(carriers * values) bit for bit: the transmit samples
    and the residual are written to trace.jsonl and results.csv, so they
    keep numpy's summation order, not a cheaper one.  A transmit carrier
    that is zero or not finite, or a sum that overflows, raises
    GenericityError: it would silence or poison the samples the check
    compares.
    """
    hinv = channel_inverse(h)
    raw = carrier_sums(hinv, built)
    # scale the realised samples to average power P
    mean_pow = float(np.mean(np.abs(raw) ** 2))
    scale = float(np.sqrt(P / mean_pow)) if mean_pow > 0 else 1.0
    x = scale * raw
    predicted = scale * carrier_sums(hinv, [s.values for s in all_streams])
    # fall back to pre-cancellation mass when the predicted signal is zero
    denom = float(np.abs(predicted).max())
    if denom == 0.0:
        denom = max(float((np.abs(h) @ np.abs(x)).max()), 1e-300)
    residual = float((np.abs(h @ x - predicted) / denom).max())
    return DiagonalizationCheck(x=x, residual=residual)
