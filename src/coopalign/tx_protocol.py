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

import functools
from dataclasses import dataclass

import numpy as np

from .backhaul import BackhaulLedger, Layout, NodeState, Step, run_round
from .errors import ParameterError, require_positive_real
from .indices import AXIS, COORD_NAMES
from .lattice import (carrier_sums, channel_inverse, gain_matrix, gains_times,
                      stream_params)


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


# the coordinates on which each transmitter's own symbols are zero-padded to
# label N+1, which reads as zero either way: 6 of a round's 12 reads of them
# shift none of these axes, and so copy contiguous runs of at least (N+1)^3
# entries instead of runs of N
OWN_PADDED = ((3, 1), (3, 2), (3, 3))


@functools.lru_cache(maxsize=None)
def transmitter_layout(n):
    """The transmitters' layout at depth n: tables in canonical axis order,
    one table axis per coordinate, and the (N+1)^8 block as the payload."""
    whole = (slice(None),) * 8
    return Layout(slab_axis=AXIS[(2, 1)], block=(n + 1,) * 8, side=n + 1,
                  labels=whole, region=whole,
                  reads={(name, shifts): {AXIS[c]: d for c, d in shifts}
                         for step in TX_STEPS
                         for _, name, shifts, _ in step.send + step.receive})


def transmitter_nodes(all_streams):
    """Fresh transmitter states holding each user's own symbols, zero-padded
    on OWN_PADDED."""
    n, q = stream_params(all_streams)
    dtype = all_streams[0].values.dtype
    shape = tuple(n + (c in OWN_PADDED) for c in COORD_NAMES)
    nodes = {}
    for m in (1, 2, 3):
        own = np.zeros(shape, dtype=dtype)
        own[(slice(n),) * 9] = all_streams[m - 1].values
        nodes[m] = NodeState(node=m, q=q, bound=3 * q, slab_coord=(2, 1),
                             store="built",
                             tables={"own": own,
                                     "built": np.zeros((n + 1,) * 9,
                                                       dtype=dtype)},
                             layout=transmitter_layout(n))
    return nodes


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


# ============================================================
# channel inversion transmit
# ============================================================


@dataclass
class DiagonalizationCheck:
    x: np.ndarray                 # transmit samples
    residual: float               # max relative mismatch over receivers


def verify_diagonalization(all_streams, built, h, P) -> DiagonalizationCheck:
    """Check that inversion-precoded transmission of the built combination
    cubes at average power P hands each receiver only its own symbols.

    Each noiseless receive sample h x, summed like the inverse by
    lattice.gains_times, is compared against the interference-free
    prediction; the mismatch is reported relative to the peak predicted
    signal magnitude, so it measures how exactly the cross-user carriers
    telescope away.  Both sets of carrier sums come from one
    lattice.carrier_sums call: a transmit carrier that is zero or not
    finite, or a sum that overflows, raises GenericityError.  Magnitudes
    come from the real and imaginary parts (np.hypot, re * re + im * im),
    because numpy's complex abs moves its last bit with the SIMD level.
    Streams that lattice.stream_params refuses, built cubes other than three
    of shape (n+1,)^9, a bad gain shape or a bad P raise ParameterError.
    """
    n, _ = stream_params(all_streams)
    shape = (n + 1,) * 9
    if not (isinstance(built, (tuple, list)) and len(built) == 3
            and all(isinstance(c, np.ndarray) and c.shape == shape
                    for c in built)):
        raise ParameterError(f"built must be three cubes of shape {shape}")
    h = gain_matrix(h)
    require_positive_real(P, "P")
    hinv = channel_inverse(h)
    sums = carrier_sums(hinv, [*built, *(s.values for s in all_streams)])
    raw = sums[:3]
    # scale the realised samples to average power P
    mean_pow = float(np.mean(raw.real * raw.real + raw.imag * raw.imag))
    scale = float(np.sqrt(P / mean_pow)) if mean_pow > 0 else 1.0
    x = scale * raw
    predicted = scale * sums[3:]
    # fall back to pre-cancellation mass when the predicted signal is zero
    denom = float(np.hypot(predicted.real, predicted.imag).max())
    if denom == 0.0:
        denom = max(float(np.max(gains_times(
            np.hypot(h.real, h.imag).tolist(),
            np.hypot(x.real, x.imag).tolist()))), 1e-300)
    d = np.array(gains_times(h.tolist(), x.tolist())) - predicted
    residual = float((np.hypot(d.real, d.imag) / denom).max())
    return DiagonalizationCheck(x=x, residual=residual)
