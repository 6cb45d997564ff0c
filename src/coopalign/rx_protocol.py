"""Receiver-side cooperation: round-robin backhaul exchange that lets each
receiver unravel its own symbols from the lattice combinations.

The lattice cube {1..N+1}^9 is processed slab by slab along coordinate (3,1),
top down.  In round r (0-based) the slab at (3,1) = N-r is resolved by the
three steps of RX_STEPS, run on the exchange engine in backhaul.py:

  3 -> 1  interference sums receiver 3 already knows on the slab above,
          shifted and topped up with its own resolved symbols; receiver 1
          subtracts its own sums and is left with fresh user-1 symbols,
  1 -> 2  receiver 1's fresh interference sums plus its own symbols;
          receiver 2 subtracts a raw combination and telescopes a running
          difference along coordinate (2,3) to peel user-2 symbols,
  2 -> 3  receiver 2's cleaned combination plus a previously resolved
          symbol; receiver 3 subtracts its sums to finish the slab.

Receiver i's interference sums on a slab are its combinations minus its
own resolved symbols shifted by -1 on (i,i), so each one is the term pair
(+obs, -resolved) in the table.  Round 0 degenerates to the seed: the slab
above the cube is empty, so the 3 -> 1 payload is plain user-1 symbols.
All payloads are 8-d blocks over the free coordinates, ravelled in
canonical (lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backhaul import BackhaulLedger, NodeState, Step, run_round
from .lattice import exact_observations, stream_params

# terms: (sign, table, ((coordinate, shift), ...), slab offset); offset 0 is
# the slab resolved this round, +1 the slab above it
RX_STEPS = (
    Step(3, 1,
         send=((+1, "obs", (), 1),
               (-1, "resolved", (((3, 3), -1),), 1),
               (+1, "resolved", (((1, 2), 1), ((1, 3), -1), ((3, 2), -1)), 1)),
         receive=((-1, "obs", (((1, 2), 1), ((3, 2), -1)), 1),
                  (+1, "resolved", (((1, 1), -1), ((1, 2), 1), ((3, 2), -1)), 1)),
         halfwidth=(1, 3)),
    Step(1, 2,
         send=((+1, "obs", (((1, 2), 1),), 0),
               (-1, "resolved", (((1, 1), -1), ((1, 2), 1)), 0),
               (+1, "resolved", (((1, 2), 1), ((1, 3), -1), ((2, 1), -1),
                                 ((2, 3), 1)), 0)),
         receive=((-1, "obs", (((1, 2), 1), ((1, 3), -1), ((2, 3), 1)), 0),),
         halfwidth=(3, 3),
         carry=(((2, 3), 1), ((1, 2), 1), ((1, 3), -1), ((2, 2), -1))),
    Step(2, 3,
         send=((+1, "obs", (((2, 3), 1),), 0),
               (-1, "resolved", (((2, 2), -1), ((2, 3), 1)), 0),
               (+1, "resolved", (((2, 1), -1), ((2, 3), 1), ((3, 2), -1)), 1)),
         receive=((-1, "obs", (((2, 1), -1), ((2, 3), 1)), 1),
                  (+1, "resolved", (((2, 1), -1), ((2, 3), 1), ((3, 3), -1)), 1)),
         halfwidth=(2, 3)),
)


def receiver_nodes(tables, q):
    """Fresh receiver states over the combination cubes of half-width q."""
    n = tables[0].shape[0] - 1
    return {i: NodeState(node=i, q=q, bound=q, slab_coord=(3, 1),
                         store="resolved",
                         tables={"obs": tables[i - 1],
                                 "resolved": np.zeros((n,) * 9,
                                                      dtype=tables[0].dtype)})
            for i in (1, 2, 3)}


@dataclass
class RxProtocolResult:
    recovered: tuple              # three (N,)^9 integer arrays, user order
    ledger: BackhaulLedger


def run_rx_protocol(all_streams) -> RxProtocolResult:
    """Run the full N-round receiver-side exchange on one time slot, from
    the exact combinations; any inconsistency raises ProtocolError."""
    n, q = stream_params(all_streams)
    nodes = receiver_nodes(exact_observations(all_streams), q)
    ledger = BackhaulLedger()
    for r in range(n):
        run_round(RX_STEPS, nodes, r, n - r, ledger, first=r == 0)
    recovered = tuple(nodes[i].tables["resolved"] for i in (1, 2, 3))
    return RxProtocolResult(recovered=recovered, ledger=ledger)
