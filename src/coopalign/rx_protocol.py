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

Layout.  Each receiver holds its tables slab-major, as (slabs, (N+1)^8):
coordinate (3,1) first, then the free coordinates FREE in canonical order,
each of extent N+1 with one zero layer.  The layer is label 0, at the low
end, on the coordinates where RX_STEPS reads that (receiver, table) at
shift -1 (PADS), and label N+1, at the high end, on the others; a table
holds label u at index u - 1 + pad.  No (receiver, table, coordinate) is
read at both -1 and +1, so a read at shift d lands d + pad in {0, 1}
layers from where the block, label u at index u - 1, holds u.  A term is
thus one flat offset over a slab, block[:L - off] += slab[off:] with
off >= 0, and no payload label u <= N carries into a neighbouring axis.
Label 0 is zero and label N+1 of a combination on a high-end axis is
held, so each read is exact; label N+1 on a low-end axis is dropped, and
no term reads it, as its shifts there are -1 and 0.  The N^8 payload is
cut from the (N+1)^8 block.  The combinations are built in this layout
from three streams embedded behind a zero layer on every axis, one flat
add per (receiver, user): stream j at label s - e_(i,j) lies 0 or 1
layers up from where receiver i holds s, and a read that carries past an
axis lands on that axis's zero layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backhaul import (BackhaulLedger, DigestWorker, Layout, NodeState, Step,
                       run_round)
from .errors import ParameterError
from .indices import AXIS, free_coords
from .lattice import stream_params

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


FREE = free_coords((3, 1))


def _node_terms(steps):
    """(node, term) for every term of ``steps``, at the node that reads it."""
    return [(at, term) for step in steps
            for at, terms in ((step.source, step.send),
                              (step.destination, step.receive))
            for term in terms]


def _pads(steps):
    """For each (receiver, table), 1 on the free coordinates that ``steps``
    read it at shift -1 and 0 on the others."""
    low = {(at, name, c) for at, (_, name, shifts, _) in _node_terms(steps)
           for c, d in shifts if d < 0}
    return {(i, name): tuple(int((i, name, c) in low) for c in FREE)
            for i in (1, 2, 3) for name in ("obs", "resolved")}


PADS = _pads(RX_STEPS)


def _flat(layers, side):
    """The flat offset of ``layers``, one step of 0 or 1 per axis of extent
    ``side``, most significant first."""
    if not set(layers) <= {0, 1}:
        raise ParameterError("a receiver read moves more than one layer on "
                             "one axis of its layout")
    return sum(d * side ** k for k, d in enumerate(reversed(layers)))


@functools.lru_cache(maxsize=None)
def receiver_plans(n):
    """Per receiver at depth n: its Layout, and for each user the flat
    offset at which the receiver's combinations read that user's embedded
    stream."""
    side = n + 1
    plans = {}
    for i in (1, 2, 3):
        # a read at shift d of a table padded by pad lies d + pad layers up
        reads = {(name, shifts): {0: _flat(
                     [p + dict(shifts).get(c, 0)
                      for c, p in zip(FREE, PADS[i, name])], side)}
                 for at, (_, name, shifts, _) in _node_terms(RX_STEPS)
                 if at == i}
        # each stream is embedded one layer up on every axis, and receiver i
        # combines at label s user j's symbol at s - e_(i,j)
        pads = (0,) + PADS[i, "obs"]
        embeds = tuple(_flat([1 - p - (c == (i, j))
                              for c, p in zip(((3, 1),) + FREE, pads)], side)
                       for j in (1, 2, 3))
        layout = Layout(block=(side ** 8,), side=side,
                        labels=(slice(n),) * 8,
                        region=tuple(slice(p, p + n)
                                     for p in PADS[i, "resolved"]),
                        reads=reads)
        plans[i] = (layout, embeds)
    return plans


def receiver_nodes(all_streams):
    """Fresh receiver states for one slot: each receiver's combinations of
    the three streams and an empty resolved table, held in its layout."""
    n, q = stream_params(all_streams)
    side = n + 1
    dtype = all_streams[0].values.dtype
    # each stream at labels 1..n behind one zero layer on every axis,
    # slab-major like the tables
    embedded = []
    for stream in all_streams:
        e = np.zeros((side,) * 9, dtype=dtype)
        e[(slice(1, None),) * 9] = np.moveaxis(stream.values, AXIS[(3, 1)], 0)
        embedded.append(e.reshape(-1))
    nodes = {}
    for i, (layout, embeds) in receiver_plans(n).items():
        obs = np.zeros(side ** 9, dtype=dtype)
        for e, off in zip(embedded, embeds):
            obs[:obs.size - off] += e[off:]
        nodes[i] = NodeState(
            node=i, q=q, bound=q, slab_coord=(3, 1), store="resolved",
            tables={"obs": obs.reshape(side, -1),
                    "resolved": np.zeros((n, side ** 8), dtype=dtype)},
            layout=layout)
    return nodes


@dataclass
class RxProtocolResult:
    recovered: tuple              # three (N,)^9 integer arrays, user order
    ledger: BackhaulLedger


def run_rx_protocol(all_streams) -> RxProtocolResult:
    """Run the full N-round receiver-side exchange on one time slot, from
    the exact combinations; any inconsistency raises ProtocolError."""
    nodes = receiver_nodes(all_streams)
    n = all_streams[0].n
    ledger = BackhaulLedger()
    with DigestWorker() as worker:
        for r in range(n):
            run_round(RX_STEPS, nodes, r, n - r, ledger, worker,
                      first=r == 0)
    recovered = tuple(nodes[i].stored() for i in (1, 2, 3))
    return RxProtocolResult(recovered=recovered, ledger=ledger)
