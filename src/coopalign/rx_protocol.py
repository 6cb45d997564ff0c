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
from .detection import DetectionReport, genie_detect
from .errors import ParameterError

_DETECTOR_MODES = ("exact-genie", "genie-with-errors")

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
    """Fresh receiver states over the detected combination tables."""
    n = tables[0].n
    return {i: NodeState(node=i, q=q, bound=q, slab_coord=(3, 1),
                         store="resolved",
                         tables={"obs": tables[i - 1].values,
                                 "resolved": np.zeros((n,) * 9, dtype=np.int64)})
            for i in (1, 2, 3)}


@dataclass
class RxProtocolResult:
    recovered: tuple              # three (N,)^9 integer arrays, user order
    ledger: BackhaulLedger
    report: DetectionReport
    contaminated: tuple           # per-receiver flags
    rounds: int


def run_rx_protocol(all_streams, detector_mode="exact-genie", error_rate=0.0,
                    rng_seed=0) -> RxProtocolResult:
    """Run the full N-round receiver-side exchange on one time slot.

    detector_mode "exact-genie" uses exact combinations and raises on any
    inconsistency; "genie-with-errors" perturbs tables per error_rate, lets
    the run complete and reports contamination flags instead.
    """
    if detector_mode not in _DETECTOR_MODES:
        raise ParameterError(f"unknown detector mode: {detector_mode!r}")
    strict = detector_mode == "exact-genie"
    rate = 0.0 if strict else error_rate
    report = genie_detect(all_streams, error_rate=rate, rng_seed=rng_seed)

    n, q = all_streams[0].n, all_streams[0].q
    nodes = receiver_nodes(report.tables, q)
    ledger = BackhaulLedger()
    for r in range(n):
        run_round(RX_STEPS, nodes, r, n - r, ledger, first=r == 0,
                  strict=strict)

    contaminated = tuple(
        bool(report.symbol_error_flags[i - 1]) or nodes[i].range_violation
        for i in (1, 2, 3))
    recovered = tuple(nodes[i].tables["resolved"] for i in (1, 2, 3))
    return RxProtocolResult(recovered=recovered, ledger=ledger, report=report,
                            contaminated=contaminated, rounds=n)


def expected_message_count(n: int) -> int:
    """Three payloads of n^8 entries per round, n rounds."""
    return 3 * n ** 9


def run_rx_slots(slot_streams, error_slot=None, error_rate=1.0, rng_seed=0):
    """Run the protocol independently on a sequence of time slots.

    Slot error_slot (if given) runs with injected detection errors; every
    other slot runs clean.  Per-slot seeds are derived by counter so a slot's
    outcome does not depend on what happened in any other slot.
    """
    results = []
    for t, streams in enumerate(slot_streams):
        ss = np.random.SeedSequence(entropy=rng_seed, spawn_key=(t,))
        seed = int(ss.generate_state(1, np.uint64)[0])
        mode = "genie-with-errors" if t == error_slot else "exact-genie"
        results.append(run_rx_protocol(streams, detector_mode=mode,
                                       error_rate=error_rate, rng_seed=seed))
    return results
