"""Backhaul message records, per-link rate accounting, and the exchange
engine both cooperation protocols run on.  The ledger keeps a record per
message, not its payload; the engine checks each payload against its
alphabet when it is sent, for both protocols.

An exchange is a table of steps, one per backhaul link, applied in order
once per round.  Every payload, and every correction a receiving node
applies to it, is a signed sum of shifted reads of lattice-label tables;
a term is written

    (sign, table, ((coordinate name, shift), ...), slab offset)

and reads ``table`` of its node on the round's slab plus the offset, at
label u + shift on the named coordinates.  Reads outside a table are zero.
The destination's result is the block it stores as its slab of the round.

Every node holds its tables slab-major, the slab coordinate first, and a
Layout, planned once per lattice depth, turns each term's coordinate shifts
into shifts of a slab's axes: every read is one ``indices.window`` over one
slab.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolError
from .indices import AXIS, free_coords, window
from .lattice import STEP_TERMS


# entries of a narrower integer payload widened to int64 per sha256 update
DIGEST_CHUNK = 1 << 15


def payload_digest(a) -> str:
    """The first 16 hex digits of the sha256 of a C-contiguous array's
    bytes.  An integer array is hashed as its int64 bytes, whatever type
    holds it: a narrower one is widened DIGEST_CHUNK entries at a time into
    one buffer of this call, while an int64 or non-integer array is read
    through the buffer protocol without a copy."""
    if a.dtype.kind != "i" or a.dtype == np.int64:
        return hashlib.sha256(a).hexdigest()[:16]
    flat = a.reshape(-1)
    buf = np.empty(min(flat.size, DIGEST_CHUNK), dtype=np.int64)
    digest = hashlib.sha256()
    for lo in range(0, flat.size, DIGEST_CHUNK):
        part = flat[lo:lo + DIGEST_CHUNK]
        wide = buf[:part.size]
        wide[...] = part
        digest.update(wide)
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class BackhaulMessage:
    """One node-to-node payload: its length, alphabet half-width and the
    digest of its int64 bytes in canonical label order."""

    source: int
    destination: int
    round_index: int
    length: int
    alphabet_halfwidth: int
    digest: str

    @property
    def bits(self) -> float:
        # log-cardinality of the declared alphabet, no entropy coding
        return self.length * math.log2(2 * self.alphabet_halfwidth + 1)

    def trace_record(self) -> dict:
        return {
            "stage": "backhaul",
            "source": self.source,
            "destination": self.destination,
            "round": self.round_index,
            "length": self.length,
            "alphabet_halfwidth": int(self.alphabet_halfwidth),
            "payload_digest": self.digest,
        }


@dataclass
class BackhaulLedger:
    """Accumulates message records and prices them as bits per channel
    use."""

    messages: list = field(default_factory=list)

    def add(self, msg: BackhaulMessage):
        self.messages.append(msg)

    @property
    def total_symbols(self) -> int:
        return sum(m.length for m in self.messages)

    def per_link_bits(self) -> dict:
        """Total bits per ordered link (source, destination), each message
        priced at length * log2(2*halfwidth + 1)."""
        out = {}
        for m in self.messages:
            key = (m.source, m.destination)
            out[key] = out.get(key, 0.0) + m.bits
        return out

    def trace_records(self) -> list:
        return [m.trace_record() for m in self.messages]


# ============================================================
# exchange engine
# ============================================================


@dataclass(frozen=True)
class Step:
    """One backhaul link of a round: the source sends the sum of ``send``
    terms, the destination adds its ``receive`` terms to the payload and
    stores the result as its slab of the round.

    ``halfwidth`` is the payload alphabet half-width in units of q on the
    first round and on later rounds.  A nonempty ``carry`` makes the
    destination solve b[u] = block[u] + b[u + carry] by back-substitution,
    sweeping down the first carry coordinate, whose shift must be +1.
    """

    source: int
    destination: int
    send: tuple
    receive: tuple
    halfwidth: tuple
    carry: tuple = ()

    def __post_init__(self):
        if self.source == self.destination:
            raise ParameterError("step source and destination must differ")
        # the cube types are chosen for sums of at most STEP_TERMS reads
        if len(self.send) + len(self.receive) > STEP_TERMS:
            raise ParameterError(f"a step adds at most {STEP_TERMS} terms")


class Layout(NamedTuple):
    """How a node holds a slab of its tables and a step's block.

    A term reads one slab with ``indices.window``, its axes shifted by
    ``reads[table, coordinate shifts]``, into the block held in shape
    ``block``.  Viewed as (side,)*8 over the free coordinates, the block
    holds the payload's labels at ``labels``, and a slab of the store table,
    so viewed, holds them at ``region``.
    """

    block: tuple
    side: int
    labels: tuple
    region: tuple
    reads: dict

    def cut(self, block):
        """The payload labels of ``block`` in canonical order, C-contiguous:
        a view of the block when it holds nothing else."""
        return np.ascontiguousarray(
            block.reshape((self.side,) * 8)[self.labels])


@dataclass(eq=False)
class NodeState:
    """One node's working memory: read-only tables plus the ``store``
    table, which the exchange fills one slab per round along
    ``slab_coord``, all held as ``layout`` says.  Stored entries must lie
    within +-``bound``."""

    node: int
    q: int
    bound: int
    slab_coord: tuple
    store: str
    tables: dict
    layout: Layout
    slabs: set = field(default_factory=set)

    def add_term(self, out, term, slab, round_index):
        """Add one term, read around ``slab``, into the block ``out``."""
        sign, name, shifts, offset = term
        table = self.tables[name]
        at = slab + offset
        if not 1 <= at <= len(table):
            return
        if name == self.store and at not in self.slabs:
            raise ProtocolError(f"slab {at} read before it was stored",
                                round_index=round_index, node=self.node)
        held = table[at - 1]
        w = window(held.shape, out.shape[0], self.layout.reads[name, shifts])
        if w is None:
            return
        src, dst = w
        if sign > 0:
            out[dst] += held[src]
        else:
            out[dst] -= held[src]

    def store_slab(self, slab, block, round_index):
        """Store the canonical payload-shaped ``block`` as slab ``slab``."""
        if block.max() > self.bound or block.min() < -self.bound:
            raise ProtocolError(
                "inconsistent combination: stored entry outside "
                f"half-width {self.bound}", round_index=round_index,
                node=self.node)
        lay = self.layout
        held = self.tables[self.store][slab - 1]
        held.reshape((lay.side,) * 8)[lay.region] = block
        self.slabs.add(slab)

    def stored(self):
        """The store table's labels in canonical axis order, a view."""
        lay = self.layout
        held = self.tables[self.store].reshape((-1,) + (lay.side,) * 8)
        return np.moveaxis(held[(slice(None),) + lay.region], 0,
                           AXIS[self.slab_coord])


def _back_substitute(block, carry, free):
    """In place: b[u] = block[u] + b[u + carry], zero outside the block,
    whose axes are the coordinates ``free``."""
    shifts = {free.index(c): d for c, d in carry}
    w = window(block.shape, block.shape[0], shifts)
    if w is None:
        return
    sweep = free.index(carry[0][0])
    src, dst = list(w[0]), list(w[1])
    # the read lands one step further down the sweep, already final
    for k in range(block.shape[sweep] - 1, 0, -1):
        src[sweep], dst[sweep] = k, k - 1
        block[tuple(dst)] += block[tuple(src)]


class DigestWorker:
    """One thread that hashes an exchange's large payloads beside it.

    ``take`` hands the thread a payload of more than DIGEST_CHUNK entries
    when it holds no other, as a copy, since the destination goes on to
    finish in place the block that the payload may view.  The payload's
    message keeps its place in the ledger and gets its digest when the
    thread is joined.  Use the worker as a ``with`` block around the
    exchange: leaving the block joins the thread and raises its error, so no
    thread outlives an exchange.
    """

    def __init__(self):
        self._job = None          # (thread, ledger, index, fields, result)

    def take(self, ledger, fields, payload):
        """Whether the thread took ``payload``, whose message is
        BackhaulMessage(*fields, digest)."""
        if payload.size <= DIGEST_CHUNK:
            return False
        if self._job is not None:
            if self._job[0].is_alive():
                return False
            self.join()
        result = []
        thread = threading.Thread(target=_digest_into,
                                  args=(result, payload.copy()))
        thread.start()
        self._job = (thread, ledger, len(ledger.messages), fields, result)
        ledger.messages.append(None)
        return True

    def join(self):
        """Wait for the thread, if it holds a payload, and put that
        payload's message in place, or raise the thread's error."""
        if self._job is None:
            return
        thread, ledger, index, fields, result = self._job
        self._job = None
        thread.join()
        if isinstance(result[0], Exception):
            raise result[0]
        ledger.messages[index] = BackhaulMessage(*fields, result[0])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.join()


def _digest_into(result, payload):
    try:
        result.append(payload_digest(payload))
    except Exception as exc:  # raised in the exchange by DigestWorker.join
        result.append(exc)


def run_round(steps, nodes, round_index, slab, ledger, worker, first=False):
    """Run every step of one round on slab ``slab``, logging each message;
    ``worker``, the exchange's DigestWorker, may hash the large payloads.

    A payload outside its alphabet raises ProtocolError at the sender, and
    a stored entry outside its bound at the destination.
    """
    for step in steps:
        src, dst = nodes[step.source], nodes[step.destination]
        block = np.zeros(src.layout.block, dtype=src.tables[src.store].dtype)
        for term in step.send:
            src.add_term(block, term, slab, round_index)
        payload = src.layout.cut(block)
        hw = step.halfwidth[0 if first else 1] * src.q
        if payload.max() > hw or payload.min() < -hw:
            raise ProtocolError(f"payload entry outside half-width {hw} on "
                                f"link {step.source}->{step.destination}",
                                round_index=round_index, node=step.source)
        fields = (step.source, step.destination, round_index, payload.size,
                  hw)
        if not worker.take(ledger, fields, payload):
            ledger.add(BackhaulMessage(*fields, payload_digest(payload)))
        # only the digest is kept: the destination finishes the block in place
        for term in step.receive:
            dst.add_term(block, term, slab, round_index)
        result = dst.layout.cut(block)
        if step.carry:
            _back_substitute(result, step.carry, free_coords(dst.slab_coord))
        dst.store_slab(slab, result, round_index)
