"""Monomial-lattice physical layer for the 3-user interference channel.

Each transmitter modulates one integer symbol per lattice label s (nine
channel-gain exponents, each in {1..N}) onto the monomial carrier
prod_ij h_ij^(s_ij).  A receiver's noiseless signal then decomposes over the
enlarged label cube {1..N+1}^9 into integer combinations of at most three
symbols, one per user, which is what the cooperation protocols exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenericityError, ParameterError, SymbolRangeError
from .indices import AXIS, window

# ============================================================
# channel
# ============================================================


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """3x3 complex gains h[i, j] from transmitter j to receiver i."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.shape != (3, 3):
            raise ParameterError(f"channel matrix must be 3x3, got {h.shape}")
        object.__setattr__(self, "h", h)

    @classmethod
    def random(cls, rng):
        return cls(h=complex_awgn(rng, (3, 3)))

    @classmethod
    def illustrating(cls, gamma, rng):
        """Structured instance: receiver 3 sees a gamma-scaled copy of the
        direct/cross pair of receiver 2 (h31 = gamma*h21, h33 = gamma*h23)."""
        g = complex(gamma)
        h = complex_awgn(rng, (3, 3))
        h[2, 0] = g * h[1, 0]
        h[2, 2] = g * h[1, 2]
        return cls(h=h)


def complex_awgn(rng, shape=()):
    """Unit-variance circularly-symmetric complex Gaussian samples."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


def _as_gain_array(channel):
    if isinstance(channel, ChannelMatrix):
        return channel.h
    return np.asarray(channel, dtype=np.complex128)


# ============================================================
# symbol tables
# ============================================================


@dataclass(eq=False)
class SubstreamTable:
    """One user's integer symbols, indexed by lattice labels in {1..n}^9.

    Values lie in {-q..q}; reads outside the cube are zero.
    """

    owner: int
    n: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        if self.owner not in (1, 2, 3):
            raise ParameterError(f"owner must be 1, 2 or 3, got {self.owner}")
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (self.n,) * 9:
            raise ParameterError(
                f"values must have shape {(self.n,)*9}, got {v.shape}")
        if self.q < 1:
            raise ParameterError("symbol half-width q must be >= 1")
        if v.size and np.abs(v).max() > self.q:
            raise SymbolRangeError(
                f"symbol outside Z_{self.q} in substream table for user {self.owner}")
        self.values = v

    @classmethod
    def zeros(cls, owner, n, q):
        return cls(owner=owner, n=n, q=q, values=np.zeros((n,) * 9, dtype=np.int64))

    @classmethod
    def random(cls, owner, n, q, rng):
        v = rng.integers(-q, q + 1, size=(n,) * 9, dtype=np.int64)
        return cls(owner=owner, n=n, q=q, values=v)


@dataclass(eq=False)
class ObservationTable:
    """Integer receive-side combinations on the cube {1..n+1}^9.

    Entry r[s] is the sum of the three user symbols whose labels are s with
    the receiver's own gain exponent decremented once, so values lie in
    {-3q..3q} when the streams use half-width q.
    """

    receiver: int
    n: int
    values: np.ndarray
    q: int

    def __post_init__(self):
        if self.receiver not in (1, 2, 3):
            raise ParameterError(f"receiver must be 1, 2 or 3, got {self.receiver}")
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (self.n + 1,) * 9:
            raise ParameterError(
                f"values must have shape {(self.n + 1,)*9}, got {v.shape}")
        if v.size and np.abs(v).max() > 3 * self.q:
            raise SymbolRangeError(
                f"observation outside Z_{3*self.q} at receiver {self.receiver}")
        self.values = v


# ============================================================
# monomial carriers
# ============================================================


def monomial_table(channel, upper) -> np.ndarray:
    """All carrier values on the cube {1..upper}^9 as a dense array."""
    h = _as_gain_array(channel).ravel()
    exps = np.arange(1, upper + 1)
    out = h[0] ** exps
    for k in range(1, 9):
        out = np.multiply.outer(out, h[k] ** exps)
    return out


GENERIC_TOL = 1e-9


def channel_is_generic(channel, n):
    """Generic-position test: nonzero gains and pairwise-distinct carrier
    values over {1..n+1}^9, with a relative collision tolerance.

    An absolute tolerance would flag almost every random draw once high
    powers of sub-unit gains shrink below it, so closeness is measured
    relative to the magnitudes involved.

    After a stable sort by real part, entry i is compared with i+1, i+2, ...
    while the real-part gap stays within a window taken from the (i, i+1)
    pair.  All i advance together, one offset k per pass, and an i leaves
    the pass set as soon as its window closes.
    """
    h = _as_gain_array(channel)
    if np.abs(h).min() <= GENERIC_TOL:
        return False
    vals = monomial_table(h, n + 1).ravel()
    sv = vals[np.argsort(vals.real, kind="stable")]
    del vals
    size, re = len(sv), sv.real
    span = _pair_tol(sv[:-1], sv[1:])
    i = np.flatnonzero(re[1:] - re[:-1] <= span)
    k = 1
    while i.size:
        a, b = sv[i], sv[i + k]
        if np.any(np.abs(b - a) <= _pair_tol(a, b)):
            return False
        i = i[i + k + 1 < size]
        i = i[re[i + k + 1] - re[i] <= span[i]]
        k += 1
    return True


def _pair_tol(a, b):
    """GENERIC_TOL * max(0.5 * (|a| + |b|), 1e-300) elementwise, in one buffer."""
    tol = np.abs(a)
    tol += np.abs(b)
    tol *= 0.5
    np.maximum(tol, 1e-300, out=tol)
    tol *= GENERIC_TOL
    return tol


def require_generic(channel, n):
    if not channel_is_generic(channel, n):
        raise GenericityError("channel gains failed the generic-position check")


# ============================================================
# exact receive-side combinations
# ============================================================


def exact_observations(streams) -> tuple:
    """Noiseless integer receive combinations for all three receivers.

    For receiver i the label s picks up user 1's symbol at s with coordinate
    (i,1) decremented, user 2's at (i,2) decremented and user 3's at (i,3)
    decremented; out-of-range labels contribute zero.  Realised as one zero
    block plus three in-place adds, stream j read at shift -1 on (i,j).
    """
    a, b, c = streams
    if not (a.owner, b.owner, c.owner) == (1, 2, 3):
        raise ParameterError("streams must be given in user order (1, 2, 3)")
    if not a.n == b.n == c.n:
        raise ParameterError("streams must share the same lattice depth")
    if not a.q == b.q == c.q:
        raise ParameterError("streams must share the same symbol half-width")
    n, q = a.n, a.q
    out = []
    for i in (1, 2, 3):
        acc = np.zeros((n + 1,) * 9, dtype=np.int64)
        for j, stream in enumerate((a, b, c), 1):
            src, dst = window((n,) * 9, n + 1, {AXIS[(i, j)]: -1}, {})
            acc[dst] += stream.values[src]
        out.append(ObservationTable(receiver=i, n=n, values=acc, q=q))
    return tuple(out)
