"""Monomial-lattice physical layer for the 3-user interference channel.

Each transmitter modulates one integer symbol per lattice label s (nine
channel-gain exponents, each in {1..N}) onto the monomial carrier
prod_ij h_ij^(s_ij).  A receiver's noiseless signal then decomposes over the
enlarged label cube {1..N+1}^9 into integer combinations of at most three
symbols, one per user: the plain integer cubes the cooperation protocols
exchange, within +-3q because they sum symbols checked to lie in +-q.  Every
cube is int16 when the exchange's sums at that q and N fit it, else int64
(cube_dtype).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenericityError, ParameterError, SymbolRangeError
from .indices import AXIS, window

# ============================================================
# channel
# ============================================================


def complex_awgn(rng, shape=()):
    """Unit-variance circularly-symmetric complex Gaussian samples."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


def random_gains(rng):
    """3x3 complex gains h[i, j] from transmitter j to receiver i."""
    return complex_awgn(rng, (3, 3))


def illustrating_gains(gamma, h):
    """Copy of h in which receiver 3 sees a gamma-scaled copy of the
    direct/cross pair of receiver 2 (h31 = gamma*h21, h33 = gamma*h23)."""
    h = h.copy()
    h[2, 0] = gamma * h[1, 0]
    h[2, 2] = gamma * h[1, 2]
    return h


# ============================================================
# symbol tables
# ============================================================


# a backhaul step adds at most this many table reads into one block
STEP_TERMS = 5


def q_limit(n, dtype) -> int:
    """Largest symbol half-width whose exchange sums at lattice depth n fit
    the integer type dtype.

    Every table an exchange reads lies within +-3q, a step adds at most
    STEP_TERMS reads into a block, and the rx back-substitution chains n
    such blocks, so no sum passes STEP_TERMS * 3 * n * q.
    """
    return int(np.iinfo(dtype).max) // (STEP_TERMS * 3 * n)


def cube_dtype(n, q) -> np.dtype:
    """int16 when it holds every exchange sum at depth n and half-width q,
    else int64."""
    return np.dtype(np.int16 if q <= q_limit(n, np.int16) else np.int64)


@dataclass(eq=False)
class SubstreamTable:
    """One user's integer symbols, indexed by lattice labels in {1..n}^9.

    Values lie in {-q..q} and are held as cube_dtype(n, q); reads outside
    the cube are zero.
    """

    owner: int
    n: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        if self.owner not in (1, 2, 3):
            raise ParameterError(f"owner must be 1, 2 or 3, got {self.owner}")
        v = np.asarray(self.values)
        if v.dtype.kind not in "iu":
            raise ParameterError(f"symbols must be integers, got {v.dtype}")
        if v.shape != (self.n,) * 9:
            raise ParameterError(
                f"values must have shape {(self.n,)*9}, got {v.shape}")
        if self.q < 1:
            raise ParameterError("symbol half-width q must be >= 1")
        # checked before the cast, which would wrap an entry far out of range
        if v.size and (v.max() > self.q or v.min() < -self.q):
            raise SymbolRangeError(
                f"symbol outside Z_{self.q} in substream table for user {self.owner}")
        self.values = v.astype(cube_dtype(self.n, self.q), copy=False)

    @classmethod
    def random(cls, owner, n, q, rng):
        # drawn as int64 whatever the cube type: the draws depend on it
        v = rng.integers(-q, q + 1, size=(n,) * 9, dtype=np.int64)
        return cls(owner=owner, n=n, q=q, values=v)


# ============================================================
# monomial carriers
# ============================================================


def _powers(h, upper):
    """The nine gains' powers 1..upper, in label order."""
    exps = np.arange(1, upper + 1)
    return [g ** exps for g in h.ravel()]


def _outer_chain(out, powers):
    for p in powers:
        out = np.multiply.outer(out, p)
    return out


def monomial_table(h, upper) -> np.ndarray:
    """All carrier values on the cube {1..upper}^9 as a dense array."""
    p = _powers(h, upper)
    return _outer_chain(p[0], p[1:])


SUM_LEAF = 1 << 16            # most terms one np.sum call of carrier_sums adds


def carrier_sums(h, cubes) -> np.ndarray:
    """np.sum(monomial_table(h, u) * c) for each cube c on {1..u}^9, bit for
    bit, holding about one leaf of SUM_LEAF carriers at a time.

    The sums must match np.sum's to the last bit, because the tx airtime
    digest and residual that tx-coop writes are computed from them.  np.sum
    of a contiguous complex array is one pairwise sum over the flat buffer:
    n elements split at (n - n % 8) // 2 (numpy halves the count of doubles
    and rounds it down to a multiple of 8) down to short unrolled leaves.
    This walks the same tree, hands every node of at most SUM_LEAF elements
    to np.sum, and adds the partial sums back up in tree order.  np.sum
    starts from +0.0, which can only turn a -0.0 leaf into +0.0, and a zero
    total is +0.0 either way.

    A leaf's carriers come from the monomial_table chain with its leading
    axes taken from a prefix table, so every product is formed by the same
    ufunc loop at the same position as in the dense table.  A carrier that
    is zero, or a carrier or sum that is not finite, raises GenericityError:
    a zero carrier drops its term and a non-finite one poisons the sum.
    """
    u = cubes[0].shape[0]
    # a block over the trailing axes is at most 1/16 of a leaf, so the
    # blocks covering a leaf build few carriers it does not use
    trailing = 1
    while trailing < 8 and u ** (trailing + 1) <= SUM_LEAF // 16:
        trailing += 1
    flat = [c.reshape(-1) for c in cubes]
    with np.errstate(over="ignore", invalid="ignore"):
        p = _powers(h, u)
        prefix = _outer_chain(p[0], p[1:9 - trailing]).ravel()
        sums = _tree_sums(prefix, p[9 - trailing:], flat, 0, u ** 9)
    # a non-finite carrier makes every sum non-finite, even times 0
    if not np.isfinite(sums).all():
        raise GenericityError("a carrier or a carrier sum is not finite")
    return sums


def _tree_sums(prefix, tail, flat, lo, hi):
    """carrier_sums over flat[lo:hi]; a module-level function, because a
    closure that calls itself is a reference cycle that keeps the cubes
    alive until the cyclic collector runs."""
    n = hi - lo
    if n > SUM_LEAF:
        mid = lo + (n - n % 8) // 2
        return (_tree_sums(prefix, tail, flat, lo, mid)
                + _tree_sums(prefix, tail, flat, mid, hi))
    block = len(tail[0]) ** len(tail)
    first = lo // block
    c = _outer_chain(prefix[first:-(-hi // block)], tail).ravel()
    c = c[lo - first * block:hi - first * block]
    if not c.all():
        raise GenericityError("a carrier is zero")
    return np.array([np.sum(c * f[lo:hi]) for f in flat])


GENERIC_TOL = 1e-9


def channel_is_generic(h, n):
    """Generic-position test: nonzero gains and pairwise-distinct carrier
    values over {1..n+1}^9, with a relative collision tolerance.

    An absolute tolerance would flag almost every random draw once high
    powers of sub-unit gains shrink below it, so closeness is measured
    relative to the magnitudes involved.

    A channel with a non-finite carrier (a nan or inf gain, or a power that
    overflows) is not generic.

    The carriers are ordered by real part; entries with exactly equal real
    parts keep their table order (the stable order).  Entry i is compared
    with i+1, i+2, ... while the real-part gap stays within a window taken
    from the (i, i+1) pair.  All i advance together, one offset k per pass,
    and an i leaves the pass set as soon as its window closes.
    """
    if np.abs(h).min() <= GENERIC_TOL:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        vals = monomial_table(h, n + 1).ravel()
    if not np.isfinite(vals).all():
        return False
    # without an exact tie every sort gives the same order, and the default
    # one is several times faster than the stable one
    sv = vals[np.argsort(vals.real)]
    if np.any(sv.real[1:] == sv.real[:-1]):
        sv = vals[np.argsort(vals.real, kind="stable")]
    del vals
    size, re = len(sv), sv.real
    # a difference of finite carriers may overflow; as an infinite gap or
    # distance it correctly makes that pair not close
    with np.errstate(over="ignore"):
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
    """GENERIC_TOL * max(0.5 * (|a| + |b|), 1e-300) elementwise, in one buffer.

    Each magnitude is halved before the add, so two finite magnitudes give a
    finite sum; that equals half the sum unless a half is subnormal.
    """
    tol, half = np.abs(a), np.abs(b)
    tol *= 0.5
    half *= 0.5
    tol += half
    np.maximum(tol, 1e-300, out=tol)
    tol *= GENERIC_TOL
    return tol


def require_generic(h, n):
    if not channel_is_generic(h, n):
        raise GenericityError("channel gains failed the generic-position check")


# ============================================================
# exact receive-side combinations
# ============================================================


def stream_params(streams) -> tuple:
    """(n, q) of three users' tables given in user order that share one
    lattice depth and one symbol half-width."""
    a, b, c = streams
    if (a.owner, b.owner, c.owner) != (1, 2, 3):
        raise ParameterError("streams must be given in user order (1, 2, 3)")
    if not (a.n == b.n == c.n and a.q == b.q == c.q):
        raise ParameterError("streams must share lattice depth and half-width")
    return a.n, a.q


def exact_observations(streams) -> tuple:
    """Noiseless integer receive combinations for all three receivers: three
    cubes of shape (n+1,)*9 in receiver order, of the streams' integer type.

    For receiver i the label s picks up user 1's symbol at s with coordinate
    (i,1) decremented, user 2's at (i,2) decremented and user 3's at (i,3)
    decremented; out-of-range labels contribute zero.  Realised as one zero
    block plus three in-place adds, stream j read at shift -1 on (i,j).
    """
    n, _ = stream_params(streams)
    out = []
    for i in (1, 2, 3):
        acc = np.zeros((n + 1,) * 9, dtype=streams[0].values.dtype)
        for j, stream in enumerate(streams, 1):
            src, dst = window((n,) * 9, n + 1, {AXIS[(i, j)]: -1}, {})
            acc[dst] += stream.values[src]
        out.append(acc)
    return tuple(out)
