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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GenericityError, ParameterError, SingularChannelError,
                     SymbolRangeError)
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


def gain_matrix(h) -> np.ndarray:
    """h as a 3x3 complex128 array, not a copy when it already is one;
    raises ParameterError on any other shape."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (3, 3):
        raise ParameterError(f"need a 3x3 gain matrix, got shape {h.shape}")
    return h


def illustrating_gains(gamma, h):
    """Copy of h in which receiver 3 sees a gamma-scaled copy of the
    direct/cross pair of receiver 2 (h31 = gamma*h21, h33 = gamma*h23)."""
    h = gain_matrix(h).copy()
    h[2, 0] = gamma * h[1, 0]
    h[2, 2] = gamma * h[1, 2]
    return h


DET_FLOOR = 1e-12             # smallest accepted |det h|
INVERSE_TOL = 1e-9            # largest accepted max|h hinv - I|


def gains_times(rows, v) -> list:
    """rows @ v for 3-vectors, each row summed left to right, without BLAS."""
    v0, v1, v2 = v
    return [r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in rows]


def channel_inverse(h) -> np.ndarray:
    """Inverse of the 3x3 gain matrix h without LAPACK: its adjugate over
    det, which is row 0 of h times its cofactors.  Certified by a finite
    |det| above DET_FLOOR and max|h hinv - I| <= INVERSE_TOL, which an
    overflow fails, with no warning; raises SingularChannelError otherwise."""
    if h.shape != (3, 3):
        raise SingularChannelError(f"need a 3x3 gain matrix, got {h.shape}")
    rows = h.tolist()
    (a, b, c), (d, e, f), (g, k, m) = rows
    # adj[i][j] is the cofactor of h[j, i], in Python scalars
    adj = ((e * m - f * k, c * k - b * m, b * f - c * e),
           (f * g - d * m, a * m - c * g, c * d - a * f),
           (d * k - e * g, b * g - a * k, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    # numpy's division (Smith's, times the reciprocal of its denominator,
    # where CPython divides by it): elementwise, with no BLAS or SIMD variant
    with np.errstate(all="ignore"):
        hinv = np.array(adj) / det
    res = [math.hypot(z.real - (i == j), z.imag)
           for j, col in enumerate(hinv.T.tolist())
           for i, z in enumerate(gains_times(rows, col))]
    # max can skip a nan, which makes the sum nan
    resid = math.nan if math.isnan(sum(res)) else max(res)
    # not abs, which raises OverflowError when a finite |det| overflows
    size = math.hypot(det.real, det.imag)
    if not (DET_FLOOR < size < math.inf and resid <= INVERSE_TOL):
        raise SingularChannelError(f"gain matrix not invertible: |det| = "
                                   f"{size:.3g}, inverse residual {resid:.3g}")
    return hinv


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
        # a float or bool q would be priced and traced at different widths
        for name in ("n", "q"):
            x = getattr(self, name)
            if not (type(x) is int and x >= 1):
                raise ParameterError(f"{name} must be a positive integer, got {x!r}")
        v = np.asarray(self.values)
        if v.dtype.kind not in "iu":
            raise ParameterError(f"symbols must be integers, got {v.dtype}")
        if v.shape != (self.n,) * 9:
            raise ParameterError(
                f"values must have shape {(self.n,)*9}, got {v.shape}")
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


COLUMN_MIN = 256


def _outer_chain(out, powers):
    """np.multiply.outer(out, p) for each p in turn, to the bit.  Once out
    holds at least COLUMN_MIN entries, each column out * p[j] is one long
    np.multiply with the operands in the same order; a shorter out keeps
    the outer product, because a 1-entry array times a numpy scalar rounds
    through another numpy loop."""
    for p in powers:
        if out.size < COLUMN_MIN:
            out = np.multiply.outer(out, p)
            continue
        nxt = np.empty(out.shape + p.shape, dtype=out.dtype)
        for j, pj in enumerate(p):
            np.multiply(out, pj, out=nxt[..., j])
        out = nxt
    return out


# the most carriers, (N+1)^9, that rx-coop and tx-coop run on: N = 5.  A
# trial peaks at about 42 B per carrier (118 MiB RSS at N = 4, 435 MiB at
# N = 5), so N = 6 would take about 1.6 GiB per trial and per pool worker.
MAX_CARRIERS = 6 ** 9


def monomial_table(h, upper) -> np.ndarray:
    """All carrier values on the cube {1..upper}^9 as a dense array."""
    p = _powers(h, upper)
    return _outer_chain(p[0], p[1:])


def carrier_sums(h, cubes) -> np.ndarray:
    """For each cube c on {1..u}^9, the sum over labels s of
    prod_k g_k^(s_k) c[s], the g_k being the nine gains of h in label order.

    The sum is nested, sum_s1 g_1^s1 sum_s2 g_2^s2 ... c[s], and contracted
    leading axis first on planes of real and imaginary parts: each term is
    one np.multiply by a real scalar and one in-place add, so no loop can
    fuse or reorder, and the bits do not depend on numpy's SIMD level.  The
    first two contractions run per label on the second axis, so no (u^8,)
    plane is held.

    The nesting forms no carrier, so a zero carrier is found from the
    powers: GenericityError is raised when the product of the nine gains'
    smallest power magnitudes, taken in label order, is 0 (a power is zero
    or the product underflows), or when a sum is not finite (a carrier is
    not finite, or a sum overflows).
    """
    u = cubes[0].shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p = _powers(h, u)
        if math.prod(float(np.hypot(g.real, g.imag).min()) for g in p) == 0:
            raise GenericityError("a carrier is zero")
        coef = [list(zip(g.real.tolist(), g.imag.tolist())) for g in p]
        sums = np.array([_nested_sum(c.reshape(u, u, -1), coef)
                         for c in cubes])
    if not np.isfinite(sums).all():
        raise GenericityError("a carrier or a carrier sum is not finite")
    return sums


def _nested_sum(c, coef):
    """carrier_sums of one cube c, shaped (u, u, u^7), where coef[k][j] is
    (real, imaginary) of gain k's power j + 1."""
    tmp = np.empty(c.shape[2])
    row = np.empty((2, c.shape[2]))
    acc = np.zeros((2, c.shape[2]))
    for j2, z2 in enumerate(coef[1]):
        row.fill(0.0)
        for j1, z1 in enumerate(coef[0]):
            _add_product(row, c[j1, j2, None], z1, tmp)
        _add_product(acc, row, z2, tmp)
    for zs in coef[2:]:
        acc = acc.reshape(2, len(zs), -1)
        nxt = np.zeros((2, acc.shape[2]))
        for j, z in enumerate(zs):
            _add_product(nxt, acc[:, j], z, tmp[:acc.shape[2]])
        acc = nxt
    return complex(*acc[:, 0])


def _add_product(acc, x, z, tmp):
    """acc += z * x on planes (re, im), for z = (a, b) and x given as the
    planes (re,) of a real row or (re, im): acc re += x re * a + x im * -b,
    acc im += x re * b + x im * a, one rounded product and one add at a
    time."""
    a, b = z
    for part, w in zip(x, ((a, b), (-b, a))):
        for k in (0, 1):
            np.multiply(part, w[k], out=tmp)
            acc[k] += tmp


GENERIC_TOL = 1e-9


def channel_is_generic(h, n):
    """Generic-position test: nonzero gains and pairwise-distinct carrier
    values over {1..n+1}^9, with a relative collision tolerance.

    An absolute tolerance would flag almost every random draw once high
    powers of sub-unit gains shrink below it, so closeness is measured
    relative to the magnitudes involved.

    A channel with a non-finite carrier (a nan or inf gain, or a power that
    overflows) is not generic.

    Carriers c_s and c_t collide when |c_s - c_t| <= GENERIC_TOL *
    max((|c_s| + |c_t|) / 2, 1e-300), as two that underflow to 0 do.  If c_j
    sorts after c_i by real part and they collide, re_j - re_i <= |c_j - c_i|
    <= GENERIC_TOL * (|c_i| + |c_j - c_i| / 2), a gap of at most GENERIC_TOL
    * max(|c_i|, 1e-300) / (1 - GENERIC_TOL / 2).  So, in any order sorting
    the real parts, entry i is compared with i+1, ... within that window;
    all i advance together, one offset k per pass.  Gains other than 3x3,
    or a depth n that is not a positive int, raise ParameterError.
    """
    h = gain_matrix(h)
    if not (type(n) is int and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if np.abs(h).min() <= GENERIC_TOL:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        vals = monomial_table(h, n + 1).ravel()
    if not np.isfinite(vals).all():
        return False
    sv = vals[_stable_order(vals.real)]
    del vals
    size, re = len(sv), sv.real
    half = np.abs(sv)
    half *= 0.5
    # a difference of finite carriers may overflow; as an infinite gap or
    # distance it correctly makes that pair not close
    with np.errstate(over="ignore"):
        # the bound above, with room for rounding
        span = _pair_tol(half, half, GENERIC_TOL / (1 - GENERIC_TOL))
        i = np.flatnonzero(re[1:] - re[:-1] <= span[:-1])
        k = 1
        while i.size:
            tol = _pair_tol(half[i], half[i + k])
            if np.any(np.abs(sv[i + k] - sv[i]) <= tol):
                return False
            i = i[i + k + 1 < size]
            i = i[re[i + k + 1] - re[i] <= span[i]]
            k += 1
    return True


def _pair_tol(half_a, half_b, scale=GENERIC_TOL):
    """scale * max(0.5 * (|a| + |b|), 1e-300) elementwise, given the halved
    magnitudes |a| / 2 and |b| / 2.

    Adding halves, two finite magnitudes give a finite sum; that equals half
    the sum unless a half is subnormal.
    """
    tol = half_a + half_b
    np.maximum(tol, 1e-300, out=tol)
    tol *= scale
    return tol


_SIGN_FLIP = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _stable_order(x):
    """np.argsort(x, kind="stable") for a finite float64 array x, from one
    in-place sort of int64 keys.

    A key is the float's bits, mapped so that signed integer order is float
    order, with its low b bits, as many as an index needs, replaced by the
    entry's index.  -0.0 is first made +0.0, which float order treats as
    equal to it.  Keys with different high bits are then in float order,
    and keys of equal floats in index order.  Only floats that differ in
    their low b bits alone can end up out of order; they share their high
    bits with a sorted neighbour, and one lexsort by (value, index) over
    all such entries puts them back: the high bits already order one run
    of equal high bits against another.
    """
    size = len(x)
    b = (size - 1).bit_length()
    low = (1 << b) - 1
    key = (x + 0.0).view(np.int64)
    key ^= (key >> 63) & _SIGN_FLIP
    key &= ~low
    key |= np.arange(size)
    key.sort()
    high = key >> b
    tie = high[1:] == high[:-1]
    key &= low
    if tie.any():
        # entries i and i + 1 of each tie, without np.union1d, whose first
        # call in a process imports numpy.ma
        at = np.zeros(size, dtype=bool)
        at[1:] = tie
        at[:-1] |= tie
        at = np.flatnonzero(at)
        idx = key[at]
        key[at] = idx[np.lexsort((idx, x[idx]))]
    return key


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
