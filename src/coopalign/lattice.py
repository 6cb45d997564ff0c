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
                     SymbolRangeError, require_count, require_gamma)

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
    require_gamma(gamma)
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
        require_count(n=self.n, q=self.q)
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


def stream_params(streams) -> tuple:
    """(n, q) of three users' tables given in user order that share one
    lattice depth and one symbol half-width; anything else raises
    ParameterError."""
    if not (isinstance(streams, (tuple, list)) and len(streams) == 3
            and all(isinstance(s, SubstreamTable) for s in streams)):
        raise ParameterError(f"streams must be three SubstreamTables, got "
                             f"{type(streams).__name__}")
    a, b, c = streams
    if (a.owner, b.owner, c.owner) != (1, 2, 3):
        raise ParameterError("streams must be given in user order (1, 2, 3)")
    if not (a.n == b.n == c.n and a.q == b.q == c.q):
        raise ParameterError("streams must share lattice depth and half-width")
    return a.n, a.q


# ============================================================
# monomial carriers
# ============================================================


def _powers(gains, exps):
    """Each gain's powers g ** exps, the gains in label order."""
    return [g ** exps for g in gains.ravel()]


def _products(factors):
    """f_1[i_1] * ... * f_m[i_m] at [i_1, ..., i_m] for the 1-D factors,
    multiplied in that order; a transposed view, its memory order reversed."""
    out, *rest = factors
    for p in rest:
        out = np.multiply(out, p.reshape((-1,) + (1,) * out.ndim))
    return out.transpose()


# the most carriers, (N+1)^9, that rx-coop and tx-coop run on: N = 5.  A
# random-channel rx-coop or tx-coop trial peaks at 73 MiB RSS at N = 4 and
# 220 MiB at N = 5, about 19 B more per carrier, most of it the screen's
# 16-B carrier table, so N = 6 would take about 0.75 GiB per trial and per
# pool worker.
MAX_CARRIERS = 6 ** 9


def monomial_table(h, upper) -> np.ndarray:
    """All carrier values on the cube {1..upper}^9, label s at [s - 1]: a
    transposed view whose memory runs along the last gain first.  Its bits
    follow numpy's complex multiply loop on the running CPU (the X86_V2
    loops round some carriers otherwise than the AVX2 ones); only the
    screen's verdict leaves the package, and it could move only for a pair
    of carriers within about 1e-15 relative of GENERIC_TOL."""
    return _products(_powers(h, np.arange(1, upper + 1)))


def carrier_sums(h, cubes) -> np.ndarray:
    """For each cube c, on {1..u_1} x ... x {1..u_9}, the sum over labels s
    of prod_k g_k^(s_k) c[s], the g_k being the nine gains of h in label
    order; u is the largest extent over all the cubes.

    The sum is nested, sum_s1 g_1^s1 sum_s2 g_2^s2 ... c[s], and contracted
    leading axis first on planes of real and imaginary parts: each term is
    one np.multiply by a real scalar and one in-place add, so no loop can
    fuse or reorder, and the bits do not depend on numpy's SIMD level.  Each
    cube's trailing all-zero slabs, on every axis, are dropped first: their
    terms are products with an exact 0, which leave an accumulator that
    starts at +0.0, and so is never -0.0, unchanged.

    The nesting forms no carrier, so a zero carrier is found from the
    powers: GenericityError is raised when the product of the nine gains'
    smallest power magnitudes, taken in label order, is 0 (a power is zero
    or the product underflows), or when a power or a sum is not finite (a
    carrier is not finite, or a sum overflows).
    """
    u = max(max(c.shape) for c in cubes)
    with np.errstate(over="ignore", invalid="ignore"):
        p = _powers(h, np.arange(1, u + 1))
        if math.prod(float(np.hypot(g.real, g.imag).min()) for g in p) == 0:
            raise GenericityError("a carrier is zero")
        # a power that meets only dropped slabs would have made a nan
        if not all(np.isfinite(g).all() for g in p):
            raise GenericityError("a carrier or a carrier sum is not finite")
        coef = [list(zip(g.real.tolist(), g.imag.tolist())) for g in p]
        sums = np.array([_nested_sum(_trim_zero_slabs(c), coef)
                         for c in cubes])
    if not np.isfinite(sums).all():
        raise GenericityError("a carrier or a carrier sum is not finite")
    return sums


def _trim_zero_slabs(c):
    """The leading box of c that drops its trailing all-zero slabs on every
    axis, a view."""
    for axis in range(c.ndim):
        lead = (slice(None),) * axis
        while c.size and not np.count_nonzero(c[lead + (-1,)]):
            c = c[lead + (slice(-1),)]
    return c


def _nested_sum(c, coef):
    """carrier_sums of one cube c on {1..u_1} x ... x {1..u_9}, where
    coef[k][j] is (real, imaginary) of gain k's power j + 1."""
    if not c.size:
        return 0j
    # the planes (re, im) of the sum so far, the cube its one real plane
    acc = c.reshape(1, -1)
    for zs, m in zip(coef, c.shape):
        acc = acc.reshape(len(acc), m, -1)
        out = np.empty(acc.shape[2])
        nxt = np.zeros((2, acc.shape[2]))
        # nxt += (a + ib) x, for x = acc[:, j], as one rounded multiply by a
        # real scalar, then one in-place add, at a time, re part first:
        # re += x re * a, im += x re * b, re += x im * -b, im += x im * a
        for j, (a, b) in enumerate(zs[:m]):
            for part, w in zip(acc[:, j], ((a, b), (-b, a))):
                for k in (0, 1):
                    np.multiply(part, w[k], out=out)
                    nxt[k] += out
        acc = nxt
    return complex(*acc[:, 0])


GENERIC_TOL = 1e-9
# the close-pair search runs at GENERIC_TOL * (1 + SEARCH_SLACK)
SEARCH_SLACK = 1e-2
# a channel whose carriers may fall below this magnitude is refused
CARRIER_FLOOR = 2.0 ** -900
# one fixed phase that turns both half-sets, so that real, imaginary or
# unit-modulus gains do not put their products on one real part
_TURN = complex(math.cos(0.739), math.sin(0.739))
# the gains, in label order, whose exponent differences make the first set
_SPLIT = 4


def channel_is_generic(h, n):
    """Generic-position test: nonzero gains and pairwise-distinct carrier
    values over {1..n+1}^9, with a relative collision tolerance.

    An absolute tolerance would flag almost every random draw once high
    powers of sub-unit gains shrink below it, so closeness is measured
    relative to the magnitudes involved: carriers c_s and c_t collide when
    |c_s - c_t| <= GENERIC_TOL * max((|c_s| + |c_t|) / 2, 1e-300).

    Refused before any search: a gain of magnitude at most GENERIC_TOL; a
    carrier that is not finite (a nan or inf gain, or a power that
    overflows); a bound prod_k min(1, |g_k|)^(n+1) on the smallest carrier
    below CARRIER_FLOOR = 2^-900, which refuses carriers that underflow to 0
    and so collide; and a turned product of half-powers (below) that is 0 or
    not finite.  Past these every carrier lies in [2^-900, 2^1024), so the
    rule's 1e-300 floor never binds.  The two half-sets' exponent spans add
    up to the carriers' span, under 1,924 bits, so no product or partial
    product that a collision rests on is subnormal: that would take 2,044.

    The search.  For s - t = d, dividing the rule by |c_t| gives
    |r - 1| <= GENERIC_TOL * (1 + |r|) / 2 with r = prod_k g_k^d_k, for d in
    {-n..n}^9 minus 0, whatever s is.  Split the gains 4 + 5, so that
    r = P(d_A) Q(d_B); with a = P(-d_A) = 1 / P(d_A) and b = Q(d_B), times
    |a| the rule reads |b - a| <= GENERIC_TOL * (|a| + |b|) / 2.  So it is a
    close-pair search between (2n+1)^4 values a and (2n+1)^5 values b
    (2,401 and 16,807 at n = 3, against 262,144 carriers), the pair d = 0
    excluded, at tol' = GENERIC_TOL * (1 + SEARCH_SLACK).  Both sets are
    turned by the phase _TURN, which keeps every distance, and both are
    sorted by real part, the a only so that the window searches run in
    order.  A close pair has |re b - re a| <= |b - a| <= tol'
    |a| / (1 - tol' / 2), so each a takes the window of b within
    tol' |a| / (1 - tol') of its real part, and one pass compares every a
    with the k-th entry of its window, k = 0, 1, ...

    Why the slack is safe: a power takes at most 3 rounded complex products
    and, for a negative exponent, one quotient; a carrier adds 8 products
    and a turned product 5, so each lies within 150 u of its value
    (u = 2^-53, on normal floats).  A pair of carriers that collides as
    computed thus gives a and b that meet the rule at GENERIC_TOL + 500 u,
    about GENERIC_TOL + 5.6e-14, and GENERIC_TOL * SEARCH_SLACK = 1e-11
    covers that, and the rounding of the window ends, more than 100 times:
    every colliding d is found.

    Every d found is confirmed on monomial_table(h, n + 1), built once for
    each screen: the channel is refused only when some pair of carriers
    (s, s - d) collides under the rule above (_collides).  So the verdict is
    the rule on the carriers, and a d found only through the slack passes.
    A pass's close pairs are confirmed before the next pass, and the screen
    returns at the first collision, so no pass holds more than one pair per
    a.  Gains other than 3x3, or a depth n that is not a count, raise ParameterError.
    """
    h = gain_matrix(h)
    require_count(n=n)
    mags = np.abs(h).ravel()
    if mags.min() <= GENERIC_TOL:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        table = monomial_table(h, n + 1)
    if not np.isfinite(table).all():
        return False
    if math.prod(min(m, 1.0) ** (n + 1) for m in mags.tolist()) < CARRIER_FLOOR:
        return False
    gains = h.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = (_turned_products(g, n) for g in (gains[:_SPLIT], gains[_SPLIT:]))
    if not all(np.isfinite(x).all() and x.all() for x in (a, b)):
        return False
    order = np.argsort(b.real)
    b = b[order]
    re = b.real
    # the a in order of real part too, so that both searches below walk re
    # from left to right
    by_a = np.argsort(a.real)
    a = a[by_a]
    tol = GENERIC_TOL * (1 + SEARCH_SLACK)
    # a product near the float limit may overflow in a magnitude or a
    # difference; as an infinite tolerance it only adds a pair to confirm
    with np.errstate(over="ignore"):
        half_a = np.abs(a)
        half_a *= 0.5
        reach = half_a * (2 * tol / (1 - tol))
        lo = np.searchsorted(re, a.real - reach)
        hi = np.searchsorted(re, a.real + reach, "right")
        i = np.flatnonzero(lo < hi)
        k = 0
        while i.size:
            j = lo[i] + k
            close = np.abs(b[j] - a[i]) <= _pair_tol(half_a[i],
                                                    0.5 * np.abs(b[j]), tol)
            for ia, ib in zip(by_a[i[close]].tolist(),
                              order[j[close]].tolist()):
                d = _exponent_difference(ia, ib, n)
                if any(d) and _collides(table, d):
                    return False
            k += 1
            i = i[lo[i] + k < hi[i]]
    return True


def _turned_products(gains, n):
    """_TURN * prod_k gains[k]^e_k for every e in {-n..n}^len(gains), with e
    in C order."""
    return _products([np.array([_TURN])]
                     + _powers(gains, np.arange(-n, n + 1))).ravel()


def _exponent_difference(ia, ib, n):
    """The d = (d_A, d_B) of the pair (a, b) of channel_is_generic's search
    at flat indices ia and ib: a = P(e) for e = -d_A, b = Q(d_B)."""
    side = 2 * n + 1
    e = np.unravel_index(ia, (side,) * _SPLIT)
    f = np.unravel_index(ib, (side,) * (9 - _SPLIT))
    return tuple(n - int(x) for x in e) + tuple(int(x) - n for x in f)


def _collides(table, d):
    """Whether some pair of entries table[s] and table[s - d], both in the
    table, collides under channel_is_generic's rule; d holds one offset per
    axis.  A difference that overflows is infinite, so not close."""
    s = tuple(slice(max(k, 0), m + min(k, 0)) for k, m in zip(d, table.shape))
    t = tuple(slice(max(-k, 0), m - max(k, 0)) for k, m in zip(d, table.shape))
    x, y = table[s], table[t]
    with np.errstate(over="ignore"):
        tol = _pair_tol(0.5 * np.abs(x), 0.5 * np.abs(y))
        return bool((np.abs(x - y) <= tol).any())


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


def require_generic(h, n):
    if not channel_is_generic(h, n):
        raise GenericityError("channel gains failed the generic-position check")
