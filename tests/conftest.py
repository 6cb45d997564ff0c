"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the package's vectorised index
machinery: observations are rebuilt with dictionary lookups over explicit
label tuples, and monomials are evaluated in the complex log domain, so a
bug in the window arithmetic cannot hide in both sides of a comparison.
The dense carrier table, whose bits the package's carriers must match, is
this module's own chain of np.multiply.outer calls, exact_observations,
the combination cubes tx-coop must build, is one window read per stream, and
candidate_tables writes out the ML sweep's candidates in its grid order.
"""

import cmath
import functools
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

# On a failing property test hypothesis's pytest plugin imports this module,
# which imports libcst when it is installed, and libcst raises a
# DeprecationWarning while it loads.  Under filterwarnings = ["error"] that
# warning aborts the whole session inside the plugin's hook, so the tests
# after the failure never run.  Loaded here with only that category ignored,
# only for this import; every later warning still fails its test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from coopalign import rx_protocol
from coopalign.harness import config_from_dict, run_trial
from coopalign.indices import AXIS, window
from coopalign.lattice import (CARRIER_FLOOR, GENERIC_TOL, SubstreamTable,
                               random_gains, require_generic, stream_params)
from coopalign.tradeoff import top_half_slope


def label_axis(i, j):
    # row-major position of coordinate (i, j), i, j in 1..3
    return 3 * (i - 1) + (j - 1)


def oracle_observations(streams):
    """Receive tables by brute-force dictionary summation.

    For receiver i and label u in {1..n+1}^9, adds stream j's entry at
    u - e_{(i,j)} when that label stays inside {1..n}^9, else nothing.
    """
    n = streams[0].n
    out = []
    for i in (1, 2, 3):
        table = np.zeros((n + 1,) * 9, dtype=np.int64)
        lut = {}
        for j in (1, 2, 3):
            vals = streams[j - 1].values
            lut[j] = {lab: int(vals[tuple(x - 1 for x in lab)])
                      for lab in itertools.product(range(1, n + 1), repeat=9)}
        for u in itertools.product(range(1, n + 2), repeat=9):
            acc = 0
            for j in (1, 2, 3):
                shifted = list(u)
                shifted[label_axis(i, j)] -= 1
                acc += lut[j].get(tuple(shifted), 0)
            table[tuple(x - 1 for x in u)] = acc
        out.append(table)
    return tuple(out)


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
            src, dst = window((n,) * 9, n + 1, {AXIS[(i, j)]: -1})
            acc[dst] += stream.values[src]
        out.append(acc)
    return tuple(out)


def rx_index(node, table, label):
    """Where receiver ``node`` (a NodeState) holds ``label``, nine 1-based
    coordinates in canonical order (ints or arrays), in its ``table``: the
    row (3,1) - 1 and, in the row, the free coordinates in rx_protocol.FREE
    order, coordinate c at c - 1 + its pad."""
    pads = rx_protocol.PADS[node.node, table]
    free = tuple(label[AXIS[c]] - 1 + p
                 for c, p in zip(rx_protocol.FREE, pads))
    return (label[AXIS[(3, 1)]] - 1,
            np.ravel_multi_index(free, (node.layout.side,) * 8))


def oracle_monomial(h, label):
    """Carrier value via complex logs: exp(sum_ij s_ij log h_ij)."""
    acc = 0.0 + 0.0j
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            acc += label[label_axis(i, j)] * cmath.log(h[i - 1, j - 1])
    return cmath.exp(acc)


def oracle_monomial_table(h, upper):
    """Every carrier on {1..upper}^9: the nine gains' powers 1..upper, in
    label order, multiplied out by one np.multiply.outer per gain."""
    exps = np.arange(1, upper + 1)
    out, *rest = [g ** exps for g in np.asarray(h).ravel()]
    for p in rest:
        out = np.multiply.outer(out, p)
    return out


def dense_cube_sum(h, u, t):
    """The carrier sum as one dense product: every carrier on {1..u}^9 times
    the cube t, added up by a single np.sum."""
    return np.sum(oracle_monomial_table(h, u) * t)


def oracle_nested_sum(h, c):
    """The carrier sum of one integer cube c in Python floats, with the
    rounding order carrier_sums promises: contracted leading axis first,
    every accumulator from +0.0, and per term x = (re, im) and power
    (a, b): re += re x * a, im += re x * b, re += im x * -b,
    im += im x * a.  The powers are numpy's g ** [1..u_k], as the package
    takes them; the cube enters as its real part, imaginary part 0.0."""
    gains = np.asarray(h, dtype=np.complex128).ravel()
    re = [float(v) for v in c.ravel().tolist()]
    im = [0.0] * len(re)
    for g, m in zip(gains, c.shape):
        rest = len(re) // m
        nre, nim = [0.0] * rest, [0.0] * rest
        for j, z in enumerate((g ** np.arange(1, m + 1)).tolist()):
            a, b = z.real, z.imag
            for r in range(rest):
                xr, xi = re[j * rest + r], im[j * rest + r]
                nre[r] += xr * a
                nim[r] += xr * b
                nre[r] += xi * -b
                nim[r] += xi * a
        re, im = nre, nim
    return complex(re[0], im[0])


def oracle_channel_is_generic(h, n):
    """The genericity screen's rule with no search.

    After the screen's pre-checks (a gain at or below GENERIC_TOL, a
    carrier that is not finite, or a bound prod_k min(1, |g_k|)^(n+1) on the
    smallest carrier below CARRIER_FLOOR), the channel is refused when some
    nonzero exponent difference d in {-n..n}^9 gives r = prod h^d with
    |r - 1| <= GENERIC_TOL * (1 + |r|) / 2: the rule
    |c_s - c_t| <= GENERIC_TOL * (|c_s| + |c_t|) / 2 divided by |c_t|, for
    s - t = d.  The cube of d holds 3^9 ratios at n = 1 and 5^9 at n = 2;
    the 7^9 of n = 3 would take 645 MB, so n > 2 raises ValueError.
    """
    h = np.asarray(h, dtype=np.complex128)
    mags = np.abs(h)
    if mags.min() <= GENERIC_TOL:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        vals = oracle_monomial_table(h, n + 1)
    if not np.isfinite(vals).all() \
            or np.prod(np.minimum(mags, 1.0) ** (n + 1)) < CARRIER_FLOOR:
        return False
    if n > 2:
        raise ValueError(f"the ratio oracle runs at n <= 2, got {n}")
    exps = np.arange(-n, n + 1)
    r = functools.reduce(np.multiply.outer,
                         [g ** exps for g in h.ravel()]).ravel()
    # d and -d, at flat positions i and size - 1 - i, give r and 1 / r,
    # which the rule treats alike: the entries before the centre d = 0
    # cover every pair
    r = r[:r.size // 2]
    return not np.any(np.abs(r - 1) <= GENERIC_TOL * (1 + np.abs(r)) / 2)


def oracle_nearest_point(y, points):
    """The earlier numpy detection kernel: `abs` distances, 256-row blocks.

    Ties resolve to the smallest index, which is the lexicographically
    smallest candidate when candidates are enumerated in canonical order.
    """
    y = np.ascontiguousarray(y, dtype=np.complex128)
    points = np.ascontiguousarray(points, dtype=np.complex128)
    out = np.empty(y.shape[0], dtype=np.int64)
    for lo in range(0, y.shape[0], 256):
        hi = min(lo + 256, y.shape[0])
        d = np.abs(y[lo:hi, None] - points[None, :])
        out[lo:hi] = np.argmin(d, axis=1)
    return out


def brute_nearest_point(y, points):
    """The brute-force kernel the strip search replaced: squared distances
    `(Δre)² + (Δim)²` to every candidate, 256 rows at a time, and an argmin,
    so ties resolve to the smallest index."""
    y = np.asarray(y, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    pr = np.ascontiguousarray(points.real)
    pi = np.ascontiguousarray(points.imag)
    out = np.empty(y.shape[0], dtype=np.int64)
    for lo in range(0, y.shape[0], 256):
        blk = y[lo:lo + 256]
        d = blk.real[:, None] - pr
        e = blk.imag[:, None] - pi
        d *= d
        e *= e
        d += e
        out[lo:lo + 256] = np.argmin(d, axis=1)
    return out


def candidate_tables(spec):
    """Every integer table of a reduced spec, one row per candidate, in the
    sweep's grid order: row r is the mixed-radix expansion of r in base
    6q+1, the first label the most significant digit, digits mapped to
    {-3q..3q} ascending."""
    m, A = spec.table_size, spec.alphabet_size
    digits = np.arange(-3 * spec.q_red, 3 * spec.q_red + 1, dtype=np.int64)
    out = np.empty((spec.n_candidates, m), dtype=np.int64)
    # the rows as an A x ... x A grid: digit pos varies along grid axis pos
    grid = out.reshape((A,) * m + (m,))
    for pos in range(m):
        grid[..., pos] = digits.reshape((A,) + (1,) * (m - 1 - pos))
    return out


def make_generic_channel(rng, n=2, max_cond=50.0):
    """Random channel passing the genericity screen with bounded condition."""
    for _ in range(64):
        h = random_gains(rng)
        if np.linalg.cond(h) > max_cond:
            continue
        try:
            require_generic(h, n)
        except Exception:
            continue
        return h
    raise RuntimeError("no generic channel found in 64 draws")


def save_config(config, path):
    """Write a config as the JSON file `coopalign --config` reads."""
    Path(path).write_text(json.dumps(config.as_json_dict(), indent=2) + "\n")


def rate_slopes(report):
    """Per-user rate slopes of a RateReport over the top half of its grid."""
    return np.array([top_half_slope(report.P_grid, report.rates[:, k])
                     for k in range(report.rates.shape[1])])


def load_slope(report):
    """Backhaul load slope of a RateReport over the top half of its grid."""
    return top_half_slope(report.P_grid, report.rb_bar)


def trial_point(raw):
    """Trial 0 of config `raw` as `coopalign run` writes it: (rows, trace,
    alpha, dof), the load and rate slopes over the top half of the grid."""
    rows, _, trace = run_trial(config_from_dict(dict(raw, trials=1)), 0)
    P = [r["P"] for r in rows]
    return (rows, trace,
            top_half_slope(P, [r["load_bits"] for r in rows]),
            top_half_slope(P, [r["rate_bits"] for r in rows]))


def narrowest_cube_dtype(n, q):
    """int16 if its range holds every exchange sum, 15 N q (five table reads
    within +-3q per step, N steps chained), else int64."""
    if 15 * n * q > np.iinfo(np.int64).max:
        raise ValueError(f"no cube type holds q = {q} at N = {n}")
    return np.dtype(np.int16 if 15 * n * q <= np.iinfo(np.int16).max
                    else np.int64)


@st.composite
def stream_sets(draw):
    """Three users' tables at N in {1, 2}, with q anywhere up to the load
    bound (2**63 - 1) // (15 N), or at or just past the largest q of an
    int16 cube, filled at random, all +q or all -q."""
    n = draw(st.integers(1, 2))
    edges = [np.iinfo(np.int16).max // (15 * n) + d for d in (0, 1)]
    q = draw(st.integers(1, (2 ** 63 - 1) // (15 * n)) | st.sampled_from(edges))
    kind = draw(st.sampled_from(("random", "plus", "minus")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return tuple(SubstreamTable.random(i, n, q, rng) for i in (1, 2, 3))
    v = q if kind == "plus" else -q
    return tuple(SubstreamTable(owner=i, n=n, q=q,
                                values=np.full((n,) * 9, v, dtype=np.int64))
                 for i in (1, 2, 3))


_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    rep = yield
    if rep.when == "call" and item.fspath.basename == "test_acceptance.py":
        label = getattr(item.module, "CRITERIA", {}).get(item.name, item.name)
        _ACCEPTANCE_RESULTS.append((label, rep.passed))
    return rep


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label, ok in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {label}")


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(20260814))


@pytest.fixture
def generic_channel(rng):
    return make_generic_channel(rng)
