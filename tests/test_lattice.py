import contextlib
import functools
import hashlib
import itertools
import time

import numpy as np
import pytest

from conftest import (dense_cube_sum, exact_observations,
                      narrowest_cube_dtype, oracle_channel_is_generic,
                      oracle_monomial, oracle_monomial_table,
                      oracle_nested_sum, oracle_observations)
from coopalign import lattice
from coopalign.errors import GenericityError, ParameterError, SymbolRangeError
from coopalign.lattice import (GENERIC_TOL, SubstreamTable, carrier_sums,
                               channel_is_generic, complex_awgn, cube_dtype,
                               illustrating_gains, monomial_table, q_limit,
                               random_gains, require_generic, stream_params)


def test_channel_matrix_shapes(rng):
    h = random_gains(rng)
    assert h.shape == (3, 3)
    assert h.dtype == np.complex128


def test_illustrating_channel_structure(rng):
    g = 1.25 - 0.5j
    base = random_gains(rng)
    h = illustrating_gains(g, base)
    assert h[2, 0] == g * h[1, 0]
    assert h[2, 2] == g * h[1, 2]
    # a copy: only the two forced entries differ from the input
    forced = np.zeros((3, 3), dtype=bool)
    forced[2, 0] = forced[2, 2] = True
    np.testing.assert_array_equal(h[~forced], base[~forced])
    assert not np.array_equal(h, base)


def test_complex_awgn_unit_variance(rng):
    z = complex_awgn(rng, 200000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 2e-2
    assert abs(np.mean(z.real ** 2) - 0.5) < 2e-2



def _bits(a):
    # the sha256 of an array's bytes in C order: a mismatch reports two
    # digests, where comparing the bytes diffs 31-MB strings
    return hashlib.sha256(a.tobytes()).hexdigest()

class TestTables:
    # q = 5: a stream symbol lies in +-q
    @pytest.mark.parametrize("value", [5, -5, 6, -6],
                             ids=["q", "-q", "q+1", "-(q+1)"])
    def test_substream_alphabet_guard(self, value):
        values = np.zeros((1,) * 9, dtype=np.int64)
        values[(0,) * 9] = value
        if abs(value) > 5:
            with pytest.raises(SymbolRangeError):
                SubstreamTable(owner=1, n=1, q=5, values=values)
        else:
            SubstreamTable(owner=1, n=1, q=5, values=values)

    @pytest.mark.parametrize("field,value", [
        ("q", 1.5), ("q", True), ("q", np.int64(5)), ("q", 0), ("n", True),
        ("n", 1.0), ("n", 0)],
        ids=["q-float", "q-bool", "q-numpy-int", "q-zero", "n-bool", "n-float",
             "n-zero"])
    def test_substream_sizes_are_positive_integers(self, field, value):
        # q = 1.5 used to be priced at log2(2q + 1) = 2 bits a symbol and
        # traced with alphabet_halfwidth int(q) = 1; q = True ran as q = 1,
        # and n = 0 raised ZeroDivisionError from the cube type's bound
        kw = dict({"n": 1, "q": 5}, **{field: value})
        values = np.zeros((int(kw["n"]),) * 9, dtype=np.int64)
        with pytest.raises(ParameterError,
                           match=f"{field} must be a positive integer"):
            SubstreamTable(owner=1, values=values, **kw)

    @pytest.mark.parametrize("values", [
        np.full((1,) * 9, 0.7), np.full((1,) * 9, 2.0),
        np.ones((1,) * 9, dtype=bool)], ids=["0.7", "2.0", "bool"])
    def test_non_integer_symbols_rejected(self, values):
        # a float table used to be truncated and a bool one read as 0/1
        with pytest.raises(ParameterError, match="integers"):
            SubstreamTable(owner=1, n=1, q=5, values=values)

    @pytest.mark.parametrize("value", [5 + 2 ** 16, -5 - 2 ** 16])
    def test_range_checked_before_narrowing(self, value):
        # as int16 this entry would wrap to +-5, inside the alphabet
        values = np.full((1,) * 9, value, dtype=np.int64)
        assert values.astype(np.int16)[(0,) * 9] == np.sign(value) * 5
        with pytest.raises(SymbolRangeError):
            SubstreamTable(owner=1, n=1, q=5, values=values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_held_in_narrowest_type(self, n):
        # at and just past the largest q of an int16 cube
        for q in (q_limit(n, np.int16), q_limit(n, np.int16) + 1):
            table = SubstreamTable(owner=2, n=n, q=q, values=np.full(
                (n,) * 9, -q, dtype=np.int64))
            assert table.values.dtype == narrowest_cube_dtype(n, q)
            assert (table.values == -q).all()

    def test_random_draw_is_the_int64_draw(self):
        # the rng stream does not depend on the cube type
        for q in (5, 1092, 1093, 71582789):
            a, b = (np.random.default_rng(3) for _ in range(2))
            table = SubstreamTable.random(1, 2, q, a)
            want = b.integers(-q, q + 1, size=(2,) * 9, dtype=np.int64)
            assert table.values.dtype == cube_dtype(2, q)
            np.testing.assert_array_equal(table.values, want)


GAIN_KINDS = ["random", "real", "imaginary", "tiny", "huge", "inverse"]


def _gains_of_kind(kind, rng):
    h = random_gains(rng)
    return {"random": h, "real": h.real + 0j, "imaginary": 1j * h.imag,
            "tiny": h * 1e-40, "huge": h * 1e40,
            "inverse": np.linalg.inv(h)}[kind]


class TestMonomials:
    def test_monomial_table_agrees_pointwise(self, rng):
        h = random_gains(rng)
        table = monomial_table(h, 2)
        for lab in itertools.product(range(1, 3), repeat=9):
            got = table[tuple(c - 1 for c in lab)]
            want = oracle_monomial(h, lab)
            assert abs(got - want) <= 1e-9 * abs(want)
        # exponents up to 3, from a depth-3 table
        deep = monomial_table(h, 3)
        for lab in ((2, 1, 3, 1, 1, 2, 1, 1, 1), (3,) * 9):
            want = oracle_monomial(h, lab)
            got = deep[tuple(c - 1 for c in lab)]
            assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("u", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", GAIN_KINDS)
    def test_table_bytes_equal_outer_chain(self, u, kind):
        # each gain's powers stood on a new leading axis of the running
        # product, then transposed, give the bits of one np.multiply.outer
        # per gain at every depth, u = 1 included; the tiny gains' carriers
        # underflow to zero, the huge ones' overflow, and the inverse is the
        # gains tx-coop screens
        h = _gains_of_kind(kind, np.random.default_rng(610 + u))
        quiet = (np.errstate(over="ignore", invalid="ignore")
                 if kind == "huge" else contextlib.nullcontext())
        with quiet:
            got = monomial_table(h, u)
            want = oracle_monomial_table(h, u)
        assert got.shape == want.shape == (u,) * 9
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", GAIN_KINDS)
    def test_turned_products_equal_outer_chain(self, n, kind):
        # the screen's half-sets come from the same product routine as the
        # table; the chain _TURN, then one np.multiply.outer per gain's
        # powers -n..n, raveled in C order, has their bits on both halves
        h = _gains_of_kind(kind, np.random.default_rng(620 + n))
        exps = np.arange(-n, n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for gains in (h.ravel()[:lattice._SPLIT],
                          h.ravel()[lattice._SPLIT:]):
                got = lattice._turned_products(gains, n)
                want = functools.reduce(
                    np.multiply.outer,
                    [np.array([lattice._TURN])] + [g ** exps for g in gains])
                assert got.shape == (want.size,)
                assert _bits(got) == _bits(want.ravel())


class TestCarrierSums:
    @pytest.mark.parametrize("u", [1, 2, 3, 4, 5])
    def test_matches_dense_sum(self, rng, u):
        # within 128 eps of sum |carrier * c|: to first order a term meets
        # about 9 (u + 3) roundings in the nested sum and 8 * 3 + 9 log2(u)
        # in the dense one, 117 at u = 5
        for _ in range(2):
            h = np.linalg.inv(random_gains(rng))
            cubes = [rng.integers(-15, 16, (u,) * 9, dtype=dt)
                     for dt in (np.int16, np.int64, np.int16)]
            for got, c in zip(carrier_sums(h, cubes), cubes):
                mass = np.sum(np.abs(oracle_monomial_table(h, u) * c))
                assert abs(got - dense_cube_sum(h, u, c)) \
                    <= 128 * np.finfo(float).eps * mass

    def test_zero_cubes_sum_to_positive_zero(self, rng):
        # every accumulator starts from +0.0, as np.sum does, so a zero
        # total is +0.0 in both parts, also with negative carrier parts
        h = -np.ones((3, 3)) * (1 + 1j)
        cubes = [np.zeros((3,) * 9, dtype=np.int64)]
        got = carrier_sums(h, cubes)
        assert got.tobytes() == np.zeros(1, np.complex128).tobytes()
        assert got.tobytes() == np.array([dense_cube_sum(h, 3, cubes[0])]) \
            .tobytes()

    @pytest.mark.parametrize("scale,error", [
        (1e-40, "a carrier is zero"), (1e40, "not finite"),
        (np.inf, "not finite")])
    def test_vanishing_or_non_finite_carrier_raises(self, rng, scale, error):
        # every carrier is a product of all nine gains, each at least to the
        # first power: they all underflow to 0 or overflow, without warning
        h = random_gains(rng) * scale
        cubes = [rng.integers(-15, 16, (2,) * 9) for _ in range(3)]
        with pytest.raises(GenericityError, match=error):
            carrier_sums(h, cubes)

    def test_overflowing_product_raises(self):
        # finite carriers up to 10**307.5, times 15: the products overflow
        h = np.full((3, 3), 10 ** (307.5 / 18), dtype=np.complex128)
        cubes = [np.full((2,) * 9, 15, dtype=np.int64)]
        with pytest.raises(GenericityError, match="sum is not finite"):
            carrier_sums(h, cubes)

    def test_overflow_between_leaves_raises(self):
        # carriers G, G^2, G^3 with G^3 = 1e305, each on 3^8 labels: the
        # leaves of the nesting, the sums over the leading axis, are finite
        # (1.5e306), and so are the next four contractions; the sixth
        # overflows
        h = np.ones((3, 3), dtype=np.complex128)
        h[0, 0] = 10 ** (305 / 3)
        cubes = [np.full((3,) * 9, 15, dtype=np.int64)]
        with pytest.raises(GenericityError, match="sum is not finite"):
            carrier_sums(h, cubes)

    @pytest.mark.parametrize("u", [2, 3, 4])
    def test_dropped_zero_slabs_keep_the_bytes(self, rng, u):
        # against the nested sum over the whole cube, on cubes whose
        # trailing slabs are zero one or more deep on some axes, as tx-coop's
        # built cubes are on the six coordinates of the other receivers
        h = np.linalg.inv(random_gains(rng))
        coef = [list(zip(g.real.tolist(), g.imag.tolist()))
                for g in lattice._powers(h, np.arange(1, u + 1))]
        cubes = []
        for axes in (range(3, 9), range(6), rng.choice(9, 4, replace=False)):
            c = rng.integers(-15, 16, (u,) * 9, dtype=np.int16)
            for axis in axes:
                zero = [slice(None)] * 9
                zero[axis] = slice(u - int(rng.integers(1, u)), None)
                c[tuple(zero)] = 0
            cubes.append(c)
        lone = np.zeros((u,) * 9, dtype=np.int64)
        lone[(0,) * 9] = -7
        cubes.append(lone)
        got = carrier_sums(h, cubes)
        want = np.array([lattice._nested_sum(c, coef) for c in cubes])
        assert got.tobytes() == want.tobytes()
        assert all(lattice._trim_zero_slabs(c).size < c.size for c in cubes)

    @pytest.mark.parametrize("u", [1, 2, 3])
    def test_bytes_match_the_python_float_oracle(self, rng, u):
        # the rounding order pinned term by term on cubes of both integer
        # types, whole and with trailing zero slabs; the goldens pin it only
        # at the configs they run
        h = np.linalg.inv(random_gains(rng))
        cubes = []
        for dt in (np.int16, np.int64):
            for axes in ((), rng.choice(9, 3, replace=False)):
                c = rng.integers(-15, 16, (u,) * 9, dtype=dt)
                for axis in axes:
                    c[(slice(None),) * axis
                      + (slice(int(rng.integers(u > 1, u)), None),)] = 0
                cubes.append(c)
        got = carrier_sums(h, cubes)
        want = np.array([oracle_nested_sum(h, c) for c in cubes])
        assert got.tobytes() == want.tobytes()

    def test_extent_is_the_largest_over_the_cubes(self, rng):
        # verify_diagonalization sums (n,)^9 streams with (n+1,)^9 built
        # cubes in one call: a smaller cube first cuts no label off the rest
        h = np.linalg.inv(random_gains(rng))
        cubes = [rng.integers(-15, 16, (u,) * 9) for u in (1, 3, 2)]
        got = carrier_sums(h, cubes)
        want = np.array([oracle_nested_sum(h, c) for c in cubes])
        assert got.tobytes() == want.tobytes()

    def test_non_finite_power_on_zero_slabs_raises(self, rng):
        # g_11^2 overflows and meets only the zero slab of axis 0; in the
        # whole nested sum it made inf * 0 = nan
        h = random_gains(rng)
        h[0, 0] = 1e200
        c = rng.integers(-15, 16, (2,) * 9)
        c[1] = 0
        with pytest.raises(GenericityError, match="not finite"):
            carrier_sums(h, [c])


class TestGenericity:
    def test_random_channels_pass(self, rng):
        hits = sum(channel_is_generic(random_gains(rng), 1)
                   for _ in range(20))
        assert hits >= 18

    @pytest.mark.parametrize("n", [0, -1, 1.5, True, "1", None])
    def test_depth_must_be_a_positive_int(self, n):
        # on the all-ones channel every carrier collides, yet depths 0 and
        # -1 found no pair to compare and passed it
        h = np.ones((3, 3), dtype=np.complex128)
        for screen in (channel_is_generic, require_generic):
            with pytest.raises(ParameterError, match="n must be a positive"):
                screen(h, n)

    def test_duplicate_carrier_fails(self):
        h = np.ones((3, 3), dtype=np.complex128)
        assert not channel_is_generic(h, 1)
        with pytest.raises(GenericityError):
            require_generic(h, 1)

    @pytest.mark.parametrize("n,draws", [(1, 70), (2, 40), (3, 2)])
    def test_screen_matches_oracle_on_random_channels(self, n, draws):
        # the oracle stops at n = 2; at n = 3 the draws' verdict is stated
        rng = np.random.default_rng(np.random.SeedSequence(606 + n))
        for _ in range(draws):
            h = random_gains(rng)
            want = oracle_channel_is_generic(h, n) if n <= 2 else True
            assert channel_is_generic(h, n) is want

    @pytest.mark.parametrize("values", [
        # a and c collide; b, far from both and small, has a real part
        # between theirs, so a tolerance that averaged in |b| would miss them
        (1 + 100j, 1 + 35e-9, 1 + 70e-9 + 100j),
        (1 + 100j, 1 + 20e-9, 1 + 40e-9 + (100 + 60e-9) * 1j),
        # a and c collide; b shares a's real part
        (1 + 100j, 1 + 0j, 1.00000007 + 100j),
    ], ids=["between", "between-wider", "tie"])
    def test_verdict_does_not_depend_on_order(self, values):
        # the confirm step applies the rule to the pair itself: in every
        # order of the three along an axis, the offsets between a and c
        # collide, and a pair with b does not
        a, b, c = values
        assert abs(c - a) <= GENERIC_TOL * (abs(a) + abs(c)) / 2
        for perm in itertools.permutations(range(3)):
            table = np.array([values[k] for k in perm])
            gap = perm.index(2) - perm.index(0)
            assert lattice._collides(table, (gap,)) is True
            assert lattice._collides(table, (-gap,)) is True
        for pair in ((a, b), (b, c)):
            assert lattice._collides(np.array(pair), (1,)) is False

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_screen_builds_carriers_once(self, monkeypatch, n):
        # one carrier table per screen, on {1..n+1}^9, which pipebench's
        # traced count of screened carriers relies on
        calls = []
        table = lattice.monomial_table

        def count_calls(h, upper):
            out = table(h, upper)
            calls.append((upper, out.size))
            return out

        monkeypatch.setattr(lattice, "monomial_table", count_calls)
        assert channel_is_generic(random_gains(np.random.default_rng(609)), n)
        assert calls == [(n + 1, (n + 1) ** 9)]

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_carrier_fails(self, value):
        h = random_gains(np.random.default_rng(608))
        h[0, 0] = value
        assert channel_is_generic(h, 1) is False

    def test_carriers_that_underflow_to_zero_collide(self):
        # gains of magnitude 1e-8 pass the per-gain check, but at n = 4 the
        # carriers of exponent sum 41 and more underflow to 0, and two zero
        # carriers are equal; the carrier floor refuses them before the
        # search
        rng = np.random.default_rng(611)
        h = 1e-8 * np.exp(2j * np.pi * rng.uniform(size=(3, 3)))
        assert np.count_nonzero(monomial_table(h, 5) == 0) == 715
        assert channel_is_generic(h, 4) is False
        assert oracle_channel_is_generic(h, 4) is False

    @pytest.mark.parametrize("value,verdict", [
        (1e153, True),
        # finite carriers whose magnitude sums overflowed in the tolerance
        (1.2e154, True),
        # h11^2 times the other gains overflows: a non-finite carrier
        (1.3e154, False),
    ])
    def test_carriers_near_float_limit(self, value, verdict):
        # runs under the suite's warnings-as-errors: no overflow warning
        h = random_gains(np.random.default_rng(608))
        h[0, 0] = value
        assert channel_is_generic(h, 1) is verdict

    @pytest.mark.parametrize("values", [
        # a real part whose difference overflows
        (-1e308 + 0j, 1e308 + 0j),
        # equal real parts; the imaginary difference overflows
        (1 + 1.5e308j, 1 - 1.5e308j),
    ])
    def test_overflowing_difference_is_not_close(self, values):
        # as an infinite distance, with no overflow warning (the suite turns
        # warnings into errors)
        table = np.array(values)
        for d in (1, -1):
            assert lattice._collides(table, (d,)) is False

    def test_collides_reads_every_pair_at_the_offset(self):
        # against every pair (s, s - d) of a small table, on tables with one
        # planted collision and on the same tables without it
        def brute(tab, d):
            for s in itertools.product(*map(range, tab.shape)):
                t = tuple(x - y for x, y in zip(s, d))
                if all(0 <= x < m for x, m in zip(t, tab.shape)) and \
                        abs(tab[s] - tab[t]) <= \
                        GENERIC_TOL * (abs(tab[s]) + abs(tab[t])) / 2:
                    return True
            return False

        rng = np.random.default_rng(612)
        for shape in ((4,), (3, 4), (2, 3, 3)):
            offsets = list(itertools.product(*(range(1 - m, m)
                                               for m in shape)))
            for _ in range(4):
                table = complex_awgn(rng, shape)
                s, t = (np.unravel_index(k, shape)
                        for k in rng.choice(table.size, 2, replace=False))
                planted = table.copy()
                planted[s] = planted[t] * (1 + 4e-10j)
                for tab in (table, planted):
                    for d in offsets:
                        assert lattice._collides(tab, d) is brute(tab, d)
                gap = tuple(int(x - y) for x, y in zip(s, t))
                assert lattice._collides(planted, gap) is True

    def test_screen_matches_oracle_on_constructed_channels(self):
        h = random_gains(np.random.default_rng(607))

        def edit(at, value):
            g = h.copy()
            g[at] = value
            return g

        # (channel, depth, verdict or None when only agreement is asserted)
        cases = [
            # (h11/h33)^2 = 1 needs an exponent gap of 2, first at n = 2
            (edit((2, 2), -h[0, 0]), 2, False),
            (edit((2, 2), -h[0, 0]), 1, None),
            (edit((1, 1), h[0, 0] * (1 + 5e-10)), 1, False),
            (edit((1, 1), h[0, 0] * (1 + 1e-7)), 1, True),
            # a cube root of unity needs a gap of 3, first at n = 3
            (edit((1, 1), h[0, 0] * np.exp(2j * np.pi / 3)), 3, False),
            (np.ones((3, 3), dtype=np.complex128), 1, False),
            (edit((1, 2), 0.0), 1, False),
        ]
        # straddle the relative tolerance in magnitude and in phase
        for d in (1e-10, 4e-10, 9.9e-10, 1.01e-9, 2.5e-9, 1e-8):
            cases.append((edit((1, 1), h[0, 0] * (1 + d)), 2, None))
            cases.append((edit((1, 1), h[0, 0] * np.exp(1j * d)), 2, None))
        same = edit((1, 1), h[0, 0])
        for n in (1, 2):
            cases += [
                # real carriers: every imaginary part is zero
                (h.real + 0j, n, True),
                (illustrating_gains(1.25 - 0.5j, h), n, False),
                (same, n, False),
                # purely imaginary gains: half the carriers have real part
                # +0.0 or -0.0; here the collisions come before that run
                (1j * same.imag, n, False),
            ]
        cases.append((1j * h.imag, 1, True))
        for g, n, verdict in cases:
            got = channel_is_generic(g, n)
            # the oracle stops at n = 2, where each case states its verdict
            if n <= 2:
                assert got == oracle_channel_is_generic(g, n)
            assert verdict is None or got == verdict


class TestScreenSearch:
    """The screen's close-pair search on structured channels; CI runs these
    under a virtual-memory limit, so a search that builds every pair in its
    windows at once fails there."""

    @pytest.mark.parametrize("kind,n,verdict", [
        ("imaginary", 3, True), ("all-ones", 4, False),
        ("unit-modulus", 4, True), ("real", 3, True)])
    def test_structured_channel_screened_within_a_second(self, kind, n,
                                                         verdict):
        # equal real parts once made the window quadratic: purely
        # imaginary gains took 831 ms at n = 2 and did not finish at n = 3
        h = random_gains(np.random.default_rng(607))
        h = {"imaginary": 1j * h.imag, "all-ones": np.ones((3, 3)) + 0j,
             "unit-modulus": np.exp(1j * np.angle(h)),
             "real": h.real + 0j}[kind]
        start = time.perf_counter()
        assert channel_is_generic(h, n) is verdict
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def planted(at, ratio):
        # the gain at flat label position `at` is gain 0 times ratio, so the
        # exponent difference with +1 on gain 0 and -1 on `at` gives
        # r = 1 / ratio
        h = random_gains(np.random.default_rng(615)).ravel()
        h[at] = h[0] * ratio
        d = [0] * 9
        d[0], d[at] = 1, -1
        return h.reshape(3, 3), tuple(d)

    # gain 0 is in the first half-set: pair it with one in each half
    @pytest.mark.parametrize("at", [1, 4, 8])
    def test_ratio_in_the_slack_is_found_and_passes(self, monkeypatch, at):
        # GENERIC_TOL < |r - 1| <= GENERIC_TOL * (1 + SEARCH_SLACK): the
        # search finds the pair, and the carriers do not collide
        delta = GENERIC_TOL * (1 + lattice.SEARCH_SLACK / 2)
        h, d = self.planted(at, 1 + delta)
        found = []
        collides = lattice._collides

        def record(table, offset):
            found.append(offset)
            return collides(table, offset)

        monkeypatch.setattr(lattice, "_collides", record)
        assert channel_is_generic(h, 1) is True
        assert oracle_channel_is_generic(h, 1) is True
        assert d in found or tuple(-x for x in d) in found

    @pytest.mark.parametrize("at", [1, 4, 8])
    def test_ratio_within_tolerance_is_refused(self, at):
        h, _ = self.planted(at, 1 + GENERIC_TOL / 2)
        assert channel_is_generic(h, 1) is False
        assert oracle_channel_is_generic(h, 1) is False

    def test_carrier_floor(self):
        # unit-modulus gains times 2^e at n = 4: the smallest carrier is
        # 2^(45 e), refused below 2^-900 though no carrier underflows
        h = np.exp(2j * np.pi * np.random.default_rng(613).uniform(
            size=(3, 3)))
        assert channel_is_generic(2.0 ** -19.9 * h, 4) is True
        assert channel_is_generic(2.0 ** -20.1 * h, 4) is False

    def test_half_products_beyond_float_range_refused(self):
        # finite carriers (up to 2^1000) whose first half-set spans
        # 4 (200 + 3 * 29) bits: g_11^4 / (g_12 g_13 g_21)^4 overflows at
        # n = 4; at n = 3 the same gains are screened
        h = np.exp(2j * np.pi * np.random.default_rng(614).uniform(
            size=(3, 3)))
        h[0, 0] *= 2.0 ** 200
        h[0, 1:] *= 2.0 ** -29
        h[1, 0] *= 2.0 ** -29
        assert channel_is_generic(h, 3) is True
        assert channel_is_generic(h, 4) is False


class TestObservations:
    def test_exact_observations_match_bruteforce(self, rng):
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
        got = exact_observations(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(got[i], want[i])

    def test_exact_observations_match_bruteforce_depth2(self, rng):
        streams = tuple(SubstreamTable.random(i, 2, 3, rng) for i in (1, 2, 3))
        got = exact_observations(streams)
        want = oracle_observations(streams)
        for i in range(3):
            np.testing.assert_array_equal(got[i], want[i])

    def test_stream_order_enforced(self, rng):
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (2, 1, 3))
        with pytest.raises(ParameterError):
            stream_params(streams)

    def test_physical_receive_equals_integer_reconstruction(self, rng):
        # y_i from complex superposition == carrier-weighted integer table
        streams = tuple(SubstreamTable.random(i, 1, 5, rng) for i in (1, 2, 3))
        h = random_gains(rng)
        gamma = 1e3                         # any common transmit scale
        x = np.array([gamma * np.sum(monomial_table(h, 1) * s.values)
                      for s in streams])
        y = h @ x
        obs = exact_observations(streams)
        for i in range(3):
            recon = gamma * np.sum(monomial_table(h, 2) * obs[i])
            assert abs(y[i] - recon) <= 1e-9 * max(abs(y[i]), 1.0)
