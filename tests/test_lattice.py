import itertools

import numpy as np
import pytest

from conftest import (dense_cube_sum, narrowest_cube_dtype,
                      oracle_channel_is_generic, oracle_monomial,
                      oracle_observations)
from coopalign import lattice
from coopalign.errors import GenericityError, ParameterError, SymbolRangeError
from coopalign.lattice import (SubstreamTable, carrier_sums,
                               channel_is_generic, complex_awgn, cube_dtype,
                               exact_observations, illustrating_gains,
                               monomial_table, q_limit, random_gains,
                               require_generic)


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


class TestCarrierSums:
    # (u, leaf): the default leaf; a cube of exactly one leaf; one element
    # past a leaf, so the root splits once; small leaves, so the tree is
    # deep and leaves start inside trailing-axis blocks
    @pytest.mark.parametrize("u,leaf", [
        (1, None), (2, None), (3, None), (4, None), (5, None),
        (2, 2 ** 9), (3, 3 ** 9), (4, 4 ** 9), (4, 4 ** 9 - 1),
        (5, 5 ** 9 - 1), (2, 64), (3, 1000), (4, 4099), (5, 2 ** 12)])
    def test_bytes_equal_dense_sum(self, monkeypatch, rng, u, leaf):
        if leaf is not None:
            monkeypatch.setattr(lattice, "SUM_LEAF", leaf)
        for _ in range(2):
            h = np.linalg.inv(random_gains(rng))
            cubes = [rng.integers(-15, 16, (u,) * 9) for _ in range(3)]
            want = np.array([dense_cube_sum(h, u, c) for c in cubes])
            assert carrier_sums(h, cubes).tobytes() == want.tobytes()

    def test_zero_cubes_sum_to_positive_zero(self, monkeypatch, rng):
        # np.sum starts from +0.0, so a zero total is +0.0 in both parts
        monkeypatch.setattr(lattice, "SUM_LEAF", 64)
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

    def test_overflow_between_leaves_raises(self, monkeypatch):
        # carriers G, G^2, G^3 with G^3 = 1e305, each on 3^8 labels: every
        # 64-term leaf sum is finite, the tree's upper sums are not
        monkeypatch.setattr(lattice, "SUM_LEAF", 64)
        h = np.ones((3, 3), dtype=np.complex128)
        h[0, 0] = 10 ** (305 / 3)
        cubes = [np.full((3,) * 9, 15, dtype=np.int64)]
        with pytest.raises(GenericityError, match="sum is not finite"):
            carrier_sums(h, cubes)


class TestGenericity:
    def test_random_channels_pass(self, rng):
        hits = sum(channel_is_generic(random_gains(rng), 1)
                   for _ in range(20))
        assert hits >= 18

    def test_duplicate_carrier_fails(self):
        h = np.ones((3, 3), dtype=np.complex128)
        assert not channel_is_generic(h, 1)
        with pytest.raises(GenericityError):
            require_generic(h, 1)

    @pytest.mark.parametrize("n,draws", [(1, 70), (2, 40), (3, 2)])
    def test_screen_matches_oracle_on_random_channels(self, n, draws):
        rng = np.random.default_rng(np.random.SeedSequence(606 + n))
        for _ in range(draws):
            h = random_gains(rng)
            assert channel_is_generic(h, n) == oracle_channel_is_generic(h, n)

    @pytest.mark.parametrize("values,verdict", [
        # b lies outside the real-part window that a's sorted neighbour c
        # sets, so (a, b) is never compared, though within tolerance
        ((1 + 100j, 1 + 35e-9, 1 + 70e-9 + 100j), True),
        # b lies inside that window; the pair tolerance then uses |a| and |b|
        ((1 + 100j, 1 + 20e-9, 1 + 40e-9 + (100 + 60e-9) * 1j), False),
    ])
    def test_window_comes_from_sorted_neighbour(self, monkeypatch, values,
                                                verdict):
        import conftest
        import coopalign.lattice as lattice

        def table(h, upper):
            return np.array(values)

        monkeypatch.setattr(lattice, "monomial_table", table)
        monkeypatch.setattr(conftest, "monomial_table", table)
        h = np.ones((3, 3), dtype=np.complex128)
        assert channel_is_generic(h, 1) == verdict
        assert oracle_channel_is_generic(h, 1) == verdict

    def test_exact_tie_takes_stable_order(self, monkeypatch):
        import conftest
        import coopalign.lattice as lattice

        # a and b have bit-equal real parts.  In table order (a, b, c) the
        # window of a closes before c, so the verdict is True; in the order
        # (b, a, c) the pair (a, c) is compared and lies within tolerance.
        ties = [1 + 100j, 1 + 0j, 1.00000007 + 100j]
        # descending filler far from the ties; the default sort then puts
        # b before a, so only the stable fallback gives the table order
        values = np.array([*np.arange(41.0, 9.0, -1.0), *ties])
        a = len(values) - 3
        order = list(np.argsort(values.real))
        assert order.index(a) > order.index(a + 1)

        def table(h, upper):
            return values.copy()

        monkeypatch.setattr(lattice, "monomial_table", table)
        monkeypatch.setattr(conftest, "monomial_table", table)
        h = np.ones((3, 3), dtype=np.complex128)
        assert channel_is_generic(h, 1) is True
        assert oracle_channel_is_generic(h, 1) is True

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_carrier_fails(self, value):
        h = random_gains(np.random.default_rng(608))
        h[0, 0] = value
        assert channel_is_generic(h, 1) is False

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
        # adjacent real parts whose gap overflows
        (-1e308 + 0j, 1e308 + 0j),
        # equal real parts, so the pair is compared; b - a overflows
        (1 + 1.5e308j, 1 - 1.5e308j),
    ])
    def test_overflowing_difference_is_not_close(self, monkeypatch, values):
        import coopalign.lattice as lattice

        monkeypatch.setattr(lattice, "monomial_table",
                            lambda h, upper: np.array(values))
        h = np.ones((3, 3), dtype=np.complex128)
        assert channel_is_generic(h, 1) is True

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
        for g, n, verdict in cases:
            got = channel_is_generic(g, n)
            assert got == oracle_channel_is_generic(g, n)
            assert verdict is None or got == verdict


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
            exact_observations(streams)

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
