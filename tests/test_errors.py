"""The input rules in coopalign.errors, through every entry point that
applies them: a count, a seed, a finite real, gamma, a power grid, a load
per power point and the sweep's gains and gamma; and the one intake of
three users' streams and of tx-coop's built cubes.

Each row of the table is (caller, argument, bad value, error class, field
named in the message).  Library calls raise ParameterError and configs
ConfigError; either way the message names the field.
"""

import math

import numpy as np
import pytest

from coopalign import _kernels
from coopalign.detection import ReducedSpec, reduced_error_sweep
from coopalign.errors import ConfigError, ParameterError
from coopalign.harness import ExperimentConfig
from coopalign.lattice import (SubstreamTable, channel_is_generic,
                               illustrating_gains, random_gains)
from coopalign.rx_protocol import run_rx_protocol
from coopalign.tradeoff import (RateReport, centralized_report,
                                decode_coefficients, illustrating_example,
                                lemma1_check, normalized_bound_slope,
                                optimal_tradeoff, rx_sum_upper_bound,
                                tdma_report, tx_sum_upper_bound)
from coopalign.tx_protocol import run_tx_backhaul, verify_diagonalization

H = random_gains(np.random.default_rng(5))
GRID = [1e2, 1e3, 1e4, 1e5]
SPEC = ReducedSpec(((1, 1), (2, 2)), 1, 1)
STREAMS = tuple(SubstreamTable.random(i, 1, 5, np.random.default_rng(i))
                for i in (1, 2, 3))
BUILT = run_tx_backhaul(STREAMS).built
CANDIDATES = _kernels.Candidates(np.array([0.5 + 0.5j, 1.0 + 0j, -1.0 + 1j]))
CUBE = np.zeros((1,) * 9, dtype=np.int64)


def _config(**kw):
    return ExperimentConfig(**dict(
        {"scheme": "illustrating-example", "N": 1, "trials": 1}, **kw))


CALLS = {
    ("config", "N"): lambda v: _config(N=v),
    ("config", "trials"): lambda v: _config(trials=v),
    ("config", "q"): lambda v: _config(q=v),
    ("config", "rng_seed"): lambda v: _config(rng_seed=v),
    ("config", "eps"): lambda v: _config(eps=v),
    ("config", "gamma"): lambda v: _config(gamma=v),
    ("config", "P_grid"): lambda v: _config(P_grid=v),
    ("config", "ml_budget"): lambda v: _config(reduced_spec={
        "active_coords": [[1, 1]], "n_red": 1, "q_red": 1, "ml_budget": v}),
    ("SubstreamTable", "n"): lambda v: SubstreamTable(1, v, 5, CUBE),
    ("SubstreamTable", "q"): lambda v: SubstreamTable(1, 1, v, CUBE),
    ("channel_is_generic", "n"): lambda v: channel_is_generic(H, v),
    ("ReducedSpec", "n_red"): lambda v: ReducedSpec(((1, 1),), v, 1),
    ("ReducedSpec", "q_red"): lambda v: ReducedSpec(((1, 1),), 1, v),
    ("ReducedSpec", "ml_budget"): lambda v: ReducedSpec(((1, 1),), 1, 1, v),
    ("reduced_error_sweep", "trials"):
        lambda v: reduced_error_sweep(SPEC, H, [1e4], v, 0),
    ("reduced_error_sweep", "rng_seed"):
        lambda v: reduced_error_sweep(SPEC, H, [1e4], 4, v),
    ("reduced_error_sweep", "P_grid"):
        lambda v: reduced_error_sweep(SPEC, H, [v], 4, 0),
    ("reduced_error_sweep", "h"):
        lambda v: reduced_error_sweep(SPEC, np.full((3, 3), v), [1e4], 4, 0),
    ("reduced_error_sweep", "gamma"):
        lambda v: reduced_error_sweep(SPEC, np.full((3, 3), v[0]), [v[1]], 4,
                                      0),
    ("run_rx_protocol", "streams"): lambda v: run_rx_protocol(STREAM_SETS[v]),
    ("run_tx_backhaul", "streams"): lambda v: run_tx_backhaul(STREAM_SETS[v]),
    ("verify_diagonalization", "streams"):
        lambda v: verify_diagonalization(STREAM_SETS[v], BUILT, H, 1e6),
    ("verify_diagonalization", "built"):
        lambda v: verify_diagonalization(STREAMS, BUILT_SETS[v], H, 1e6),
    ("lemma1_check", "K"): lambda v: lemma1_check(v, 2, trials=2),
    ("lemma1_check", "n"): lambda v: lemma1_check(2, v, trials=2),
    ("lemma1_check", "trials"): lambda v: lemma1_check(2, 2, trials=v),
    ("lemma1_check", "rng_seed"):
        lambda v: lemma1_check(2, 2, trials=2, rng_seed=v),
    ("verify_diagonalization", "P"):
        lambda v: verify_diagonalization(STREAMS, BUILT, H, v),
    ("nearest_point", "gamma"):
        lambda v: _kernels.nearest_point(np.array([0.1 + 0j]), CANDIDATES, v),
    ("illustrating_gains", "gamma"): lambda v: illustrating_gains(v, H),
    ("decode_coefficients", "gamma"): lambda v: decode_coefficients(v, H),
    ("illustrating_example", "gamma"):
        lambda v: illustrating_example(v, H, GRID),
    ("RateReport", "P_grid"):
        lambda v: RateReport(v, np.zeros((4, 3)), np.zeros(4)),
    ("normalized_bound_slope", "P_grid"):
        lambda v: normalized_bound_slope(rx_sum_upper_bound, H, 0.5, v),
    ("normalized_bound_slope", "alpha"):
        lambda v: normalized_bound_slope(rx_sum_upper_bound, H, v, GRID),
    ("rx_sum_upper_bound", "Rb_bar"): lambda v: rx_sum_upper_bound(H, GRID, v),
    ("tx_sum_upper_bound", "Rb_bar"): lambda v: tx_sum_upper_bound(H, GRID, v),
    ("optimal_tradeoff", "alpha"): optimal_tradeoff,
}

COUNT = [True, 1.5, 0, -1, "3", np.int64(3)]
SEED = [True, 1.5, -1, "3", np.int64(3), 2 ** 64]
POSITIVE_REAL = [True, "3", 0, -1, 10 ** 400]
GAMMA = [True, "3", 0, 10 ** 400]
ALPHA = [True, math.nan, math.inf, -math.inf, 10 ** 400, "abc", -0.5]
# SPEC's draw is (trials, 4) int64: 2^58 trials take 2^63 bytes, one past
# the largest array numpy can hold; 2^58 - 1 take 8 EiB less 32 B, an
# allocation that fails before any memory is touched
TOO_MANY_TRIALS = [2 ** 58, 2 ** 62]
UNALLOCATABLE_TRIALS = [2 ** 58 - 1]
GRIDS = [0, [1e8, 1e6, 1e4, 1e2], [1e2, 1e2, 1e4, 1e6], [1e2, 1e3, 1e4],
         [-1, 1e3, 1e4, 1e5], [1e2, 1e3, 1e4, 10 ** 400]]
# one load per point of GRID: nan, negative, the wrong shape, or no number
LOADS = [math.nan, -1.0, [0.0, 1.0, 2.0, -0.5], [1.0, 2.0, 3.0, math.nan],
         [1.0, 2.0], np.zeros((4, 1)), 0.0, "abc", 10 ** 400]
# gains whose reduced carriers all vanish or underflow (energy 0) or
# overflow (not finite); the rule raises no warning either way
SWEEP_GAINS = [0.0, 1e-100, 1e-200, 1e200, math.inf, math.nan]
# (all nine gains, P) whose reduced energy is normal but P / energy
# overflows, so gamma = sqrt(P / energy) is inf
SWEEP_GAMMA = [(1e-77, 1e4), (1e-76, 1e10)]
# anything but three SubstreamTables in user order of one depth and width,
# by name
STREAM_SETS = {
    "empty": [], "None": None, "reversed": STREAMS[::-1], "two": STREAMS[:2],
    "four": STREAMS + STREAMS[:1], "arrays": tuple(s.values for s in STREAMS),
    "depths": STREAMS[:2] + (SubstreamTable.random(3, 2, 5,
                                                   np.random.default_rng(3)),)}
# anything but three (N+1,)^9 cubes, here (2,)^9, by name
BUILT_SETS = {
    "None": None, "two": BUILT[:2], "four": BUILT + BUILT[:1],
    "streams": tuple(s.values for s in STREAMS),
    "lists": [c.tolist() for c in BUILT]}


def _rows(error, sites, values):
    return [(caller, arg, v, error, field)
            for caller, arg, field in sites for v in values]


ROWS = (
    _rows(ConfigError, [("config", "N", "N"), ("config", "trials", "trials"),
                        ("config", "q", "q"),
                        ("config", "ml_budget", "ml_budget")], COUNT)
    + _rows(ParameterError, [
        ("SubstreamTable", "n", "n"), ("SubstreamTable", "q", "q"),
        ("channel_is_generic", "n", "n"), ("ReducedSpec", "n_red", "n_red"),
        ("ReducedSpec", "q_red", "q_red"),
        ("ReducedSpec", "ml_budget", "ml_budget"),
        ("reduced_error_sweep", "trials", "trials"),
        ("lemma1_check", "K", "K"), ("lemma1_check", "n", "n"),
        ("lemma1_check", "trials", "trials")], COUNT)
    + _rows(ParameterError, [("reduced_error_sweep", "trials", "trials")],
            TOO_MANY_TRIALS + UNALLOCATABLE_TRIALS)
    + _rows(ConfigError, [("config", "rng_seed", "rng_seed")], SEED)
    + _rows(ParameterError, [("reduced_error_sweep", "rng_seed", "rng_seed"),
                             ("lemma1_check", "rng_seed", "rng_seed")], SEED)
    + _rows(ConfigError, [("config", "eps", "eps")],
            [True, "3", 10 ** 400, math.nan])
    + _rows(ParameterError, [("reduced_error_sweep", "P_grid", "P_grid"),
                             ("verify_diagonalization", "P", "P"),
                             ("nearest_point", "gamma", "gamma")],
            POSITIVE_REAL)
    + _rows(ParameterError, [("optimal_tradeoff", "alpha", "alpha"),
                             ("normalized_bound_slope", "alpha", "alpha")],
            ALPHA)
    + _rows(ParameterError, [("rx_sum_upper_bound", "Rb_bar", "Rb_bar"),
                             ("tx_sum_upper_bound", "Rb_bar", "Rb_bar")], LOADS)
    + _rows(ParameterError, [("reduced_error_sweep", "h", "h")], SWEEP_GAINS)
    + _rows(ParameterError, [("reduced_error_sweep", "gamma", "P and h")],
            SWEEP_GAMMA)
    + _rows(ParameterError, [("run_rx_protocol", "streams", "streams"),
                             ("run_tx_backhaul", "streams", "streams"),
                             ("verify_diagonalization", "streams", "streams")],
            list(STREAM_SETS))
    + _rows(ParameterError, [("verify_diagonalization", "built", "built")],
            list(BUILT_SETS))
    + _rows(ConfigError, [("config", "gamma", "gamma")], GAMMA)
    + _rows(ParameterError, [("illustrating_gains", "gamma", "gamma")],
            GAMMA + [math.nan, complex(math.nan, 0), math.inf])
    + _rows(ParameterError, [("decode_coefficients", "gamma", "gamma"),
                             ("illustrating_example", "gamma", "gamma")],
            GAMMA)
    + _rows(ConfigError, [("config", "P_grid", "P_grid")],
            GRIDS[1:] + [["3", 1e3, 1e4, 1e5]])
    + _rows(ParameterError, [("RateReport", "P_grid", "P_grid"),
                             ("normalized_bound_slope", "P_grid", "P_grid")],
            GRIDS)
)


def _id(row):
    caller, arg, value, _, _ = row
    return f"{caller}-{arg}-{repr(value)[:24]}"


@pytest.mark.parametrize("caller, argument, value, error, field", ROWS,
                         ids=map(_id, ROWS))
def test_rule_refuses_and_names_the_field(caller, argument, value, error,
                                          field):
    with pytest.raises(error) as exc:
        CALLS[caller, argument](value)
    assert type(exc.value) is error
    assert field in str(exc.value)


@pytest.mark.parametrize("gamma", [True, math.nan, math.inf, 0,
                                   complex(math.nan, 0)],
                         ids=["True", "nan", "inf", "0", "nan+0j"])
@pytest.mark.parametrize("call", [
    lambda g: decode_coefficients(g, H),
    lambda g: illustrating_example(g, H, GRID),
], ids=["decode", "example"])
def test_gamma_must_be_a_nonzero_finite_number(call, gamma):
    # True ran as gamma 1, nan and nan + 0j gave nan rates, and inf was
    # refused as degenerate gains (GenericityError)
    with pytest.raises(ParameterError, match="gamma"):
        call(gamma)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, "abc"],
                         ids=["1e400", "-1e400", "abc"])
@pytest.mark.parametrize("call, field", [
    (lambda v: verify_diagonalization(STREAMS, BUILT, H, v), "P"),
    (lambda v: _kernels.nearest_point(np.array([0.1 + 0j]), CANDIDATES, v),
     "gamma"),
    (lambda v: reduced_error_sweep(SPEC, H, [v], 4, 0), "P_grid"),
    (lambda v: tdma_report(H, [1e2, 1e3, 1e4, v]), "P"),
    (lambda v: centralized_report(H, [1e2, 1e3, 1e4, v]), "P"),
    (lambda v: rx_sum_upper_bound(H, v, 0.0), "P"),
    (lambda v: tx_sum_upper_bound(H, v, 0.0), "P"),
], ids=["verify", "nearest", "sweep", "tdma", "centralized", "rx-bound",
        "tx-bound"])
def test_values_numpy_cannot_make_floats_are_refused(call, field, value):
    # an int beyond float range raised a bare OverflowError, from
    # math.isfinite or from np.asarray(P, dtype=float), and a string that
    # is no number a bare ValueError from the latter
    with pytest.raises(ParameterError, match=field):
        call(value)


@pytest.mark.parametrize("P_vec", [
    -1.0, math.nan, math.inf, [1.0, -1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]],
    "abc", 10 ** 400], ids=["-1", "nan", "inf", "negative-entry", "3-of-2",
                            "2-D", "abc", "1e400"])
def test_lemma1_refuses_bad_powers(P_vec):
    # -1 and nan reported all_passed after a RuntimeWarning, and a list of
    # the wrong length raised a bare ValueError
    with pytest.raises(ParameterError, match="P_vec"):
        lemma1_check(K=2, n=2, P_vec=P_vec, trials=3)


@pytest.mark.parametrize("P_vec", [0.0, [0.0], [1.0], [1.0, 2.0]])
def test_lemma1_admits_one_power_or_k(P_vec):
    assert lemma1_check(K=2, n=2, P_vec=P_vec, trials=3).all_passed


@pytest.mark.parametrize("bound", [rx_sum_upper_bound, tx_sum_upper_bound])
def test_an_infinite_load_gives_an_infinite_bound(bound):
    # alpha * log2(P) past the float range is inf: a true, if empty, bound,
    # which bounds-only reports as a failed trial naming dof
    got = bound(H, GRID, [0.0, 1.0, 2.0, math.inf])
    assert np.isfinite(got[:3]).all() and got[3] == math.inf
