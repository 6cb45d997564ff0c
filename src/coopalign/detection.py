"""Receiver-side detection: an exhaustive nearest-point ML detector for
small reduced instances of the lattice combinations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from .errors import MLBudgetError, ParameterError
from .indices import COORD_NAMES
from .lattice import _as_gain_array, complex_awgn


@dataclass(frozen=True)
class ReducedSpec:
    """A cut-down instance on a subset of lattice coordinates.

    Labels range over {1..n_red+1} on the active coordinates only and the
    integer combination per label lives in {-3*q_red..3*q_red}, so the
    candidate count (2*3*q_red+1)^(n_red+1)^k stays enumerable.
    """

    active_coords: tuple
    n_red: int
    q_red: int
    ml_budget: int = 10 ** 6

    def __post_init__(self):
        coords = tuple(tuple(c) for c in self.active_coords)
        if not coords or any(c not in COORD_NAMES for c in coords):
            raise ParameterError(f"bad active coordinate set: {self.active_coords}")
        if len(set(coords)) != len(coords):
            raise ParameterError("duplicate active coordinates")
        for name in ("n_red", "q_red", "ml_budget"):
            v = getattr(self, name)
            if type(v) is not int:
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.n_red < 1 or self.q_red < 1:
            raise ParameterError("n_red and q_red must be >= 1")
        object.__setattr__(self, "active_coords", coords)

    @property
    def table_size(self) -> int:
        return (self.n_red + 1) ** len(self.active_coords)

    @property
    def alphabet_size(self) -> int:
        return 6 * self.q_red + 1

    @property
    def n_candidates(self) -> int:
        return self.alphabet_size ** self.table_size

    def labels(self):
        """Active-coordinate tuples in canonical (lexicographic) order."""
        return list(product(range(1, self.n_red + 2),
                            repeat=len(self.active_coords)))


def reduced_carriers(spec: ReducedSpec, channel) -> np.ndarray:
    """Carrier value per reduced label: product of active gains' powers."""
    h = _as_gain_array(channel)
    out = np.empty(spec.table_size, dtype=np.complex128)
    for k, lab in enumerate(spec.labels()):
        v = 1.0 + 0.0j
        for (i, j), e in zip(spec.active_coords, lab):
            v *= h[i - 1, j - 1] ** e
        out[k] = v
    return out


def reduced_signal(table, spec: ReducedSpec, channel, gamma) -> complex:
    """Noiseless receive sample for one reduced combination table."""
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (spec.table_size,):
        raise ParameterError("table length must match the reduced label count")
    return complex(gamma * np.sum(reduced_carriers(spec, channel) * table))


def candidate_tables(spec: ReducedSpec) -> np.ndarray:
    """All integer tables in lexicographic order, one row per candidate.

    Row r is the mixed-radix expansion of r with the first label as the most
    significant digit, digits mapped to {-3q..3q} ascending: exactly the
    ordering np.argmin needs for deterministic lexicographic tie-breaks.
    """
    if spec.n_candidates > spec.ml_budget:
        raise MLBudgetError(
            f"{spec.n_candidates} candidates exceed budget {spec.ml_budget}")
    m, A = spec.table_size, spec.alphabet_size
    idx = np.arange(spec.n_candidates, dtype=np.int64)
    out = np.empty((spec.n_candidates, m), dtype=np.int64)
    for pos in range(m - 1, -1, -1):
        out[:, pos] = idx % A - 3 * spec.q_red
        idx //= A
    return out


def ml_detect_reduced(y, spec: ReducedSpec, channel, gamma):
    """Exhaustive nearest-point detection at transmit scale gamma."""
    return ml_detect_reduced_batch(np.asarray([y]), spec, channel, gamma)[0]


def ml_detect_reduced_batch(ys, spec: ReducedSpec, channel, gamma):
    """Vectorised variant: one detected table per observation sample."""
    cands = candidate_tables(spec)
    points = gamma * (cands @ reduced_carriers(spec, channel))
    picks = _kernels.nearest_point(np.asarray(ys, dtype=np.complex128), points)
    return cands[picks]


def reduced_power_scale(spec: ReducedSpec, channel, P) -> float:
    """Transmit scale meeting average power P for uniform random tables."""
    var_sym = (spec.alphabet_size ** 2 - 1) / 12.0
    energy = var_sym * np.sum(np.abs(reduced_carriers(spec, channel)) ** 2)
    return math.sqrt(P / energy)


def reduced_error_sweep(spec: ReducedSpec, channel, P_grid, trials, rng_seed,
                        noisy=True):
    """Monte Carlo detection-error rate per power level.

    Draws uniform tables, transmits at the power-matched scale, detects with
    the exhaustive detector and counts whole-table mismatches.  Streams are
    split per power level from one root seed.
    """
    rates = []
    for k, P in enumerate(P_grid):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(k,)))
        gamma = reduced_power_scale(spec, channel, P)
        tables = rng.integers(-3 * spec.q_red, 3 * spec.q_red + 1,
                              size=(trials, spec.table_size), dtype=np.int64)
        carriers = reduced_carriers(spec, channel)
        ys = gamma * (tables @ carriers)
        if noisy:
            ys = ys + complex_awgn(rng, trials)
        det = ml_detect_reduced_batch(ys, spec, channel, gamma)
        err = np.any(det != tables, axis=1)
        rates.append(float(np.mean(err)))
    return np.asarray(rates)
