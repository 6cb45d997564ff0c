"""Receiver-side detection: an exhaustive nearest-point ML detector for
small reduced instances of the lattice combinations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from .errors import (MLBudgetError, ParameterError, require_count,
                     require_positive_real, require_seed)
from .indices import COORD_NAMES
from .lattice import complex_awgn, gain_matrix


@dataclass(frozen=True)
class ReducedSpec:
    """A cut-down instance on a subset of lattice coordinates.

    Labels range over {1..n_red+1} on the active coordinates only and the
    integer combination per label lives in {-3*q_red..3*q_red}, so the
    candidate count (2*3*q_red+1)^(n_red+1)^k stays enumerable: a spec
    whose count exceeds ml_budget raises MLBudgetError when it is made.
    """

    active_coords: tuple
    n_red: int
    q_red: int
    ml_budget: int = 10 ** 6

    def __post_init__(self):
        try:
            coords = tuple(tuple(c) for c in self.active_coords)
        except TypeError:
            raise ParameterError("active_coords must be a sequence of coordinate "
                                 f"pairs, got {self.active_coords!r}") from None
        if not coords or any(c not in COORD_NAMES for c in coords):
            raise ParameterError(f"bad active coordinate set: {self.active_coords}")
        if len(set(coords)) != len(coords):
            raise ParameterError("duplicate active coordinates")
        require_count(n_red=self.n_red, q_red=self.q_red, ml_budget=self.ml_budget)
        object.__setattr__(self, "active_coords", coords)
        # with at least 7 symbols a table longer than ml_budget.bit_length()
        # is over budget, so the count is computed only for short tables
        m, budget = self.table_size, self.ml_budget
        if m > budget.bit_length() or self.n_candidates > budget:
            raise MLBudgetError(f"{self.alphabet_size}^{m} candidates exceed "
                                f"budget {budget}")

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


def reduced_carriers(spec: ReducedSpec, h) -> np.ndarray:
    """Carrier value per reduced label: product of active gains' powers."""
    out = np.empty(spec.table_size, dtype=np.complex128)
    for k, lab in enumerate(spec.labels()):
        v = 1.0 + 0.0j
        for (i, j), e in zip(spec.active_coords, lab):
            v *= h[i - 1, j - 1] ** e
        out[k] = v
    return out


def candidate_tables(spec: ReducedSpec) -> np.ndarray:
    """All integer tables in lexicographic order, one row per candidate.

    Row r is the mixed-radix expansion of r with the first label as the most
    significant digit, digits mapped to {-3q..3q} ascending: exactly the
    ordering np.argmin needs for deterministic lexicographic tie-breaks.
    """
    m, A = spec.table_size, spec.alphabet_size
    digits = np.arange(-3 * spec.q_red, 3 * spec.q_red + 1, dtype=np.int64)
    out = np.empty((spec.n_candidates, m), dtype=np.int64)
    # the rows as an A x ... x A grid: digit pos varies along grid axis pos
    grid = out.reshape((A,) * m + (m,))
    for pos in range(m):
        grid[..., pos] = digits.reshape((A,) + (1,) * (m - 1 - pos))
    return out


def reduced_error_sweep(spec: ReducedSpec, h, P_grid, trials, rng_seed,
                        noisy=True):
    """Monte Carlo detection-error rate per power level.

    Builds the carriers and the candidate set once for the sweep.  At each
    power level it draws `trials` uniform tables, transmits them at the
    power-matched scale gamma (with unit complex noise when `noisy`),
    detects each sample by exhaustive nearest-point search over the
    candidates scaled by gamma, and counts whole-table mismatches.  Streams
    are split per power level from one root seed.  `trials` is a count,
    `rng_seed` a seed, every P a positive real, `noisy` a bool and h 3x3.
    """
    h = gain_matrix(h)
    require_count(trials=trials)
    # each power level's draw is one (trials, table_size) int64 array
    most = np.iinfo(np.intp).max // (8 * spec.table_size)
    if trials > most:
        raise ParameterError(f"trials must be at most {most} for a "
                             f"{spec.table_size}-label table, got {trials!r}")
    require_seed(rng_seed)
    if type(noisy) is not bool:
        raise ParameterError(f"noisy must be a bool, got {noisy!r}")
    P_grid = list(P_grid)
    for P in P_grid:
        require_positive_real(P, "every P in P_grid")
    cands = candidate_tables(spec)
    carriers = reduced_carriers(spec, h)
    # the unit-scale receive points, sorted once for every power point, and
    # the average energy of a uniform random table at unit scale
    points = _kernels.Candidates(cands @ carriers)
    energy = (spec.alphabet_size ** 2 - 1) / 12.0 \
        * np.sum(np.hypot(carriers.real, carriers.imag) ** 2)
    rates = []
    for k, P in enumerate(P_grid):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(k,)))
        gamma = math.sqrt(P / energy)
        try:
            tables = rng.integers(-3 * spec.q_red, 3 * spec.q_red + 1,
                                  size=(trials, spec.table_size),
                                  dtype=np.int64)
        except MemoryError:
            raise ParameterError(
                f"trials = {trials!r} needs a draw of {trials} x "
                f"{spec.table_size} int64 symbols, more than numpy could "
                "allocate") from None
        ys = gamma * (tables @ carriers)
        if noisy:
            ys = ys + complex_awgn(rng, trials)
        det = cands[_kernels.nearest_point(ys, points, gamma)]
        err = np.any(det != tables, axis=1)
        rates.append(float(np.mean(err)))
    return np.asarray(rates)
