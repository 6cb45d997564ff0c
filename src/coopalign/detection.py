"""Receiver-side detection: an exhaustive nearest-point ML detector for
small reduced instances of the lattice combinations.  Its candidates are a
digit grid, one digit in {-3q..3q} per carrier, first label most significant:
their points are built on it with no BLAS, and picks are scored by index."""

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
    gains = [h[i - 1, j - 1] for i, j in spec.active_coords]
    return np.array([math.prod(g ** e for g, e in zip(gains, lab))
                     for lab in spec.labels()], dtype=np.complex128)


def grid_points(spec: ReducedSpec, carriers) -> np.ndarray:
    """The unit-scale point sum_k t_k c_k of every table t, at t's grid
    index: one carrier's digits added to every point so far, per carrier."""
    v = np.arange(-3 * spec.q_red, 3 * spec.q_red + 1, dtype=float)
    base = v * carriers[0]
    for c in carriers[1:]:
        base = (base[:, None] + v * c).ravel()
    return base


def reduced_error_sweep(spec: ReducedSpec, h, P_grid, trials, rng_seed,
                        noisy=True):
    """Monte Carlo detection-error rate per power level.

    Builds the carriers and the candidate points once for the sweep.  At
    each power level it draws `trials` uniform tables, sends them at the
    power-matched scale gamma (with unit complex noise when `noisy`), and
    counts the picks of the nearest point scaled by gamma that are not the
    table sent.  Streams are split per power level from one root seed.
    `trials` is a count, `rng_seed` a seed, every P a positive real, `noisy`
    a bool, and h 3x3 with finite reduced carriers of positive normal energy
    that give every P a finite gamma.
    """
    h = gain_matrix(h)
    require_count(trials=trials)
    m, q3 = spec.table_size, 3 * spec.q_red
    # each power level's draw is one (trials, m) int64 array
    most = np.iinfo(np.intp).max // (8 * m)
    if trials > most:
        raise ParameterError(f"trials must be at most {most} for a {m}-label "
                             f"table, got {trials!r}")
    require_seed(rng_seed)
    if type(noisy) is not bool:
        raise ParameterError(f"noisy must be a bool, got {noisy!r}")
    P_grid = list(P_grid)
    for P in P_grid:
        require_positive_real(P, "every P in P_grid")
    # the average energy of a uniform random table at unit scale
    with np.errstate(over="ignore", invalid="ignore"):
        carriers = reduced_carriers(spec, h)
        energy = float((spec.alphabet_size ** 2 - 1) / 12.0
                       * np.sum(np.hypot(carriers.real, carriers.imag) ** 2))
    if not np.finfo(float).tiny <= energy < math.inf:
        raise ParameterError(f"h must give finite reduced carriers with a "
                             f"positive normal energy, got energy {energy!r}")
    # P / energy can overflow though the energy is normal
    gammas = [math.sqrt(float(P) / energy) for P in P_grid]
    for P, gamma in zip(P_grid, gammas):
        if gamma == math.inf:
            raise ParameterError(f"P and h must give a finite gamma = "
                                 f"sqrt(P / energy), got P = {P!r} and "
                                 f"energy {energy!r}")
    # the unit-scale points, sorted once, and the place values of their grid
    base = grid_points(spec, carriers)
    points = _kernels.Candidates(base)
    place = spec.alphabet_size ** np.arange(m - 1, -1, -1)
    rates = []
    for k, gamma in enumerate(gammas):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(k,)))
        try:
            tables = rng.integers(-q3, q3 + 1, size=(trials, m), dtype=np.int64)
        except MemoryError:
            raise ParameterError(f"trials = {trials!r} needs a draw of {trials} x "
                                 f"{m} int64 symbols, more than numpy could "
                                 "allocate") from None
        sent = (tables + q3) @ place
        ys = gamma * base[sent]
        if noisy:
            ys = ys + complex_awgn(rng, trials)
        err = _kernels.nearest_point(ys, points, gamma) != sent
        rates.append(float(np.mean(err)))
    return np.asarray(rates)
