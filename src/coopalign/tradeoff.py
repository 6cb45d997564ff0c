"""Load/rate tradeoff analysis: the optimal curve, baselines, converse
bounds, a covariance-determinant inequality checker, and the
proportional-gains example where one backhaul-assisted pass yields full
per-user rate.

Conventions: rates and backhaul loads are in bits per channel use; alpha is
the backhaul load per log2(P); dof is per-user rate per log2(P).  All slope
fits are ordinary least squares on (log2 P, value) restricted to the top
half of the power grid, which suppresses the additive constants that otherwise
dominate small P.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (GenericityError, ParameterError, require_count,
                     require_positive_real, require_power_grid,
                     require_powers, require_seed)
from .lattice import (channel_inverse, complex_awgn, gain_matrix,
                      illustrating_gains)


def top_half_slope(P_grid, values) -> float:
    """Least-squares log-slope over the top half of a power grid."""
    P_grid = np.asarray(P_grid, dtype=float)
    k = len(P_grid) // 2
    if P_grid.size - k < 2:
        raise ParameterError("slope fit needs at least 2 points")
    return float(np.polyfit(np.log2(P_grid[k:]),
                            np.asarray(values, dtype=float)[k:], 1)[0])


# ============================================================
# rate reports
# ============================================================


@dataclass
class RateReport:
    """Per-user rates and average backhaul load on a power grid."""

    P_grid: np.ndarray
    rates: np.ndarray             # shape (len(P_grid), 3)
    rb_bar: np.ndarray            # shape (len(P_grid),)

    def __post_init__(self):
        self.P_grid = P = require_power_grid(self.P_grid)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (P.size, 3):
            raise ParameterError(f"rates must be {P.size}x3, got {self.rates.shape}")
        self.rb_bar = np.asarray(self.rb_bar, dtype=float).reshape(P.size)


def optimal_tradeoff(alpha) -> float:
    """Best per-user degrees of freedom at backhaul load slope alpha."""
    require_positive_real(alpha, "alpha", zero=True)
    return min(1.0, (1.0 + alpha) / 2.0)


# ============================================================
# converse bounds
# ============================================================


def rx_sum_upper_bound(H, P, Rb_bar):
    """Upper bound on twice the sum rate for receiver-side cooperation:
    sum over receivers l of log2(1 + P(|h_{l,l-1}|^2 + |h_{ll}|^2)), with
    transmitter 0 read as 3, plus 3 times the average backhaul load.  P may
    be an array, with Rb_bar, each >= 0 (inf admitted), of the same shape."""
    h, P = gain_matrix(H), require_powers(P, "P")
    Rb_bar = require_powers(Rb_bar, "Rb_bar", zero=True, shape=P.shape, inf=True)
    # the gain powers come from the scalar abs and pow: np.abs of the
    # complex array, or an array ** 2 (a multiply), moves their last bit
    g = [abs(h[i, i - 1]) ** 2 + abs(h[i, i]) ** 2 for i in (1, 2, 0)]
    # receivers 2, 3, 1, added left to right
    return np.log2(1.0 + P * g[0]) + np.log2(1.0 + P * g[1]) \
        + np.log2(1.0 + P * g[2]) + 3 * Rb_bar


def tx_sum_upper_bound(H, P, Rb_bar):
    """Upper bound on twice the sum rate for transmitter-side cooperation:
    sum over receivers of log2(1 + P * (sum_i |h_ki|)^2) plus 3 times the
    average backhaul load.  P may be an array, with Rb_bar, each >= 0 (inf
    admitted), of the same shape."""
    h, P = gain_matrix(H), require_powers(P, "P")
    Rb_bar = require_powers(Rb_bar, "Rb_bar", zero=True, shape=P.shape, inf=True)
    row_mass = np.hypot(h.real, h.imag).sum(axis=1) ** 2    # sum_{i,j} |h_ki h_kj*|
    return np.log2(1.0 + P[..., None] * row_mass).sum(-1) + 3 * Rb_bar


def normalized_bound_slope(bound_fn, H, alpha, P_grid) -> float:
    """Slope of a sum-rate bound with backhaul load alpha*log2(P), fitted
    over the top half of the grid and normalized by 6 log2(P), as the bound
    is on twice the sum of three rates; converges to (1+alpha)/2."""
    require_positive_real(alpha, "alpha", zero=True)
    P_grid = require_power_grid(P_grid)
    vals = bound_fn(H, P_grid, alpha * np.log2(P_grid))
    return top_half_slope(P_grid, vals) / 6.0


# ============================================================
# covariance determinant inequality (sum of power-limited vectors)
# ============================================================


@dataclass
class Lemma1Report:
    trials: int
    failures: int
    max_ratio: float
    worst: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return self.failures == 0


_L1_KINDS = ("gaussian", "uniform", "deterministic", "coherent")
_L1_INNER = 64        # samples per covariance estimate
_L1_SLACK = 1e-6      # tolerated excess of lhs over rhs


def lemma1_check(K, n, P_vec=None, trials=100, rng_seed=0) -> Lemma1Report:
    """Empirical check that det(I + Cov(sum_k x_k))^(1/n) never exceeds
    1 + sum_{k,l} sqrt(P_k P_l) when (1/n) E||x_k||^2 <= P_k.

    Vectors are drawn from a mix of constructions (including a coherent one
    where all users share a direction, probing the Cauchy-Schwarz equality
    case), rescaled so the empirical per-coordinate power meets P_k exactly,
    and the covariance is estimated over an inner sample.  With empirical
    powers the inequality is a deterministic consequence of AM-GM and
    Cauchy-Schwarz, so any failure beyond the slack indicates a bug.
    K, n and trials are counts, rng_seed a seed, and P_vec one power or K,
    each finite and >= 0; anything else raises ParameterError.
    """
    require_count(K=K, n=n, trials=trials)
    require_seed(rng_seed)
    if P_vec is not None:
        P_vec = require_powers(P_vec, "P_vec", zero=True)
        if P_vec.ndim > 1 or P_vec.size not in (1, K):
            raise ParameterError(f"P_vec must hold 1 or K = {K} powers, got {P_vec}")
        P_vec = np.broadcast_to(P_vec, (K,))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    failures = 0
    max_ratio = -np.inf
    worst = {}
    for t in range(trials):
        powers = rng.uniform(0.1, 10.0, size=K) if P_vec is None else P_vec
        shared = complex_awgn(rng, (n,))
        shared /= max(np.linalg.norm(shared), 1e-30)
        xs = []
        for k in range(K):
            kind = _L1_KINDS[rng.integers(len(_L1_KINDS))]
            if kind == "gaussian":
                x = complex_awgn(rng, (_L1_INNER, n))
            elif kind == "uniform":
                x = rng.uniform(-1, 1, (_L1_INNER, n)) \
                    + 1j * rng.uniform(-1, 1, (_L1_INNER, n))
            elif kind == "deterministic":
                x = np.tile(complex_awgn(rng, (n,)), (_L1_INNER, 1))
            else:
                phases = np.exp(2j * np.pi * rng.uniform(size=(_L1_INNER, 1)))
                x = phases * shared[None, :]
            norm2 = np.mean(np.abs(x) ** 2)
            if norm2 > 0:
                x = x * np.sqrt(powers[k] / norm2)
            xs.append(x)
        s = np.sum(xs, axis=0)
        mu = s.mean(axis=0, keepdims=True)
        d = s - mu
        cov = (d.conj().T @ d) / _L1_INNER
        sign, logdet = np.linalg.slogdet(np.eye(n) + cov)
        lhs = float(np.exp(logdet / n)) if sign > 0 else 0.0
        rhs = 1.0 + float(np.sum(np.sqrt(np.outer(powers, powers))))
        ratio = lhs / rhs
        if lhs > rhs + _L1_SLACK:
            failures += 1
        if ratio > max_ratio:
            max_ratio = ratio
            worst = {"trial": t, "lhs": lhs, "rhs": rhs, "powers": powers.tolist()}
    return Lemma1Report(trials=trials, failures=failures,
                        max_ratio=float(max_ratio), worst=worst)


# ============================================================
# proportional-gains example: alpha = 1 with full per-user rate
# ============================================================


def decode_coefficients(gamma, h):
    """The proportional gains of h and the coefficients c1, c2, c3 that the
    decoders see after cancellation; raises ParameterError for a bad gamma
    and GenericityError when a gain or a coefficient vanishes."""
    h = illustrating_gains(gamma, h)
    if np.abs(h).min() == 0:
        raise GenericityError("example needs all gains nonzero")
    c1 = abs(h[0, 0] - h[0, 2] * h[1, 0] / h[1, 2])
    c2 = abs(gamma * h[1, 1] - h[2, 1])
    c3 = abs(gamma * h[1, 2] - h[2, 1] * h[0, 2] / h[0, 1])
    if min(c1, c2, c3) <= 1e-12 * np.abs(h).max():
        raise GenericityError("degenerate gains: a decode coefficient vanished")
    return h, (c1, c2, c3)


def illustrating_example(gamma, h, P_grid) -> RateReport:
    """Rate-level walkthrough of the three-message chain on the gains h
    forced to h31 = gamma*h21 and h33 = gamma*h23.

    Receiver 3 forwards its quantized observation so receiver 2 can cancel
    all interference in one subtraction; receiver 2, knowing its symbol,
    forwards a recombined quantized sum that clears receiver 1; receiver 1
    closes the loop for receiver 3.  Decoding is modeled by Shannon rates
    with unit-variance quantization noise added per forwarded message, and
    each message is priced at the log-cardinality of a unit-distortion
    quantizer, log2(1 + signal variance).
    """
    h, P = gain_matrix(h), require_powers(P_grid, "P")
    h, c = decode_coefficients(gamma, h)
    # noise at each decoder: own receiver noise + forwarded noise + one unit
    # of quantization noise
    noise = (2.0 + abs(h[0, 2] / h[1, 2]) ** 2, abs(gamma) ** 2 + 2.0,
             2.0 + abs(h[2, 1] / h[0, 1]) ** 2)
    rates = np.stack([np.log2(1.0 + c[k] ** 2 * P / noise[k])
                      for k in range(3)], axis=1)
    v32 = (abs(h[2, 0]) ** 2 + abs(h[2, 1]) ** 2 + abs(h[2, 2]) ** 2) * P + 1.0
    v21 = ((abs(h[0, 1]) ** 2
            + abs(h[0, 2] * h[1, 0] / h[1, 2]) ** 2
            + abs(h[0, 2]) ** 2) * P
           + abs(h[0, 2] / h[1, 2]) ** 2)
    v13 = ((abs(gamma * h[1, 0]) ** 2
            + abs(h[2, 1]) ** 2
            + abs(h[2, 1] * h[0, 2] / h[0, 1]) ** 2) * P
           + abs(h[2, 1] / h[0, 1]) ** 2)
    rb = (np.log2(1.0 + v32) + np.log2(1.0 + v21) + np.log2(1.0 + v13)) / 3.0
    return RateReport(P_grid=P, rates=rates, rb_bar=rb)


# ============================================================
# scheme-level reports
# ============================================================


def _budget_report(symbols_per_user, N, eps, P_grid, load_spans_cube):
    """Rate/load grids with every symbol priced at its power-law bit budget
    u*log2(P).

    Quantities spread over the N^9 occupied labels are rescaled by
    (N+1)^9/N^9, reporting the dense-lattice operating point the finite-N
    scheme converges to; a load that already ships one symbol per cube label
    (load_spans_cube) needs no rescaling.
    """
    dims = (N + 1) ** 9
    u = (1.0 - eps) / (dims + 2.0 * eps)
    lift = dims / N ** 9
    log2p = np.log2(P_grid)
    rate = N ** 9 * u * log2p * lift
    rates = np.stack([rate, rate, rate], axis=1)
    rb = symbols_per_user * u * log2p * (1.0 if load_spans_cube else lift)
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=rb)


def centralized_report(h, P_grid) -> RateReport:
    """Rate-level hub model: receivers 2 and 3 forward unit-distortion
    quantized observations to receiver 1, which inverts the channel and
    ships each decoded message back.  Gains other than 3x3 raise
    ParameterError, and a channel that channel_inverse does not certify
    raises SingularChannelError."""
    h, P_grid = gain_matrix(h), require_powers(P_grid, "P")
    hinv = channel_inverse(h)
    # after inversion: unit receiver noise plus unit quantization noise on
    # the two forwarded observations; |.| from the parts, here and in
    # tx_sum_upper_bound: numpy's complex abs moves its last bit with SIMD
    noise_rows = 2.0 * np.sum(np.hypot(hinv.real, hinv.imag) ** 2, axis=1)
    row_pow = np.sum(np.hypot(h[1:].real, h[1:].imag) ** 2, axis=1)
    P = P_grid[:, None]
    rates = np.log2(1.0 + P / noise_rows)
    up = np.log2(1.0 + P * row_pow + 1.0)
    rb = (up.sum(axis=1) + rates[:, 1:].sum(axis=1)) / 3
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=rb)


def tdma_report(h, P_grid) -> RateReport:
    """No-cooperation baseline: each user active a third of the time at
    three times the power, zero backhaul."""
    h, P_grid = gain_matrix(h), require_powers(P_grid, "P")
    g = [abs(h[k, k]) ** 2 for k in range(3)]
    rates = np.log2(1.0 + (3 * P_grid[:, None]) * g) / 3
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=np.zeros(P_grid.size))
