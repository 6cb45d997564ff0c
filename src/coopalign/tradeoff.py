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

from .errors import GenericityError, ParameterError
from .lattice import ChannelMatrix, _as_gain_array, complex_awgn
from .rx_protocol import run_rx_protocol
from .tx_protocol import run_tx_backhaul


def fit_slope(log2p, values) -> float:
    log2p = np.asarray(log2p, dtype=float)
    values = np.asarray(values, dtype=float)
    if log2p.size < 2:
        raise ParameterError("slope fit needs at least 2 points")
    return float(np.polyfit(log2p, values, 1)[0])


def top_half_slope(P_grid, values) -> float:
    """Least-squares log-slope over the top half of a power grid."""
    P_grid = np.asarray(P_grid, dtype=float)
    k = len(P_grid) // 2
    return fit_slope(np.log2(P_grid[k:]), np.asarray(values, dtype=float)[k:])


# ============================================================
# tradeoff points and rate reports
# ============================================================


@dataclass(frozen=True)
class TradeoffPoint:
    alpha: float
    dof: float
    label: str = ""

    def __post_init__(self):
        if self.alpha < 0:
            raise ParameterError(f"alpha must be nonnegative, got {self.alpha}")
        if not 0.0 <= self.dof <= 1.0 + 1e-9:
            raise ParameterError(f"dof must lie in [0, 1], got {self.dof}")


@dataclass
class RateReport:
    """Per-user rates and average backhaul load on a power grid."""

    P_grid: np.ndarray
    rates: np.ndarray             # shape (len(P_grid), 3)
    rb_bar: np.ndarray            # shape (len(P_grid),)
    label: str = ""

    def __post_init__(self):
        P = np.asarray(self.P_grid, dtype=float)
        if P.size < 4:
            raise ParameterError("power grid needs at least 4 points")
        if not np.all(np.diff(P) > 0):
            raise ParameterError("power grid must be strictly increasing")
        self.P_grid = P
        self.rates = np.asarray(self.rates, dtype=float).reshape(P.size, -1)
        self.rb_bar = np.asarray(self.rb_bar, dtype=float).reshape(P.size)

    def rate_slopes(self) -> np.ndarray:
        return np.array([top_half_slope(self.P_grid, self.rates[:, k])
                         for k in range(self.rates.shape[1])])

    def mean_rate_slope(self) -> float:
        return float(self.rate_slopes().mean())

    def load_slope(self) -> float:
        return top_half_slope(self.P_grid, self.rb_bar)


def optimal_tradeoff(alpha) -> float:
    """Best per-user degrees of freedom at backhaul load slope alpha."""
    if alpha < 0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
    return min(1.0, (1.0 + alpha) / 2.0)


def timeshare(p1: TradeoffPoint, p2: TradeoffPoint, lam) -> TradeoffPoint:
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"timeshare weight must lie in [0, 1], got {lam}")
    return TradeoffPoint(
        alpha=(1.0 - lam) * p1.alpha + lam * p2.alpha,
        dof=(1.0 - lam) * p1.dof + lam * p2.dof,
        label=f"timeshare[{p1.label}|{p2.label}]")


def centralized_baseline(K: int) -> TradeoffPoint:
    """Full per-user dof by routing everything through one node: K-1
    quantized observations in, K-1 decoded messages back out."""
    if K < 2:
        raise ParameterError(f"centralized baseline needs K >= 2, got {K}")
    return TradeoffPoint(alpha=2.0 * (K - 1) / K, dof=1.0, label="centralized")


def tdma_baseline(K: int = 3) -> TradeoffPoint:
    """No cooperation, each user active 1/K of the time."""
    if K < 1:
        raise ParameterError(f"K must be positive, got {K}")
    return TradeoffPoint(alpha=0.0, dof=1.0 / K, label="tdma")


def measured_tradeoff_point(ledger, rates: RateReport) -> TradeoffPoint:
    """Operating point from measured data: load slope and mean rate slope."""
    if ledger is not None and ledger.total_symbols == 0:
        alpha = 0.0
    else:
        alpha = rates.load_slope()
    return TradeoffPoint(alpha=alpha, dof=rates.mean_rate_slope(),
                         label=rates.label)


# ============================================================
# converse bounds
# ============================================================


def _square_gains(H):
    h = _as_gain_array(H)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ParameterError(f"need a square gain matrix, got shape {h.shape}")
    return h


def rx_sum_upper_bound(H, P, Rb_bar) -> float:
    """Upper bound on twice the sum rate for receiver-side cooperation:
    cyclic sum of log2(1 + P(|h_{l,l-1}|^2 + |h_{ll}|^2)) plus K times the
    average backhaul load, indices wrapped modulo K."""
    h = _square_gains(H)
    if not P > 0:
        raise ParameterError(f"P must be positive, got {P}")
    K = h.shape[0]
    total = 0.0
    for l in range(2, K + 2):
        i = (l - 1) % K          # receiver l, 0-based
        j = (l - 2) % K          # transmitter l-1, 0-based
        total += np.log2(1.0 + P * (abs(h[i, j]) ** 2 + abs(h[i, i]) ** 2))
    return float(total + K * Rb_bar)


def tx_sum_upper_bound(H, P, Rb_bar) -> float:
    """Upper bound on twice the sum rate for transmitter-side cooperation:
    sum over receivers of log2(1 + P * (sum_i |h_ki|)^2) plus K times the
    average backhaul load."""
    h = _square_gains(H)
    if not P > 0:
        raise ParameterError(f"P must be positive, got {P}")
    K = h.shape[0]
    row_mass = np.abs(h).sum(axis=1) ** 2    # sum_{i,j} |h_ki h_kj*|
    total = float(np.sum(np.log2(1.0 + P * row_mass)))
    return total + K * float(Rb_bar)


def normalized_bound_slope(bound_fn, H, alpha, P_grid=None) -> float:
    """Slope of a sum-rate bound with backhaul load alpha*log2(P), fitted
    over the top half of the grid and normalized by 2K log2(P); converges to
    (1+alpha)/2."""
    h = _square_gains(H)
    K = h.shape[0]
    if P_grid is None:
        P_grid = np.logspace(6, 12, 8)
    P_grid = np.asarray(P_grid, dtype=float)
    if P_grid.size < 4:
        raise ParameterError("bound slope fit needs at least 4 grid points")
    vals = [bound_fn(h, P, alpha * np.log2(P)) for P in P_grid]
    return top_half_slope(P_grid, vals) / (2.0 * K)


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
    """
    if K < 1 or n < 1 or trials < 1:
        raise ParameterError("K, n and trials must all be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    failures = 0
    max_ratio = -np.inf
    worst = {}
    for t in range(trials):
        if P_vec is None:
            powers = rng.uniform(0.1, 10.0, size=K)
        else:
            powers = np.broadcast_to(np.asarray(P_vec, dtype=float), (K,)).copy()
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


def illustrating_example(gamma, base_H=None, P_grid=None, rng_seed=0) -> RateReport:
    """Rate-level walkthrough of the three-message chain on a channel with
    h31 = gamma*h21 and h33 = gamma*h23.

    Receiver 3 forwards its quantized observation so receiver 2 can cancel
    all interference in one subtraction; receiver 2, knowing its symbol,
    forwards a recombined quantized sum that clears receiver 1; receiver 1
    closes the loop for receiver 3.  Decoding is modeled by Shannon rates
    with unit-variance quantization noise added per forwarded message, and
    each message is priced at the log-cardinality of a unit-distortion
    quantizer, log2(1 + signal variance).
    """
    if gamma == 0:
        raise ParameterError("gamma must be nonzero")
    if P_grid is None:
        P_grid = np.logspace(3, 7, 5)
    P_grid = np.asarray(P_grid, dtype=float)
    if base_H is None:
        ch = ChannelMatrix.illustrating(gamma, np.random.default_rng(rng_seed))
        h = ch.h
    else:
        h = _as_gain_array(base_H).copy()
        h[2, 0] = gamma * h[1, 0]
        h[2, 2] = gamma * h[1, 2]
    if np.abs(h).min() == 0:
        raise GenericityError("example needs all gains nonzero")

    g = abs(gamma)
    # decode coefficients after each cancellation step
    c2 = abs(gamma * h[1, 1] - h[2, 1])
    c1 = abs(h[0, 0] - h[0, 2] * h[1, 0] / h[1, 2])
    c3 = abs(gamma * h[1, 2] - h[2, 1] * h[0, 2] / h[0, 1])
    if min(c2, c1, c3) <= 1e-12 * np.abs(h).max():
        raise GenericityError("degenerate gains: a decode coefficient vanished")
    # noise at each decoder: own receiver noise + forwarded noise + one unit
    # of quantization noise
    n2 = g ** 2 + 2.0
    n1 = 2.0 + abs(h[0, 2] / h[1, 2]) ** 2
    n3 = 2.0 + abs(h[2, 1] / h[0, 1]) ** 2

    rates = np.zeros((P_grid.size, 3))
    rb = np.zeros(P_grid.size)
    for i, P in enumerate(P_grid):
        rates[i, 0] = np.log2(1.0 + c1 ** 2 * P / n1)
        rates[i, 1] = np.log2(1.0 + c2 ** 2 * P / n2)
        rates[i, 2] = np.log2(1.0 + c3 ** 2 * P / n3)
        v32 = (abs(h[2, 0]) ** 2 + abs(h[2, 1]) ** 2 + abs(h[2, 2]) ** 2) * P + 1.0
        v21 = ((abs(h[0, 1]) ** 2
                + abs(h[0, 2] * h[1, 0] / h[1, 2]) ** 2
                + abs(h[0, 2]) ** 2) * P
               + abs(h[0, 2] / h[1, 2]) ** 2)
        v13 = ((abs(gamma * h[1, 0]) ** 2
                + abs(h[2, 1]) ** 2
                + abs(h[2, 1] * h[0, 2] / h[0, 1]) ** 2) * P
               + abs(h[2, 1] / h[0, 1]) ** 2)
        rb[i] = (np.log2(1.0 + v32) + np.log2(1.0 + v21) + np.log2(1.0 + v13)) / 3.0
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=rb, label="illustrating")


# ============================================================
# scheme-level reports
# ============================================================


def rx_load_limit(N, eps) -> float:
    """Limit of the receiver-protocol load per log2(P)."""
    dims = (N + 1) ** 9
    return N ** 9 * (1.0 - eps) / (dims + 2.0 * eps)


def tx_load_limit(N, eps) -> float:
    """Limit of the transmitter-protocol load per log2(P); the exchange
    ships one symbol per cube label rather than per occupied label."""
    dims = (N + 1) ** 9
    return dims * (1.0 - eps) / (dims + 2.0 * eps)


def _budget_report(symbols_per_user, N, eps, P_grid, label, dense_limit,
                   load_spans_cube):
    """Rate/load grids with every symbol priced at its power-law bit budget
    u*log2(P).

    dense_limit rescales quantities spread over the N^9 occupied labels by
    (N+1)^9/N^9, reporting the dense-lattice operating point the finite-N
    scheme converges to; a load that already ships one symbol per cube label
    (load_spans_cube) needs no rescaling.
    """
    P_grid = np.asarray(P_grid, dtype=float)
    dims = (N + 1) ** 9
    u = (1.0 - eps) / (dims + 2.0 * eps)
    lift = dims / N ** 9 if dense_limit else 1.0
    log2p = np.log2(P_grid)
    rate = N ** 9 * u * log2p * lift
    rates = np.stack([rate, rate, rate], axis=1)
    rb = symbols_per_user * u * log2p * (1.0 if load_spans_cube else lift)
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=rb, label=label)


def rx_scheme_report(N, eps=0.01, P_grid=None, rng_seed=0,
                     dense_limit=True):
    """Measured operating data for the receiver protocol: one protocol run
    supplies the ledger symbol count, then the budget pricing is applied
    across the grid.  Returns (report, ledger)."""
    from .lattice import SubstreamTable
    if P_grid is None:
        P_grid = np.logspace(2, 8, 7)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    streams = tuple(SubstreamTable.random(i + 1, N, 5, rng) for i in range(3))
    ledger = run_rx_protocol(streams).ledger
    report = _budget_report(ledger.total_symbols / 3.0, N, eps, P_grid,
                            "rx-coop", dense_limit, load_spans_cube=False)
    return report, ledger


def tx_scheme_report(N, eps=0.01, P_grid=None, rng_seed=0,
                     dense_limit=True):
    """Same as rx_scheme_report for the transmitter protocol."""
    from .lattice import SubstreamTable
    if P_grid is None:
        P_grid = np.logspace(2, 8, 7)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed))
    streams = tuple(SubstreamTable.random(i + 1, N, 5, rng) for i in range(3))
    ledger = run_tx_backhaul(streams).ledger
    report = _budget_report(ledger.total_symbols / 3.0, N, eps, P_grid,
                            "tx-coop", dense_limit, load_spans_cube=True)
    return report, ledger


def centralized_report(channel, P_grid=None) -> RateReport:
    """Rate-level hub model: receivers 2..K forward unit-distortion
    quantized observations to receiver 1, which inverts the channel and
    ships each decoded message back."""
    h = _square_gains(channel)
    K = h.shape[0]
    if P_grid is None:
        P_grid = np.logspace(4, 10, 7)
    P_grid = np.asarray(P_grid, dtype=float)
    hinv = np.linalg.inv(h)
    # after inversion: unit receiver noise plus unit quantization noise on
    # the K-1 forwarded observations
    noise_rows = 2.0 * np.sum(np.abs(hinv) ** 2, axis=1)
    rates = np.zeros((P_grid.size, K))
    rb = np.zeros(P_grid.size)
    for i, P in enumerate(P_grid):
        rates[i] = np.log2(1.0 + P / noise_rows)
        up = sum(np.log2(1.0 + P * np.sum(np.abs(h[l]) ** 2) + 1.0)
                 for l in range(1, K))
        down = float(np.sum(rates[i, 1:]))
        rb[i] = (up + down) / K
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=rb, label="centralized")


def tdma_report(channel, P_grid=None) -> RateReport:
    """No-cooperation baseline: each user active 1/K of the time at K times
    the power, zero backhaul."""
    h = _square_gains(channel)
    K = h.shape[0]
    if P_grid is None:
        P_grid = np.logspace(4, 10, 7)
    P_grid = np.asarray(P_grid, dtype=float)
    rates = np.zeros((P_grid.size, K))
    for i, P in enumerate(P_grid):
        for k in range(K):
            rates[i, k] = np.log2(1.0 + K * P * abs(h[k, k]) ** 2) / K
    return RateReport(P_grid=P_grid, rates=rates, rb_bar=np.zeros(P_grid.size),
                      label="tdma")
