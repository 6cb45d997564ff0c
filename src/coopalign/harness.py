"""Experiment orchestration: config loading, seeded trial execution,
CSV/manifest/trace persistence, and reproducibility plumbing.

Config files are JSON.  Every run writes results.csv plus manifest.json;
protocol schemes also write trace.jsonl with one record per backhaul
message.  A manifest is first written with status "incomplete" and only
rewritten "complete" (with output digests) after all files are flushed, so
a crashed run can never masquerade as a finished one.

Per-trial randomness comes from SeedSequence(root_seed, spawn_key=(trial,)),
so any trial is reproducible in isolation and results are independent of
worker scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backhaul import payload_digest
from .detection import ReducedSpec
from .errors import (ConfigError, CoopAlignError, GenericityError,
                     ParameterError, ProtocolError, SingularChannelError,
                     is_finite_real, require_count, require_gamma,
                     require_power_grid, require_powers, require_seed)
from .lattice import (GENERIC_TOL, MAX_CARRIERS, SubstreamTable,
                      channel_inverse, illustrating_gains, q_limit,
                      random_gains, require_generic)
from .rx_protocol import run_rx_protocol
from .tradeoff import (_budget_report, centralized_report, decode_coefficients,
                       illustrating_example, rx_sum_upper_bound, tdma_report,
                       tx_sum_upper_bound)
from .tx_protocol import run_tx_backhaul, verify_diagonalization

SCHEMES = ("rx-coop", "tx-coop", "centralized", "tdma",
           "illustrating-example", "bounds-only")

CSV_COLUMNS = ("trial", "P", "scheme", "alpha", "dof", "load_bits",
               "rate_bits", "detail")


def _json_number(x) -> bool:
    """A finite number of a type a config file holds: an int or a float."""
    return isinstance(x, (int, float)) and is_finite_real(x)


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str
    N: int
    eps: float = 0.05
    P_grid: tuple = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
    trials: int = 100
    rng_seed: int = 0
    channel_mode: str = "random-generic"
    fixed_channel: tuple = None       # nested (re, im) pairs when fixed
    gamma: complex = 1.5 + 0.5j       # used by illustrating-example
    q: int = 5                        # protocol symbol half-width
    alpha_grid: tuple = (0.0, 0.5, 1.0)
    reduced_spec: ReducedSpec = None  # made from a mapping
    output_dir: str = "out"

    def __post_init__(self):
        # every config, dataclasses.replace copies included, passes here,
        # and first takes the one form a config file gives each field
        for name in ("P_grid", "alpha_grid"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        object.__setattr__(self, "gamma", _gamma(self.gamma))
        object.__setattr__(self, "fixed_channel", _tuplify(self.fixed_channel))
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        try:
            require_count(N=self.N, trials=self.trials, q=self.q)
            require_seed(self.rng_seed)
            require_gamma(self.gamma)
            if require_power_grid(self.P_grid)[0] <= 1:
                raise ConfigError(f"P_grid values must be > 1, got {self.P_grid}")
            require_powers(self.alpha_grid, "alpha_grid", zero=True)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if self.scheme in ("rx-coop", "tx-coop") \
                and (self.N + 1) ** 9 > MAX_CARRIERS:
            n_max = round(MAX_CARRIERS ** (1 / 9)) - 1
            raise ConfigError(
                f"N = {self.N} is too large for {self.scheme}: its (N+1)^9 "
                f"carriers exceed {MAX_CARRIERS}; the largest admitted N is "
                f"{n_max}")
        if not (_json_number(self.eps) and 0 < self.eps < 1):
            raise ConfigError(f"eps must be a number in (0, 1), got {self.eps!r}")
        if self.channel_mode not in ("random-generic", "fixed"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")
        if (self.fixed_channel is None) == (self.channel_mode == "fixed"):
            raise ConfigError("fixed_channel is required with channel_mode "
                              f"'fixed' and read only then, got channel_mode "
                              f"{self.channel_mode!r}")
        if self.fixed_channel is not None:
            h = _fixed_gains(self.fixed_channel)
            if self.scheme in ("rx-coop", "tx-coop"):
                _require_nonvanishing("gain", h)
            try:
                if self.scheme in ("tx-coop", "centralized"):
                    hinv = channel_inverse(h)
                if self.scheme == "illustrating-example":
                    decode_coefficients(self.gamma, h)
            except (SingularChannelError, GenericityError) as exc:
                raise ConfigError(f"fixed_channel: {exc}") from exc
            if self.scheme == "tx-coop":
                _require_nonvanishing("inverse gain", hinv)
        # no exchange sum may wrap, even in the widest cube type
        q_max = q_limit(self.N, np.int64)
        if self.q > q_max:
            raise ConfigError(f"q must be an integer in [1, {q_max}] at "
                              f"N = {self.N}, got {self.q!r}")
        if not self.alpha_grid:
            raise ConfigError("alpha_grid needs at least one value")
        if not isinstance(self.reduced_spec, (ReducedSpec, type(None))):
            # ** refuses anything but a mapping
            try:
                spec = ReducedSpec(**self.reduced_spec)
            except (TypeError, CoopAlignError) as exc:
                raise ConfigError(f"invalid reduced_spec: {exc}") from exc
            object.__setattr__(self, "reduced_spec", spec)
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")

    def build_reduced_spec(self) -> ReducedSpec:
        """The held spec; the benchmark's ml-sweep workload reads it here."""
        return self.reduced_spec

    def as_json_dict(self) -> dict:
        # json writes the tuples as lists
        return dict(asdict(self), gamma=[self.gamma.real, self.gamma.imag])


def _tuplify(x):
    """Nested lists as nested tuples; an array, which JSON lacks, is refused."""
    if isinstance(x, np.ndarray):
        raise ConfigError("fixed_channel must be nested lists, not an array")
    if isinstance(x, (list, tuple)):
        return tuple(map(_tuplify, x))
    return x


def _fixed_gains(fixed_channel) -> np.ndarray:
    """3x3 complex gains from nested finite [re, im] pairs."""
    a = np.array(fixed_channel, dtype=object)
    if not (a.shape == (3, 3, 2) and all(map(_json_number, a.flat))):
        raise ConfigError("fixed_channel must be 3x3 finite [re, im] pairs, "
                          f"got {fixed_channel!r}")
    return np.ascontiguousarray(a, dtype=float).view(np.complex128)[..., 0]


def _require_nonvanishing(what, g):
    """Every carrier of the lattice schemes is a product of all nine gains
    (of the inverse gains, for tx-coop's transmit carriers), so one entry
    at or below GENERIC_TOL makes every carrier vanish or blur together."""
    i, j = divmod(int(np.abs(g).argmin()), 3)
    if abs(g[i, j]) <= GENERIC_TOL:
        raise ConfigError(
            f"fixed_channel: {what} ({i + 1},{j + 1}) has magnitude "
            f"{abs(g[i, j]):.3g}, at or below {GENERIC_TOL:g}")


def _numbers(field_name, values) -> tuple:
    if not (isinstance(values, (list, tuple)) and all(map(_json_number, values))):
        raise ConfigError(
            f"{field_name} must be a list of finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _gamma(g) -> complex:
    if isinstance(g, complex):
        g = (g.real, g.imag)
    parts = g if isinstance(g, (list, tuple)) else (g, 0)
    if not (len(parts) == 2 and all(map(_json_number, parts))):
        raise ConfigError(f"gamma must be a number or an [re, im] pair, got {g!r}")
    return complex(*parts)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """A config from a JSON object, which converts and checks its fields."""
    for name in ("scheme", "N"):
        if name not in raw:
            raise ConfigError(f"missing required field: {name}")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


def load_config(path) -> ExperimentConfig:
    """Read a JSON experiment config; the config checks itself when made."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


# ============================================================
# channels and per-trial execution
# ============================================================


def _channel_for(config: ExperimentConfig, rng) -> np.ndarray:
    """The trial's gains; illustrating-example runs on, and so lists, the
    proportional gains in every channel mode."""
    if config.channel_mode == "fixed":
        h = _fixed_gains(config.fixed_channel)
    else:
        h = random_gains(rng)
    if config.scheme == "illustrating-example":
        h = illustrating_gains(config.gamma, h)
    return h


def _report_rows(config, trial, report, detail=""):
    return [{"trial": trial, "P": float(P), "scheme": config.scheme,
             "alpha": float(rb / l2), "dof": float(r.mean() / l2),
             "load_bits": float(rb), "rate_bits": float(r.mean()),
             "detail": detail}
            for P, l2, r, rb in zip(report.P_grid, map(np.log2, report.P_grid),
                                    report.rates, report.rb_bar)]


def run_trial(config: ExperimentConfig, trial: int):
    """Execute one trial; returns (rows, channel_listing, trace_records).

    A row with a non-finite number fails the trial with ConfigError: an
    overflow depends on the channel draw, so it cannot be rejected at load.
    """
    ss = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(trial,))
    rng = np.random.default_rng(ss)
    scheme = config.scheme
    ch = _channel_for(config, rng)
    # the lattice schemes read carriers, tx-coop those of h^-1; no rng draws
    if scheme in ("rx-coop", "tx-coop") \
            and config.channel_mode == "random-generic":
        require_generic(channel_inverse(ch) if scheme == "tx-coop" else ch, config.N)

    trace, P = [], np.asarray(config.P_grid)
    if scheme == "bounds-only":
        rows = []
        l2 = np.log2(P)
        for a in config.alpha_grid:
            load = a * l2
            bounds = (("rx-bound", rx_sum_upper_bound(ch, P, load)),
                      ("tx-bound", tx_sum_upper_bound(ch, P, load)))
            for i in range(P.size):
                for name, bound in bounds:
                    rows.append({"trial": trial, "P": float(P[i]),
                                 "scheme": scheme, "alpha": float(a),
                                 "dof": float(bound[i] / (6.0 * l2[i])),
                                 "load_bits": float(load[i]),
                                 "rate_bits": float(bound[i]), "detail": name})
    elif scheme in ("rx-coop", "tx-coop"):
        streams = tuple(SubstreamTable.random(i + 1, config.N, config.q, rng)
                        for i in range(3))
        tx = scheme == "tx-coop"
        res = (run_tx_backhaul if tx else run_rx_protocol)(streams)
        trace = res.ledger.trace_records()
        if tx:
            chk = verify_diagonalization(streams, res.built, ch, P[-1])
            detail = "%.3e" % chk.residual
            trace.append({"stage": "airtime", "source": 0, "destination": 0,
                          "round": config.N + 2, "length": 3,
                          "alphabet_halfwidth": 0,
                          "payload_digest": payload_digest(chk.x)})
        else:
            exact = all(map(np.array_equal, res.recovered,
                            [s.values for s in streams]))
            detail = "exact" if exact else "contaminated"
        # a tx load already ships one symbol per cube label
        report = _budget_report(res.ledger.total_symbols / 3.0, config.N,
                                config.eps, P, load_spans_cube=tx)
        rows = _report_rows(config, trial, report, detail)
        trace = [dict(r, trial=trial) for r in trace]
    elif scheme == "centralized":
        rows = _report_rows(config, trial, centralized_report(ch, P))
    elif scheme == "tdma":
        rows = _report_rows(config, trial, tdma_report(ch, P))
    else:   # illustrating-example
        rows = _report_rows(config, trial,
                            illustrating_example(config.gamma, ch, P))

    for r in rows:
        for c in ("alpha", "dof", "load_bits", "rate_bits"):
            if not math.isfinite(r[c]):
                raise ConfigError(f"trial {trial}: {c} is {r[c]} at "
                                  f"P = {_fmt(r['P'])}")
    listing = [[[float(v.real), float(v.imag)] for v in row] for row in ch]
    return rows, listing, trace


# ============================================================
# persistence
# ============================================================


@dataclass
class RunManifest:
    config: dict
    version: str = __version__
    status: str = "incomplete"
    channels: list = field(default_factory=list)
    wall_time_s: float = 0.0
    outputs: dict = field(default_factory=dict)
    error: str = None
    failed_trial: dict = None     # trial, seed inputs; round, node if known

    def write(self, path):
        # no asdict deep copy: config and channels are plain containers
        # built for this manifest alone, and json.dumps only reads them
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        for key in ("error", "failed_trial"):
            if d[key] is None:
                d.pop(key)
        Path(path).write_text(json.dumps(d, indent=2) + "\n")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_results_csv(rows, path):
    rows = sorted(rows, key=lambda r: (r["trial"], r["P"], r["detail"]))
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def _trial_results(config, trials, jobs):
    """Yield each trial's (rows, channel_listing, trace) in trial order.

    The pool never holds more workers than there are trials: it forks all
    of them on the first submit.  A run with one worker runs in-process."""
    workers = min(jobs, len(trials))
    if workers <= 1:
        for t in trials:
            yield run_trial(config, t)
        return
    # imported here so a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(run_trial, config, t) for t in trials]
        try:
            for f in futs:
                yield f.result()
        finally:
            for f in futs:
                f.cancel()


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunManifest:
    """Run all trials of the configured scheme and persist results.

    Writes results.csv, manifest.json and (for protocol schemes) trace.jsonl
    under config.output_dir.  When a trial fails, the trials before it are
    still written, and the manifest stays "incomplete" and names the
    failed trial with its seed (and round and node for a ProtocolError).
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config=config.as_json_dict())
    manifest.write(out / "manifest.json")
    t0 = time.monotonic()

    trials = range(config.trials) if config.scheme != "bounds-only" else range(1)
    rows, channels, trace = [], [], []
    try:
        for r, chl, tr in _trial_results(config, trials, jobs):
            rows.extend(r)
            channels.append(chl)
            trace.extend(tr)
    except Exception as exc:
        failed = trials[len(channels)]
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.failed_trial = {"trial": failed, "entropy": config.rng_seed,
                                 "spawn_key": [failed]}
        if isinstance(exc, ProtocolError):
            manifest.failed_trial.update(round=exc.round_index, node=exc.node)
        _persist(manifest, out, rows, channels, trace, t0)
        raise
    manifest.status = "complete"
    _persist(manifest, out, rows, channels, trace, t0)
    return manifest


def _persist(manifest, out, rows, channels, trace, t0):
    """Write results.csv, trace.jsonl (when there are records) and the
    manifest with the digests of both."""
    write_results_csv(rows, out / "results.csv")
    outputs = {"results.csv": _sha256(out / "results.csv")}
    if trace:
        with open(out / "trace.jsonl", "w") as fh:
            for rec in trace:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        outputs["trace.jsonl"] = _sha256(out / "trace.jsonl")
    manifest.channels = channels
    manifest.wall_time_s = time.monotonic() - t0
    manifest.outputs = outputs
    manifest.write(out / "manifest.json")
