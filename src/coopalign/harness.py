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
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .backhaul import payload_digest
from .detection import ReducedSpec
from .errors import (ConfigError, CoopAlignError, ProtocolError,
                     SingularChannelError)
from .lattice import (GENERIC_TOL, SubstreamTable, illustrating_gains,
                      q_limit, random_gains, require_generic)
from .rx_protocol import run_rx_protocol
from .tradeoff import (_budget_report, centralized_report, illustrating_example,
                       rx_sum_upper_bound, tdma_report, tx_sum_upper_bound)
from .tx_protocol import (channel_inverse, run_tx_backhaul,
                          verify_diagonalization)

SCHEMES = ("rx-coop", "tx-coop", "centralized", "tdma",
           "illustrating-example", "bounds-only")

CSV_COLUMNS = ("trial", "P", "scheme", "alpha", "dof", "load_bits",
               "rate_bits", "detail")


def _is_finite(x) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


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
    gamma: complex = 1.5 + 0.5j       # used by the illustrating mode
    q: int = 5                        # protocol symbol half-width
    alpha_grid: tuple = (0.0, 0.5, 1.0)
    reduced_spec: dict = None
    output_dir: str = "out"

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (type(self.N) is int and self.N >= 1):
            raise ConfigError(f"N must be a positive integer, got {self.N!r}")
        if not (_is_finite(self.eps) and 0 < self.eps < 1):
            raise ConfigError(f"eps must be a number in (0, 1), got {self.eps!r}")
        P = np.asarray(self.P_grid, dtype=float)
        if P.size < 4:
            raise ConfigError(f"P_grid needs at least 4 points, got {P.size}")
        if not np.all(np.isfinite(P) & (P > 1)):
            raise ConfigError(
                f"P_grid values must be finite and > 1, got {self.P_grid}")
        if not np.all(np.diff(P) > 0):
            raise ConfigError("P_grid must be strictly increasing")
        if not (type(self.trials) is int and self.trials >= 1):
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (type(self.rng_seed) is int and 0 <= self.rng_seed < 2 ** 64):
            raise ConfigError(f"rng_seed must be a 64-bit value, got {self.rng_seed!r}")
        if self.channel_mode not in ("random-generic", "fixed", "illustrating"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")
        if (self.fixed_channel is None) == (self.channel_mode == "fixed"):
            raise ConfigError("fixed_channel is required with channel_mode "
                              f"'fixed' and read only then, got channel_mode "
                              f"{self.channel_mode!r}")
        if self.fixed_channel is not None:
            h = _fixed_gains(self.fixed_channel)
            if self.scheme in ("rx-coop", "tx-coop"):
                _require_nonvanishing("gain", h)
            if self.scheme in ("tx-coop", "centralized"):
                try:
                    hinv = channel_inverse(h)
                except SingularChannelError as exc:
                    raise ConfigError(f"fixed_channel: {exc}") from exc
                if self.scheme == "tx-coop":
                    _require_nonvanishing("inverse gain", hinv)
        if self.gamma == 0:
            raise ConfigError("gamma must be nonzero")
        # no exchange sum may wrap, even in the widest cube type
        q_max = q_limit(self.N, np.int64)
        if not (type(self.q) is int and 1 <= self.q <= q_max):
            raise ConfigError(f"q must be an integer in [1, {q_max}] at "
                              f"N = {self.N}, got {self.q!r}")
        a = np.asarray(self.alpha_grid, dtype=float)
        if a.size == 0:
            raise ConfigError("alpha_grid needs at least one value")
        if not np.all(np.isfinite(a) & (a >= 0)):
            raise ConfigError(
                f"alpha_grid values must be finite and >= 0, got {self.alpha_grid}")
        if self.reduced_spec is not None:
            self.build_reduced_spec()
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        return self

    def build_reduced_spec(self) -> ReducedSpec:
        try:
            d = dict(self.reduced_spec)
            d["active_coords"] = tuple(tuple(c) for c in d["active_coords"])
            spec = ReducedSpec(**d)
            spec.check_budget()
            return spec
        except (KeyError, TypeError, ValueError, CoopAlignError) as exc:
            raise ConfigError(f"invalid reduced_spec: {exc}") from exc

    def as_json_dict(self) -> dict:
        d = asdict(self)
        d["P_grid"] = list(self.P_grid)
        d["alpha_grid"] = list(self.alpha_grid)
        d["gamma"] = [self.gamma.real, self.gamma.imag]
        if self.fixed_channel is not None:
            d["fixed_channel"] = _listify(self.fixed_channel)
        return d


def _listify(x):
    if isinstance(x, tuple):
        return [_listify(v) for v in x]
    return x


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def _fixed_gains(fixed_channel) -> np.ndarray:
    """3x3 complex gains from nested finite [re, im] pairs."""
    a = np.array(fixed_channel, dtype=object)
    if not (a.shape == (3, 3, 2) and all(map(_is_finite, a.flat))):
        raise ConfigError("fixed_channel must be 3x3 finite [re, im] pairs, "
                          f"got {_listify(fixed_channel)!r}")
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
    if not (isinstance(values, (list, tuple)) and all(map(_is_finite, values))):
        raise ConfigError(
            f"{field_name} must be a list of finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if "scheme" not in raw:
        raise ConfigError("missing required field: scheme")
    if "N" not in raw:
        raise ConfigError("missing required field: N")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kw = dict(raw)
    for name in ("P_grid", "alpha_grid"):
        if name in kw:
            kw[name] = _numbers(name, kw[name])
    if "gamma" in kw:
        g = kw["gamma"]
        if isinstance(g, complex):
            g = (g.real, g.imag)
        parts = g if isinstance(g, (list, tuple)) else (g, 0)
        if not (len(parts) == 2 and all(map(_is_finite, parts))):
            raise ConfigError(f"gamma must be a number or an [re, im] pair, got {g!r}")
        kw["gamma"] = complex(*parts)
    if "fixed_channel" in kw and kw["fixed_channel"] is not None:
        kw["fixed_channel"] = _tuplify(kw["fixed_channel"])
    return ExperimentConfig(**kw).validate()


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    text = Path(path).read_text()
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
    if config.channel_mode == "illustrating" \
            or config.scheme == "illustrating-example":
        h = illustrating_gains(config.gamma, h)
    return h


def _channel_listing(h):
    return [[[float(v.real), float(v.imag)] for v in row] for row in h]


def _report_rows(config, trial, report, detail=""):
    rows = []
    for i, P in enumerate(report.P_grid):
        l2 = np.log2(P)
        rows.append({"trial": trial, "P": float(P), "scheme": config.scheme,
                     "alpha": float(report.rb_bar[i] / l2),
                     "dof": float(report.rates[i].mean() / l2),
                     "load_bits": float(report.rb_bar[i]),
                     "rate_bits": float(report.rates[i].mean()),
                     "detail": detail})
    return rows


def run_trial(config: ExperimentConfig, trial: int):
    """Execute one trial; returns (rows, channel_listing, trace_records).

    A row with a non-finite number fails the trial with ConfigError: an
    overflow depends on the channel draw, so it cannot be rejected at load.
    """
    ss = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(trial,))
    rng = np.random.default_rng(ss)
    scheme = config.scheme
    ch = _channel_for(config, rng)
    # only the lattice schemes read carriers; the screen draws no randomness
    if scheme in ("rx-coop", "tx-coop") \
            and config.channel_mode == "random-generic":
        require_generic(ch, config.N)

    trace = []
    if scheme == "bounds-only":
        rows = []
        for a in config.alpha_grid:
            for P in config.P_grid:
                l2 = np.log2(P)
                for name, fn in (("rx-bound", rx_sum_upper_bound),
                                 ("tx-bound", tx_sum_upper_bound)):
                    bound = fn(ch, P, a * l2)
                    rows.append({"trial": trial, "P": float(P),
                                 "scheme": scheme, "alpha": float(a),
                                 "dof": float(bound / (6.0 * l2)),
                                 "load_bits": float(a * l2),
                                 "rate_bits": float(bound), "detail": name})
    elif scheme == "rx-coop":
        streams = tuple(SubstreamTable.random(i + 1, config.N, config.q, rng)
                        for i in range(3))
        res = run_rx_protocol(streams)
        exact = all(np.array_equal(res.recovered[i], streams[i].values)
                    for i in range(3))
        report = _budget_report(res.ledger.total_symbols / 3.0, config.N,
                                config.eps, np.asarray(config.P_grid),
                                load_spans_cube=False)
        rows = _report_rows(config, trial, report,
                            "exact" if exact else "contaminated")
        trace = [dict(r, trial=trial) for r in res.ledger.trace_records()]
    elif scheme == "tx-coop":
        streams = tuple(SubstreamTable.random(i + 1, config.N, config.q, rng)
                        for i in range(3))
        res = run_tx_backhaul(streams)
        chk = verify_diagonalization(streams, res.built, ch, config.P_grid[-1])
        report = _budget_report(res.ledger.total_symbols / 3.0, config.N,
                                config.eps, np.asarray(config.P_grid),
                                load_spans_cube=True)
        rows = _report_rows(config, trial, report, "%.3e" % chk.residual)
        trace = [dict(r, trial=trial) for r in res.ledger.trace_records()]
        trace.append({"stage": "airtime", "source": 0, "destination": 0,
                      "round": config.N + 2, "length": 3,
                      "alphabet_halfwidth": 0, "trial": trial,
                      "payload_digest": payload_digest(chk.x)})
    else:
        if scheme == "centralized":
            report = centralized_report(ch, np.asarray(config.P_grid))
        elif scheme == "tdma":
            report = tdma_report(ch, np.asarray(config.P_grid))
        elif scheme == "illustrating-example":
            report = illustrating_example(config.gamma, ch,
                                          np.asarray(config.P_grid))
        else:
            raise ConfigError(f"unhandled scheme {scheme!r}")
        rows = _report_rows(config, trial, report)

    for r in rows:
        for c in ("alpha", "dof", "load_bits", "rate_bits"):
            if not math.isfinite(r[c]):
                raise ConfigError(f"trial {trial}: {c} is {r[c]} at "
                                  f"P = {_fmt(r['P'])}")
    return rows, _channel_listing(ch), trace


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
    config.validate()
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
