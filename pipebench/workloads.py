"""The benchmark's workloads: inputs generated from the seed, one repetition
("rep") of the measured work, and the checks every output must pass.

Every input reaches the program through a JSON config file read with
``harness.load_config``, the same path ``coopalign run --config`` takes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coopalign import detection, harness
from coopalign.errors import CoopAlignError

# ml-sweep: the reduced instance of the paper's detector, 13^4 = 28,561
# candidates per detection, four power points per sweep call
ML_SPEC = {"active_coords": [[1, 1], [2, 2]], "n_red": 1, "q_red": 2}
ML_P_GRID = [1e2, 1e3, 1e4, 1e5]
ML_TRIALS = 200            # detections per power point per sweep call
ML_SWEEPS_PER_REP = 2
ML_NOISELESS_TRIALS = 50
TX_RESIDUAL_TOL = 1e-9


@dataclass
class Rep:
    """Outcome of one repetition.

    ``units`` are trials (one ``run_trial`` each) or, on ml-sweep, sweep
    calls; ``attempted``/``failed`` count trials, or detections on ml-sweep.
    """

    units: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other):
        self.units += other.units
        self.seconds += other.seconds
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _fixed_channel(rng):
    """3x3 nested [re, im] pairs, unit-variance circular complex Gaussian."""
    return (rng.standard_normal((3, 3, 2)) * math.sqrt(0.5)).tolist()


def _sha256(path):
    p = Path(path)
    return hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None


def _write_config(raw, path):
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


class HarnessWorkload:
    """One or more ``run_experiment`` calls per rep, serial unless a rep asks
    for a process pool."""

    def __init__(self, name, raw_configs, workdir):
        self.name = name
        self.config_paths = [_write_config(raw, workdir / f"config-{k}.json")
                             for k, raw in enumerate(raw_configs)]
        self.configs = [harness.load_config(p) for p in self.config_paths]
        self.outdirs = [workdir / f"exp-{k}" for k in range(len(self.configs))]
        self.reference = {}     # config index -> output digests of its first rep

    def working_set(self):
        return WORKING_SETS[self.name](self.configs[0].N)

    def output_bytes(self):
        """Bytes in the output files the last rep wrote."""
        return sum(f.stat().st_size for d in self.outdirs for f in d.iterdir())

    def rep(self, jobs=1) -> Rep:
        out = Rep()
        for k, cfg in enumerate(self.configs):
            cfg = _with_output(cfg, self.outdirs[k])
            shutil.rmtree(self.outdirs[k], ignore_errors=True)
            t0 = time.perf_counter()
            try:
                harness.run_experiment(cfg, jobs=jobs)
                error = None
            except CoopAlignError as exc:
                error = f"{type(exc).__name__}: {exc}"
            out.seconds += time.perf_counter() - t0
            out.add(self._check(k, cfg, error))
        return out

    def _check(self, k, cfg, error) -> Rep:
        n = _trial_count(cfg)
        res = Rep(units=n, attempted=n)
        bad = set()
        rows = _read_rows(self.outdirs[k] / "results.csv")
        if error is not None:
            res.problems.append(f"{cfg.scheme}: {error}")
        done = {int(r["trial"]) for r in rows}
        bad |= set(range(n)) - done
        for r in rows:
            t = int(r["trial"])
            if not all(math.isfinite(float(r[c])) for c in
                       ("P", "alpha", "dof", "load_bits", "rate_bits")):
                bad.add(t)
                res.problems.append(f"{cfg.scheme} trial {t}: non-finite row")
            if cfg.scheme == "rx-coop" and r["detail"] != "exact":
                bad.add(t)
                res.problems.append(f"rx-coop trial {t}: detail {r['detail']}")
            if cfg.scheme == "tx-coop" and not _residual(r["detail"]) <= TX_RESIDUAL_TOL:
                bad.add(t)
                res.problems.append(f"tx-coop trial {t}: residual {r['detail']}")
        if len(rows) != _row_count(cfg) and error is None:
            res.problems.append(f"{cfg.scheme}: {len(rows)} rows, "
                                f"expected {_row_count(cfg)}")
            bad |= set(range(n))
        digests = tuple(_sha256(self.outdirs[k] / f)
                        for f in ("results.csv", "trace.jsonl"))
        if error is None and digests != self.reference.setdefault(k, digests):
            res.problems.append(f"{cfg.scheme}: outputs differ from the first "
                                "run of the same config and seed")
            bad |= set(range(n))
        res.failed = len(bad)
        return res


def _residual(detail):
    try:
        return float(detail)
    except ValueError:
        return math.inf


def _trial_count(cfg):
    return 1 if cfg.scheme == "bounds-only" else cfg.trials


def _row_count(cfg):
    if cfg.scheme == "bounds-only":
        return 2 * len(cfg.alpha_grid) * len(cfg.P_grid)
    return cfg.trials * len(cfg.P_grid)


def _with_output(cfg, outdir):
    return dataclasses.replace(cfg, output_dir=str(outdir))


def _read_rows(path):
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SweepWorkload:
    """``ML_SWEEPS_PER_REP`` noisy ``reduced_error_sweep`` calls per rep, on a
    fixed channel from the seed; ``noiseless_check`` runs once per run."""

    name = "ml-sweep"

    def __init__(self, raw_config, workdir):
        self.config_paths = [_write_config(raw_config, workdir / "config-0.json")]
        cfg = harness.load_config(self.config_paths[0])
        self.spec = cfg.build_reduced_spec()
        self.channel = np.array([[complex(re, im) for re, im in row]
                                 for row in cfg.fixed_channel])
        self.P_grid = list(cfg.P_grid)
        self.seed = cfg.rng_seed
        self.reference = None
        k = len(self.spec.active_coords)
        self.candidates = (6 * self.spec.q_red + 1) ** ((self.spec.n_red + 1) ** k)
        self.detections_per_sweep = ML_TRIALS * len(self.P_grid)

    def working_set(self):
        return WORKING_SETS[self.name](self.candidates)

    def output_bytes(self):
        return 0

    def noiseless_check(self) -> Rep:
        rates = detection.reduced_error_sweep(
            self.spec, self.channel, self.P_grid, ML_NOISELESS_TRIALS,
            self.seed, noisy=False)
        n = ML_NOISELESS_TRIALS * len(self.P_grid)
        res = Rep(attempted=n,
                  failed=int(round(float(np.sum(rates)) * ML_NOISELESS_TRIALS)))
        if res.failed:
            res.problems.append(f"noiseless sweep has error rates {list(rates)}")
        return res

    def rep(self, jobs=1) -> Rep:
        out = Rep()
        for _ in range(ML_SWEEPS_PER_REP):
            t0 = time.perf_counter()
            rates = detection.reduced_error_sweep(
                self.spec, self.channel, self.P_grid, ML_TRIALS, self.seed)
            out.seconds += time.perf_counter() - t0
            out.units += 1
            out.attempted += self.detections_per_sweep
            rates = tuple(float(r) for r in rates)
            if self.reference is None:
                self.reference = rates
            if rates != self.reference or not all(0.0 <= r <= 1.0 for r in rates):
                out.failed += self.detections_per_sweep
                out.problems.append(f"sweep rates {rates} differ from the "
                                    f"first sweep's {self.reference}")
        return out


# computed working sets in bytes, from the shapes of the largest live arrays
# (int64 tables, complex128 carriers); cache misses are not counted
WORKING_SETS = {
    "rx-generic-n3": lambda N: {
        "carrier_table": 16 * (N + 1) ** 9,
        "observation_cubes": 3 * 8 * (N + 1) ** 9,
        "stream_and_resolved_cubes": 2 * 3 * 8 * N ** 9},
    "tx-fixed-n4": lambda N: {
        "carrier_table": 16 * (N + 1) ** 9,
        "built_cubes": 3 * 8 * (N + 1) ** 9,
        "stream_cubes": 3 * 8 * N ** 9},
    "baselines-n3": lambda N: {"carrier_table": 16 * (N + 1) ** 9},
    "ml-sweep": lambda C: {
        "candidate_tables": 8 * 4 * C,
        "candidate_points": 16 * C,
        "kernel_chunk_temporaries": 24 * 256 * C},
}

def make(name, seed, workdir):
    """Build workload ``name`` with every input drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    rng_seed = int(rng.integers(2 ** 63))
    if name == "rx-generic-n3":
        return HarnessWorkload(name, [{
            "scheme": "rx-coop", "N": 3, "q": 5, "trials": 3,
            "rng_seed": rng_seed, "channel_mode": "random-generic"}], workdir)
    if name == "tx-fixed-n4":
        return HarnessWorkload(name, [{
            "scheme": "tx-coop", "N": 4, "q": 5, "trials": 2,
            "rng_seed": rng_seed, "channel_mode": "fixed",
            "fixed_channel": _fixed_channel(rng)}], workdir)
    if name == "baselines-n3":
        return HarnessWorkload(name, [
            {"scheme": s, "N": 3, "trials": 2, "rng_seed": rng_seed,
             "channel_mode": "random-generic"}
            for s in ("tdma", "centralized", "illustrating-example",
                      "bounds-only")], workdir)
    if name == "ml-sweep":
        # the harness config carries the detector inputs; scheme and N are
        # required fields the sweep does not read
        return SweepWorkload({
            "scheme": "rx-coop", "N": 1, "rng_seed": rng_seed,
            "channel_mode": "fixed", "fixed_channel": _fixed_channel(rng),
            "P_grid": ML_P_GRID, "reduced_spec": ML_SPEC}, workdir)
    raise KeyError(name)
