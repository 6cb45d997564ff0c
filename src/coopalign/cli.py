"""Command line front end.

Subcommands:
  run         execute a configured experiment and write results/manifest/trace
  bounds      evaluate sum-capacity upper bounds on the configured power grid
  verify      run built-in self checks and print one PASS/FAIL line each
  trace-dump  run trial 0 of a protocol scheme and emit its message trace

Exit codes: 0 success, 1 invalid config or parameters, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .detection import ml_detect_reduced, reduced_power_scale, reduced_signal
from .errors import ConfigError, ParameterError
from .harness import (ExperimentConfig, config_from_dict, load_config,
                      run_experiment, run_trial, write_results_csv)
from .lattice import ChannelMatrix, SubstreamTable
from .rx_protocol import run_rx_protocol
from .rx_protocol import expected_symbol_count as rx_count
from .tradeoff import (lemma1_check, normalized_bound_slope, optimal_tradeoff,
                       rx_sum_upper_bound, tx_sum_upper_bound)
from .tx_protocol import run_tx_backhaul, verify_diagonalization
from .tx_protocol import expected_symbol_count as tx_count


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coopalign",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand takes only the overrides it reads
    for name, help_, flags in (
            ("run", "run a configured experiment", ("--out", "--scheme")),
            ("bounds", "evaluate converse bound curves", ("--out",)),
            ("verify", "run protocol self checks", ()),
            ("trace-dump", "emit the trial-0 message trace",
             ("--out", "--scheme"))):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(out=None, scheme=None)
        sp.add_argument("--config", type=Path, default=None,
                        help="path to a JSON experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config rng_seed")
        if "--out" in flags:
            sp.add_argument("--out", type=Path,
                            help="override the config output directory")
        if "--scheme" in flags:
            sp.add_argument("--scheme", type=str,
                            help="override the config scheme")
        if name == "run":
            sp.add_argument("--jobs", type=int, default=1,
                            help="trial-level worker processes, at least 1 "
                            "(never more than the trial count)")
    return p


def _load(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = config_from_dict({"scheme": args.scheme or "rx-coop", "N": 1,
                                "trials": 4})
    updates = {}
    if args.seed is not None:
        updates["rng_seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = str(args.out)
    if args.scheme is not None:
        updates["scheme"] = args.scheme
    if updates:
        cfg = dataclasses.replace(cfg, **updates).validate()
    return cfg


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _load(args)
    manifest = run_experiment(cfg, jobs=args.jobs)
    print(f"wrote {Path(cfg.output_dir) / 'results.csv'} "
          f"({cfg.scheme}, {len(manifest.channels)} trials, "
          f"{manifest.wall_time_s:.2f}s)")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load(args)
    cfg = dataclasses.replace(cfg, scheme="bounds-only").validate()
    rows, _, _ = run_trial(cfg, 0)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(rows, out / "bounds.csv")
    print(f"wrote {out / 'bounds.csv'} ({len(rows)} rows)")
    return 0


def _check(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def _cmd_verify(args) -> int:
    cfg = _load(args)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed))
    results = []

    for n in (1, 2):
        streams = tuple(SubstreamTable.random(i + 1, n, 5, rng)
                        for i in range(3))
        res = run_rx_protocol(streams)
        ok = all(np.array_equal(res.recovered[i], streams[i].values)
                 for i in range(3))
        ok &= len(res.ledger.messages) == 3 * n and \
            res.ledger.total_symbols == rx_count(n)
        results.append(_check(f"receiver protocol recovery (N={n})", ok))

    ch = ChannelMatrix.random(rng)
    streams = tuple(SubstreamTable.random(i + 1, 1, 5, rng) for i in range(3))
    res = run_tx_backhaul(streams)
    chk = verify_diagonalization(streams, res.built, ch, 1e6)
    ok = chk.ok and res.ledger.total_symbols == tx_count(1)
    results.append(_check("transmitter protocol diagonalization (N=1)", ok))

    ones = np.ones((3, 3))
    ok = abs(rx_sum_upper_bound(ones, 1.0, 0.0) - 3 * np.log2(3)) < 1e-12
    ok &= abs(tx_sum_upper_bound(ones, 1.0, 0.0) - 3 * np.log2(10)) < 1e-12
    results.append(_check("bound closed forms on the all-ones channel", ok))

    grid = np.logspace(6, 12, 8)
    ok = True
    for a in (0.0, 0.5, 1.0):
        s = normalized_bound_slope(rx_sum_upper_bound, ch.h, a, grid)
        ok &= abs(s - optimal_tradeoff(a)) < 1e-2
    results.append(_check("normalized bound slope matches min(1,(1+a)/2)", ok))

    rep = lemma1_check(K=2, n=4, trials=50, rng_seed=cfg.rng_seed)
    results.append(_check("entropy bound sweep (50 instances)", rep.all_passed))

    if cfg.reduced_spec is not None:
        spec = cfg.build_reduced_spec()
        table = rng.integers(-3 * spec.q_red, 3 * spec.q_red + 1,
                             size=spec.table_size, dtype=np.int64)
        gamma = reduced_power_scale(spec, ch, 1e4)
        y = reduced_signal(table, spec, ch, gamma)
        det = ml_detect_reduced(y, spec, ch, gamma)
        results.append(_check("reduced ML noiseless exactness",
                              bool(np.array_equal(det, table))))

    return 0 if all(results) else 2


def _cmd_trace_dump(args) -> int:
    cfg = _load(args)
    if cfg.scheme not in ("rx-coop", "tx-coop"):
        raise ConfigError(
            f"trace-dump needs a protocol scheme, got {cfg.scheme!r}")
    _, _, trace = run_trial(cfg, 0)
    lines = [json.dumps(rec, sort_keys=True) for rec in trace]
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.jsonl").write_text("\n".join(lines) + "\n")
        print(f"wrote {out / 'trace.jsonl'} ({len(lines)} records)")
    else:
        for line in lines:
            print(line)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = {"run": _cmd_run, "bounds": _cmd_bounds, "verify": _cmd_verify,
           "trace-dump": _cmd_trace_dump}[args.command]
    try:
        return cmd(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
