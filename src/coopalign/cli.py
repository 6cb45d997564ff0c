"""Command line front end.

Subcommands:
  run     execute a configured experiment and write results/manifest/trace
          (`--scheme bounds-only` gives the converse bound curves)
  verify  run built-in self checks and print one PASS/FAIL line each

Exit codes: 0 success, 1 invalid config or parameters, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .detection import reduced_error_sweep
from .errors import ConfigError, ParameterError, require_count
from .harness import (ExperimentConfig, config_from_dict, load_config,
                      run_experiment, run_trial)
from .lattice import random_gains
from .tradeoff import (lemma1_check, normalized_bound_slope, optimal_tradeoff,
                       rx_sum_upper_bound, tx_sum_upper_bound)

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coopalign",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a configured experiment")
    verify = sub.add_parser("verify", help="run protocol self checks")
    verify.set_defaults(out=None, scheme=None)
    for sp in (run, verify):
        sp.add_argument("--config", type=Path, default=None,
                        help="path to a JSON experiment config")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config rng_seed")
    run.add_argument("--out", type=Path, default=None,
                     help="override the config output directory")
    run.add_argument("--scheme", type=str, default=None,
                     help="override the config scheme")
    run.add_argument("--jobs", type=int, default=1,
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
        cfg = dataclasses.replace(cfg, **updates)
    return cfg


def _cmd_run(args) -> int:
    require_count(**{"--jobs": args.jobs})
    cfg = _load(args)
    manifest = run_experiment(cfg, jobs=args.jobs)
    print(f"wrote {Path(cfg.output_dir) / 'results.csv'} "
          f"({cfg.scheme}, {len(manifest.channels)} trials, "
          f"{manifest.wall_time_s:.2f}s)")
    return 0


def _check(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def _cmd_verify(args) -> int:
    cfg = _load(args)
    results = []

    for scheme, n in (("rx-coop", 1), ("rx-coop", 2), ("tx-coop", 1)):
        # trial 0, as `coopalign run` runs and writes it
        rows, _, trace = run_trial(config_from_dict(
            {"scheme": scheme, "N": n, "trials": 1,
             "rng_seed": cfg.rng_seed}), 0)
        tx = scheme == "tx-coop"
        # rx rows read "exact", tx rows the diagonalization residual
        ok = all(float(r["detail"]) <= 1e-9 if tx else r["detail"] == "exact"
                 for r in rows)
        # R = N (+1 for tx) rounds of three payloads of R^8 symbols
        sizes = [r["length"] for r in trace if r["stage"] == "backhaul"]
        ok &= len(sizes) == 3 * (n + tx) and sum(sizes) == 3 * (n + tx) ** 9
        what = "transmitter protocol diagonalization" if tx \
            else "receiver protocol recovery"
        results.append(_check(f"{what} (N={n})", ok))

    ones = np.ones((3, 3))
    ok = abs(rx_sum_upper_bound(ones, 1.0, 0.0) - 3 * np.log2(3)) < 1e-12
    ok &= abs(tx_sum_upper_bound(ones, 1.0, 0.0) - 3 * np.log2(10)) < 1e-12
    results.append(_check("bound closed forms on the all-ones channel", ok))

    ch = random_gains(np.random.default_rng(cfg.rng_seed))
    grid = np.logspace(6, 12, 8)
    ok = True
    for a in (0.0, 0.5, 1.0):
        s = normalized_bound_slope(rx_sum_upper_bound, ch, a, grid)
        ok &= abs(s - optimal_tradeoff(a)) < 1e-2
    results.append(_check("normalized bound slope matches min(1,(1+a)/2)", ok))

    rep = lemma1_check(K=2, n=4, trials=50, rng_seed=cfg.rng_seed)
    results.append(_check("entropy bound sweep (50 instances)", rep.all_passed))

    if cfg.reduced_spec is not None:
        rates = reduced_error_sweep(cfg.reduced_spec, ch, [1e4],
                                    trials=16, rng_seed=cfg.rng_seed,
                                    noisy=False)
        results.append(_check("reduced ML noiseless exactness",
                              not rates.any()))

    return 0 if all(results) else 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = {"run": _cmd_run, "verify": _cmd_verify}[args.command]
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
