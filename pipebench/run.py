"""Layered pipeline benchmark for coopalign.

Run from the repository root:

    python3 pipebench/run.py --workload rx-generic-n3 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced reps with reps whose calls into the package's modules are
wrapped in spans, and reports per-layer metrics (see pipebench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".pipebench_runs"

WORKLOADS = ("rx-generic-n3", "tx-fixed-n4", "ml-sweep", "baselines-n3")
POOL_WORKLOADS = ("rx-generic-n3", "tx-fixed-n4")
POOL_JOBS = 2
SETUP_RUNS = 7
TRIAL_PERCENTILE = 80

END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("trial_ms_p50", "ms"),
    (f"trial_ms_p{TRIAL_PERCENTILE}", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# set-up as a user pays it: a fresh interpreter imports the package and
# loads the workload's config.  Interpreter start-up and the numpy import
# (a dependency no change to the package can move, and the part of start-up
# that swings most with host load) come first and are not counted.
SETUP_SNIPPET = """\
import sys, time
from calibrate import Reference
speed = Reference().speed()
t0 = time.perf_counter()
import coopalign
from coopalign.harness import load_config
load_config(sys.argv[1])
print((time.perf_counter() - t0) * speed, coopalign.__file__)
"""

_SC_LEVEL3_CACHE_SIZE = 194     # glibc <bits/confname.h>; not in os.sysconf_names


def measure_setup(config_path):
    """Median calibrated set-up time over SETUP_RUNS fresh processes, and
    the samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up imported coopalign from {origin}")
        samples.append(float(seconds))
    return statistics.median(samples), samples


def environment(wl, seed):
    import numpy
    from coopalign import _kernels
    try:
        llc = os.sysconf(_SC_LEVEL3_CACHE_SIZE) or None
    except (ValueError, OSError):
        llc = None
    ws = wl.working_set()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": bool(_kernels.HAVE_NUMBA),
        "COOPALIGN_NUMBA": os.environ.get("COOPALIGN_NUMBA"),
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "seed": seed,
        "working_set_bytes_computed": ws,
        "working_set_total_bytes_computed": sum(ws.values()),
        "last_level_cache_bytes": llc,
    }


def percentile(values, p):
    """The p-th percentile by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run(args):
    import layers
    import workloads
    from calibrate import Reference
    from spans import LAYERS, UNITS, Tracer

    from coopalign import _kernels

    workdir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    env = environment(wl, args.seed)
    setup_s, setup_samples = measure_setup(wl.config_paths[0])

    total = workloads.Rep()
    if hasattr(wl, "noiseless_check"):
        total.add(wl.noiseless_check())
    reference = Reference()
    clock = Tracer(UNITS)          # unit spans only: the per-trial clock
    full = Tracer({t for t, _ in LAYERS})
    pooled = Tracer({t for t, _ in LAYERS})
    total.add(wl.rep())            # warm-up; fixes the reference outputs

    phases = [("plain", clock, 1)]
    if args.trace:
        phases.append(("traced", full, 1))
        if args.workload in POOL_WORKLOADS:
            phases.append(("pool", pooled, POOL_JOBS))
    rates = {name: [] for name, _, _ in phases}       # wall-clock, per rep
    units = {name: 0 for name, _, _ in phases}
    speeds, samples = [], []       # plain reps: calibration, calibrated ms
    persist_bytes = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for name, tracer, jobs in phases:
            first = len(tracer.spans)
            with tracer:
                rep = wl.rep(jobs=jobs)
            total.add(rep)
            rates[name].append(rep.units / rep.seconds)
            units[name] += rep.units
            if name == "plain":
                speeds.append(reference.speed())
                samples += [1e3 * (end - start) * speeds[-1]
                            for _, start, end, *_ in clock.spans[first:]]
            elif name == "traced":
                persist_bytes += wl.output_bytes()
        if time.perf_counter() >= deadline:
            break

    info = {"workload": args.workload, "environment": env,
            "reps": {k: len(v) for k, v in rates.items()},
            "setup_samples_s": setup_samples}
    if args.trace:
        bad, notes = layers.count_mismatches(
            full.spans, getattr(wl, "detections_per_sweep", None),
            getattr(wl, "candidates", None))
        total.failed += len(bad)
        total.problems += notes
        plain = statistics.median(rates["plain"])
        traced = statistics.median(rates["traced"])
        metrics = layers.layer_metrics(
            full.spans, units["traced"], pooled.spans, units.get("pool", 0),
            persist_bytes, 100.0 * (plain - traced) / plain,
            env["kernel_path"], getattr(_kernels, "_CHUNK", 256))
        info["units_per_s"] = {"untraced": plain, "traced": traced}
        units_of = dict(layers.PER_LAYER)
        spans_out = full.spans + pooled.spans
    else:
        pct = f"trial_ms_p{TRIAL_PERCENTILE}"
        metrics = {
            "trials_per_s": statistics.median(
                r / k for r, k in zip(rates["plain"], speeds)),
            "trial_ms_p50": statistics.median(samples),
            pct: percentile(samples, TRIAL_PERCENTILE),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["trial_samples"] = len(samples)
        info["samples_beyond_percentile"] = sum(s > metrics[pct] for s in samples)
        info["calibration_speed_median"] = statistics.median(speeds)
        info["wall_clock"] = {"trials_per_s": statistics.median(rates["plain"])}
        if hasattr(wl, "detections_per_sweep"):
            info["detections_per_s"] = metrics["trials_per_s"] * wl.detections_per_sweep
        units_of = dict(END_TO_END)
        spans_out = clock.spans
    info["fail_ratio"] = total.failed / total.attempted
    info["problems"] = total.problems[:20]
    Tracer.write_spans(spans_out, workdir / "spans.jsonl")

    result = {"correct": total.failed == 0 and not total.problems,
              "attempted": total.attempted, "failed": total.failed,
              "metrics": {k: {"value": v, "unit": units_of[k]}
                          for k, v in metrics.items()}}
    (workdir / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print("# " + json.dumps(info))
    for k, v in metrics.items():
        print(f"# {k:<44} {v:>16.6g} {units_of[k]}")
    print(json.dumps(result))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "coopalign" / "__init__.py").is_file():
        print(f"pipebench: no coopalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coopalign
    if not Path(coopalign.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pipebench: coopalign imported from {coopalign.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
