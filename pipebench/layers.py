"""Per-layer metrics and exact-count checks computed from recorded spans.

Every metric is normalised per unit (one trial, or one sweep call on
ml-sweep) so counts repeat exactly from run to run.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import UNITS, ancestor, self_times

# nearest_point cost model, per (observation, candidate) pair: the numpy
# path forms the complex difference (2 ops), its magnitude (2 mul, 1 add,
# 1 sqrt) and one argmin comparison; the jitted path skips the sqrt
KERNEL_OPS_PER_PAIR = {"numpy": 7, "numba": 6}


def kernel_cost(rows, points, path, chunk):
    """(operations, computed bytes moved) for one nearest_point call.

    Bytes are computed from array sizes and ignore cache hits: the numpy
    path writes and reads a complex128 difference and a float64 magnitude
    per pair, re-reads the candidate points once per chunk of ``chunk``
    observations, reads y and writes one int64 per observation; the jitted
    path streams the candidates once per observation.
    """
    pairs = rows * points
    if path == "numba":
        moved = 16 * rows + 16 * pairs + 8 * rows
    else:
        moved = (16 * rows + 48 * pairs + 16 * points * math.ceil(rows / chunk)
                 + 8 * rows)
    return KERNEL_OPS_PER_PAIR[path] * pairs, moved


PER_LAYER = (
    # (metric, unit)
    ("lattice.channel_is_generic.self_ms", "ms/trial"),
    ("lattice.channel_is_generic.calls", "count/trial"),
    ("lattice.channel_is_generic.carriers", "count/trial"),
    ("tx_protocol.verify_diagonalization.self_ms", "ms/trial"),
    ("lattice.monomial_table.calls", "count/trial"),
    ("lattice.monomial_table.self_ms", "ms/trial"),
    ("lattice.monomial_table.bytes_out", "B/trial"),
    ("indices.gather_block.calls", "count/trial"),
    ("indices.gather_block.self_ms", "ms/trial"),
    ("indices.gather_block.bytes_out", "B/trial"),
    ("indices.embed_shifted.self_ms", "ms/trial"),
    ("tx_protocol.tx_round.self_ms", "ms/trial"),
    ("tx_protocol.symbols", "count/trial"),
    ("rx_protocol.run_rx_protocol.self_ms", "ms/trial"),
    ("rx_protocol.messages", "count/trial"),
    ("rx_protocol.symbols", "count/trial"),
    ("detection.genie_detect.self_ms", "ms/trial"),
    ("lattice.exact_observations.self_ms", "ms/trial"),
    ("kernels.nearest_point.self_ms", "ms/trial"),
    ("kernels.nearest_point.pairs", "count/trial"),
    ("kernels.nearest_point.ops", "count/trial"),
    ("kernels.nearest_point.bytes_computed", "B/trial"),
    ("kernels.nearest_point.ops_per_byte", "ops/B"),
    ("detection.candidate_tables.self_ms", "ms/trial"),
    ("backhaul.bits", "bits/trial"),
    ("backhaul.trace_records.self_ms", "ms/trial"),
    ("tradeoff.reports.self_ms", "ms/trial"),
    ("harness.run_trial.self_ms", "ms/trial"),
    ("harness.persist.self_ms", "ms/trial"),
    ("harness.persist.bytes", "B/trial"),
    ("harness.pool.wait_ms", "ms/trial"),
    ("trace.overhead_pct", "%"),
)

_SPAN_OF = {  # metric prefix -> span name, where they differ
    "kernels.nearest_point": "_kernels.nearest_point",
    "backhaul.trace_records": "backhaul.BackhaulLedger.trace_records",
}

SCREEN = ("lattice.channel_is_generic",)
SWEEP = ("detection.reduced_error_sweep",)
_REPORTS = ("tradeoff.centralized_report", "tradeoff.tdma_report",
            "tradeoff.illustrating_example", "tradeoff.rx_sum_upper_bound",
            "tradeoff.tx_sum_upper_bound")


def layer_metrics(spans, units, pool_spans, pool_trials, persist_bytes,
                  overhead_pct, kernel_path, kernel_chunk):
    """Per-unit metrics from the traced serial reps (``spans``, ``units``
    unit spans) and the traced pool reps (``pool_spans``)."""
    own = self_times(spans)
    calls, self_s, attr = defaultdict(int), defaultdict(float), defaultdict(float)
    carriers = pairs = ops = moved = 0
    for i, (name, _s, _e, _p, _t, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        for key, val in attrs.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                attr[name, key] += val
        if name == "lattice.monomial_table" and ancestor(spans, i, SCREEN) >= 0:
            carriers += attrs.get("size", 0)
        if name == "_kernels.nearest_point" and "error" not in attrs:
            o, b = kernel_cost(attrs["rows"], attrs["points"], kernel_path,
                               kernel_chunk)
            pairs += attrs["rows"] * attrs["points"]
            ops, moved = ops + o, moved + b

    per = 1.0 / units if units else 0.0
    out = {}
    for metric, _unit in PER_LAYER:
        prefix, _, field_ = metric.rpartition(".")
        span = _SPAN_OF.get(prefix, prefix)
        if field_ == "self_ms":
            out[metric] = 1e3 * self_s[span] * per
        elif field_ == "calls":
            out[metric] = calls[span] * per
        elif field_ == "bytes_out":
            out[metric] = attr[span, field_] * per
    own_pool = self_times(pool_spans)
    pool_wait = sum(own_pool[i] for i, s in enumerate(pool_spans)
                    if s[0] == "harness.run_experiment")
    rx, tx = "rx_protocol.run_rx_protocol", "tx_protocol.run_tx_backhaul"
    out.update({
        "lattice.channel_is_generic.carriers": carriers * per,
        "tx_protocol.symbols": attr[tx, "symbols"] * per,
        "rx_protocol.messages": attr[rx, "messages"] * per,
        "rx_protocol.symbols": attr[rx, "symbols"] * per,
        "kernels.nearest_point.pairs": pairs * per,
        "kernels.nearest_point.ops": ops * per,
        "kernels.nearest_point.bytes_computed": moved * per,
        "kernels.nearest_point.ops_per_byte": ops / moved if moved else 0.0,
        "backhaul.bits": (attr[rx, "bits"] + attr[tx, "bits"]) * per,
        "tradeoff.reports.self_ms": 1e3 * sum(self_s[r] for r in _REPORTS) * per,
        "harness.persist.self_ms": 1e3 * self_s["harness.run_experiment"] * per,
        "harness.persist.bytes": persist_bytes * per,
        "harness.pool.wait_ms": 1e3 * pool_wait / pool_trials if pool_trials else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    return {metric: out[metric] for metric, _unit in PER_LAYER}


def count_mismatches(spans, detections_per_sweep=None, candidates=None):
    """Check exact counts against their closed forms; returns
    (indices of the unit spans holding a mismatch, messages)."""
    bad, notes = set(), []
    sizes = defaultdict(int)      # screen span index -> carriers it built
    pairs = defaultdict(int)      # sweep span index -> kernel pairs under it
    for i, (name, *_r, attrs) in enumerate(spans):
        if name == "lattice.monomial_table":
            sizes[ancestor(spans, i, SCREEN)] += attrs.get("size", 0)
        elif name == "_kernels.nearest_point":
            pairs[ancestor(spans, i, SWEEP)] += (
                attrs.get("rows", 0) * attrs.get("points", 0))

    def expect(i, what, got, want):
        if got != want:
            bad.add(i if spans[i][0] in UNITS else ancestor(spans, i, UNITS))
            notes.append(f"{spans[i][0]} (trial {spans[i][4]}): {what} "
                         f"{got}, closed form {want}")

    for i, (name, _s, _e, _p, _t, attrs) in enumerate(spans):
        if "error" in attrs:
            continue
        if name == "rx_protocol.run_rx_protocol":
            n = attrs["n"]
            expect(i, "symbols", attrs["symbols"], 3 * n ** 9)
            expect(i, "messages", attrs["messages"], 3 * n)
        elif name == "tx_protocol.run_tx_backhaul":
            n = attrs["n"]
            expect(i, "symbols", attrs["symbols"], 3 * (n + 1) ** 9)
            expect(i, "messages", attrs["messages"], 3 * (n + 1))
        elif name == "lattice.channel_is_generic" and attrs["generic"]:
            expect(i, "carriers screened", sizes[i], (attrs["n"] + 1) ** 9)
        elif name == "detection.reduced_error_sweep" and detections_per_sweep:
            expect(i, "kernel pairs", pairs[i], detections_per_sweep * candidates)
    return bad, notes
