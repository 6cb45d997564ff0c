"""In-memory spans around coopalign's public functions.

A ``Tracer`` replaces each target function at every module attribute (or
class attribute) that holds it, so calls the package makes between its own
modules are recorded too, and puts the originals back on ``uninstall``.
Nothing under ``src/`` is edited: the wrapping lives in the benchmark
process only.

A span is ``[name, start, end, parent, trial, attrs]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``trial`` is inherited from the
enclosing unit span, and ``attrs`` holds exact counts taken from the call's
arguments and result (sizes, symbols, pairs) plus ``error`` when it raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "coopalign"


def _nbytes(out):
    return {"bytes_out": int(out.nbytes), "size": int(out.size)}


def _ledger_counts(args, kwargs, res):
    n = args[0][0].n
    ledger = res.ledger
    return {"n": n, "messages": len(ledger.messages),
            "symbols": int(ledger.total_symbols),
            "bits": float(sum(ledger.per_link_bits().values()))}


def _pairs(args, kwargs, out):
    return {"rows": len(args[0]), "points": len(args[1])}


def _screen_depth(args, kwargs, out):
    return {"n": int(args[1]), "generic": bool(out)}


def _jobs(args, kwargs, out):
    return {"jobs": int(kwargs.get("jobs", args[1] if len(args) > 1 else 1))}


# (dotted target under the package, how to measure a finished call).  The
# measure gets (args, kwargs, result) and returns counts; it must not keep
# references to the arrays it looks at.
LAYERS = (
    ("harness.run_experiment", _jobs),
    ("harness.run_trial", None),
    ("lattice.channel_is_generic", _screen_depth),
    ("lattice.monomial_table", lambda a, k, out: _nbytes(out)),
    ("lattice.exact_observations", None),
    ("indices.gather_block", lambda a, k, out: _nbytes(out)),
    ("indices.embed_shifted", lambda a, k, out: _nbytes(out)),
    ("rx_protocol.run_rx_protocol", _ledger_counts),
    ("tx_protocol.run_tx_backhaul", _ledger_counts),
    ("tx_protocol.tx_round", None),
    ("tx_protocol.verify_diagonalization", None),
    ("detection.genie_detect", None),
    ("detection.reduced_error_sweep", None),
    ("detection.candidate_tables", None),
    ("_kernels.nearest_point", _pairs),
    ("backhaul.BackhaulLedger.trace_records", None),
    ("tradeoff.centralized_report", None),
    ("tradeoff.tdma_report", None),
    ("tradeoff.illustrating_example", None),
    ("tradeoff.rx_sum_upper_bound", None),
    ("tradeoff.tx_sum_upper_bound", None),
)

# unit spans: one per trial (harness) or per sweep call (ML detection)
UNITS = ("harness.run_trial", "detection.reduced_error_sweep")


def _resolve(target):
    """(owner object, attribute, original function) for a dotted target, or
    None when the package no longer has it."""
    mod_name, *rest = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, rest[-1], None) if owner is not None else None
    return None if fn is None else (owner, rest[-1], fn)


class Tracer:
    """Records spans for a chosen subset of ``LAYERS`` while installed."""

    def __init__(self, targets):
        self.targets = [(t, m) for t, m in LAYERS if t in targets]
        self.spans = []
        self._stack = []
        self._patched = []
        self._units = 0

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack
        is_unit = name in UNITS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_unit:
                trial = args[1] if name == "harness.run_trial" else self._units
                self._units += 1
            else:
                trial = spans[parent][4] if parent >= 0 else None
            rec = [name, 0.0, 0.0, parent, trial, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5]["error"] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                rec[5].update(measure(args, kwargs, out))
            return out

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target, measure in self.targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, attr, fn = found
            wrapped = self._wrap(target, fn, measure)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(m, k) for m in modules
                           for k, v in list(vars(m).items()) if v is fn]
            for obj, key in holders:
                self._patched.append((obj, key, fn))
                setattr(obj, key, wrapped)

    def uninstall(self):
        for obj, key, fn in reversed(self._patched):
            setattr(obj, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def write_spans(spans, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trial, attrs in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial,
                                     **attrs}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its direct children
    cover.  The program is serial, so children never overlap."""
    own = [end - start for _, start, end, *_ in spans]
    for i, (_, start, end, parent, *_r) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
    return own


def ancestor(spans, i, names):
    """Index of the nearest span enclosing span i whose name is in
    ``names``, or -1."""
    j = spans[i][3]
    while j >= 0 and spans[j][0] not in names:
        j = spans[j][3]
    return j
