"""Span recorder for the traced benchmark run.

The recorder replaces each traced public function of `fblimits` at every
module binding a caller resolves through (for example both
`fblimits.spectra.mp_integrate` and `fblimits.ratefn.mp_integrate`), so no
file under src/ changes.  Each call becomes a span (id, parent, name, start,
end, thread, op) pushed on a per-thread stack; spans stay in memory and are
written once at the end.  A span's self time is its duration minus that of
its children on the same thread.  Calls made from worker threads have no
parent there, so a caller that waits on a thread pool counts the wait as
its own time.

Work counters are computed from call arguments, not measured: they say how
much work a call was asked to do.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import sys
import threading
import time

import numpy as np
from fblimits.spectra import DEFAULT_QUADRATURE


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _quad_nodes(args, kwargs):
    # mp_integrate(law, g, cfg=DEFAULT_QUADRATURE)
    return {"quad_nodes": _arg(args, kwargs, 2, "cfg", DEFAULT_QUADRATURE).node_count}


def _panel(lam, samples):
    return {"panel_bytes": int(samples) * np.asarray(lam).size * 8}


def _rand_panel(args, kwargs):
    # c_rand_via_cdf(lam, r_fb, mode, samples, seed); r_fb = 0 draws no panel.
    if _arg(args, kwargs, 1, "r_fb") == 0:
        return None
    return _panel(args[0], _arg(args, kwargs, 3, "samples"))


def _bound_panel(args, kwargs):
    # uniform_codebook_bound(lam, r_fb, mode, seed, samples=20000)
    if _arg(args, kwargs, 1, "r_fb") == 0:
        return None
    return _panel(args[0], _arg(args, kwargs, 4, "samples", 20000))


def _quantile_panel(args, kwargs):
    # quantile_x_n(lam, p, seed, samples=20000)
    return _panel(args[0], _arg(args, kwargs, 3, "samples", 20000))


def _tilted_panel(args, kwargs):
    # conditional_cdf_tilted(lam, x, samples, seed)
    return _panel(args[0], _arg(args, kwargs, 2, "samples"))


def _qforms(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"qforms": (1 << cfg.r_fb) * cfg.trials}


def _gram(args, kwargs):
    size = _arg(args, kwargs, 1, "size")
    return {"gram_bytes": size * size * 16} if size >= 2 else None


def _design_iters(args, kwargs):
    # Eight restarts of `iterations` descent steps each.
    if _arg(args, kwargs, 1, "size") < 2:
        return None
    return {"design_iters": 8 * _arg(args, kwargs, 3, "iterations", 800)}


# (layer, module under fblimits, function, work counter)
TRACED = (
    ("spectra", "spectra", "mp_integrate", _quad_nodes),
    ("spectra", "spectra", "sample_spectrum", None),
    ("ratefn", "ratefn", "cgf_prime", None),
    ("ratefn", "ratefn", "rate_zero", None),
    ("ratefn", "ratefn", "rate_function", None),
    ("limits", "limits", "asymptotic_limits", None),
    ("limits", "limits", "solve_x_by_rate", None),
    ("montecarlo.codebook", "montecarlo", "random_codebook", _gram),
    ("montecarlo.codebook", "montecarlo", "design_codebook", _design_iters),
    ("montecarlo.direct", "montecarlo", "simulate_c_direct", _qforms),
    ("montecarlo.spectral", "montecarlo", "simulate_c_spectral", None),
    ("montecarlo.cdf", "montecarlo", "simulate_c_cdf", None),
    ("montecarlo.cdf", "montecarlo", "c_rand_via_cdf", _rand_panel),
    ("montecarlo.cdf", "montecarlo", "quantile_x_n", _quantile_panel),
    ("montecarlo.cdf", "montecarlo", "uniform_codebook_bound", _bound_panel),
    ("montecarlo.cdf", "montecarlo", "conditional_cdf_tilted", _tilted_panel),
    ("montecarlo.cdf", "montecarlo", "ldp_rate_estimate", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TRACED))
OP = "op"  # the benchmark's own root span around each op


class Recorder:
    """In-memory spans with per-thread stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, work):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            counts = work(args, kwargs) if work is not None else None
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), self.op, counts))

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, work)

        return traced

    def install(self) -> None:
        """Wrap every traced function at every `fblimits` module binding."""
        wrappers = {}
        for layer, module, func, work in TRACED:
            fn = getattr(sys.modules[f"fblimits.{module}"], func)
            wrappers[id(fn)] = self._wrap(f"{layer}.{func}", fn, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fblimits" and not mod_name.startswith("fblimits."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)

    def run_op(self, index, fn, *args):
        """Run one op, recording it under a root span that tags its spans with `index`.

        Wrapped functions record spans only inside run_op, so the
        benchmark's own checks stay untraced.
        """
        self.op = index
        self.active = True
        try:
            return self._record(OP, fn, args, {}, None)
        finally:
            self.active = False

    def write(self, path) -> None:
        fields = ["id", "parent", "name", "start_ns", "end_ns", "thread", "op", "work"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-name calls, self time, work counts and calls made from each parent."""
        names = {sid: name for sid, _, name, *_ in self.spans}
        child_ns = collections.Counter()
        for _, parent, _, start, end, *_ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = collections.Counter()
        self_ns = collections.Counter()
        work = collections.Counter()
        calls_from = collections.Counter()
        for sid, parent, name, start, end, _, _, counts in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
            if counts:
                work.update(counts)
            if parent is not None:
                calls_from[(names[parent], name)] += 1
        return {"calls": calls, "self_ns": self_ns, "work": work, "calls_from": calls_from}


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-layer metrics, per op unless the name says otherwise."""
    calls, self_ns = summary["calls"], summary["self_ns"]
    work, calls_from = summary["work"], summary["calls_from"]

    def per_op(x):
        return x / ops

    def self_ms(name):
        return per_op(self_ns[name] / 1e6)

    def ratio(num, den):
        return num / den if den else 0.0

    total_ns = sum(self_ns.values())
    m = {}
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.rpartition(".")[0] == layer)
        m[f"{layer}.self_frac"] = ratio(layer_ns, total_ns)
    m["spectra.mp_integrate.calls"] = per_op(calls["spectra.mp_integrate"])
    m["spectra.mp_integrate.self_ms"] = self_ms("spectra.mp_integrate")
    m["spectra.quad_nodes"] = per_op(work["quad_nodes"])
    m["spectra.sample_spectrum.calls"] = per_op(calls["spectra.sample_spectrum"])
    m["spectra.sample_spectrum.self_ms"] = self_ms("spectra.sample_spectrum")
    m["ratefn.rate_zero.calls"] = per_op(calls["ratefn.rate_zero"])
    m["ratefn.rate_zero.self_ms"] = self_ms("ratefn.rate_zero")
    m["ratefn.cgf_prime.calls"] = per_op(calls["ratefn.cgf_prime"])
    m["ratefn.rate_function.cgf_prime_per_call"] = ratio(
        calls_from[("ratefn.rate_function", "ratefn.cgf_prime")], calls["ratefn.rate_function"]
    )
    m["limits.asymptotic_limits.self_ms"] = self_ms("limits.asymptotic_limits")
    m["limits.solve_x_by_rate.self_ms"] = self_ms("limits.solve_x_by_rate")
    m["limits.solve_x_by_rate.rate_zero_per_call"] = ratio(
        calls_from[("limits.solve_x_by_rate", "ratefn.rate_zero")], calls["limits.solve_x_by_rate"]
    )
    m["montecarlo.cdf.c_rand_via_cdf.calls"] = per_op(calls["montecarlo.cdf.c_rand_via_cdf"])
    m["montecarlo.cdf.c_rand_via_cdf.self_ms"] = self_ms("montecarlo.cdf.c_rand_via_cdf")
    m["montecarlo.cdf.panel_mb"] = per_op(work["panel_bytes"] / 1e6)
    m["montecarlo.cdf.quantile_x_n.self_ms"] = self_ms("montecarlo.cdf.quantile_x_n")
    m["montecarlo.cdf.uniform_codebook_bound.self_ms"] = self_ms("montecarlo.cdf.uniform_codebook_bound")
    m["montecarlo.cdf.conditional_cdf_tilted.self_ms"] = self_ms("montecarlo.cdf.conditional_cdf_tilted")
    direct_ns = self_ns["montecarlo.direct.simulate_c_direct"]
    m["montecarlo.direct.simulate_c_direct.self_ms"] = self_ms("montecarlo.direct.simulate_c_direct")
    m["montecarlo.direct.qforms"] = per_op(work["qforms"])
    m["montecarlo.direct.qforms_per_s"] = ratio(work["qforms"], direct_ns / 1e9)
    m["montecarlo.spectral.simulate_c_spectral.self_ms"] = self_ms("montecarlo.spectral.simulate_c_spectral")
    m["montecarlo.codebook.random_codebook.self_ms"] = self_ms("montecarlo.codebook.random_codebook")
    m["montecarlo.codebook.gram_mb"] = per_op(work["gram_bytes"] / 1e6)
    m["montecarlo.codebook.design_iters"] = per_op(work["design_iters"])
    m["montecarlo.codebook.design_codebook.self_ms_per_iter"] = ratio(
        self_ns["montecarlo.codebook.design_codebook"] / 1e6, work["design_iters"]
    )
    return m
