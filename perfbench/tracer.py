"""Outside-in spans around tilqr's public functions.

The tracer lives in the benchmark, not in the program: it rebinds each
traced function in every ``tilqr`` module namespace that holds it, so the
call sites inside tilqr (``cli`` calling ``simulate_paths``, ``montecarlo``
calling ``ndtri``, ``hjbgrid`` calling ``extended_hamiltonian``) go through
a wrapper. Each wrapper records one span with its parent and the
``getrusage(RUSAGE_SELF)`` deltas of minor faults and system time, plus
counts worked out from the call's arguments and return value. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    minflt: int = 0
    sys_s: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# Counts taken from arguments (``a``, the bound arguments) and the return
# value (``r``). Each is labelled "computed" in the metric list when it is
# worked out from array shapes rather than observed.
def _noise_info(a, r):
    return {"draws": a["n_streams"] * a["n_draws"], "bytes": int(r.nbytes),
            "key": (int(a["seed"]), int(a["first_stream"]), int(a["n_streams"]),
                    int(a["n_draws"]))}


def _simulate_info(a, r):
    cfg = a["config"]
    return {"path_steps": cfg.n_paths * cfg.n_steps,
            "retained_bytes": int(r.states.nbytes + r.controls.nbytes),
            "paths_dropped": int(cfg.n_paths - np.count_nonzero(r.valid_mask))}


def _stream_info(a, r):
    cfg = a["config"]
    return {"path_steps": cfg.n_paths * cfg.n_steps}


def _field_bytes(sol) -> int:
    return int(sol.v.nbytes + sol.j.nbytes + sol.alpha.nbytes)


def _grid_sweep_info(a, r):
    return {"field_bytes": _field_bytes(r)}


def _grid_picard_info(a, r):
    trace = r.report.trace
    return {"field_bytes": _field_bytes(r), "passes": r.report.iterations,
            "windows": len(trace),
            "useful_steps": sum((w.k_hi - w.k_lo) * len(w.distances) for w in trace)}


# (module that binds the name, name, span name, counts from the call)
TARGETS = (
    ("tilqr.cli", "main", "cli.main", None),
    ("tilqr.cli", "render_svg", "svgplot.render", None),
    ("tilqr.montecarlo", "raw_blocks", "montecarlo.philox", None),
    ("tilqr.montecarlo", "ndtri", "montecarlo.ndtri", None),
    ("tilqr.montecarlo", "normal_stream", "montecarlo.noise", _noise_info),
    ("tilqr.montecarlo", "simulate_paths", "montecarlo.simulate", _simulate_info),
    ("tilqr.montecarlo", "estimate_cost_streaming", "montecarlo.stream", _stream_info),
    ("tilqr.montecarlo", "estimate_cost", "montecarlo.estimate", None),
    ("tilqr.montecarlo", "compare_strategies", "montecarlo.compare", None),
    ("tilqr.riccati", "rk4_backward", "riccati.rk4",
     lambda a, r: {"steps": a["grid"].n_steps}),
    ("tilqr.evaluation", "solve_moments", "evaluation.moments",
     lambda a, r: {"steps": a["gain"].grid.n_steps}),
    ("tilqr.hjbgrid", "solve_extended_hjb_sweep", "hjbgrid.sweep", _grid_sweep_info),
    ("tilqr.hjbgrid", "solve_extended_hjb_picard", "hjbgrid.picard", _grid_picard_info),
    ("tilqr.hjbgrid", "extended_hamiltonian", "model.hamiltonian", None),
)


class Tracer:
    """Records spans for the functions in ``TARGETS`` once installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, info):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):  # numpy ufuncs such as ndtri
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span = Span(id=len(self.spans), name=name,
                            parent=stack[-1].id if stack else None, start=0.0)
                self.spans.append(span)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                span.minflt = ru1.ru_minflt - ru0.ru_minflt
                span.sys_s = ru1.ru_stime - ru0.ru_stime
            if info is not None and sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Rebind every target in each ``tilqr`` namespace that holds it.

        A target its module no longer defines is listed in ``absent`` and
        left out; its metrics then read 0.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tilqr" or n.startswith("tilqr."))]
        for mod_name, attr, span_name, info in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span_name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)


def layer_metrics(spans) -> dict:
    """Per-layer times and counts of one workload iteration."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(name, of=None):
        return sum((of or {}).get(s.id, s.duration) for s in spans if s.name == name)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def layer_outer(prefix):
        # outermost spans of a layer, so nested calls are not counted twice
        out = []
        for s in spans:
            parent = by_id.get(s.parent)
            if s.name.startswith(prefix) and not (parent and parent.name.startswith(prefix)):
                out.append(s)
        return out

    def under(span_name, ancestor):
        n = 0
        for s in spans:
            if s.name != span_name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != ancestor:
                p = by_id.get(p.parent)
            n += p is not None
        return n

    # noise reuse: within each root span (one public call the workload made),
    # draws that a distinct (seed, stream, draw) needed versus draws generated
    root_of = {}
    for s in spans:
        p = s
        while p.parent is not None:
            p = by_id[p.parent]
        root_of[s.id] = p.id
    needed, generated = 0, 0
    per_root = {}
    for s in spans:
        if s.name == "montecarlo.noise" and "key" in s.info:
            per_root.setdefault(root_of[s.id], []).append(s.info["key"])
            generated += s.info["draws"]
    for keys in per_root.values():
        reach = {}
        for seed, first, n, draws in keys:
            arr = reach.setdefault(seed, np.zeros(0, dtype=np.int64))
            if arr.size < first + n:
                arr = np.concatenate([arr, np.zeros(first + n - arr.size, dtype=np.int64)])
            np.maximum(arr[first:first + n], draws, out=arr[first:first + n])
            reach[seed] = arr
        needed += sum(int(a.sum()) for a in reach.values())

    grid_outer = layer_outer("hjbgrid.")
    mc_outer = layer_outer("montecarlo.")
    hjb_calls = under("model.hamiltonian", "hjbgrid.sweep") + under("model.hamiltonian",
                                                                    "hjbgrid.picard")
    grid_s = total("hjbgrid.sweep") + total("hjbgrid.picard")
    picard_calls = under("model.hamiltonian", "hjbgrid.picard")
    return {
        "riccati.rk4_s": total("riccati.rk4"),
        "riccati.rk4_calls": count("riccati.rk4"),
        "riccati.rk4_steps": info_sum("riccati.rk4", "steps"),
        "evaluation.moments_s": total("evaluation.moments"),
        "evaluation.moments_steps": info_sum("evaluation.moments", "steps"),
        "montecarlo.philox_s": total("montecarlo.philox"),
        "montecarlo.ndtri_s": total("montecarlo.ndtri"),
        "montecarlo.noise_self_s": total("montecarlo.noise", own),
        "montecarlo.noise_draws": info_sum("montecarlo.noise", "draws"),
        "montecarlo.noise_bytes": info_sum("montecarlo.noise", "bytes"),
        "montecarlo.noise_useful_ratio": needed / generated if generated else 0.0,
        "montecarlo.euler_self_s": total("montecarlo.simulate", own)
                                   + total("montecarlo.stream", own),
        "montecarlo.reduce_s": total("montecarlo.estimate"),
        "montecarlo.path_steps": info_sum("montecarlo.simulate", "path_steps")
                                 + info_sum("montecarlo.stream", "path_steps"),
        "montecarlo.compare_self_s": total("montecarlo.compare", own),
        "montecarlo.retained_bytes": info_sum("montecarlo.simulate", "retained_bytes"),
        "montecarlo.paths_dropped": info_sum("montecarlo.simulate", "paths_dropped"),
        "montecarlo.minflt": sum(s.minflt for s in mc_outer),
        "hjbgrid.sweep_s": total("hjbgrid.sweep"),
        "hjbgrid.picard_s": total("hjbgrid.picard"),
        "hjbgrid.slice_steps": hjb_calls,
        "hjbgrid.s_per_slice_step": grid_s / hjb_calls if hjb_calls else 0.0,
        "hjbgrid.picard_passes": info_sum("hjbgrid.picard", "passes"),
        "hjbgrid.picard_windows": info_sum("hjbgrid.picard", "windows"),
        "hjbgrid.picard_useful_ratio": (info_sum("hjbgrid.picard", "useful_steps")
                                        / picard_calls if picard_calls else 0.0),
        "hjbgrid.field_bytes": info_sum("hjbgrid.sweep", "field_bytes")
                               + info_sum("hjbgrid.picard", "field_bytes"),
        "hjbgrid.minflt": sum(s.minflt for s in grid_outer),
        "hjbgrid.sys_s": sum(s.sys_s for s in grid_outer),
        "model.hamiltonian_s": total("model.hamiltonian"),
        "model.hamiltonian_calls": count("model.hamiltonian"),
        "svgplot.render_s": total("svgplot.render"),
        "cli.self_s": total("cli.main", own),
        "trace.spans": len(spans),
    }
