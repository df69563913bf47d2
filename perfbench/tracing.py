"""Span tracer that wraps combtwin's public functions from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper, in every module namespace that holds a reference to it
(the defining module, modules that imported it by name, and the package
namespace). Each call records a span (id, parent id, name, start, end,
thread id) in memory; nothing is written until `write()` is called.

Self time is a span's duration minus the durations of its child spans on
the same thread. Work that `harness` hands to its thread pool is recorded
in the pool thread as a continuation span carrying the submitting span's
name, and the submitting thread's wait for the pool is recorded as a
`harness.pool.wait` span, so waiting is never counted as anyone's self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MODULES = ("fxp", "generator", "analyzer", "metrics", "harness", "formats", "cli")

POOL_WAIT = "harness.pool.wait"
HOOK = "trace.hook"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cordic_counts(args, kwargs, out):
    return {"generator.cordic_sincos_array.phases": int(np.size(_arg(args, kwargs, 0, "phases")))}


def _psd_counts(args, kwargs, out):
    return {"metrics.psd.points": len(_arg(args, kwargs, 0, "x"))}


def _detect_counts(args, kwargs, out):
    return {"metrics.detect_spurs.bins": len(_arg(args, kwargs, 0, "spec").values)}


def _saturate_counts(args, kwargs, out):
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    return {
        "fxp.saturate.elems": int(x.size),
        "fxp.saturate.clipped": int(np.count_nonzero(np.asarray(out) != x)),
    }


def _persist_counts(args, kwargs, out):
    total = 0
    for dirpath, _, files in os.walk(_arg(args, kwargs, 1, "out_dir")):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return {"formats.bytes_written": total}


def _loopback_counts(args, kwargs, out):
    """Full-rate samples the engine computed, derived from config and engine:
    two waveform periods for the periodic engine, every sample otherwise."""
    from combtwin.generator import waveform_period

    cfg = _arg(args, kwargs, 0, "cfg")
    g, a = cfg.generator, cfg.analyzer
    if out.engine == "periodic":
        p_band = waveform_period(g.L_acc, g.upsample_factor, g.shifter_lut_len) // g.upsample_factor
        n_band = 2 * p_band
    else:
        n_band = (cfg.acquisition_len + cfg.warmup_windows) * a.L_avg
    return {"harness.computed_samples": n_band * g.upsample_factor}


COUNT_HOOKS = {
    "generator.cordic_sincos_array": _cordic_counts,
    "metrics.psd": _psd_counts,
    "metrics.detect_spurs": _detect_counts,
    "fxp.saturate": _saturate_counts,
    "harness.persist": _persist_counts,
    "harness.run_loopback": _loopback_counts,
}


class Tracer:
    """Spans and counts of every wrapped call, from any thread."""

    def __init__(self) -> None:
        # list.append and next() on itertools.count are atomic in CPython;
        # the counts are read-modify-write and take the lock
        self.spans: list[tuple] = []  # (id, parent, name, start, end, tid, kind)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, kind, parent, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), kind))

    def _current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = tracer._current()
            parent = top[0] if top else None
            out = tracer._run(name, "call", parent, fn, args, kwargs)
            if hook is not None:
                t0 = time.perf_counter()
                counts = hook(args, kwargs, out)
                t1 = time.perf_counter()
                tracer.spans.append(
                    (next(tracer._ids), parent, HOOK, t0, t1, threading.get_ident(), "hook")
                )
                with tracer._lock:
                    for key, value in counts.items():
                        tracer.counts[key] += value
            return out

        return traced

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                top = tracer._current()
                if top is None:
                    return super().submit(fn, *args, **kwargs)
                sid, name = top

                def continuation(*a, **k):
                    return tracer._run(name, "cont", sid, fn, a, k)

                return super().submit(continuation, *args, **kwargs)

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                futures = [self.submit(fn, *args) for args in zip(*iterables)]
                top = tracer._current()
                parent = top[0] if top else None
                results = tracer._run(
                    POOL_WAIT, "wait", parent, lambda: [f.result(timeout) for f in futures], (), {}
                )
                return iter(results)

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import combtwin

        modules = {m: importlib.import_module(f"combtwin.{m}") for m in MODULES}
        replacements = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    replacements[obj] = self.wrap(f"{short}.{attr}", obj)
        for ns in (combtwin, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(ns, attr, replacements[obj])
        self._patch(modules["harness"], "ThreadPoolExecutor", self.pool_class())

    def _patch(self, ns, attr, new) -> None:
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, old in reversed(self._patched):
            setattr(ns, attr, old)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per name: `<name>.self_s`, `<name>.calls` and `<name>.total_s`
        (inclusive time of its calls); plus every count."""
        tid_of = {s[0]: s[5] for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, t0, t1, tid, _ in self.spans:
            if parent is not None and tid_of.get(parent) == tid:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, _, kind in self.spans:
            out[f"{name}.self_s"] += (t1 - t0) - child_time[sid]
            if kind == "call":
                out[f"{name}.calls"] += 1
                out[f"{name}.total_s"] += t1 - t0
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, tid, kind in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": t0,
                         "end": t1, "thread": tid, "kind": kind},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
