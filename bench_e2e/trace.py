"""Outside-in layer tracing: timing wrappers installed from here, on each
layer's public callables, and removed again afterwards.

Nothing under ``src/`` knows about this file.  :class:`Tracer` replaces
the attributes named in :data:`TARGETS` (methods at class level,
functions at module level) with wrappers that time the call, and
``remove`` puts the original objects back.

Accounting.  Every PE is an OS thread, so each thread keeps its own span
stack.  A span's *self time* is its duration minus the part its child
spans cover; a layer's ``self_s`` is the sum over its spans, on all
threads.  ``calls`` counts entries into a layer from outside it: a
layer calling itself, like ``access_strided`` -> ``access``, stays one
span, credited to the callable it was entered through.  PE threads are
cooperative — exactly one runs at a time — so the self times of all
layers plus the untraced program code add up to wall time.  The exception is the ``engine`` layer: a thread that yields
in ``Engine.checkpoint``/``suspend`` is parked while others run, so an
engine span's duration is mostly *other threads' work*.  It is
subtracted from its parent like any child, but it is never reported as
busy time; the engine's own cost is the ``engine.switch_us`` probe
times ``engine.switches``.

Module-level functions are patched in their defining module, so callers
that look the name up there at call time (the collective front-ends,
and ``workloads.py``) are traced; a caller that imported the name into
its own namespace earlier is not.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

__all__ = ["TARGETS", "Tracer"]

#: layer -> [(module, class or None, attribute names)]
TARGETS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "engine": [("repro.sim.engine", "Engine", ("checkpoint", "suspend"))],
    "memsys": [("repro.machine.memsys", "MemoryHierarchy",
                ("access", "access_range", "access_strided"))],
    "network": [("repro.machine.network", "Network", ("send", "fetch"))],
    "transfer": [("repro.runtime.transfer", "TransferEngine",
                  ("put", "get", "put_nb", "get_nb", "amo", "wait",
                   "quiet"))],
    "barrier": [("repro.runtime.barrier", "BarrierController",
                 ("barrier",))],
    "machine": [("repro.runtime.context", "Machine", ("run",))],
    "executor": [("repro.collectives.schedule.executor",
                  "PreparedCollective", ("run",))],
    "compile": [
        ("repro.collectives.broadcast", None, ("compile_broadcast",)),
        ("repro.collectives.reduce", None, ("compile_reduce",)),
        ("repro.collectives.allreduce", None, ("compile_allreduce",)),
        ("repro.collectives.scan", None, ("compile_scan",)),
        ("repro.collectives.scatter", None, ("compile_scatter",)),
        ("repro.collectives.gather", None, ("compile_gather",)),
        ("repro.collectives.extra", None,
         ("compile_allgather", "compile_allgather_pat", "compile_alltoall")),
        ("repro.collectives.reduce_scatter", None,
         ("compile_reduce_scatter",)),
    ],
    "lint": [("repro.collectives.schedule.lint", None, ("lint_schedule",))],
    "evaluate": [("repro.collectives.schedule.evaluate", None,
                  ("evaluate_schedule",))],
    "serve": [("repro.serve.pool", "ServePool",
               ("submit", "pump", "poll"))],
}

#: Spans kept for the Chrome trace (the aggregates see every span).
MAX_KEPT_SPANS = 20000


class _ThreadState:
    """One thread's span stack and per-callable accumulators."""

    __slots__ = ("stack", "acc", "name")

    def __init__(self, name: str):
        #: open spans, innermost last: [layer, child seconds so far]
        self.stack: list[list] = []
        #: callable -> [entries into its layer, self seconds]
        self.acc: dict[str, list[float]] = {}
        self.name = name


class Tracer:
    """Installs, aggregates and removes the layer wrappers."""

    def __init__(self, keep_spans: bool = False):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self._layer_of: dict[str, str] = {}
        self._keep = keep_spans
        self.spans: list[tuple] = []   # (layer, name, thread, t0, t1, parent)
        #: the ``SimStats`` of every ``Machine.run``
        self.machine_stats: list[object] = []
        #: engine yields after which another thread had run
        self.switches = 0
        self._running: int | None = None
        #: schedules a ``compile_*`` call already returned once: a cache
        #: hit hands back the identical object (values pin the ids)
        self._seen_schedules: dict[int, object] = {}
        self.compile_cold_s = 0.0

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.current_thread().name)
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, orig):
        state = self._state
        clock = time.perf_counter
        keep = self._keep
        spans = self.spans
        tracer = self
        self._layer_of[name] = layer

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                # A layer calling itself stays one span: its time is
                # already inside the entry span, and not timing it keeps
                # the wrapper cost out of the layer's self time.
                return orig(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                acc = st.acc.get(name)
                if acc is None:
                    acc = st.acc[name] = [0, 0.0]
                acc[0] += 1
                acc[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep and len(spans) < MAX_KEPT_SPANS:
                    spans.append((layer, name, st.name, t0, t1,
                                  stack[-1][0] if stack else None))

        if layer == "engine":
            def traced(*args, **kwargs):
                me = threading.get_ident()
                tracer._running = me
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    if tracer._running != me:
                        tracer.switches += 1
                        tracer._running = me
        elif layer == "machine":
            def traced(machine, *args, **kwargs):
                try:
                    return wrapper(machine, *args, **kwargs)
                finally:
                    tracer.machine_stats.append(machine.stats)
        elif layer == "compile":
            def traced(*args, **kwargs):
                t0 = clock()
                sched = wrapper(*args, **kwargs)
                if id(sched) not in tracer._seen_schedules:
                    tracer._seen_schedules[id(sched)] = sched
                    tracer.compile_cold_s += clock() - t0
                return sched
        else:
            traced = wrapper
        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", name)
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for layer, targets in TARGETS.items():
            for modname, clsname, attrs in targets:
                owner = importlib.import_module(modname)
                if clsname is not None:
                    owner = getattr(owner, clsname)
                prefix = clsname or modname.rsplit(".", 1)[1]
                for attr in attrs:
                    orig = owner.__dict__[attr]
                    setattr(owner, attr,
                            self._wrap(layer, f"{prefix}.{attr}", orig))
                    self._installed.append((owner, attr, orig))

    def remove(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- results -------------------------------------------------------------

    def callables(self) -> dict[str, dict[str, float]]:
        """Per wrapped callable: entries into its layer through it and
        self seconds, summed over every thread that ran it."""
        out = {name: {"layer": layer, "calls": 0, "self_s": 0.0}
               for name, layer in self._layer_of.items()}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, self_s) in st.acc.items():
                out[name]["calls"] += calls
                out[name]["self_s"] += self_s
        return out

    def layers(self) -> dict[str, dict[str, float]]:
        """:meth:`callables` folded by layer."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in TARGETS}
        for row in self.callables().values():
            out[row["layer"]]["calls"] += row["calls"]
            out[row["layer"]]["self_s"] += row["self_s"]
        return out

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as a Chrome-trace document: name, start, end,
        parent layer, and the thread (``pe-<rank>`` on the simulator,
        the driver thread for serve) as the shared identifier."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": thread,
            "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"parent": parent},
        } for layer, name, thread, t0, t1, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"clock": "host perf_counter",
                                     "max_spans": MAX_KEPT_SPANS}}, fh)
