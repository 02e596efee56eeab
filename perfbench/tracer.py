"""Span tracer that wraps the library's public functions from outside.

``Tracer.install()`` replaces every module-level attribute of every loaded
``retrofit_control`` module that refers to one of the package's public
functions with a wrapper that records a span (name, start, end, parent,
thread).  Modules import each other's functions by name
(``retrofit.hinf_norm``, ``cli.balanced_truncate``, ``reduction.gramians``),
so every alias is replaced, and one wrapper serves all aliases of a
function.  The library itself is not edited.

Spans are kept in memory, one list per thread, so the CLI's sweep pool
does not interleave the stacks; self time is computed per thread.
``layer_metrics`` turns the spans into the benchmark's per-layer metrics.
"""

import functools
import json
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field

PACKAGE = "retrofit_control"


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into the same thread's span list; -1 at top level
    info: float | None = None


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0  # summed over spans with no same-name ancestor
    durations: list = field(default_factory=list)
    infos: list = field(default_factory=list)


def span_name(fn):
    """``<module>.<function>`` for a library function, e.g. ``numerics.hinf_norm``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _states(sys_like):
    return int(sys_like.A.shape[0])


def _hinf_states(args, kwargs, result):
    return _states(args[0] if args else kwargs["sys"])


def _minreal_removed(args, kwargs, result):
    return _states(args[0] if args else kwargs["sys"]) - _states(result)


# Per-span numbers recorded by the wrapper, keyed by span name.
PROBES = {
    "numerics.hinf_norm": _hinf_states,
    "lti.minreal": _minreal_removed,
}


class Tracer:
    """Records spans of the package's public functions while installed."""

    def __init__(self, package=PACKAGE, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.threads = []  # (thread name, span list), one entry per thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (module, attribute, original)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans = []
            with self._lock:
                self.threads.append((threading.current_thread().name, spans))
            state = self._local.state = (spans, [])
        return state

    def wrap(self, fn, name):
        """Wrapper of ``fn`` that records one span named ``name`` per call."""
        probe = PROBES.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    span.info = probe(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self):
        """Wrap every public function of the loaded package, under every alias."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        originals = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(value)] = value
        wrappers = {key: self.wrap(fn, span_name(fn)) for key, fn in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)] is value:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summarize(self):
        """Per-name call counts, self time, busy time, durations and probe values."""
        stats = {}
        for _, spans in self.threads:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span.parent >= 0:
                    child_time[span.parent] += span.end - span.start
            for i, span in enumerate(spans):
                st = stats.setdefault(span.name, Stats())
                duration = span.end - span.start
                st.calls += 1
                st.self_s += duration - child_time[i]
                st.durations.append(duration)
                if span.info is not None:
                    st.infos.append(span.info)
                if not _has_ancestor(spans, i, span.name):
                    st.busy_s += duration
        return stats

    def count_within(self, name, ancestor):
        """Spans named ``name`` that run inside a span named ``ancestor``."""
        return sum(
            1
            for _, spans in self.threads
            for i, span in enumerate(spans)
            if span.name == name and _has_ancestor(spans, i, ancestor)
        )

    def pool_phases(self, name):
        """Serial and pool phases of each span ``name`` that fans out to threads.

        For every such span, the work on other threads inside its interval
        is its pool phase.  Returns ``[(serial_s, pool_wall_s, busy_s)]``:
        the time from the span's start to the first span on another thread,
        the wall time from that first start to the last end, and the summed
        duration of the other threads' top-level spans.
        """
        phases = []
        for _, spans in self.threads:
            for outer in (s for s in spans if s.name == name):
                inner = [
                    s
                    for _, other in self.threads
                    if other is not spans
                    for s in other
                    if s.parent < 0 and outer.start <= s.start <= outer.end
                ]
                if not inner:
                    continue
                first = min(s.start for s in inner)
                last = max(s.end for s in inner)
                busy = sum(s.end - s.start for s in inner)
                phases.append((first - outer.start, last - first, busy))
        return phases

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, thread."""
        with open(path, "w") as fh:
            for thread, spans in self.threads:
                for span in spans:
                    fh.write(json.dumps({
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "thread": thread,
                    }) + "\n")


def _has_ancestor(spans, i, name):
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


VERIFY_CHECKS = (
    "check_matrix_identities",
    "check_kernel_identity",
    "check_robust_stability",
    "check_cascade_equivalence",
    "check_bound_sandwich",
)

# Every per-layer metric, with its unit.  ``<module>.<function>.<stat>``
# metrics come straight from the spans of that function.
LAYER_METRICS = (
    [
        ("numerics.hinf_norm.calls", "count"),
        ("numerics.hinf_norm.self_s", "s"),
        ("numerics.hinf_norm.states_mean", "states"),
        ("numerics.solve_lyapunov.calls", "count"),
        ("numerics.solve_lyapunov.self_s", "s"),
        ("numerics.solve_riccati.calls", "count"),
        ("numerics.solve_riccati.self_s", "s"),
        ("numerics.spectral_abscissa.calls", "count"),
        ("numerics.spectral_abscissa.self_s", "s"),
        ("reduction.balanced_truncate.calls", "count"),
        ("reduction.balanced_truncate.busy_s", "s"),
        ("reduction.gramians.calls", "count"),
        ("synthesis.hinf_synthesize.calls", "count"),
        ("synthesis.hinf_synthesize.busy_s", "s"),
        ("synthesis.hinf_synthesize.self_s", "s"),
        ("synthesis.riccati_per_synthesis", "ratio"),
        ("lti.minreal.calls", "count"),
        ("lti.minreal.self_s", "s"),
        ("lti.minreal.states_removed", "count"),
        ("lti.close_loop.calls", "count"),
        ("lti.close_loop.self_s", "s"),
        ("retrofit.performance_bounds.calls", "count"),
        ("retrofit.performance_bounds.busy_s", "s"),
        ("retrofit.performance_bounds.self_s", "s"),
        ("retrofit.performance_bounds.p50_s", "s"),
        ("retrofit.invariance_residual.self_s", "s"),
        ("retrofit.kernel_residual.self_s", "s"),
        ("retrofit.deflated_abscissa.calls", "count"),
        ("retrofit.deflated_abscissa.self_s", "s"),
        ("retrofit.deflate_hidden.self_s", "s"),
        ("retrofit.closed_loop_direct.calls", "count"),
        ("retrofit.closed_loop_direct.self_s", "s"),
    ]
    + [(f"verification.{check}.busy_s", "s") for check in VERIFY_CHECKS]
    + [
        ("cli.sweep.serial_s", "s"),
        ("cli.sweep.worker_busy_share", "ratio"),
        ("oscnet.build_network.busy_s", "s"),
        ("oscnet.partition.busy_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
)


def layer_metrics(tracer, workers, untraced_s, traced_s):
    """Every metric of ``LAYER_METRICS`` as ``{name: value}``.

    ``workers`` is the sweep pool size; ``untraced_s`` and ``traced_s`` are
    the wall times of the same work without and with the tracer.
    """
    stats = tracer.summarize()
    values = {}
    for name, _ in LAYER_METRICS:
        head, _, stat = name.rpartition(".")
        st = stats.get(head, Stats())
        if stat in ("calls", "self_s", "busy_s"):
            values[name] = getattr(st, stat)
        elif stat == "p50_s":
            values[name] = statistics.median(st.durations) if st.durations else 0.0
        elif stat == "states_mean":
            values[name] = statistics.fmean(st.infos) if st.infos else 0.0
        elif stat == "states_removed":
            values[name] = sum(st.infos)

    syntheses = stats.get("synthesis.hinf_synthesize", Stats()).calls
    riccati = tracer.count_within("numerics.solve_riccati", "synthesis.hinf_synthesize")
    values["synthesis.riccati_per_synthesis"] = riccati / syntheses if syntheses else 0.0

    phases = tracer.pool_phases("cli.cmd_sweep")
    pool_capacity = sum(workers * wall for _, wall, _ in phases)
    values["cli.sweep.serial_s"] = sum((serial for serial, _, _ in phases), 0.0)
    values["cli.sweep.worker_busy_share"] = (
        sum(busy for _, _, busy in phases) / pool_capacity if pool_capacity else 0.0
    )
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return values


def top_self_times(tracer, count=8):
    """The ``count`` span names with the largest self time: (name, s, share, calls)."""
    stats = tracer.summarize()
    self_s = {name: st.self_s for name, st in stats.items()}
    # The sweep's own thread waits while its pool works; that wait is not
    # the sweep's work, so it is left out of the ranking.
    if "cli.cmd_sweep" in self_s:
        self_s["cli.cmd_sweep"] -= sum(w for _, w, _ in tracer.pool_phases("cli.cmd_sweep"))
    total = sum(self_s.values()) or 1.0
    ranked = sorted(self_s, key=self_s.get, reverse=True)[:count]
    return [(name, self_s[name], self_s[name] / total, stats[name].calls) for name in ranked]
