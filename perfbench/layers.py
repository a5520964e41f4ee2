"""Outside-in layer tracing for the traced benchmark run.

:class:`Tracer` wraps the public entry points of each layer at class (or
module) level, from this file only: nothing under ``src/`` knows it is
being measured.  A wrapper records a span per call; a layer's *self* time
is its span's duration minus the time its child spans cover, kept on one
span stack per process.  Generator entry points (the MPI collectives)
return before their work is done, so those are counted, not timed.

Every scheduled event also passes through the census: ``schedule_at``
replaces the callback with a :class:`_Fire` shim that remembers which
layer the event serves, so scheduled, cancelled and fired-time totals add
up per owner.  The shim calls the original callback with the original
arguments, so a traced run fires the same events in the same order and
reproduces the untraced digest (the benchmark checks this).

Install with :meth:`Tracer.install`, always paired with
:meth:`Tracer.uninstall` in a ``finally``; every patch is restored.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

#: Census owners.  A scheduler callback that acts on a thread is charged
#: to the layer that owns the thread (an app rank's compute completion to
#: ``apps``, a daemon's wakeup to ``daemons``); tick checks to ``ticks``;
#: any other callback to the package that defines it.
OWNERS = ("kernel", "ticks", "daemons", "mpi", "net", "cosched", "trace", "apps", "other")

_CATEGORY_OWNER = {
    "app": "apps",
    "daemon": "daemons",
    "interrupt": "daemons",
    "io": "daemons",
    "cosched": "cosched",
    "mpi_timer": "mpi",
}

_MODULE_OWNER = (
    ("repro.kernel.ticks", "ticks"),
    ("repro.kernel", "kernel"),
    ("repro.daemons", "daemons"),
    ("repro.mpi", "mpi"),
    ("repro.net", "net"),
    ("repro.cosched", "cosched"),
    ("repro.trace", "trace"),
    ("repro.apps", "apps"),
)

_MISSING = object()


class _Fire:
    """Event-callback shim: times the callback and charges its owner."""

    __slots__ = ("fn", "owner", "tracer")

    def __init__(self, fn, owner: str, tracer: "Tracer") -> None:
        self.fn = fn
        self.owner = owner
        self.tracer = tracer

    def __call__(self, *args):
        tracer = self.tracer
        stack = tracer._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            self.fn(*args)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            tracer.census[self.owner][2] += dt
            tracer.fired += 1
            if stack:
                stack[-1] += dt


class Tracer:
    """Per-layer counters and self times for one traced iteration."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: owner -> [scheduled, cancelled, fired_s]
        self.census = {owner: [0, 0, 0.0] for owner in OWNERS}
        #: Compute-completion events across all owners: [scheduled, cancelled].
        self.completions = [0, 0]
        self.fired = 0
        self.rank_rounds = 0
        self.store_hits = 0
        #: Every ``System`` built while installed (model facts are read
        #: from them after the run).
        self.systems: list = []
        #: Directory where trial wrappers append per-trial records; set
        #: for workloads whose trials run in worker processes.
        self.spool: str | None = None
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._owner_cache: dict = {}

    # -- span wrappers ------------------------------------------------
    def span(self, name: str, fn):
        """Wrap *fn* in a span named *name* (calls + self time)."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def counter(self, name: str, fn):
        """Count calls of *fn* without timing it (generator functions)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    # -- census -------------------------------------------------------
    def owner_of(self, fn, args) -> str:
        func = getattr(fn, "__func__", fn)
        if getattr(func, "__module__", None) == "repro.kernel.scheduler":
            if func.__name__ == "_tick_check":
                return "ticks"
            category = getattr(args[0], "category", None) if args else None
            return _CATEGORY_OWNER.get(category, "kernel")
        owner = self._owner_cache.get(func)
        if owner is None:
            module = getattr(func, "__module__", None) or ""
            owner = next((o for prefix, o in _MODULE_OWNER if module.startswith(prefix)), "other")
            self._owner_cache[func] = owner
        return owner

    # -- install / uninstall ------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points; see :meth:`uninstall`."""
        from repro.analytic.model import AllreduceSeriesModel
        from repro.experiments import common, fig4
        from repro.kernel.policy import SchedPolicy
        from repro.kernel.scheduler import NodeScheduler
        from repro.kernel.ticks import TickSchedule
        from repro.mpi.world import MpiApi
        from repro.net.fabric import Fabric
        from repro.sim import parallel
        from repro.sim.core import Event, Simulator
        from repro.store import ResultStore
        from repro.system import System
        from repro.trace import analysis
        from repro.trace.recorder import TraceRecorder

        tracer = self
        census = self.census
        completions = self.completions

        # sim.core: the heap loop, scheduling, and the census shim.
        self._wrap_span(Simulator, "run_until", "sim.run_until")
        self._wrap_span(Simulator, "run_until_before", "sim.run_until")
        timed_schedule = self.span("sim.schedule_at", Simulator.schedule_at)

        def schedule_at(sim, at, fn, *args, **kwargs):
            owner = tracer.owner_of(fn, args)
            census[owner][0] += 1
            if getattr(fn, "__name__", None) == "_on_complete":
                completions[0] += 1
            return timed_schedule(sim, at, _Fire(fn, owner, tracer), *args, **kwargs)

        self._patch(Simulator, "schedule_at", schedule_at)
        original_cancel = Event.cancel

        def cancel(ev):
            shim = ev.fn
            if isinstance(shim, _Fire) and not ev._cancelled:
                census[shim.owner][1] += 1
                if getattr(shim.fn, "__name__", None) == "_on_complete":
                    completions[1] += 1
            original_cancel(ev)

        self._patch(Event, "cancel", cancel)

        # kernel: policy hooks on every policy class that defines them.
        classes, todo = [], [SchedPolicy]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for hook in ("place", "pick", "on_tick", "steal_from"):
                if hook in cls.__dict__:
                    self._wrap_span(cls, hook, f"kernel.policy.{hook}")
        self._wrap_span(TickSchedule, "inflate", "kernel.ticks.inflate")
        self._wrap_span(NodeScheduler, "set_priority", "kernel.set_priority")

        # mpi / net.
        self._patch(MpiApi, "allreduce", self.counter("mpi.allreduce", MpiApi.allreduce))
        self._wrap_span(Fabric, "transmit", "net.transmit")

        # trace.
        self._wrap_span(TraceRecorder, "record_interval", "trace.record_interval")
        explain = self.span("trace.explain_outliers", analysis.explain_outliers)
        self._patch(analysis, "explain_outliers", explain)
        self._patch(fig4, "explain_outliers", explain)

        # analytic.
        timed_series = self.span("analytic.run_series", AllreduceSeriesModel.run_series)

        def run_series(model, n_calls, *args, **kwargs):
            tracer.rank_rounds += model.n * n_calls
            return timed_series(model, n_calls, *args, **kwargs)

        self._patch(AllreduceSeriesModel, "run_series", run_series)

        # sim.parallel: coordinator time waiting on forked shard replies.
        self._wrap_span(parallel._ProcessHost, "step_recv", "parallel.step_recv")

        # store.
        timed_get = self.span("store.get", ResultStore.get)

        def get(store, fingerprint):
            record = timed_get(store, fingerprint)
            if record is not None:
                tracer.store_hits += 1
            return record

        self._patch(ResultStore, "get", get)
        self._wrap_span(ResultStore, "put", "store.put")

        # experiments.runner: trial functions run in worker processes, so
        # each trial appends its own busy time and analytic deltas to the
        # spool, which the parent sums after the run.
        original_trial = common._allreduce_trial

        def allreduce_trial(params):
            before = (tracer.calls["analytic.run_series"],
                      tracer.self_s["analytic.run_series"], tracer.rank_rounds)
            t0 = time.perf_counter()
            record = original_trial(params)
            busy = time.perf_counter() - t0
            if tracer.spool is not None:
                line = {
                    "busy_s": busy,
                    "run_series_calls": tracer.calls["analytic.run_series"] - before[0],
                    "run_series_s": tracer.self_s["analytic.run_series"] - before[1],
                    "rank_rounds": tracer.rank_rounds - before[2],
                }
                path = os.path.join(tracer.spool, f"{os.getpid()}.jsonl")
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")
            return record

        self._patch(common, "_allreduce_trial", allreduce_trial)

        original_init = System.__init__

        def system_init(system, *args, **kwargs):
            original_init(system, *args, **kwargs)
            tracer.systems.append(system)

        self._patch(System, "__init__", system_init)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------
    def read_spool(self) -> list[dict]:
        """Per-trial records appended by trial wrappers (any process)."""
        rows: list[dict] = []
        if self.spool is None or not os.path.isdir(self.spool):
            return rows
        for name in sorted(os.listdir(self.spool)):
            with open(os.path.join(self.spool, name), encoding="utf-8") as fh:
                rows.extend(json.loads(line) for line in fh if line.strip())
        return rows

    def model_facts(self) -> dict[str, float]:
        """Kernel, daemon, co-scheduler, MPI and trace counts summed over
        every owned node of every ``System`` built while installed."""
        facts = dict.fromkeys(
            ("kernel.dispatches", "kernel.preemptions", "kernel.ready_wait_us",
             "daemons.activations", "daemons.cpu_us", "cosched.cpu_us",
             "mpi.messages", "mpi.bytes", "mpi.intra_node", "trace.intervals"),
            0.0,
        )
        for system in self.systems:
            cluster = system.cluster
            for node in cluster.nodes:
                if not cluster.owns_node(node.id):
                    continue
                for thread in node.scheduler.threads:
                    st = thread.stats
                    facts["kernel.dispatches"] += st.dispatches
                    facts["kernel.preemptions"] += st.preemptions
                    if thread.category == "app":
                        facts["kernel.ready_wait_us"] += st.ready_wait_us
                    elif thread.category in ("daemon", "interrupt"):
                        facts["daemons.cpu_us"] += st.cpu_time_us
                    elif thread.category == "cosched":
                        facts["cosched.cpu_us"] += st.cpu_time_us
            facts["daemons.activations"] += sum(h.activations[0] for h in system.daemons)
            stats = cluster.fabric.stats
            facts["mpi.messages"] += stats.messages
            facts["mpi.bytes"] += stats.bytes
            facts["mpi.intra_node"] += stats.intra_node
            facts["trace.intervals"] += len(system.trace.intervals)
        return facts
