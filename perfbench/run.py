"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4 [--seed N] [--seconds S] [--trace 0|1]

The run measures iterations of the workload for ``--seconds`` (at least
three untraced passes over its cases), checks every iteration's outputs, prints a table
of every metric with its unit and its kind (``model`` or ``substrate``),
writes the result with its stamp to ``perfbench/results/``, and prints
one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps each layer's entry
points and reports the per-layer metrics and the tracing overhead.

The exit code is 0 only when every operation passed the correctness
gate.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")

#: Untraced passes every run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: (name, unit, kind) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s", "substrate"),
    ("cpu_s", "s", "substrate"),
    ("setup_s", "s", "substrate"),
    ("peak_rss_mb", "MB", "substrate"),
)

_CENSUS = tuple(
    (f"sim.census.{owner}.{field}", unit, "substrate")
    for owner in ("kernel", "ticks", "daemons", "mpi", "net", "cosched", "trace", "apps", "other")
    for field, unit in (("scheduled", "count"), ("cancelled", "count"), ("fired_s", "s"))
)

#: (name, unit, kind) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.events", "count", "substrate"),
    ("sim.events_per_s", "1/s", "substrate"),
    ("sim.run_until.self_s", "s", "substrate"),
    ("sim.schedule_at.calls", "count", "substrate"),
    ("sim.schedule_at.self_s", "s", "substrate"),
    *_CENSUS,
    ("sim.census.completions.scheduled", "count", "substrate"),
    ("sim.census.completions.cancelled", "count", "substrate"),
    ("kernel.policy.place.calls", "count", "substrate"),
    ("kernel.policy.place.self_s", "s", "substrate"),
    ("kernel.policy.pick.calls", "count", "substrate"),
    ("kernel.policy.pick.self_s", "s", "substrate"),
    ("kernel.policy.on_tick.calls", "count", "substrate"),
    ("kernel.policy.on_tick.self_s", "s", "substrate"),
    ("kernel.policy.steal_from.calls", "count", "substrate"),
    ("kernel.ticks.inflate.calls", "count", "substrate"),
    ("kernel.ticks.inflate.self_s", "s", "substrate"),
    ("kernel.set_priority.calls", "count", "substrate"),
    ("kernel.dispatches", "count", "model"),
    ("kernel.preemptions", "count", "model"),
    ("kernel.ready_wait_us", "sim_us", "model"),
    ("mpi.allreduce.calls", "count", "model"),
    ("mpi.messages", "count", "model"),
    ("mpi.bytes", "B", "model"),
    ("mpi.intra_node_frac", "ratio", "model"),
    ("net.transmit.calls", "count", "substrate"),
    ("net.transmit.self_s", "s", "substrate"),
    ("daemons.activations", "count", "model"),
    ("daemons.cpu_us", "sim_us", "model"),
    ("cosched.cpu_us", "sim_us", "model"),
    ("trace.record_interval.calls", "count", "substrate"),
    ("trace.record_interval.self_s", "s", "substrate"),
    ("trace.intervals", "count", "model"),
    ("trace.explain_outliers.s", "s", "substrate"),
    ("trace.overhead_s", "s", "substrate"),
    ("analytic.run_series.calls", "count", "substrate"),
    ("analytic.run_series.s", "s", "substrate"),
    ("analytic.rank_rounds_per_s", "1/s", "substrate"),
    ("parallel.supersteps", "count", "substrate"),
    ("parallel.crossed", "count", "substrate"),
    ("parallel.crossed_per_superstep", "ratio", "substrate"),
    ("parallel.barrier_wait_s", "s", "substrate"),
    ("parallel.superstep_us", "us", "substrate"),
    ("parallel.shard_imbalance", "ratio", "substrate"),
    ("parallel.recoveries", "count", "substrate"),
    ("runner.trials", "count", "substrate"),
    ("runner.trial_busy_s", "s", "substrate"),
    ("runner.overhead_s", "s", "substrate"),
    ("runner.spawned", "count", "substrate"),
    ("runner.retries", "count", "substrate"),
    ("store.get.calls", "count", "substrate"),
    ("store.get.self_s", "s", "substrate"),
    ("store.put.calls", "count", "substrate"),
    ("store.put.self_s", "s", "substrate"),
    ("store.hits", "count", "substrate"),
    ("store.hit_ratio", "ratio", "substrate"),
    ("sim_allreduce_mean_us", "sim_us", "model"),
    ("sim_allreduce_median_us", "sim_us", "model"),
    ("sim_allreduce_p95_us", "sim_us", "model"),
)


#: Host-time units.  A layer's host time is exactly 0 on a workload where
#: the layer does no work, and a time that reads the same on every run is
#: no measurement; so host times of single layers go to the printed table
#: and the result file, and the JSON line carries the per-layer metrics
#: that are measured on every workload: counts, ratios, rates, simulated
#: (``sim_us``) facts, and the tracing overhead.
HOST_TIME_UNITS = ("s", "us")
PER_LAYER_JSON = tuple(
    m for m in PER_LAYER if m[1] not in HOST_TIME_UNITS or m[0] == "trace.overhead_s"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fig4", "cosched", "pdes", "sweep"))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long to measure (default 20, as in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run with per-layer metrics")
    p.add_argument("--pin", action="store_true",
                   help="compute the reference digest for --seed (serial, "
                        "store-less) and record it in digests.json; no timing")
    return p.parse_args(argv)


def load_source() -> None:
    """Import the program from this checkout's ``src`` or fail loudly."""
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")


def import_seconds(modules, repeats: int = 5) -> float:
    """Median import time of *modules* in fresh interpreters."""
    code = (
        "import importlib, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "for m in sys.argv[2:]: importlib.import_module(m)\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code, SRC, *modules],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def load_pins() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Gate:
    """The correctness gate: counts operations attempted and failed."""

    def __init__(self, pins: dict) -> None:
        #: case (as a string) -> pinned digest
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict = {}

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def check(self, outcome, case, label: str) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)
        # Digest checks: against the pin, and against the case's first
        # iteration (iterations repeat the same inputs, and a traced
        # iteration must reproduce the untraced one).
        self.attempted += 1
        pin = self.pins.get(str(case))
        if pin is not None and outcome.digest != pin:
            self.failed += 1
            self.problems.append(f"{label}: digest {outcome.digest[:12]} != pinned {pin[:12]}")
        reference = (outcome.digest, outcome.facts.get("attribution_digest"))
        first = self._first.setdefault(case, reference)
        if reference != first:
            self.failed += 1
            self.problems.append(f"{label}: output differs from the first iteration")


class Bench:
    """One invocation: set-up, timed passes over the cases, gate, metrics.

    A workload runs one or more *cases* (inputs made from the seed).  A
    pass runs every case once; each metric is the sum over cases of the
    case's median over passes, i.e. the noise-filtered cost of one pass.
    """

    def __init__(self, workload_cls, seed: int, seconds: float, workdir: str) -> None:
        self.cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.time()
        self.iterations: list[dict] = []

    def iteration(self, wl, gate: Gate, label: str, tracer=None):
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.setup()
            setup = time.perf_counter() - t0
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            result = wl.run(state)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            extra = wl.run_in_process(state) if tracer is not None else None
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = wl.check(result)
        gate.check(outcome, wl.case, label)
        if extra is not None:
            gate.check(wl.check(extra), wl.case, f"{label} (in-process shards)")
        row = {"label": label, "case": wl.case, "setup_s": setup, "wall_s": wall, "cpu_s": cpu}
        self.iterations.append(row)
        return row, outcome

    def run(self, trace: bool, gate: Gate):
        from layers import Tracer

        import_s = import_seconds(self.cls.modules)
        for module in self.cls.modules:
            importlib.import_module(module)
        cases = []
        for n, case in enumerate(self.cls.cases(self.seed)):
            workdir = os.path.join(self.workdir, f"case-{n}")
            os.makedirs(workdir)
            cases.append(self.cls(case, workdir))
        t0 = time.perf_counter()
        for wl in cases:
            wl.prepare()
        prepare_s = time.perf_counter() - t0

        start = time.perf_counter()
        budget = self.seconds / 2 if trace else self.seconds
        rows: dict = {wl.case: [] for wl in cases}
        passes = 0
        while passes < (1 if trace else MIN_PASSES) or time.perf_counter() - start < budget:
            passes += 1
            for wl in cases:
                rows[wl.case].append(self.iteration(wl, gate, f"pass {passes} case {wl.case}")[0])

        def per_pass(key: str) -> float:
            return sum(statistics.median(r[key] for r in case_rows) for case_rows in rows.values())

        if not trace:
            return {
                "wall_s": per_pass("wall_s"),
                "cpu_s": per_pass("cpu_s"),
                "setup_s": import_s + prepare_s + per_pass("setup_s"),
                "peak_rss_mb": peak_rss_mb(),
            }

        # Traced iterations of the first case; the overhead is against
        # that case's untraced median.
        wl = cases[0]
        untraced_wall = statistics.median(r["wall_s"] for r in rows[wl.case])
        tracers, traced_walls, traced_outcome = [], [], None
        while not tracers or time.perf_counter() - start < self.seconds:
            tracer = Tracer()
            tracer.spool = os.path.join(self.workdir, f"spool-{len(tracers)}")
            os.makedirs(tracer.spool)
            row, out = self.iteration(wl, gate, f"traced {len(tracers) + 1} case {wl.case}", tracer)
            tracers.append(tracer)
            traced_walls.append(row["wall_s"])
            traced_outcome = traced_outcome or out
        return layer_metrics(tracers[0], traced_outcome, untraced_wall,
                             statistics.median(traced_walls), wl.JOBS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, outcome, wall_s: float, traced_wall_s: float, jobs: int) -> dict:
    """Per-layer metrics from one traced iteration (see README.md)."""
    import numpy as np

    m: dict[str, float] = {}
    calls, self_s = tr.calls, tr.self_s
    facts = outcome.facts
    m["sim.events"] = tr.fired
    m["sim.events_per_s"] = _ratio(tr.fired, wall_s)
    m["sim.run_until.self_s"] = self_s["sim.run_until"]
    m["sim.schedule_at.calls"] = calls["sim.schedule_at"]
    m["sim.schedule_at.self_s"] = self_s["sim.schedule_at"]
    for owner, (scheduled, cancelled, fired_s) in tr.census.items():
        m[f"sim.census.{owner}.scheduled"] = scheduled
        m[f"sim.census.{owner}.cancelled"] = cancelled
        m[f"sim.census.{owner}.fired_s"] = fired_s
    m["sim.census.completions.scheduled"], m["sim.census.completions.cancelled"] = tr.completions
    for hook in ("place", "pick", "on_tick"):
        m[f"kernel.policy.{hook}.calls"] = calls[f"kernel.policy.{hook}"]
        m[f"kernel.policy.{hook}.self_s"] = self_s[f"kernel.policy.{hook}"]
    m["kernel.policy.steal_from.calls"] = calls["kernel.policy.steal_from"]
    m["kernel.ticks.inflate.calls"] = calls["kernel.ticks.inflate"]
    m["kernel.ticks.inflate.self_s"] = self_s["kernel.ticks.inflate"]
    m["kernel.set_priority.calls"] = calls["kernel.set_priority"]
    model = tr.model_facts()
    for name in ("kernel.dispatches", "kernel.preemptions", "kernel.ready_wait_us"):
        m[name] = model[name]
    m["mpi.allreduce.calls"] = calls["mpi.allreduce"]
    m["mpi.messages"] = model["mpi.messages"]
    m["mpi.bytes"] = model["mpi.bytes"]
    m["mpi.intra_node_frac"] = _ratio(model["mpi.intra_node"], model["mpi.messages"])
    m["net.transmit.calls"] = calls["net.transmit"]
    m["net.transmit.self_s"] = self_s["net.transmit"]
    for name in ("daemons.activations", "daemons.cpu_us", "cosched.cpu_us"):
        m[name] = model[name]
    m["trace.record_interval.calls"] = calls["trace.record_interval"]
    m["trace.record_interval.self_s"] = self_s["trace.record_interval"]
    m["trace.intervals"] = model["trace.intervals"]
    m["trace.explain_outliers.s"] = self_s["trace.explain_outliers"]
    m["trace.overhead_s"] = traced_wall_s - wall_s

    trials = tr.read_spool()
    if trials:
        # Trials ran in worker processes: their own records are the truth.
        series_calls = sum(t["run_series_calls"] for t in trials)
        series_s = sum(t["run_series_s"] for t in trials)
        rank_rounds = sum(t["rank_rounds"] for t in trials)
    else:
        series_calls = calls["analytic.run_series"]
        series_s = self_s["analytic.run_series"]
        rank_rounds = tr.rank_rounds
    m["analytic.run_series.calls"] = series_calls
    m["analytic.run_series.s"] = series_s
    m["analytic.rank_rounds_per_s"] = _ratio(rank_rounds, series_s)

    supersteps = facts.get("supersteps", 0)
    events = facts.get("events_per_shard", [])
    if events:
        m["sim.events"] = sum(events)
        m["sim.events_per_s"] = _ratio(sum(events), wall_s)
    m["parallel.supersteps"] = supersteps
    m["parallel.crossed"] = facts.get("crossed", 0)
    m["parallel.crossed_per_superstep"] = _ratio(facts.get("crossed", 0), supersteps)
    m["parallel.barrier_wait_s"] = self_s["parallel.step_recv"]
    m["parallel.superstep_us"] = _ratio(facts.get("run_wall_s", 0.0) * 1e6, supersteps)
    m["parallel.shard_imbalance"] = _ratio(max(events), sum(events) / len(events)) if events else 0.0
    m["parallel.recoveries"] = facts.get("recoveries", 0)

    busy = sum(t["busy_s"] for t in trials)
    m["runner.trials"] = len(trials)
    m["runner.trial_busy_s"] = busy
    m["runner.overhead_s"] = (traced_wall_s - busy / jobs) if trials else 0.0
    m["runner.spawned"] = facts.get("spawned", 0)
    m["runner.retries"] = facts.get("retries", 0)

    m["store.get.calls"] = calls["store.get"]
    m["store.get.self_s"] = self_s["store.get"]
    m["store.put.calls"] = calls["store.put"]
    m["store.put.self_s"] = self_s["store.put"]
    m["store.hits"] = tr.store_hits
    m["store.hit_ratio"] = _ratio(tr.store_hits, calls["store.get"])

    durations = outcome.durations_us
    m["sim_allreduce_mean_us"] = float(np.mean(durations))
    m["sim_allreduce_median_us"] = float(np.median(durations))
    m["sim_allreduce_p95_us"] = float(np.percentile(durations, 95))
    return m


def render(values: dict, catalogue) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _kind in catalogue}


def write_result(args, seed: int, gate: Gate, values: dict, catalogue, bench) -> str:
    """Write this invocation's result, stamped, to a fresh file."""
    import numpy

    stamp = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(bench.started)),
    }
    result = {
        "stamp": stamp,
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "metrics": {
            name: {"value": values.get(name), "unit": unit, "kind": kind}
            for name, unit, kind in catalogue
        },
        "iterations": bench.iterations,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS,
        f"{args.workload}-s{seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S', time.gmtime(bench.started))}-{os.getpid()}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return path


def pin(args, workload_cls, seed: int) -> int:
    """Record the reference digests of *seed*'s cases in digests.json."""
    pins = load_pins()
    for case in workload_cls.cases(seed):
        workdir = tempfile.mkdtemp(prefix="pin-", dir=RESULTS)
        try:
            digest = workload_cls(case, workdir).reference_digest()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        pins.setdefault(args.workload, {})[str(case)] = digest
        print(f"{args.workload} case {case}: {digest}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_source()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else workload_cls.default_seed
    os.makedirs(RESULTS, exist_ok=True)
    if args.pin:
        return pin(args, workload_cls, seed)

    gate = Gate(load_pins().get(args.workload, {}))
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    bench = Bench(workload_cls, seed, args.seconds, workdir)
    catalogue = PER_LAYER if args.trace else END_TO_END
    values: dict = {}
    try:
        values = bench.run(bool(args.trace), gate)
    except Exception:
        traceback.print_exc()
        gate.fail("workload raised; see the traceback on stderr")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = write_result(args, seed, gate, values, catalogue, bench)
    for name, unit, kind in catalogue:
        if name in values:
            print(f"{name:40s} {values[name]:>16.6g} {unit:6s} {kind}")
    print(f"operations {gate.attempted} attempted, {gate.failed} failed; result in {os.path.relpath(path, ROOT)}")
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    if not values:
        return 1
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": render(values, PER_LAYER_JSON if args.trace else END_TO_END),
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
