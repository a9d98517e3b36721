"""The traced run: in-memory spans, layer probes and per-layer metrics.

Spans are recorded from the benchmark's own code only.  Calls the benchmark
makes itself are timed directly; calls ``repro`` makes internally (cache
I/O, fingerprints, backend runs, the client's HTTP requests) are observed by
wrapping those public functions in-process while a traced pass runs, and
restored afterwards.  Nothing under ``src/`` is instrumented.

A span has a name, a start, an end and a parent; spans below one root share
an op id.  A span's self time is its duration minus its children's (children
of one span never overlap: everything here runs on one thread).  The spans
are written as Chrome trace-event JSON when the run ends.

The per-layer metrics come from a fixed layer probe, identical in every
workload's traced run, except ``obs.trace_overhead_ratio``,
``cache.hit_ratio`` and the ``runner.*_points`` counts, which describe the
workload's own traced ops.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import repro.engine.cache as cache_module
from repro.backends import backend_names, get_backend
from repro.engine import ResultCache, SweepRunner, build_grid, grid_mode
from repro.service import ServiceClient, SweepJobSpec, save_result_npz

import bench
from bench import (
    SERVICE_NUM_JOBS,
    SERVICE_SLICES,
    SWEEP_GRIDS,
    WARM_JOBS_PER_COLD,
    Context,
    Service,
    check_job,
    child_env,
    percentile,
    result_arrays,
    same_arrays,
)

#: Points per grid family in the layer probe (spread over the grid).
PROBE_POINTS = 6
#: Warm replays of the probe slices, and repeats of the cheap in-process calls.
PROBE_REPEATS = 5
#: Fresh interpreters launched to time ``import repro.cli``.
IMPORT_LAUNCHES = 3
#: Service probe cycles: one fresh-seed job then WARM_JOBS_PER_COLD - 1
#: resubmissions, so every per-request p50 has at least 20 samples.
SERVICE_PROBE_CYCLES = 5


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with in-process wrappers for ``repro`` calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        span = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            op=self._ops if parent is None else parent.op,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    @staticmethod
    def targets() -> list[tuple[object, str, str]]:
        """``(owner, attribute, span name)`` of every wrapped function."""
        targets: list[tuple[object, str, str]] = [
            (cache_module, "config_fingerprint", "cache.fingerprint"),
            (ResultCache, "load", "cache.load"),
            (ResultCache, "store", "cache.store"),
            (SweepRunner, "run", "runner.run"),
            (ServiceClient, "submit", "http.submit"),
            (ServiceClient, "status", "http.status"),
            (ServiceClient, "result_bytes", "http.result"),
        ]
        for mode in backend_names():
            backend = get_backend(mode)
            if "run" in vars(backend):
                targets.append((backend, "run", f"backend.{mode}.run"))
        return targets

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of one traced pass."""
        originals = []
        try:
            for owner, attribute, name in self.targets():
                original = vars(owner)[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def write_chrome(self, path: Path) -> None:
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"span": span.id, "parent": span.parent, "op": span.op},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's (children never overlap)."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - children.get(span.id, 0.0) for span in spans}


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def spread(configs: list, count: int) -> list:
    step = max(1, len(configs) // count)
    return configs[::step][:count]


def timed(function, *args, **kwargs):
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - started


def probe_cli(ctx: Context, metrics: dict) -> None:
    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        "import repro\n"
        "scipy_stats = int('scipy.stats' in sys.modules)\n"
        "import repro.cli\n"
        "print(time.perf_counter() - started, scipy_stats)\n"
    )
    seconds, flags = [], set()
    for _ in range(IMPORT_LAUNCHES):
        answer = subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.workdir, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, flag = answer.stdout.split()
        seconds.append(float(elapsed))
        flags.add(int(flag))
    metrics["cli.import_s"] = (statistics.median(seconds), "s")
    ctx.expect(len(flags) == 1, "scipy.stats load is not the same on every launch")
    metrics["cli.scipy_stats_loaded"] = (float(flags.pop()), "bool")


def probe_sweep(ctx: Context, tracer: Tracer, slices: dict, metrics: dict) -> None:
    """grids, cache and runner layers: cold then warm ``SweepRunner`` ops."""
    points = 0
    started = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        for grid, num_jobs, _, _ in SWEEP_GRIDS:
            points += len(build_grid(grid, num_jobs=num_jobs, seed=ctx.seeds.probe(0)))
    metrics["grids.build_s_per_point"] = ((time.perf_counter() - started) / points, "s")

    cache_dir = ctx.workdir / "probe-cache"
    runner = SweepRunner(jobs=1, cache=ResultCache(cache_dir))
    first = len(tracer.spans)
    warm_ops: set[int] = set()
    with tracer.installed():
        for grid, configs in slices.items():
            with tracer.span("probe.cold-sweep"):
                outcome = runner.run(configs, mode=grid_mode(grid))
            ctx.expect(outcome.simulated == len(configs), f"probe cold {grid}")
        for _ in range(PROBE_REPEATS):
            for grid, configs in slices.items():
                with tracer.span("probe.warm-sweep") as root:
                    outcome = runner.run(configs, mode=grid_mode(grid))
                warm_ops.add(root.op)
                ctx.expect(outcome.cache_hits == len(configs), f"probe warm {grid}")
    spans = tracer.spans[first:]
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics["cache.fingerprint_s_per_point"] = (
        mean([span.seconds for span in by_name["cache.fingerprint"]]), "s")
    metrics["cache.load_s_per_point"] = (
        mean([span.seconds for span in by_name["cache.load"] if span.op in warm_ops]),
        "s")
    metrics["cache.store_s_per_point"] = (
        mean([span.seconds for span in by_name["cache.store"]]), "s")
    entries = list(cache_dir.glob("*.npz"))
    metrics["cache.bytes_per_point"] = (
        sum(entry.stat().st_size for entry in entries) / len(entries), "B")
    own = self_seconds(spans)
    swept = (1 + PROBE_REPEATS) * sum(len(configs) for configs in slices.values())
    metrics["runner.overhead_s_per_point"] = (
        sum(own[span.id] for span in by_name["runner.run"]) / swept, "s")


def probe_backends(ctx: Context, tracer: Tracer, slices: dict, metrics: dict) -> dict:
    """Declared-mode oracle runs and ``event-kernel`` batches on the same points."""
    oracle_results = {}
    for grid, configs in slices.items():
        mode = grid_mode(grid)
        backend = get_backend(mode)
        with tracer.span(f"probe.sim.{grid}"):
            results, seconds = timed(lambda: [backend(c).run() for c in configs])
        oracle_results[grid] = results
        sim = seconds / len(configs)
        metrics[f"sim.{grid}.s_per_point"] = (sim, "s")
        if mode == "monte-carlo":
            continue
        with tracer.span(f"probe.kernel.{grid}"):
            batch, seconds = timed(get_backend("event-kernel").run_batch, configs)
        kernel = seconds / len(configs)
        metrics[f"kernel.{grid}.s_per_point"] = (kernel, "s")
        metrics[f"kernel.{grid}.speedup"] = (sim / kernel, "x")
        bench.emit(f"# base kernel.{grid}.speedup = sim.{grid}.s_per_point "
                   f"({mode} oracle) / kernel.{grid}.s_per_point, {len(configs)} points")
        ctx.expect(
            all(same_arrays(result_arrays(a), result_arrays(b))
                for a, b in zip(results, batch)),
            f"kernel arrays differ from the {mode} oracle on {grid}",
        )
    return oracle_results


def probe_service(ctx: Context, tracer: Tracer, service: Service,
                  oracle_results: dict, metrics: dict, samples: dict) -> None:
    """specs, results, jobs, scheduler and http layers."""
    points = 0
    started = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        for grid, base in SERVICE_SLICES:
            spec = SweepJobSpec.for_grid(
                grid, dict(base, num_jobs=SERVICE_NUM_JOBS, seed=ctx.seeds.probe(1)))
            points += len(spec.resolve()[0])
    metrics["specs.resolve_s_per_point"] = ((time.perf_counter() - started) / points, "s")

    saved_seconds = saved_bytes = saved_points = 0.0
    for grid, results in oracle_results.items():
        path = ctx.workdir / "probe-results" / f"{grid}.npz"
        _, seconds = timed(save_result_npz, path, results)
        saved_seconds += seconds
        saved_bytes += path.stat().st_size
        saved_points += len(results)
    metrics["results.save_s_per_point"] = (saved_seconds / saved_points, "s")
    metrics["results.bytes_per_point"] = (saved_bytes / saved_points, "B")

    jobs = []  # (cold?, client seconds, record, op id)
    busy_before = service.worker_busy_seconds()
    started = time.perf_counter()
    with tracer.installed():
        for cycle in range(SERVICE_PROBE_CYCLES):
            grid, base = SERVICE_SLICES[cycle % len(SERVICE_SLICES)]
            overrides = dict(base, num_jobs=SERVICE_NUM_JOBS, seed=ctx.seeds.probe(2 + cycle))
            for repeat in range(WARM_JOBS_PER_COLD):
                with tracer.span("probe.job") as root:
                    seconds, record, payload = service.job(grid, overrides)
                cold = repeat == 0
                ctx.expect(check_job(record, payload, cold), f"probe job {record.job_id}")
                jobs.append((cold, seconds, record, root.op))
                if cycle == 0 and cold:
                    first_payload = (grid, overrides, payload)
    wall = time.perf_counter() - started
    busy = service.worker_busy_seconds() - busy_before

    # The served payload must equal a library run of the same grid, byte for byte.
    grid, overrides, payload = first_payload
    configs, mode = SweepJobSpec.for_grid(grid, overrides).resolve()
    library = ctx.workdir / "probe-results" / "library.npz"
    save_result_npz(library, SweepRunner(jobs=1).run(configs, mode=mode).results)
    ctx.expect(library.read_bytes() == payload, "service payload differs from library run")

    records = [record for _, _, record, _ in jobs]
    metrics["jobs.queue_wait_s"] = (
        percentile([r.started_at - r.submitted_at for r in records], 0.5), "s")
    metrics["jobs.cold_exec_s"] = (
        mean([r.finished_at - r.started_at for cold, _, r, _ in jobs if cold]), "s")
    metrics["jobs.warm_exec_s"] = (
        mean([r.finished_at - r.started_at for cold, _, r, _ in jobs if not cold]), "s")
    metrics["service.worker_busy_ratio"] = (busy / wall, "ratio")
    metrics["scheduler.shards_per_job"] = (mean([r.shards_total for r in records]), "count")
    job_ops = {op for _, _, _, op in jobs}
    requests: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span.op in job_ops and span.name.startswith("http."):
            requests.setdefault(span.name, []).append(span.seconds)
    for name in ("http.submit", "http.status", "http.result"):
        metrics[f"{name}_s"] = (percentile(requests[name], 0.5), "s")
        samples[f"{name}_s"] = len(requests[name])
    samples["jobs.queue_wait_s"] = samples["http.client_overhead_s"] = len(jobs)
    metrics["http.polls_per_job"] = (len(requests["http.status"]) / len(jobs), "count")
    metrics["http.client_overhead_s"] = (
        percentile([seconds - (r.finished_at - r.submitted_at)
                    for _, seconds, r, _ in jobs], 0.5), "s")


def traced_run(ctx: Context, workload, units: int):
    """Alternate untraced and traced units, then probe every layer."""
    tracer = Tracer()
    units = 2 * max(1, units // 2)
    walls = {False: 0.0, True: 0.0}
    for index in range(units):
        traced = index % 2 == 1
        started = time.perf_counter()
        if traced:
            ctx.tracer = tracer
            with tracer.installed():
                workload.run_unit(index)
            ctx.tracer = None
        else:
            workload.run_unit(index)
        walls[traced] += time.perf_counter() - started
    workload.verify()

    metrics: dict[str, tuple] = {}
    traced_ops = [op for op in ctx.ops if op.traced]
    metrics["obs.trace_overhead_ratio"] = (walls[True] / walls[False], "ratio")
    metrics["cache.hit_ratio"] = (
        sum(op.cache_hits for op in traced_ops) / sum(op.points for op in traced_ops),
        "ratio")
    for name, attribute in (("runner.simulated_points", "simulated"),
                            ("runner.kernel_points", "kernel_points"),
                            ("runner.fallback_points", "fallback_points")):
        metrics[name] = (float(sum(getattr(op, attribute) for op in traced_ops)), "count")
    breakdown = self_time_breakdown(tracer)
    samples = {"traced_units": units // 2, "traced_ops": len(traced_ops)}

    slices = {
        grid: spread(build_grid(grid, num_jobs=num_jobs, seed=ctx.seeds.probe(1)),
                     PROBE_POINTS)
        for grid, num_jobs, _, _ in SWEEP_GRIDS
    }
    probe_sweep(ctx, tracer, slices, metrics)
    oracle_results = probe_backends(ctx, tracer, slices, metrics)
    service = getattr(workload, "service", None)
    own_service = service is None
    if own_service:
        service = Service(ctx.workdir / "probe-service")
        service.start()
    try:
        probe_service(ctx, tracer, service, oracle_results, metrics, samples)
    finally:
        if own_service:
            service.stop()
    probe_cli(ctx, metrics)

    trace_path = bench.TRACE_DIR / f"{workload.name}-seed{ctx.seed}.json"
    tracer.write_chrome(trace_path)
    for name, seconds, share in breakdown:
        bench.emit(f"# self-time {workload.name} {name} {seconds:.4f}s {share:.1%}")
    bench.emit(f"# trace written to {trace_path.relative_to(bench.ROOT)}")
    missing = [name for name, (value, _) in metrics.items() if value is None]
    for name in missing:
        bench.emit(f"# withheld {name}: too few samples for its percentile")
    metrics = {name: pair for name, pair in metrics.items() if pair[0] is not None}
    return metrics, samples, units


def self_time_breakdown(tracer: Tracer) -> list[tuple[str, float, float]]:
    """Self time per span name over the workload's traced units."""
    own = self_seconds(tracer.spans)
    totals: dict[str, float] = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    whole = sum(totals.values()) or 1.0
    return sorted(
        ((name, seconds, seconds / whole) for name, seconds in totals.items()),
        key=lambda row: -row[1],
    )
