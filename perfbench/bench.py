"""Workloads, output checks and end-to-end metrics of the load process.

Everything here runs inside the one process that generates load (see
``run.py``).  ``repro`` is imported once, from the checkout's ``src/``, and
every op is an in-process call into a public entry point:
``build_grid`` + ``SweepRunner(jobs=1).run`` + ``ResultCache`` for the sweep
workloads, and ``ServiceClient`` against one ``repro serve --jobs 1`` child
for ``service-mixed``.  There is no process pool.

Each run does a fixed amount of work, derived from ``--seconds`` by the
per-workload unit costs below (measured on a 2-CPU x86-64 container), so a
faster program finishes the same work sooner instead of doing more of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import socket
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import repro
from repro.backends import get_backend
from repro.engine import ResultCache, SweepRunner, build_grid, grid_mode
from repro.service import ServiceClient, ServiceError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Chrome trace-event files of traced runs (kept; everything else a run
#: writes lives in its own work directory and is removed when it ends).
TRACE_DIR = ROOT / ".perfbench" / "traces"

#: The sweep grid families: ``(grid, num_jobs, cold shard, warm shard)``,
#: shards in points.  ``num_jobs`` is reduced from the grids' defaults
#: (2000/400/400/300).  The shard sizes divide each grid and give every
#: family's op a similar cost (about 0.13 s cold, 25 ms warm), so an op
#: percentile does not sit in a gap between families of different cost.
SWEEP_GRIDS: tuple[tuple[str, int, int, int], ...] = (
    ("fig01", 1000, 16, 16),
    ("policy-compare", 20, 3, 18),
    ("arrival-sweep", 20, 4, 18),
    ("admission-sweep", 20, 4, 16),
)
#: Executor-equivalent fill modes for sweep-warm's set-up: the kernel is
#: pinned bitwise to these oracles and its cache entries replay under them.
KERNEL_FILLED_MODES = ("event-driven", "open-system")

#: service-mixed's cold slices: ``(grid, build_grid overrides)``, 12 points
#: each, alternated so both closed and open event-driven models are served.
SERVICE_SLICES: tuple[tuple[str, dict], ...] = (
    ("policy-compare", {"workstation_counts": [8]}),
    ("arrival-sweep", {"workstation_counts": [4]}),
)
SERVICE_NUM_JOBS = 20
#: Resubmissions of earlier jobs after each fresh-seed job.
WARM_JOBS_PER_COLD = 5
#: One fixed poll interval (``poll_seconds == max_poll_seconds``); 10 ms is
#: the smallest interval ``ServiceClient.wait`` accepts.
POLL_SECONDS = 0.01

#: Seconds of work per unit (a round over the grids, or a service cycle),
#: used only to turn ``--seconds`` into a fixed unit count.
UNIT_SECONDS = {"sweep-cold": 4.5, "sweep-warm": 0.25, "service-mixed": 0.7}

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-quantile, or ``None`` when fewer than ten samples exceed it."""
    if len(samples) * (1.0 - q) < MIN_BEYOND - 1e-9:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


def result_arrays(result) -> dict[str, np.ndarray]:
    """A result's cache-layout arrays (the bitwise identity of a point)."""
    arrays = get_backend(result.mode).serialize_result(result)
    return {key: np.asarray(value) for key, value in arrays.items()}


def same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    """Bitwise equality: same keys, dtypes, shapes and bytes (NaN-safe)."""
    return a.keys() == b.keys() and all(
        a[key].dtype == b[key].dtype
        and a[key].shape == b[key].shape
        and a[key].tobytes() == b[key].tobytes()
        for key in a
    )


def digest_arrays(digest, arrays: dict[str, np.ndarray]) -> None:
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        digest.update(value.tobytes())


def shard_indices(count: int, size: int) -> list[list[int]]:
    """Split ``count`` grid points into strided shards of ``size`` points.

    Shard ``j`` takes points ``j, j + n, j + 2n, ...`` (``n`` shards), so
    each shard mixes the grid's large and small configurations and every
    op of a family costs about the same.
    """
    if count % size:
        raise ValueError(f"shard size {size} does not divide {count} points")
    shards = count // size
    return [list(range(first, count, shards)) for first in range(shards)]


def child_env() -> dict[str, str]:
    """Environment for child interpreters: import ``repro`` from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


class Seeds:
    """Grid seeds of one run, all derived from ``--seed``.

    The warm-up seed, the timed seeds and the traced run's probe seeds are
    disjoint, so no timed op can hit an entry written by set-up or a probe.
    """

    def __init__(self, seed: int) -> None:
        self.base = 1 + 1000 * int(seed)
        self.warmup = self.base

    def timed(self, index: int) -> int:
        assert 0 <= index < 600
        return self.base + 1 + index

    def probe(self, index: int) -> int:
        return self.base + 700 + index


@dataclass
class Op:
    """One timed op: its latency, its size and whether its output checked."""

    kind: str
    seconds: float
    points: int
    ok: bool
    simulated: int = 0
    cache_hits: int = 0
    kernel_points: int = 0
    fallback_points: int = 0
    traced: bool = False


class Context:
    """State shared by a workload and the traced run's probes."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.seeds = Seeds(seed)
        self.workdir = workdir
        self.ops: list[Op] = []
        self.setup_failures: list[str] = []
        self.digest = hashlib.sha256()
        self.tracer = None  # set to a probe.Tracer during traced units

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def expect(self, ok: bool, what: str) -> None:
        """A set-up check: a failure makes the run incorrect."""
        if not ok:
            self.setup_failures.append(what)

    def record(self, op: Op) -> Op:
        op.traced = self.tracer is not None
        self.ops.append(op)
        return op


def run_sweep_op(ctx: Context, runner: SweepRunner, kind: str, shard: list,
                 mode: str):
    """One op: a ``SweepRunner.run`` call on one shard of one grid."""
    with ctx.span(f"op.{kind}"):
        started = time.perf_counter()
        outcome = runner.run(shard, mode=mode)
        seconds = time.perf_counter() - started
    op = Op(
        kind=kind,
        seconds=seconds,
        points=len(shard),
        ok=len(outcome.results) == len(shard),
        simulated=outcome.simulated,
        cache_hits=outcome.cache_hits,
        kernel_points=outcome.kernel_points,
        fallback_points=outcome.fallback_points,
    )
    return outcome, op


class Workload:
    """A workload: untimed ``setup``, fixed ``run_unit`` calls, ``verify``."""

    name: str
    #: The op kind whose latency ``op_p50_s`` / ``op_p90_s`` report.
    latency_kind: str

    def verify(self) -> None:
        """Checks that run after the timed phase."""

    def peak_rss_mb(self) -> float:
        """Peak RSS of the simulating process (here: this one)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def teardown(self) -> None:
        pass


class SweepCold(Workload):
    """Fresh-seed grids through their declared modes into an empty cache."""

    name = "sweep-cold"
    latency_kind = "cold-shard"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.runner = SweepRunner(jobs=1, cache=ResultCache(ctx.workdir / "cache"))
        self.done: list[tuple[Op, list, str, list]] = []

    def setup(self) -> None:
        for grid, num_jobs, shard_points, _ in SWEEP_GRIDS:
            configs = build_grid(grid, num_jobs=num_jobs, seed=self.ctx.seeds.warmup)
            outcome = self.runner.run(configs[:shard_points], mode=grid_mode(grid))
            self.ctx.expect(outcome.simulated == shard_points, f"warm-up {grid}")

    def run_unit(self, index: int) -> None:
        seed = self.ctx.seeds.timed(index)
        for grid, num_jobs, shard_points, _ in SWEEP_GRIDS:
            mode = grid_mode(grid)
            with self.ctx.span("grids.build"):
                configs = build_grid(grid, num_jobs=num_jobs, seed=seed)
            for indices in shard_indices(len(configs), shard_points):
                shard = [configs[i] for i in indices]
                outcome, op = run_sweep_op(
                    self.ctx, self.runner, "cold-shard", shard, mode
                )
                op.ok = op.ok and op.simulated == len(shard) and op.cache_hits == 0
                self.ctx.record(op)
                self.done.append((op, shard, mode, outcome.results))

    def verify(self) -> None:
        """After timing: every cold shard must replay bitwise from the cache."""
        for op, shard, mode, results in self.done:
            replay = self.runner.run(shard, mode=mode)
            op.ok = (
                op.ok
                and replay.simulated == 0
                and replay.cache_hits == len(shard)
                and all(
                    same_arrays(result_arrays(a), result_arrays(b))
                    for a, b in zip(results, replay.results)
                )
            )
            for result in results:
                digest_arrays(self.ctx.digest, result_arrays(result))


class SweepWarm(Workload):
    """The same grids replayed from the cache filled in set-up."""

    name = "sweep-warm"
    latency_kind = "warm-shard"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.runner = SweepRunner(jobs=1, cache=ResultCache(ctx.workdir / "cache"))
        self.expected: dict[str, list[dict[str, np.ndarray]]] = {}

    def setup(self) -> None:
        seeds = self.ctx.seeds
        for grid, num_jobs, _, shard_points in SWEEP_GRIDS:
            mode = grid_mode(grid)
            fill_mode = "event-kernel" if mode in KERNEL_FILLED_MODES else mode
            configs = build_grid(grid, num_jobs=num_jobs, seed=seeds.timed(0))
            warmup = build_grid(grid, num_jobs=num_jobs, seed=seeds.warmup)
            warmup = warmup[:shard_points]
            filled = self.runner.run(configs + warmup, mode=fill_mode)
            self.ctx.expect(
                filled.simulated == len(configs) + len(warmup), f"fill {grid}"
            )
            self.expected[grid] = [
                result_arrays(result) for result in filled.results[: len(configs)]
            ]
            replay = self.runner.run(warmup, mode=mode)
            self.ctx.expect(replay.simulated == 0, f"warm-up replay {grid}")

    def run_unit(self, index: int) -> None:
        for grid, num_jobs, _, shard_points in SWEEP_GRIDS:
            mode = grid_mode(grid)
            expected = self.expected[grid]
            with self.ctx.span("grids.build"):
                configs = build_grid(
                    grid, num_jobs=num_jobs, seed=self.ctx.seeds.timed(0)
                )
            for indices in shard_indices(len(configs), shard_points):
                shard = [configs[i] for i in indices]
                outcome, op = run_sweep_op(
                    self.ctx, self.runner, "warm-shard", shard, mode
                )
                replayed = [result_arrays(result) for result in outcome.results]
                op.ok = (
                    op.ok
                    and op.simulated == 0
                    and op.cache_hits == len(shard)
                    and all(
                        same_arrays(arrays, expected[i])
                        for i, arrays in zip(indices, replayed)
                    )
                )
                self.ctx.record(op)
                if index == 0:
                    for arrays in replayed:
                        digest_arrays(self.ctx.digest, arrays)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class Service:
    """One ``repro serve --jobs 1`` child, driven over one client."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self, timeout: float = 60.0) -> None:
        port = free_port()
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.workdir / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--root", str(self.workdir / "root"),
                    "--port", str(port), "--jobs", "1", "--quiet",
                ],
                cwd=self.workdir,
                env=child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.health()
                return
            except (OSError, ServiceError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"service did not answer /health; see {self.workdir}/serve.log"
                    ) from None
                time.sleep(0.02)

    def job(self, grid: str, overrides: dict):
        """``POST /jobs`` until the result bytes are received."""
        assert self.client is not None
        started = time.perf_counter()
        record = self.client.submit_grid(grid, overrides)
        record = self.client.wait(
            record.job_id,
            timeout=120.0,
            poll_seconds=POLL_SECONDS,
            max_poll_seconds=POLL_SECONDS,
        )
        payload = b""
        if record.status == "done":
            payload = self.client.result_bytes(record.job_id)
        return time.perf_counter() - started, record, payload

    def worker_busy_seconds(self) -> float:
        assert self.client is not None
        for line in self.client.metrics_text().splitlines():
            if line.startswith("repro_service_worker_busy_seconds_total "):
                return float(line.split()[1])
        raise RuntimeError("/metrics has no repro_service_worker_busy_seconds_total")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        # SIGTERM, not SIGINT: a shell that starts jobs in the background
        # ignores SIGINT, and the child would inherit that.
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def check_job(record, payload: bytes, cold: bool) -> bool:
    if record.status != "done" or not payload or record.total_points < 1:
        return False
    if cold:
        return record.simulated == record.total_points and record.cache_hits == 0
    return record.simulated == 0 and record.cache_hits == record.total_points


class ServiceMixed(Workload):
    """A closed loop, one client: a fresh-seed job, then resubmissions."""

    name = "service-mixed"
    latency_kind = "warm-job"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.service = Service(ctx.workdir / "service")
        self.rng = random.Random(ctx.seed)
        self.done: list[tuple[str, dict, bytes]] = []

    def setup(self) -> None:
        self.service.start()
        for grid, base in SERVICE_SLICES:
            overrides = dict(base, num_jobs=SERVICE_NUM_JOBS, seed=self.ctx.seeds.warmup)
            _, record, payload = self.service.job(grid, overrides)
            self.ctx.expect(check_job(record, payload, cold=True), f"warm-up {grid}")
            _, record, again = self.service.job(grid, overrides)
            self.ctx.expect(
                check_job(record, again, cold=False) and again == payload,
                f"warm-up resubmission {grid}",
            )

    def submit(self, kind: str, grid: str, overrides: dict) -> tuple[Op, bytes]:
        with self.ctx.span(f"op.{kind}"):
            seconds, record, payload = self.service.job(grid, overrides)
        op = Op(
            kind=kind,
            seconds=seconds,
            points=record.total_points,
            ok=check_job(record, payload, cold=kind == "cold-job"),
            simulated=record.simulated,
            cache_hits=record.cache_hits,
            kernel_points=record.kernel_points,
            fallback_points=record.fallback_points,
        )
        return self.ctx.record(op), payload

    def run_unit(self, index: int) -> None:
        grid, base = SERVICE_SLICES[index % len(SERVICE_SLICES)]
        overrides = dict(base, num_jobs=SERVICE_NUM_JOBS, seed=self.ctx.seeds.timed(index))
        _, payload = self.submit("cold-job", grid, overrides)
        self.done.append((grid, overrides, payload))
        self.ctx.digest.update(payload)
        for _ in range(WARM_JOBS_PER_COLD):
            grid, overrides, expected = self.done[self.rng.randrange(len(self.done))]
            op, payload = self.submit("warm-job", grid, overrides)
            op.ok = op.ok and payload == expected

    def peak_rss_mb(self) -> float:
        """The service child's peak RSS: it is the simulating process."""
        return self.service.peak_rss_mb()

    def teardown(self) -> None:
        self.service.stop()


WORKLOADS = {cls.name: cls for cls in (SweepCold, SweepWarm, ServiceMixed)}


def unit_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_sha() -> str | None:
    """HEAD's commit, read from ``.git`` (``None`` outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(ctx: Context, workload: str, seconds: float, units: int) -> dict:
    kinds: dict[str, int] = {}
    for op in ctx.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": seconds,
        "units": units,
        "ops": kinds,
        "commit": commit_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end(ctx: Context, workload, wall: float) -> tuple[dict, dict]:
    """The untraced run's end-to-end metrics and their sample counts."""
    points = sum(op.points for op in ctx.ops)
    failed = sum(not op.ok for op in ctx.ops)
    latencies = [op.seconds for op in ctx.ops if op.kind == workload.latency_kind]
    metrics = {
        "points_per_s": (points / wall, "1/s"),
        "success_rate": ((len(ctx.ops) - failed) / len(ctx.ops), "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    samples = {"points": points, "op_latency": len(latencies)}
    for name, q in (("op_p50_s", 0.5), ("op_p90_s", 0.9)):
        value = percentile(latencies, q)
        if value is None:
            emit(f"# withheld {name}: too few samples (n={len(latencies)})")
        else:
            metrics[name] = (value, "s")
    return metrics, samples


def service_extras(ctx: Context) -> dict:
    """service-mixed's job latencies under their own names (report only)."""
    extras = {}
    for kind, names in (
        ("cold-job", (("cold_job_p50_s", 0.5),)),
        ("warm-job", (("warm_job_p50_s", 0.5), ("warm_job_p90_s", 0.9))),
    ):
        latencies = [op.seconds for op in ctx.ops if op.kind == kind]
        for name, q in names:
            extras[name] = (percentile(latencies, q), "s", len(latencies))
    return extras


def emit(line: str) -> None:
    print(line, flush=True)


def main(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
         setup_only: bool) -> int:
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed, workdir)
    workload = WORKLOADS[name](ctx)
    try:
        workload.setup()
        emit("READY")
        if setup_only:
            return 0
        units = unit_count(name, seconds)
        if traced:
            import probe

            metrics, samples, units = probe.traced_run(ctx, workload, units)
        else:
            started = time.perf_counter()
            for index in range(units):
                workload.run_unit(index)
            wall = time.perf_counter() - started
            workload.verify()
            metrics, samples = end_to_end(ctx, workload, wall)
            if name == "service-mixed":
                for extra, (value, unit, count) in service_extras(ctx).items():
                    shown = "withheld" if value is None else repr(value)
                    emit(f"# job-latency {extra} = {shown} {unit} (n={count})")
        failed = sum(not op.ok for op in ctx.ops)
        meta = run_metadata(ctx, name, seconds, units)
        meta["samples"] = samples
        meta["digest_sha256"] = ctx.digest.hexdigest()
        meta["setup_failures"] = ctx.setup_failures
        emit("# meta " + json.dumps(meta, sort_keys=True))
        emit(f"# digest {name} seed={seed} sha256={meta['digest_sha256']}")
        for metric, (value, unit) in metrics.items():
            emit(f"# metric {metric} = {value!r} {unit}")
        result = {
            "correct": failed == 0 and not ctx.setup_failures,
            "attempted": len(ctx.ops),
            "failed": failed,
            "metrics": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in metrics.items()
            },
        }
        emit("RESULT " + json.dumps(result))
        return 0
    finally:
        workload.teardown()
