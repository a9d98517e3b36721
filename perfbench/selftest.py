"""Self-tests of the benchmark: ``python3 perfbench/selftest.py [-k NAME]``.

Run from the root of a checkout. The ``test_full_size_*`` cases run every
workload at ``run_seconds``, traced and untraced (about four minutes on
2 CPUs); the others take seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import probe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "selftest"


def run_benchmark(workload: str, seconds: float, trace: int, cwd: Path = ROOT):
    answer = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )
    lines = answer.stdout.strip().splitlines()
    return answer.returncode, lines


def expected_units(trace: int) -> dict[str, str]:
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(bench.WORKLOADS))
        pattern = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        every = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(every), len(set(every)))
        for name in every:
            self.assertRegex(name, pattern)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))

    def test_every_per_layer_metric_has_a_prediction(self):
        design = (HERE / "DESIGN.md").read_text()
        grids = "|".join(grid for grid, *_ in bench.SWEEP_GRIDS)
        for metric in SPEC["per_layer"]:
            stem = re.sub(rf"\.({grids})\.", ".<grid>.", metric["name"])
            self.assertIn(f"`{stem}`", design, metric["name"])


class StatsTest(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(bench.percentile([1.0] * 19, 0.5))
        self.assertEqual(bench.percentile([1.0] * 20, 0.5), 1.0)
        self.assertIsNone(bench.percentile(list(range(99)), 0.9))
        self.assertIsNotNone(bench.percentile(list(range(100)), 0.9))

    def test_strided_shards_cover_the_grid_once(self):
        shards = bench.shard_indices(36, 3)
        self.assertEqual(len(shards), 12)
        self.assertEqual(shards[0], [0, 12, 24])
        self.assertEqual(sorted(i for shard in shards for i in shard), list(range(36)))
        with self.assertRaises(ValueError):
            bench.shard_indices(36, 5)

    def test_self_time_subtracts_children(self):
        tracer = probe.Tracer()
        with tracer.span("op") as root:
            with tracer.span("child"):
                pass
        child = tracer.spans[1]
        self.assertEqual(child.parent, root.id)
        self.assertEqual(child.op, root.op)
        own = probe.self_seconds(tracer.spans)
        self.assertAlmostEqual(own[root.id], root.seconds - child.seconds)
        path = SCRATCH / "trace.json"
        tracer.write_chrome(path)
        events = json.loads(path.read_text())["traceEvents"]
        self.assertEqual([e["name"] for e in events], ["op", "child"])
        self.assertEqual(events[1]["args"]["parent"], events[0]["args"]["span"])


class FakeRecord:
    def __init__(self, job_id: str, simulated: int, hits: int) -> None:
        self.job_id, self.status, self.total_points = job_id, "done", 12
        self.simulated, self.cache_hits = simulated, hits
        self.kernel_points = self.fallback_points = 0


class FakeService:
    """Answers like a service, but every resubmission returns other bytes."""

    def __init__(self) -> None:
        self.seen: set[str] = set()

    def job(self, grid, overrides):
        key = json.dumps([grid, overrides], sort_keys=True)
        cold = key not in self.seen
        self.seen.add(key)
        record = FakeRecord(key, 12 if cold else 0, 0 if cold else 12)
        return 0.01, record, b"cold" if cold else b"mismatched"

    def peak_rss_mb(self) -> float:
        return 1.0


class ChecksTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)

    def test_mismatched_payload_lowers_success_rate(self):
        ctx = bench.Context(7, SCRATCH)
        workload = bench.ServiceMixed(ctx)
        workload.service = FakeService()
        workload.run_unit(0)
        workload.run_unit(1)
        self.assertEqual([op.ok for op in ctx.ops if op.kind == "cold-job"], [True] * 2)
        self.assertFalse(any(op.ok for op in ctx.ops if op.kind == "warm-job"))
        self.assertLess(self.success_rate(ctx, workload), 1.0)

    def test_mismatched_replay_lowers_success_rate(self):
        ctx = bench.Context(7, SCRATCH)
        workload = bench.SweepWarm(ctx)
        workload.setup()
        self.assertEqual(ctx.setup_failures, [])
        workload.run_unit(0)
        self.assertEqual(self.success_rate(ctx, workload), 1.0)
        digest = ctx.digest.hexdigest()
        arrays = workload.expected["policy-compare"][0]
        key = sorted(arrays)[0]
        arrays[key] = arrays[key].copy()
        arrays[key].reshape(-1).view("u1")[0] ^= 1
        ctx.digest = bench.hashlib.sha256()
        workload.run_unit(0)
        self.assertLess(self.success_rate(ctx, workload), 1.0)
        self.assertEqual(ctx.digest.hexdigest(), digest)  # replays are unchanged

    def test_digest_sees_a_flipped_bit(self):
        value = bench.np.arange(4.0)
        first, second = bench.hashlib.sha256(), bench.hashlib.sha256()
        bench.digest_arrays(first, {"x": value})
        value.view("u1")[0] ^= 1
        bench.digest_arrays(second, {"x": value})
        self.assertNotEqual(first.hexdigest(), second.hexdigest())

    @staticmethod
    def success_rate(ctx, workload) -> float:
        metrics, _ = bench.end_to_end(ctx, workload, wall=1.0)
        return metrics["success_rate"][0]


class RunTest(unittest.TestCase):
    def check_result(self, lines: list[str], trace: int, complete: bool) -> dict:
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = expected_units(trace)
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], float)
        if complete:
            self.assertEqual(set(result["metrics"]), set(units))
        if not trace:
            self.assertEqual(result["metrics"]["success_rate"]["value"], 1.0)
        return result

    def test_tiny_run_of_each_workload(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run_benchmark(workload, 1, 0)
                self.assertEqual(code, 0, lines)
                self.check_result(lines, 0, complete=False)
                self.assertTrue(any(line.startswith("# meta ") for line in lines))

    def test_refuses_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run_benchmark("sweep-cold", 1, 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))

    def test_full_size_untraced_emits_every_metric(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run_benchmark(workload, SPEC["run_seconds"], 0)
                self.assertEqual(code, 0, lines)
                self.check_result(lines, 0, complete=True)

    def test_full_size_traced_emits_every_metric(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run_benchmark(workload, SPEC["run_seconds"], 1)
                self.assertEqual(code, 0, lines)
                result = self.check_result(lines, 1, complete=True)
                hits = result["metrics"]["cache.hit_ratio"]["value"]
                if workload == "sweep-cold":
                    self.assertEqual(hits, 0.0)
                if workload == "sweep-warm":
                    self.assertEqual(hits, 1.0)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
