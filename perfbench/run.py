"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the root of a checkout.

This process is a supervisor and generates no load itself.  It launches the
load process (this file again, with ``--role measure``), which imports
``repro`` once from the checkout's ``src/``, sets up, prints ``READY``, runs
the workload's fixed amount of work and prints its report and a ``RESULT``
line.  The supervisor prints the report, then one JSON object as the last
line of standard output.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh launches, each timed
from ``Popen`` until its ``READY`` line: ``SETUP_SAMPLES - 1`` set-up-only
launches (``--role setup``, which exit after ``READY``) and the measuring
launch itself.  They run one after another, so nothing overlaps the timed
phase.  The traced run (``--trace 1``) makes no set-up-only launches: it
reports the per-layer metrics instead.

Exit status is 0 with a result, or non-zero without one (for example in a
directory that holds the benchmark but no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cold", "sweep-warm", "service-mixed")
SETUP_SAMPLES = 3
#: Whole-run limit: the load processes are killed past it.
RUN_TIMEOUT_SECONDS = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role", choices=("supervise", "setup", "measure"), default="supervise",
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def launch(args: argparse.Namespace, role: str, workdir: Path, deadline: float,
           echo: bool) -> tuple[int, float | None, str | None]:
    """Run one load process; returns (exit code, seconds to READY, RESULT)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    ready = result = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = line[len("RESULT "):]
            elif echo:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()  # whatever the load process left behind in its group
        proc.wait()
    return code, ready, result


def supervise(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    rundir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        setups = []
        if not args.trace:
            for index in range(SETUP_SAMPLES - 1):
                code, ready, _ = launch(
                    args, "setup", rundir / f"setup{index}", deadline, echo=False)
                if code != 0 or ready is None:
                    print(f"perfbench: set-up launch failed (exit {code})",
                          file=sys.stderr)
                    return 1
                setups.append(ready)
        code, ready, result = launch(args, "measure", rundir / "measure", deadline,
                                     echo=True)
        if code != 0 or ready is None or result is None:
            print(f"perfbench: load process failed (exit {code})", file=sys.stderr)
            return 1
        answer = json.loads(result)
        if not args.trace:
            setups.append(ready)
            answer["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
            print("# setup_samples " + json.dumps(setups))
            print(f"# metric setup_s = {statistics.median(setups)!r} s")
        print(json.dumps(answer), flush=True)
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.role == "supervise":
        return supervise(args)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(
        args.workload, args.seed, args.seconds, bool(args.trace),
        Path(args.workdir), setup_only=args.role == "setup",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
