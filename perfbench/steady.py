"""Steadiness report: is each end-to-end metric steady enough for its bound?

Runs ``run.py --trace 0`` on every workload N times, each run with another
seed, workloads interleaved run by run so that slow phases of the host fall
on all of them alike.  For every metric it prints the median, quartiles,
minimum and the spread (interquartile range over median, from
``statistics.quantiles(values, n=4)``), and flags a spread over the metric's
bound in ``BENCHMARK.json`` (``OVER``) or over a third of it (``high``).
``setup_s`` is exempt from the spread test.  With ``--sets 2`` it runs two
sets on fresh seeds and flags a median of the second set that is worse than
the first by more than the bound (``DRIFT``).

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads sweep-cold --runs 5

Exit status is 1 when any flag is ``OVER``/``DRIFT`` or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    answer = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = answer.stdout.strip().splitlines()
    if answer.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{answer.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3, "min": min(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    values: dict[tuple[int, str, str], list[float]] = {}
    failures = 0
    for number in range(args.sets):
        for index in range(args.runs):
            seed = args.first_seed + number * args.runs + index
            for workload in args.workloads:
                started = time.perf_counter()
                result = run_once(workload, seed, args.seconds)
                elapsed = time.perf_counter() - started
                failures += not result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((number, workload, name), []).append(
                        metric["value"])
                print(f"# set {number + 1} {workload} seed {seed} ({elapsed:.1f} s): "
                      + json.dumps(result["metrics"]), flush=True)

    flagged = bool(failures)
    report = {}
    print(f"{'workload':<14} {'metric':<14} {'set':>3} {'median':>12} "
          f"{'min':>12} {'spread':>8} {'bound':>6} flag")
    for (number, workload, name), series in sorted(values.items()):
        summary = summarize(series)
        bound = bounds[name]["bound"]
        flag = ""
        if name != "setup_s" and summary["spread"] > bound:
            flag = "OVER"
        elif name != "setup_s" and summary["spread"] > bound / 3:
            flag = "high"
        if number == 1:
            first = values[(0, workload, name)]
            change = summary["median"] / statistics.median(first) - 1
            worse = change if bounds[name]["better"] == "lower" else -change
            summary["drift"] = change
            if worse > bound:
                flag = (flag + " DRIFT").strip()
        flagged = flagged or "OVER" in flag or "DRIFT" in flag
        report[f"{workload}/{name}/set{number + 1}"] = summary
        print(f"{workload:<14} {name:<14} {number + 1:>3} {summary['median']:>12.6g} "
              f"{summary['min']:>12.6g} {summary['spread']:>8.2%} {bound:>6} {flag}")
    print(json.dumps({"runs": args.runs, "sets": args.sets, "failed_runs": failures,
                      "summary": report}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
