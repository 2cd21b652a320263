"""Run every workload once and print its metrics, or self-check the benchmark.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]
        full-size runs of infer_clean, infer_dense and analyze; prints each
        metric with its unit, failed_share and the machine facts
    python3 perfbench/report.py --tiny
        self-check of the benchmark's own code on small cohorts: every output
        check passes, the metric names and units are exactly those in
        BENCHMARK.json, each traced operation's layer times add up to its
        wall time, counts repeat exactly, and a directory holding only the
        benchmark fails without printing a result

Exits 0 when every operation passed (and, with --tiny, every assertion held).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def print_result(name: str, result: dict, context: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<12} {metric:<30} {entry['value']:>14.4f} {entry['unit']}")
    share = context["failed_share"]
    print(f"{name:<12} {'failed_share':<30} {share:>14.4f} share ({result['failed']}/{result['attempted']})")
    print(json.dumps({"context": context}))


def expected_metrics(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def self_check() -> list[str]:
    """Returns the problems found; empty when the benchmark behaves."""
    problems = []
    for name, spec in run.WORKLOADS.items():
        counts = []
        for trace in (False, True, True):
            result, context = run.run_workload(name, seed=3, seconds=0.1, trace=trace, persons=spec.tiny_persons)
            print_result(name, result, context)
            tag = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: failed operations {context['errors']}")
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            want = expected_metrics(trace)
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
            for op, sums in context.get("traced_ops", {}).items():
                if min(sums["parts_s"]) < 0 or abs(sum(sums["parts_s"]) - sums["wall_s"]) > 1e-6:
                    problems.append(f"{tag}: {op} layer times {sums['parts_s']} do not add up to {sums['wall_s']}")
            if trace:
                counts.append({m: e["value"] for m, e in result["metrics"].items() if e["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between two traced runs: {counts}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "infer_clean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"a directory with only the benchmark exited {proc.returncode}: {proc.stdout[-200:]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="self-check on small cohorts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.tiny:
        problems = self_check()
        for problem in problems:
            print(f"SELF-CHECK FAILED: {problem}")
        print("self-check passed" if not problems else f"self-check: {len(problems)} problems")
        return 1 if problems else 0
    failed = 0
    for name in run.WORKLOADS:
        result, context = run.run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, result, context)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
