"""Benchmark of tedpc's batch operations: infer, timeline and stats.

Run from the repository root:

    python3 perfbench/run.py --workload infer_clean --seed 1 --seconds 20 --trace 0

A run generates the workload's cohort from --seed (three times, in child
processes: the set-up), then repeats the analyst's pass over it until
--seconds have passed: `infer`, `timeline`, then `stats`, each a fresh child
process calling tedpc.cli.main with the flags a user would pass (`infer`
with --threads 1). The program under test sees only the CSV files the
generator wrote. Every operation's outputs are checked (checks.py) and must be
byte-identical across passes and across runs of the same code and cohort.
With --trace 1, one more pass runs traced and per-layer metrics replace the
end-to-end ones.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the machine, the cohort and
every raw sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import CONDITION_SETS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
OPS = ("infer", "timeline", "stats")
# Every run, set-up included, must end well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 3

# The host's speed drifts by a factor of up to 3 over minutes on small shared
# VMs, far more than the changes this benchmark must resolve. Each timed
# child is therefore bracketed by a calibration child (`child.py cal`: start
# Python, import numpy, parse, group and sort 20,000 event-like rows) and its
# wall time is scaled to a reference speed: the seconds it would take on a host
# where the calibration child takes CALIBRATION_REF_S. The calibration is
# benchmark code, so a change to tedpc cannot move it. Raw wall times are kept
# in the run's context line.
CALIBRATION_REF_S = 0.4


class RunFailed(Exception):
    """The cohort could not be generated or the calibration failed, so nothing can be measured."""


@dataclass
class OpResult:
    op: str
    wall_s: float
    scaled_s: float
    report: dict
    digest: str = ""
    error: str = ""


def run_child(args: list[str], log_path: Path, deadline: float) -> tuple[float, int]:
    """Run child.py with `args` to completion; returns (wall seconds, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], stdout=log, stderr=log, env=env)
        # A blocking wait returns the moment the child exits; wait(timeout=...)
        # polls, and would round every wall time up to its 50 ms poll step.
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - time.monotonic()))
        try:
            code = proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, code


def run_timed(args: list[str], work: Path, tag: str, deadline: float, cal_before: float):
    """One child bracketed by calibrations.

    Returns (wall, scaled wall, exit code, report, calibration after); the
    report is the JSON the child wrote, empty when it failed.
    """
    report_path = work / f"{tag}.report.json"
    report_path.unlink(missing_ok=True)
    wall, code = run_child([*args[:1], str(report_path), *args[1:]], work / f"{tag}.log", deadline)
    cal_after = calibrate(work, deadline)
    report = json.loads(report_path.read_text(encoding="utf-8")) if code == 0 and report_path.exists() else {}
    return wall, wall * 2 * CALIBRATION_REF_S / (cal_before + cal_after), code, report, cal_after


def calibrate(work: Path, deadline: float) -> float:
    """Wall seconds of one calibration child."""
    wall, code = run_child(["cal"], work / "cal.log", deadline)
    if code != 0:
        raise RunFailed(f"calibration child exited {code}")
    return wall


def op_args(op: str, spec: Workload, cohort: Path, out: Path) -> list[str]:
    """The tedpc command line of one operation."""
    common = ["--events", str(cohort / "events.csv"), "--out", str(out / op)]
    if op == "infer":
        emit = ["--emit-cohorts"] if spec.emit_cohorts else []
        flags = ["--match-min", "100", "--match-max", "320", "--threads", "1", *emit]
        return ["infer", "--persons", str(cohort / "persons.csv"), *common, *flags]
    inputs = ["--episodes", str(out / "infer" / "episodes.csv"), *common]
    inputs += ["--index-events", str(cohort / "index_concepts.csv")]
    if op == "timeline":
        return ["timeline", *inputs]
    conditions = []
    for name in CONDITION_SETS if spec.conditions else ():
        conditions += ["--condition", f"{name}={cohort / f'condition_{name}.csv'}"]
    return ["stats", *inputs, "--persons", str(cohort / "persons.csv"), "--unsuppressed", *conditions]


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.iterdir()):
        h.update(file.name.encode())
        h.update(file.read_bytes())
    return h.hexdigest()


def run_pass(
    spec: Workload, cohort: Path, out: Path, traced: bool, deadline: float, cal: float
) -> tuple[list[OpResult], float]:
    """One infer -> timeline -> stats pass, stopping at the first failed process.

    `cal` is the latest calibration; returns the results and the one after them.
    """
    results = []
    for op in OPS:
        shutil.rmtree(out / op, ignore_errors=True)
        wall, scaled, code, report, cal = run_timed(
            ["op", "1" if traced else "0", *op_args(op, spec, cohort, out)], out, op, deadline, cal
        )
        result = OpResult(op, wall, scaled, report)
        results.append(result)
        if code != 0:
            log = (out / f"{op}.log").read_text(encoding="utf-8", errors="replace")
            result.error = f"exit code {code}: {log.strip()[-500:]}"
            break
        result.digest = digest_dir(out / op)
    return results, cal


def source_key() -> str:
    """Hash of the program and benchmark sources; outputs may change with either."""
    h = hashlib.sha256()
    for file in sorted([*(ROOT / "src" / "tedpc").rglob("*"), *HERE.glob("*.py")]):
        if file.is_file() and "__pycache__" not in file.parts:
            h.update(str(file.relative_to(ROOT)).encode())
            h.update(file.read_bytes())
    return h.hexdigest()[:16]


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu}


def run_workload(name: str, seed: int, seconds: float, trace: bool, persons: int | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, context)."""
    import checks

    spec = WORKLOADS[name]
    persons = persons or spec.persons
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    cohort, out = work / "cohort", work / "out"
    out.mkdir(parents=True)

    setups = []
    cal = calibrate(work, deadline)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(cohort, ignore_errors=True)
        args = ["cohort", name, str(seed), str(persons), str(cohort)]
        wall, scaled, code, report, cal = run_timed(args, work, "cohort", deadline, cal)
        if code != 0:
            log = (work / "cohort.log").read_text(encoding="utf-8", errors="replace")
            raise RunFailed(f"cohort generation exited {code}: {log[-500:]}")
        setups.append((scaled, wall, report["seconds"]))

    passes: list[list[OpResult]] = []
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        results, cal = run_pass(spec, cohort, out, False, deadline, cal)
        if not passes:
            checks.check_first_pass(spec, seed, persons, cohort, out, results)
        passes.append(results)
        now = time.monotonic()
        if len(results) < len(OPS) or now - measure_start >= seconds:
            break
        # Leave room for another pass, and for a traced one (~1.4x) after it.
        if now + (now - pass_start) * (2.6 if trace else 1.2) > deadline:
            break
    # Times count for every process that exited 0, whatever its check found.
    samples = {op: [r for p in passes for r in p if r.op == op and r.digest] for op in OPS}
    traced_pass = []
    if trace and len(passes[-1]) == len(OPS):
        traced_pass, cal = run_pass(spec, cohort, out, True, deadline, cal)
        passes.append(traced_pass)
    checks.check_identical(passes, WORK / "digests" / f"{name}-{seed}-{persons}-{source_key()}.json")

    ops = [r for p in passes for r in p]
    failed = sum(1 for r in ops if r.error)
    scaled = {op: statistics.median(r.scaled_s for r in rs) for op, rs in samples.items() if rs}
    if trace:
        setup_layers = {metric: statistics.median(s[2][metric] for s in setups) for metric in setups[0][2]}
        metrics = per_layer_metrics(traced_pass, scaled, setup_layers)
    else:
        metrics = {f"{op}_s": {"value": value, "unit": "s"} for op, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": max(r.report.get("peak_rss_kb", 0) for r in ops) / 1024, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(s[0] for s in setups), "unit": "s"}

    summary_path = out / "infer" / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    context = {
        "workload": name,
        "seed": seed,
        "persons": persons,
        "event_rows": summary.get("event_rows"),
        "episodes": summary.get("episodes"),
        "failed_share": failed / len(ops),
        **machine_facts(),
        "passes": len(passes),
        "wall_s": {op: [round(r.wall_s, 4) for r in rs] for op, rs in samples.items()},
        "scaled_s": {op: [round(r.scaled_s, 4) for r in rs] for op, rs in samples.items()},
        "setup_wall_s": [round(s[1], 4) for s in setups],
        "setup_scaled_s": [round(s[0], 4) for s in setups],
        "errors": [f"{r.op}: {r.error}" for r in ops if r.error],
    }
    if traced_pass:
        # Per traced operation, the parts that report.py --tiny checks add up
        # to its wall time: layer and pipeline self seconds, then cli.self_s.
        context["traced_ops"] = {
            r.op: {
                "wall_s": r.wall_s,
                "parts_s": [*r.report.get("seconds", {}).values(), r.wall_s - r.report.get("entry_s", 0.0)],
            }
            for r in traced_pass
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}, context


def per_layer_metrics(traced_pass: list[OpResult], untraced_scaled: dict, setup_layers: dict) -> dict:
    """Per-layer seconds summed over the traced pass, and infer's counts.

    Layer seconds are raw in-process times. cli.self_s is each process's wall
    time outside its run_* entry point (interpreter start and exit, imports,
    argument parsing), so the layer seconds of one operation add up to its
    traced wall time. trace.overhead_s compares scaled wall times of the
    traced pass and the untraced passes' medians.
    """
    seconds: dict[str, float] = dict(setup_layers)
    counts: dict[str, int] = {}
    overhead = 0.0
    for r in traced_pass:
        for metric, value in r.report.get("seconds", {}).items():
            seconds[metric] = seconds.get(metric, 0.0) + value
        seconds["cli.self_s"] = seconds.get("cli.self_s", 0.0) + r.wall_s - r.report.get("entry_s", 0.0)
        if r.op == "infer":
            counts = r.report.get("counts", {})
        overhead += r.scaled_s - untraced_scaled.get(r.op, r.scaled_s)
    seconds["trace.overhead_s"] = overhead
    metrics = {name: {"value": value, "unit": "s"} for name, value in sorted(seconds.items())}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in sorted(counts.items())})
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/tedpc/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a tedpc checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        result, context = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in context["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
