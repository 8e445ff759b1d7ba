"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at its tiny size, untraced and traced, and checks
that the result line prints exactly the metric names and units that
``BENCHMARK.json`` declares.  Then corrupts a real tiny output in each
way the checks guard against and confirms that every corruption fails,
and that a failed check makes the command exit non-zero.  Takes about a
minute on a 2-core host.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import checks
import run
from specs import SIZES, WORKLOADS, expected_jobs


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(run.HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names_and_units(declared: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: outputs failed a check")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if not all(
                isinstance(v["value"], (int, float)) for v in result["metrics"].values()
            ):
                problems.append(f"{workload} trace={trace}: non-numeric value")
    return problems


def _corruptions(workload: str):
    """(label, mutate) pairs; each mutation must make a check fail."""

    def health_above_one(s):
        s["jobs"][0]["health"][-1][0] = 1.5

    def health_rises(s):
        rows = s["jobs"][0]["health"]
        rows.append([min(1.0, h * 1.01) for h in rows[-1]])
        s["jobs"][0]["epochs"] += 1
        s["jobs"][0]["avg_fmax"].append(s["jobs"][0]["avg_fmax"][-1])

    def job_lost(s):
        s["jobs"].pop()

    yield "health above 1", health_above_one
    yield "job missing", job_lost
    if workload != "fleet":
        yield "health rises", health_rises
    if workload == "lifetime":

        def hayat_ages_faster(s):
            for job in s["jobs"]:
                if job["policy"] == "hayat":
                    job["avg_aging_rate"] *= 10.0
                    job["dtm_events"] = 10**6

        yield "Hayat loses to VAA", hayat_ages_faster
    if workload == "arrivals":

        def no_arrivals(s):
            for job in s["jobs"]:
                job["arrivals"] = 0

        yield "no arrivals", no_arrivals
    if workload == "fleet":

        def cache_missed(s):
            response = next(iter(s["second_pass"].values()))
            response["cache_hits"] -= 1

        def aggregates_moved(s):
            response = next(iter(s["second_pass"].values()))
            group = next(iter(response["aggregates"]["groups"].values()))
            group["avg_aging_rate"]["mean"] *= 1.001

        yield "second pass missed the cache", cache_missed
        yield "second-pass aggregates differ", aggregates_moved


def check_corruptions() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        jobs = expected_jobs(workload, SIZES[workload]["tiny"])
        chip_seeds = run.plan_chip_seeds(workload, 3, 1, SIZES[workload]["tiny"])
        summary, error = run.run_child(workload, "tiny", 3, 0, False, chip_seeds[0])
        if error:
            return [f"{workload}: {error}"]
        if checks.check_workload(workload, summary, jobs):
            problems.append(f"{workload}: clean output failed the checks")
        for label, mutate in _corruptions(workload):
            corrupted = copy.deepcopy(summary)
            mutate(corrupted)
            if not checks.check_workload(workload, corrupted, jobs):
                problems.append(f"{workload}: corruption '{label}' passed the checks")
        other = copy.deepcopy(summary)
        other["jobs"][0]["avg_aging_rate"] *= 1.5
        if not checks.check_repeats([summary, other]):
            problems.append(f"{workload}: differing repeats passed the checks")
    return problems


def check_exit_code() -> list[str]:
    """One repeat failing a check: correct is false and the exit code 1."""
    original = checks.check_workload
    calls = []

    def fail_first(*args):
        calls.append(args)
        return ["forced failure"] if len(calls) == 1 else original(*args)

    checks.check_workload = fail_first
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", "arrivals", "--seed", "3", "--seconds", "1",
                 "--size", "tiny"]
            )
    finally:
        checks.check_workload = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code == 0 or result["correct"] is not False or result["failed"] < 1:
        return [f"a failed check gave exit {code} and result {result}"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = check_names_and_units(declared) + check_corruptions() + check_exit_code()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
