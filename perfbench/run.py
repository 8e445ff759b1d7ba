"""Cold-process benchmark of the Hayat reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {lifetime,fleet,arrivals,all} \\
        --seed N --seconds S --trace {0,1}

A run makes ``round(S / repeat_s)`` repeats of the workload (at least
three; ``repeat_s`` and what each workload exercises are in
:mod:`specs`).  Each repeat is a fresh child process on its own inputs
derived from the seed: a cold interpreter with cold process-level
caches, which is what a ``repro campaign`` run or a fleet job pays.
End-to-end metrics pool the repeats: mean wall time, median set-up
time, chip-epochs over busy time, median peak memory, and the
Hayat/VAA aging ratio over every simulated chip.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces
every repeat, adds an untraced twin of the first, and reports the
per-layer metrics as means over the traced repeats: spans the benchmark
records around the program's public entry points (:mod:`tracing`), the
program's own ``repro.obs`` registry, and the tracing overhead as the
wall-time difference of the twins.

Every repeat's outputs are checked (:mod:`checks`); a failed check makes
``correct`` false and the exit code 1.  The last line of standard
output is the result JSON.  The line before it is the detail: every
end-to-end metric with its unit, including the fleet-only request
latencies, per-repeat samples, the pinned thread settings and any
failures.  ``python3 perfbench/selftest.py`` is the benchmark's own
fast test.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
from tracing import CONTAINERS, self_times
from specs import SIZES, WORKLOADS, expected_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Thread pools pinned in every child: one BLAS/OpenMP thread, so a run
#: measures the program rather than oversubscription of a small host.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Repeats a run always makes, whatever ``--seconds`` says, so that
#: set-up time is a median of several cold starts.
MIN_REPEATS = 3

#: No repeat starts later than this after the run began, so the whole
#: run ends well inside three minutes.
LAST_START_S = 120.0

#: A child that takes longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "epochs_per_s": "chip-epochs/s",
    "peak_rss_mb": "MB",
    "aging_ratio": "ratio",
}

#: Further user-facing metrics, printed in every detail line (the
#: request latencies on ``fleet`` only).  They are not end-to-end
#: metrics of BENCHMARK.json, each of which must be defined, and never
#: 0, on every workload; the latencies and the DTM ratio are also
#: per-layer metrics, and ``failed_frac`` is failed / attempted.
DETAIL_UNITS = {
    "request_s": "s",
    "cached_request_s": "s",
    "queue_wait_s": "s",
    "dtm_ratio": "ratio",
    "failed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "variation.population_s": "s",
    "variation.chips": "count",
    "aging.table_s": "s",
    "aging.walk_s": "s",
    "aging.walk_elements": "count",
    "aging.bracket_reuse_ratio": "ratio",
    "aging.walk_dedup_hits": "count",
    "aging.walk_delta_hits": "count",
    "thermal.warm_s": "s",
    "thermal.factorizations": "count",
    "thermal.cache_hits": "count",
    "thermal.coupled_solves": "count",
    "thermal.coupled_iterations": "count",
    "thermal.iters_per_solve": "ratio",
    "core.decision_s": "s",
    "core.delta_eval_s": "s",
    "core.delta_rounds": "count",
    "core.batched_lanes": "count",
    "dtm.migrations": "count",
    "dtm.throttles": "count",
    "sim.settle_s": "s",
    "sim.settle_rounds": "count",
    "sim.window_s": "s",
    "sim.timeline_compiles": "count",
    "sim.segment_breaks": "count",
    "sim.segment_cache_hit_ratio": "ratio",
    "sim.aging_s": "s",
    "sim.epochs": "count",
    "sim.arrivals": "count",
    "sim.unattributed_s": "s",
    "sim.dtm_ratio": "ratio",
    "supervisor.pool_spawn_s": "s",
    "supervisor.pool_spawns": "count",
    "supervisor.wait_s": "s",
    "checkpoint.append_s": "s",
    "checkpoint.bytes": "bytes",
    "fleet.request_s": "s",
    "fleet.cached_request_s": "s",
    "fleet.queue_wait_s": "s",
    "fleet.store_append_s": "s",
    "fleet.store_bytes": "bytes",
    "fleet.aggregate_s": "s",
    "fleet.cache_hit_ratio": "ratio",
    "obs.tracing_overhead_s": "s",
}

#: Registry timers that partition an in-process simulation's time.
SIM_PHASES = ("sim.decision", "sim.settle", "sim.window", "sim.aging")


def _ratio(num, den):
    return num / den if den else 0.0


def _number(value):
    """A metric value for JSON: an undefined ratio (nan) reads 0."""
    return 0.0 if value != value else value


def run_child(
    name, size, seed, repeat, traced, chip_seeds=None
) -> tuple[dict | None, str]:
    """One cold repeat; returns (summary, "") or (None, error)."""
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}-{repeat}-{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "summary.json")
    spec = {
        "workload": name,
        "size": size,
        "seed": seed,
        "repeat": repeat,
        "trace": traced,
        "chip_seeds": chip_seeds,
        "workdir": workdir,
        "out": out,
    }
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_ENV)
    spawn = time.monotonic()
    # A session of its own, so a hung child goes down with its workers.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - spawn
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            return None, f"child exited {proc.returncode}: {' | '.join(tail)}"
        with open(out, encoding="utf-8") as handle:
            summary = json.load(handle)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"child exceeded {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary.update(spawn=spawn, wall_s=wall, repeat=repeat, traced=traced)
    for job in summary["jobs"]:
        job["repeat"] = repeat
    return summary, ""


def end_to_end(summaries: list[dict]) -> dict:
    """The user-facing metrics of a run, pooled over its repeats."""
    jobs = [job for summary in summaries for job in summary["jobs"]]
    epochs = sum(job["epochs"] for job in jobs)
    busy = sum(s["work_end"] - s["setup_end"] for s in summaries)
    metrics = {
        "wall_s": statistics.fmean(s["wall_s"] for s in summaries),
        "setup_s": statistics.median(s["setup_end"] - s["spawn"] for s in summaries),
        "epochs_per_s": epochs / busy,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
        "aging_ratio": checks.aging_ratio(jobs),
        "dtm_ratio": checks.dtm_ratio(jobs),
    }
    if "request_s" in summaries[0]:
        for metric in ("request_s", "cached_request_s", "queue_wait_s"):
            metrics[metric] = statistics.median(
                value for summary in summaries for value in summary[metric]
            )
    return metrics


def per_layer(summary: dict) -> dict:
    """The per-layer metrics of one traced repeat."""
    spans = summary["spans"]
    own = self_times(spans)
    total, self_total, work = {}, {}, {}
    for span, own_s in zip(spans, own):
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        self_total[name] = self_total.get(name, 0.0) + own_s
        work[name] = work.get(name, 0) + span["n"]
    counters = summary["counters"]
    timers = summary["timers"]

    def count(name):
        return counters.get(name, 0)

    import_s = summary["import_end"] - summary["main_start"]
    attributed = summary["main_start"] - summary["spawn"] + import_s
    attributed += sum(
        s for name, s in self_total.items() if name not in CONTAINERS
    )
    wait_s = sum(self_total.get(name, 0.0) for name in CONTAINERS)
    in_process = summary["workers"] == 1
    if in_process:
        attributed += sum(timers.get(name, 0.0) for name in SIM_PHASES)
    else:
        attributed += wait_s
    unique = count("aging.walk_unique")
    hits, misses = count("fleet.cache_hits"), count("fleet.cache_misses")
    seg_hits = count("sim.segment_cache_hits")
    seg_misses = count("sim.segment_cache_misses")
    e2e = end_to_end([summary])
    return {
        "setup.import_s": import_s,
        "variation.population_s": total.get("variation.population", 0.0),
        "variation.chips": work.get("variation.population", 0),
        "aging.table_s": total.get("aging.table", 0.0),
        "aging.walk_s": timers.get("aging.walk", 0.0),
        "aging.walk_elements": unique + count("aging.walk_dedup_hits"),
        "aging.bracket_reuse_ratio": _ratio(count("aging.walk_bracket_reuse"), unique),
        "aging.walk_dedup_hits": count("aging.walk_dedup_hits"),
        "aging.walk_delta_hits": count("aging.walk_delta_hits"),
        "thermal.warm_s": total.get("thermal.warm", 0.0),
        "thermal.factorizations": count("thermal.factorizations"),
        "thermal.cache_hits": count("thermal.cache_hits"),
        "thermal.coupled_solves": count("thermal.coupled_solves"),
        "thermal.coupled_iterations": count("thermal.coupled_iterations"),
        "thermal.iters_per_solve": _ratio(
            count("thermal.coupled_iterations"), count("thermal.coupled_solves")
        ),
        "core.decision_s": timers.get("sim.decision", 0.0),
        "core.delta_eval_s": timers.get("sim.delta_eval", 0.0),
        "core.delta_rounds": count("sim.delta_rounds"),
        "core.batched_lanes": count("sim.decision_batched_lanes"),
        "dtm.migrations": count("sim.dtm_migrations"),
        "dtm.throttles": count("sim.dtm_throttles"),
        "sim.settle_s": timers.get("sim.settle", 0.0),
        "sim.settle_rounds": count("sim.settle_rounds"),
        "sim.window_s": timers.get("sim.window", 0.0),
        "sim.timeline_compiles": count("sim.timeline_compiles"),
        "sim.segment_breaks": count("sim.segment_breaks"),
        "sim.segment_cache_hit_ratio": _ratio(seg_hits, seg_hits + seg_misses),
        "sim.aging_s": timers.get("sim.aging", 0.0),
        "sim.epochs": count("sim.epochs"),
        "sim.arrivals": count("sim.arrivals"),
        "sim.unattributed_s": summary["wall_s"] - attributed,
        "sim.dtm_ratio": _number(e2e["dtm_ratio"]),
        "supervisor.pool_spawn_s": total.get("supervisor.pool_spawn", 0.0),
        "supervisor.pool_spawns": work.get("supervisor.pool_spawn", 0),
        "supervisor.wait_s": 0.0 if in_process else wait_s,
        "checkpoint.append_s": total.get("checkpoint.append", 0.0),
        "checkpoint.bytes": summary.get("checkpoint_bytes", 0),
        "fleet.request_s": e2e.get("request_s", 0.0),
        "fleet.cached_request_s": e2e.get("cached_request_s", 0.0),
        "fleet.queue_wait_s": e2e.get("queue_wait_s", 0.0),
        "fleet.store_append_s": total.get("fleet.store_append", 0.0),
        "fleet.store_bytes": summary.get("store_bytes", 0),
        "fleet.aggregate_s": total.get("fleet.aggregate", 0.0),
        "fleet.cache_hit_ratio": _ratio(hits, hits + misses),
    }


def plan_chip_seeds(name: str, seed: int, repeats: int, spec: dict) -> list:
    """Each repeat's chip seeds: stratified for ``lifetime``, else None."""
    if name != "lifetime":
        return [None] * repeats
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    return workloads.stratified_chip_seeds(seed, repeats, spec["chips"])


def measure(name: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the repeat plan; check every repeat's outputs."""
    spec = SIZES[name][size]
    jobs = expected_jobs(name, spec)
    repeats = max(MIN_REPEATS, round(seconds / spec["repeat_s"]))
    plan = [(repeat, trace) for repeat in range(repeats)]
    if trace:
        # An untraced twin of repeat 0 gives the tracing overhead, and
        # shows that tracing changes no simulated result.
        plan.append((0, False))
    chip_seeds = plan_chip_seeds(name, seed, repeats, spec)
    started = time.monotonic()
    done, failures, notes = [], [], []
    attempted = failed = 0
    for repeat, traced in plan:
        if time.monotonic() - started > LAST_START_S:
            notes.append(f"stopped after {len(done)} of {len(plan)} repeats")
            break
        summary, error = run_child(
            name, size, seed, repeat, traced, chip_seeds[repeat]
        )
        attempted += jobs
        problems = [error] if error else checks.check_workload(name, summary, jobs)
        if problems:
            failed += jobs
            failures.extend(f"repeat {repeat}: {p}" for p in problems)
        else:
            done.append(summary)
    twins = [s for s in done if s["repeat"] == 0]
    if trace and len(twins) == 2:
        problems = checks.check_repeats(twins)
        if problems:
            failed += jobs
            failures.extend(problems)
    return {
        "done": done,
        "repeats": repeats,
        "failures": failures,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
    }


def report(
    name: str, seed: int, size: str, trace: bool, run: dict
) -> tuple[dict, dict]:
    """The detail dict and the result dict of one run."""
    plain = [s for s in run["done"] if not s["traced"]]
    traced = [s for s in run["done"] if s["traced"]]
    pooled = end_to_end(plain)
    pooled["failed_frac"] = run["failed"] / run["attempted"]
    units = dict(END_TO_END_UNITS, **DETAIL_UNITS)
    detail = {
        "workload": name,
        "seed": seed,
        "size": size,
        "repeats": run["repeats"],
        "settings": dict(
            PINNED_ENV, workers=plain[0]["workers"], nproc=os.cpu_count()
        ),
        "end_to_end": {
            metric: {"value": _number(value), "unit": units[metric]}
            for metric, value in pooled.items()
            if metric in units
        },
        "repeat_samples": {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": [s["setup_end"] - s["spawn"] for s in plain],
        },
        "failures": run["failures"],
        "notes": run["notes"],
    }
    if trace:
        layers = [per_layer(s) for s in traced]
        twin_walls = {s["traced"]: s["wall_s"] for s in run["done"] if s["repeat"] == 0}
        overhead = twin_walls.get(True, 0.0) - twin_walls.get(False, 0.0)
        metrics = {
            metric: {
                "value": statistics.fmean(layer[metric] for layer in layers)
                if metric != "obs.tracing_overhead_s"
                else overhead,
                "unit": unit,
            }
            for metric, unit in PER_LAYER_UNITS.items()
        }
        traced_wall = statistics.fmean(s["wall_s"] for s in traced)
        detail["layer_shares_of_traced_wall"] = {
            metric: entry["value"] / traced_wall
            for metric, entry in metrics.items()
            if entry["unit"] == "s"
        }
    else:
        metrics = {
            metric: {"value": detail["end_to_end"][metric]["value"], "unit": unit}
            for metric, unit in END_TO_END_UNITS.items()
        }
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="all runs every workload in turn, two output lines each",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is the self-test's smoke size",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # Compile once up front, so every repeat imports from warm bytecode
    # as an installed package would.
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(HERE, quiet=2)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        run = measure(name, args.size, args.seed, args.seconds, trace)
        if {s["traced"] for s in run["done"]} != ({True, False} if trace else {False}):
            for failure in run["failures"]:
                print(f"perfbench: {name}: {failure}", file=sys.stderr)
            code = 1
            continue
        detail, result = report(name, args.seed, args.size, trace, run)
        print(json.dumps(detail))
        print(json.dumps(result))
        code = max(code, 0 if result["correct"] else 1)
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
