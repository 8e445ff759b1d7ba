#!/usr/bin/env python
"""Run the simulator perf benchmarks and persist their stats as JSON.

Usage::

    python scripts/run_benchmarks.py --output BENCH_PR2.json \
        [--suite benchmarks/test_perf_supervision.py ...] \
        [--baseline old_stats.json] [--pytest-arg=--benchmark-warmup=on]

Runs the selected benchmark files (default
``benchmarks/test_perf_simulator.py``; repeat ``--suite`` to pick
others) under pytest-benchmark, distills the per-test stats
(mean/min/stddev in milliseconds, plus any ``benchmark.extra_info`` a
test recorded), and writes them to ``--output``.  When ``--baseline``
points at an earlier
pytest-benchmark JSON (or an earlier output of this script), the file
also records the baseline means and the resulting speedups — the
before/after record the perf acceptance criteria read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SUITE = os.path.join("benchmarks", "test_perf_simulator.py")

#: Timers that run *inside* another phase timer.  Their time is already
#: counted by the parent, so they are excluded from the top-level total
#: (shares of the remaining phases now sum to ~1.0 instead of past it)
#: and reported with an explicit ``nested_in``/``share_of_parent``
#: instead of a misleading top-level share.  ``None`` marks a timer
#: whose spans fall under several phases (e.g. the aging-table walk
#: runs inside both the decision and the aging phases); for those, the
#: registry's attributed ``name@parent`` aggregates (see
#: ``repro.obs.core.ATTRIBUTED_TIMERS``) supply the per-parent split,
#: recorded as a ``parents`` map on the breakdown entry.
NESTED_TIMERS = {
    "sim.delta_eval": None,
    "aging.walk": None,
}


def _distill(raw: dict) -> dict:
    """Per-test stats (ms) from a pytest-benchmark JSON payload."""
    out = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_ms": stats["mean"] * 1e3,
            "min_ms": stats["min"] * 1e3,
            "stddev_ms": stats["stddev"] * 1e3,
            "rounds": stats["rounds"],
        }
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
            phases = bench["extra_info"].get("phases_ms")
            if phases:
                # ``name@parent`` entries are per-parent attribution
                # aggregates, not phases of their own — they feed the
                # ``parents`` maps below and never the top-level total.
                top = {
                    k: v
                    for k, v in phases.items()
                    if k not in NESTED_TIMERS and "@" not in k
                }
                top_total = sum(top.values())
                breakdown = {}
                for name, ms in phases.items():
                    if "@" in name:
                        continue
                    if name not in NESTED_TIMERS:
                        breakdown[name] = {
                            "total_ms": ms,
                            "share": ms / top_total if top_total else 0.0,
                        }
                        continue
                    parent = NESTED_TIMERS[name]
                    nested = {"total_ms": ms}
                    if parent is not None:
                        nested["nested_in"] = parent
                        parent_ms = phases.get(parent, 0.0)
                        if parent_ms:
                            nested["share_of_parent"] = ms / parent_ms
                    else:
                        prefix = f"{name}@"
                        parents = {}
                        for qname, qms in phases.items():
                            if not qname.startswith(prefix):
                                continue
                            pname = qname[len(prefix):]
                            pentry = {"total_ms": qms}
                            parent_ms = phases.get(pname, 0.0)
                            if parent_ms:
                                pentry["share_of_parent"] = qms / parent_ms
                            parents[pname] = pentry
                        if parents:
                            nested["parents"] = parents
                        else:
                            nested["nested_in"] = "multiple phases"
                    breakdown[name] = nested
                entry["phase_breakdown"] = breakdown if top_total else {}
        out[bench["name"]] = entry
    return out


def _load_stats(path: str) -> dict:
    """Accept either raw pytest-benchmark output or this script's own."""
    with open(path) as handle:
        data = json.load(handle)
    if "benchmarks" in data:
        return _distill(data)
    return data.get("after", data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR2.json")
    parser.add_argument(
        "--suite",
        action="append",
        default=[],
        help=f"benchmark file to run (repeatable; default {DEFAULT_SUITE})",
    )
    parser.add_argument(
        "--baseline",
        help="earlier stats JSON to record as 'before' (with speedups)",
    )
    parser.add_argument(
        "--pytest-arg",
        action="append",
        default=[],
        help="extra argument forwarded to pytest (repeatable)",
    )
    args = parser.parse_args(argv)
    suites = args.suite or [DEFAULT_SUITE]

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        raw_path = handle.name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "pytest", *suites, "-q",
        "--benchmark-only", f"--benchmark-json={raw_path}",
        *args.pytest_arg,
    ]
    try:
        status = subprocess.call(command, cwd=REPO_ROOT, env=env)
        if status != 0:
            return status
        with open(raw_path) as handle:
            raw = json.load(handle)
    finally:
        if os.path.exists(raw_path):
            os.unlink(raw_path)

    after = _distill(raw)
    payload: dict = {
        "suite": suites[0] if len(suites) == 1 else suites,
        "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "after": after,
    }
    if args.baseline:
        before = _load_stats(args.baseline)
        payload["before"] = before
        payload["speedup"] = {
            name: before[name]["mean_ms"] / stats["mean_ms"]
            for name, stats in after.items()
            if name in before and stats["mean_ms"] > 0
        }
    with open(os.path.join(REPO_ROOT, args.output), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, stats in sorted(after.items()):
        line = f"  {name}: {stats['mean_ms']:.3f} ms mean"
        if "speedup" in payload and name in payload["speedup"]:
            line += f" ({payload['speedup'][name]:.2f}x vs baseline)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
