#!/usr/bin/env python
"""Diff a fresh bench run against the committed ``BENCH_PR*.json``.

Usage::

    python scripts/bench_diff.py bench_ci.json \
        [--committed BENCH_PR8.json] [--output bench_regression.md] \
        [--threshold 1.15]

Loads the fresh stats (raw pytest-benchmark output or a
``run_benchmarks.py`` payload), finds the committed baseline — by
default the highest-numbered ``BENCH_PR*.json`` in the repo root — and
writes a markdown summary flagging tests whose mean slowed past the
threshold.  The summary is informational: shared CI runners make
wall-clock comparisons noisy, so this script always exits 0 and the CI
bench job stays non-blocking; the artifact exists so a human reviewing
a suspicious PR can see *which* bench and *which* phase moved.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run_benchmarks import _load_stats  # noqa: E402


def latest_committed(root: str = REPO_ROOT) -> str | None:
    """Path of the highest-numbered pytest-benchmark ``BENCH_PR<N>.json``.

    Records of the cold-process benchmark (``perfbench/``, whose
    ``suite`` names it) have no per-test stats to diff and are skipped.
    Returns ``None`` when there is no such file.
    """
    best, best_n = None, -1
    for path in glob.glob(os.path.join(root, "BENCH_PR*.json")):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", os.path.basename(path))
        if not match or int(match.group(1)) <= best_n:
            continue
        with open(path, encoding="utf-8") as handle:
            if json.load(handle).get("suite", "").startswith("perfbench"):
                continue
        best, best_n = path, int(match.group(1))
    return best


def diff_stats(fresh: dict, committed: dict, threshold: float) -> list[dict]:
    """Per-common-test comparison rows, slowest ratio first."""
    rows = []
    for name in sorted(set(fresh) & set(committed)):
        f_mean = fresh[name].get("mean_ms")
        c_mean = committed[name].get("mean_ms")
        if not f_mean or not c_mean:
            continue
        rows.append(
            {
                "name": name,
                "committed_ms": c_mean,
                "fresh_ms": f_mean,
                "ratio": f_mean / c_mean,
                "regressed": f_mean / c_mean > threshold,
            }
        )
    rows.sort(key=lambda row: row["ratio"], reverse=True)
    return rows


#: Phases whose committed total is below this are skipped by the phase
#: diff: a sub-millisecond phase doubling is timer noise, not a signal.
PHASE_FLOOR_MS = 1.0


def _phases_of(stats: dict) -> dict:
    """The ``phases_ms`` map a test recorded, or an empty dict."""
    return (stats.get("extra_info") or {}).get("phases_ms") or {}


def diff_phases(fresh: dict, committed: dict, threshold: float) -> list[dict]:
    """Per-phase comparison rows across common tests, slowest first.

    Compares the ``phases_ms`` maps the bench suites record under
    ``extra_info`` (``sim.decision``, ``aging.walk``, the attributed
    ``aging.walk@<parent>`` splits, ...), so a regression can be
    localized to the phase that moved instead of just the test total.
    """
    rows = []
    for name in sorted(set(fresh) & set(committed)):
        f_phases = _phases_of(fresh[name])
        c_phases = _phases_of(committed[name])
        for phase in sorted(set(f_phases) & set(c_phases)):
            c_ms, f_ms = c_phases[phase], f_phases[phase]
            if c_ms < PHASE_FLOOR_MS or f_ms <= 0:
                continue
            rows.append(
                {
                    "name": name,
                    "phase": phase,
                    "committed_ms": c_ms,
                    "fresh_ms": f_ms,
                    "ratio": f_ms / c_ms,
                    "regressed": f_ms / c_ms > threshold,
                }
            )
    rows.sort(key=lambda row: row["ratio"], reverse=True)
    return rows


def render_markdown(
    rows: list[dict],
    committed_name: str,
    threshold: float,
    phase_rows: list[dict] | None = None,
    phase_threshold: float = 1.10,
) -> str:
    lines = [
        "# Bench diff vs committed baseline",
        "",
        f"Baseline: `{committed_name}` - flagging mean-time ratios above "
        f"{threshold:.2f}x.  Informational only (shared-runner wall clocks "
        "are noisy); this never gates a merge.",
        "",
    ]
    if not rows:
        lines.append("No common benchmarks between the two payloads.")
        return "\n".join(lines) + "\n"
    lines += [
        "| benchmark | committed (ms) | fresh (ms) | ratio | |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        flag = "**regression?**" if row["regressed"] else ""
        lines.append(
            f"| {row['name']} | {row['committed_ms']:.1f} | "
            f"{row['fresh_ms']:.1f} | {row['ratio']:.2f}x | {flag} |"
        )
    flagged = [row for row in rows if row["regressed"]]
    lines.append("")
    lines.append(
        f"{len(flagged)} of {len(rows)} benchmark(s) exceeded the threshold."
        if flagged
        else f"All {len(rows)} benchmark(s) within the threshold."
    )
    if phase_rows:
        lines += [
            "",
            "## Per-phase timings",
            "",
            f"Engine-phase totals from the instrumented run; flagging "
            f"ratios above {phase_threshold:.2f}x (phases under "
            f"{PHASE_FLOOR_MS:.0f} ms committed are skipped as noise).",
            "",
            "| benchmark | phase | committed (ms) | fresh (ms) | ratio | |",
            "|---|---|---:|---:|---:|---|",
        ]
        for row in phase_rows:
            flag = "**regression?**" if row["regressed"] else ""
            lines.append(
                f"| {row['name']} | {row['phase']} | "
                f"{row['committed_ms']:.1f} | {row['fresh_ms']:.1f} | "
                f"{row['ratio']:.2f}x | {flag} |"
            )
        p_flagged = [row for row in phase_rows if row["regressed"]]
        lines.append("")
        lines.append(
            f"{len(p_flagged)} of {len(phase_rows)} phase timing(s) "
            "exceeded the threshold."
            if p_flagged
            else f"All {len(phase_rows)} phase timing(s) within the "
            "threshold."
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="fresh bench JSON to compare")
    parser.add_argument(
        "--committed",
        help="baseline stats JSON (default: latest BENCH_PR*.json)",
    )
    parser.add_argument("--output", default="bench_regression.md")
    parser.add_argument("--threshold", type=float, default=1.15)
    parser.add_argument(
        "--phase-threshold",
        type=float,
        default=1.10,
        help="flag per-phase timing ratios above this (default 1.10)",
    )
    args = parser.parse_args(argv)

    committed_path = args.committed or latest_committed()
    if committed_path is None:
        summary = "# Bench diff\n\nNo committed BENCH_PR*.json found.\n"
        rows = []
    else:
        fresh = _load_stats(args.fresh)
        committed = _load_stats(committed_path)
        rows = diff_stats(fresh, committed, args.threshold)
        phase_rows = diff_phases(fresh, committed, args.phase_threshold)
        summary = render_markdown(
            rows,
            os.path.basename(committed_path),
            args.threshold,
            phase_rows=phase_rows,
            phase_threshold=args.phase_threshold,
        )
    with open(args.output, "w") as handle:
        handle.write(summary)
    print(summary)
    print(f"wrote {args.output}")
    return 0  # never gates


if __name__ == "__main__":
    sys.exit(main())
