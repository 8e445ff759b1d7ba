"""Output checks on workload summaries.

The checks are tolerance-level, not bit-identical, so a solver change
that moves results in the last digits still passes them.  Each returns
a list of failure strings; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

#: Relative slack for "never rises" and "identical across runs".
REL_TOL = 1e-9

#: Below this a VAA aging rate is "no aging" and is not normalised
#: against (mirrors ``CampaignResult.normalized_avg_fmax_aging``).
MIN_BASE_RATE = 1e-9


def _pairs(jobs: list[dict]):
    """Chip-aligned (vaa, hayat) job pairs, keyed by (repeat, chip, dark)."""
    by_key: dict = {}
    for job in jobs:
        key = (job.get("repeat", 0), job["chip"], job["dark"])
        by_key.setdefault(key, {})[job["policy"]] = job
    for key in sorted(by_key):
        pair = by_key[key]
        if "vaa" in pair and "hayat" in pair:
            yield pair["vaa"], pair["hayat"]


def aging_ratio(jobs: list[dict]) -> float:
    """Fig. 10: mean per-chip Hayat/VAA average-fmax aging rate."""
    ratios = [
        hayat["avg_aging_rate"] / vaa["avg_aging_rate"]
        for vaa, hayat in _pairs(jobs)
        if vaa["avg_aging_rate"] > MIN_BASE_RATE
    ]
    return sum(ratios) / len(ratios) if ratios else math.nan


def dtm_ratio(jobs: list[dict]) -> float:
    """Fig. 7: mean per-chip Hayat/VAA DTM events (event-free VAA skipped)."""
    ratios = [
        hayat["dtm_events"] / vaa["dtm_events"]
        for vaa, hayat in _pairs(jobs)
        if vaa["dtm_events"] > 0
    ]
    return sum(ratios) / len(ratios) if ratios else math.nan


def check_health(job: dict) -> list[str]:
    """Health stays in (0, 1] and never rises; neither does average fmax."""
    name = f"{job['policy']}/{job['chip']}/dark={job['dark']:g}"
    if job["epochs"] < 1 or not job["health"]:
        return [f"{name}: no epochs simulated"]
    failures = []
    previous = None
    for epoch, row in enumerate(job["health"]):
        if not all(0.0 < h <= 1.0 for h in row):
            failures.append(f"{name}: health outside (0, 1] at epoch {epoch}")
            break
        if previous is not None and any(
            h > p * (1.0 + REL_TOL) for h, p in zip(row, previous)
        ):
            failures.append(f"{name}: health rose at epoch {epoch}")
            break
        previous = row
    fmax = job["avg_fmax"]
    if len(fmax) != job["epochs"]:
        failures.append(f"{name}: {len(fmax)} fmax samples for {job['epochs']} epochs")
    if any(b > a * (1.0 + REL_TOL) for a, b in zip(fmax, fmax[1:])):
        failures.append(f"{name}: average fmax rose")
    return failures


def close(a, b) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)
    return a == b


def _fingerprint(jobs: list[dict]) -> list:
    return sorted(
        [j["policy"], j["chip"], j["dark"], j["avg_aging_rate"], j["dtm_events"]]
        for j in jobs
    )


def check_workload(name: str, summary: dict, expected_jobs: int) -> list[str]:
    """Every check on one child's summary."""
    jobs = summary["jobs"]
    failures = []
    if len(jobs) != expected_jobs:
        failures.append(f"{len(jobs)} jobs completed, {expected_jobs} expected")
    for job in jobs:
        failures.extend(check_health(job))
    if name == "lifetime":
        ratio = aging_ratio(jobs)
        if not ratio < 1.0:
            failures.append(f"Fig. 10: Hayat/VAA aging ratio {ratio:.4f} is not < 1")
        ratio = dtm_ratio(jobs)
        if math.isnan(ratio):
            # No VAA chip saw a DTM event: Hayat must not have either.
            pairs = _pairs(jobs)
            if any(vaa["dtm_events"] < hayat["dtm_events"] for vaa, hayat in pairs):
                failures.append("Fig. 7: Hayat had DTM events where VAA had none")
        elif not ratio < 1.0:
            failures.append(f"Fig. 7: Hayat/VAA DTM ratio {ratio:.4f} is not < 1")
    if name == "arrivals" and sum(j["arrivals"] for j in jobs) < 1:
        failures.append("no mid-epoch arrivals were recorded")
    if name == "fleet":
        failures.extend(check_fleet(summary))
    return failures


def check_fleet(summary: dict) -> list[str]:
    """The first pass simulates every job; the second is all cache hits."""
    failures = []
    first, second = summary["first_pass"], summary["second_pass"]
    if sorted(first) != sorted(second):
        failures.append("second-pass requests do not match the first pass")
    for request_id, response in first.items():
        simulated_all = response.get("simulated") == response.get("jobs")
        if response.get("failures") or not simulated_all:
            failures.append(
                f"request {request_id}: first pass did not simulate all jobs"
            )
    for request_id, response in second.items():
        if response.get("cache_hits") != response.get("jobs"):
            failures.append(
                f"request {request_id}: second-pass cache_hits "
                f"{response.get('cache_hits')} != jobs {response.get('jobs')}"
            )
        original = first.get(request_id, {}).get("aggregates")
        if not close(response.get("aggregates"), original):
            failures.append(f"request {request_id}: second-pass aggregates differ")
    return failures


def check_repeats(summaries: list[dict]) -> list[str]:
    """Runs of the same inputs give the same simulated outputs."""
    reference = _fingerprint(summaries[0]["jobs"])
    for index, summary in enumerate(summaries[1:], start=1):
        if not close(_fingerprint(summary["jobs"]), reference):
            return [f"run {index} simulated different results from run 0"]
    return []
