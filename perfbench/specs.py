"""Workload definitions shared by the parent runner and the child.

Kept free of program imports so the runner starts without loading the
program it measures.
"""

#: The paper's two dark-silicon floors (Figs. 7-11).
FLOORS = (0.25, 0.5)

#: Workload sizes of one repeat (one cold child process).  ``full`` is
#: what the benchmark measures; ``tiny`` is the self-test's smoke size.
#: ``repeat_s`` is one repeat's nominal wall time on a 2-core 2.1 GHz
#: Xeon: a run makes ``round(seconds / repeat_s)`` repeats (at least
#: three), each on its own inputs, so one run averages over several
#: populations.  Per-chip cost varies about 3x with the silicon (DTM
#: storms on hot chips), so a single small population would make a
#: run's time depend mostly on which chips the seed drew; ``lifetime``,
#: the costliest per chip, also matches its chips to fixed leakage
#: quantiles (``workloads.stratified_chip_seeds``).
SIZES = {
    # The headline run: a full 10-year lifetime (20 epochs) of a
    # population under both policies at both floors, batching on auto,
    # one worker, streamed to a fresh checkpoint.  Decision, settle
    # (DTM-driven at the 0.25 floor) and window dominate; it is the only
    # workload on the batched engine, the delta-candidate engine and
    # checkpoint writes.  Four chips is the smallest batch whose mapping
    # rounds pass the delta engine's cost gate at the 0.25 floor.
    "lifetime": {
        "full": {"chips": 4, "years": 10.0, "repeat_s": 15.0},
        "tiny": {"chips": 1, "years": 1.0, "repeat_s": 1.2},
    },
    # A fleet daemon serving K distinct queued requests (1-year
    # lifetimes, both floors and policies), then every request again
    # from its store.  Set-up dominates: population sampling and one
    # worker-pool spawn per floor per request.  The only workload with
    # pool spawn, store appends and cache-hit reads beside writes.
    "fleet": {
        "full": {"requests": 2, "chips": 4, "years": 1.0, "repeat_s": 7.0},
        "tiny": {"requests": 1, "chips": 1, "years": 0.5, "repeat_s": 3.0},
    },
    # Per-chip simulations with Poisson mid-epoch arrivals at the 0.5
    # floor and 60 % load: the only workload on the per-chip engine, the
    # sequential mapper and ``place_arrival``.  DTM barely fires, so a
    # settle optimisation should show no change here.
    "arrivals": {
        "full": {"chips": 6, "years": 10.0, "repeat_s": 6.0},
        "tiny": {"chips": 1, "years": 0.5, "repeat_s": 0.6},
    },
}

WORKLOADS = tuple(SIZES)


def expected_jobs(name: str, size: dict) -> int:
    """(policy, chip, floor) lifetimes one repeat of a workload simulates."""
    policies = 2
    if name == "lifetime":
        return policies * size["chips"] * len(FLOORS)
    if name == "fleet":
        return policies * size["chips"] * len(FLOORS) * size["requests"]
    return policies * size["chips"]
