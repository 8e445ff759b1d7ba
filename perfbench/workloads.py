"""The benchmark's workloads, run inside one cold child process each.

Every workload drives the program only through its public API and
returns a plain-dict summary: host timestamps (``time.monotonic``, which
is system-wide on Linux, so the parent can subtract its own spawn time),
simulated outputs for the checks in :mod:`checks`, and - in a traced
child - the span tree and the program's own ``repro.obs`` registry.

Inputs derive from the benchmark seed and the repeat's index alone
(:func:`derive_inputs`); the program sees only the generated population
seeds, config seeds and request bodies.
"""

from __future__ import annotations

import json
import os
import resource
import time

import numpy as np

from repro import HayatManager, VAAManager
from repro.aging.tables import default_aging_table
from repro.obs import MetricsRegistry, use_registry
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig
from repro.sim.campaign import run_campaign
from repro.sim.fleet import FleetDaemon, ResultStore, submit_request
from repro.thermal.cache import warm_thermal_cache
from repro.variation.population import ChipPopulation, generate_population
from repro.workload import poisson_arrivals

import tracing
from specs import FLOORS, SIZES


#: Fleet worker processes: two, but never more than the host has cores.
FLEET_WORKERS = max(1, min(2, os.cpu_count() or 1))


#: Input stream of the ``lifetime`` chip pool, apart from every repeat's.
POOL_STREAM = 1_000_000


def derive_inputs(seed: int, repeat: int, count: int) -> list[int]:
    """``count`` input seeds for one repeat of a benchmark seed."""
    entropy = [20150607, int(seed), int(repeat)]
    state = np.random.SeedSequence(entropy).generate_state(count)
    return [int(value) & 0x7FFFFFFF for value in state]


def arrivals_factory(epoch, window_s, rng):
    """Poisson arrivals of 1-2 thread applications, 5 s apart on average."""
    return poisson_arrivals(
        window_s, mean_interarrival_s=5.0, rng=rng, threads_per_app=(1, 2)
    )


def _job(policy, chip, dark, result) -> dict:
    """The per-job output the checks read."""
    return {
        "policy": policy,
        "chip": chip,
        "dark": float(dark),
        "epochs": len(result.epochs),
        "health": result.health_trajectory().tolist(),
        "avg_fmax": result.avg_fmax_trajectory_ghz().tolist(),
        "avg_aging_rate": float(result.avg_fmax_aging_rate()),
        "dtm_events": int(result.total_dtm_events()),
        "arrivals": int(sum(e.arrivals for e in result.epochs)),
    }


class _SetupMark:
    """Stamps the moment the first simulation job can run.

    Installed in traced and untraced children alike, around the one
    call that starts jobs, so ``setup_s`` means the same in both.
    """

    def __init__(self):
        self.at = None

    def install(self, owner, attr):
        original = getattr(owner, attr)
        mark = self

        def first_call(*args, **kwargs):
            if mark.at is None:
                mark.at = time.monotonic()
            return original(*args, **kwargs)

        setattr(owner, attr, first_call)


#: Quantiles ``(k + 0.5) / 24``, k = 0..23, of a chip's mean leakage
#: scale under the default ``VariationParams``, from 300 sampled chips.
LEAKAGE_QUANTILES = (
    0.651, 0.726, 0.769, 0.81, 0.887, 0.921, 0.972, 1.02,
    1.065, 1.121, 1.163, 1.204, 1.253, 1.332, 1.36, 1.392,
    1.445, 1.491, 1.546, 1.673, 1.717, 1.86, 2.08, 2.374,
)


def stratified_chip_seeds(seed: int, repeats: int, chips: int) -> list[list[int]]:
    """Per-repeat chip seeds of a ``lifetime`` run, stratified by leakage.

    A chip's 10-year campaign cost varies about 3x across silicon, and
    its mean leakage explains most of that (r = 0.91 over 14 chips):
    leaky chips run hot and trip DTM storms at the 0.25 floor.  Only a
    dozen chips fit in a run, and leakage has a long upper tail, so a
    plain draw - or even quantiles of a drawn pool - would make a run's
    time depend on how leaky its seed's chips happened to be.  Instead
    every run covers the same leakage quantiles, hot tail included:
    for each target quantile the chip closest to it is taken from a
    seed-derived pool of five candidates per chip, each the first chip
    of its own population seed.  Chips are dealt to repeats
    round-robin, coolest first, so every repeat spans the distribution.
    """
    count = repeats * chips
    pool = derive_inputs(seed, POOL_STREAM, 5 * count)
    leakage = {
        s: float(generate_population(1, seed=s).chips[0].leakage_scale.mean())
        for s in pool
    }
    table_q = (np.arange(len(LEAKAGE_QUANTILES)) + 0.5) / len(LEAKAGE_QUANTILES)
    targets = np.interp((np.arange(count) + 0.5) / count, table_q, LEAKAGE_QUANTILES)
    picks = {}
    # The tails have the fewest close candidates, so they choose first.
    for index in sorted(range(count), key=lambda i: -abs(i + 0.5 - count / 2)):
        free = [s for s in pool if s not in picks.values()]
        picks[index] = min(free, key=lambda s: abs(leakage[s] - targets[index]))
    ordered = [picks[index] for index in range(count)]
    return [ordered[repeat::repeats] for repeat in range(repeats)]


def _population(chip_seeds: list[int]) -> ChipPopulation:
    """One population of the first chip of each population seed."""
    chips = []
    for index, chip_seed in enumerate(chip_seeds):
        chip = generate_population(1, seed=chip_seed).chips[0]
        chip.chip_id = f"chip-{index:02d}"
        chips.append(chip)
    return ChipPopulation(chips[0].floorplan, chips[0].params, chips)


def run_lifetime(
    size: dict, seed: int, repeat: int, workdir: str, mark: _SetupMark
) -> dict:
    import repro.sim.campaign as campaign_module

    mark.install(campaign_module, "run_supervised_jobs")
    (config_seed,) = derive_inputs(seed, repeat, 1)
    population = _population(size["chip_seeds"])
    table = default_aging_table()
    checkpoint = os.path.join(workdir, "campaign.ckpt.jsonl")
    jobs = []
    for dark in FLOORS:
        config = SimulationConfig(
            lifetime_years=size["years"], dark_fraction_min=dark, seed=config_seed
        )
        campaign = run_campaign(
            [VAAManager(), HayatManager()],
            config=config,
            population=population,
            table=table,
            workers=1,
            batch_size="auto",
            checkpoint=checkpoint,
        )
        for policy, results in campaign.results.items():
            jobs.extend(_job(policy, r.chip_id, dark, r) for r in results)
    work_end = time.monotonic()
    return {
        "jobs": jobs,
        "work_end": work_end,
        "checkpoint_bytes": os.path.getsize(checkpoint),
    }


def run_arrivals(
    size: dict, seed: int, repeat: int, workdir: str, mark: _SetupMark
) -> dict:
    population_seed, config_seed = derive_inputs(seed, repeat, 2)
    dark = 0.5
    config = SimulationConfig(
        lifetime_years=size["years"],
        dark_fraction_min=dark,
        load_factor=0.6,
        seed=config_seed,
    )
    population = generate_population(size["chips"], seed=population_seed)
    table = default_aging_table()
    warm_thermal_cache(population.floorplan, dt_s=config.control_dt_s)
    mark.install(LifetimeSimulator, "run")
    simulator = LifetimeSimulator(config, arrivals_factory=arrivals_factory)
    jobs = []
    for chip in population:
        for policy in (VAAManager(), HayatManager()):
            ctx = ChipContext(chip, table, dark_fraction_min=dark)
            result = simulator.run(ctx, policy)
            jobs.append(_job(policy.name, chip.chip_id, dark, result))
    return {"jobs": jobs, "work_end": time.monotonic()}


def _fleet_jobs(store_dir: str) -> list[dict]:
    """Per-job outputs read back from the fleet's result store."""
    jobs = []
    with ResultStore(store_dir) as store:
        for record in store.records():
            scalars = record["scalars"]
            final = store.block(record, "final_health").astype(float)
            jobs.append(
                {
                    "policy": scalars["policy"],
                    "chip": scalars["chip_id"],
                    "dark": float(scalars["dark"]),
                    "epochs": int(scalars["epochs"]),
                    "health": [final.tolist()],
                    "avg_fmax": store.block(record, "avg_fmax")
                    .astype(float)
                    .tolist(),
                    "avg_aging_rate": float(scalars["avg_aging_rate"]),
                    "dtm_events": int(scalars["dtm_events"]),
                    "arrivals": 0,
                }
            )
    return jobs


def run_fleet(
    size: dict, seed: int, repeat: int, workdir: str, mark: _SetupMark
) -> dict:
    import repro.sim.fleet.daemon as daemon_module

    mark.install(daemon_module, "run_supervised_jobs")
    population_seeds = derive_inputs(seed, repeat, size["requests"] + 1)
    config_seed = population_seeds.pop()
    bodies = [
        {
            "policies": ["vaa", "hayat"],
            "chips": size["chips"],
            "population_seed": population_seed,
            "dark_fractions": list(FLOORS),
            "years": size["years"],
            "seed": config_seed,
            "baseline": "vaa",
        }
        for population_seed in population_seeds
    ]
    root = os.path.join(workdir, "fleet")
    results_dir = os.path.join(root, "results")
    with FleetDaemon(root, workers=FLEET_WORKERS) as daemon:
        submitted = {}
        for body in bodies:
            submit_time = time.time()
            submitted[submit_request(root, body)] = submit_time
        daemon.serve(drain=True)
        work_end = time.monotonic()
        # The filesystem is the daemon's API: a response is published
        # when its results file is written, so its mtime is the answer
        # time (to the file system's timestamp granularity, ~ms).
        first, responded = {}, {}
        for request_id in submitted:
            path = os.path.join(results_dir, f"{request_id}.json")
            with open(path, encoding="utf-8") as handle:
                first[request_id] = json.load(handle)
            responded[request_id] = os.stat(path).st_mtime_ns / 1e9
        request_s = [responded[r] - submitted[r] for r in submitted]
        # Requests run in spool (request-id) order, one after the other,
        # so each waits until the response before it is written.
        order = sorted(submitted)
        queue_wait_s = [0.0] + [
            max(0.0, responded[before] - submitted[after])
            for before, after in zip(order, order[1:])
        ]
        second = {}
        cached_request_s = []
        for body in bodies:
            started = time.perf_counter()
            request_id = submit_request(root, body)
            daemon.process_once()
            cached_request_s.append(time.perf_counter() - started)
            with open(
                os.path.join(results_dir, f"{request_id}.json"), encoding="utf-8"
            ) as handle:
                second[request_id] = json.load(handle)
        store_bytes = daemon.store.bytes_on_disk()
    return {
        "jobs": _fleet_jobs(os.path.join(root, "store")),
        "work_end": work_end,
        "first_pass": first,
        "second_pass": second,
        "request_s": request_s,
        "queue_wait_s": queue_wait_s,
        "cached_request_s": cached_request_s,
        "store_bytes": store_bytes,
    }


RUNNERS = {"lifetime": run_lifetime, "fleet": run_fleet, "arrivals": run_arrivals}


def run(
    name: str,
    size: str,
    seed: int,
    repeat: int,
    workdir: str,
    traced: bool,
    chip_seeds=None,
) -> dict:
    """Run one workload in this process; returns its summary dict.

    ``peak_rss_mb`` is this process's peak plus the largest peak among
    its reaped worker processes (``RUSAGE_CHILDREN`` keeps the maximum).
    """
    mark = _SetupMark()
    tracer = tracing.Tracer() if traced else None
    registry = MetricsRegistry() if traced else None
    if traced:
        tracing.install(tracer)
    with use_registry(registry):
        summary = RUNNERS[name](
            dict(SIZES[name][size], chip_seeds=chip_seeds),
            seed,
            repeat,
            workdir,
            mark,
        )
    summary["setup_end"] = mark.at
    summary["workers"] = FLEET_WORKERS if name == "fleet" else 1
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    summary["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    if traced:
        snapshot = registry.snapshot()
        summary["spans"] = tracer.spans
        summary["counters"] = dict(snapshot.counters)
        summary["timers"] = {
            name: stats.total_s for name, stats in snapshot.timers.items()
        }
    return summary
