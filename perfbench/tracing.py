"""Benchmark-side spans around the program's public entry points.

The program is not edited: :func:`install` replaces each entry point
with a timing wrapper at every binding that callers use.  A function
imported by name (``repro.sim.fleet.daemon`` imports
``generate_population`` and ``aggregate_store`` that way) is a separate
binding, so every loaded ``repro`` module and the benchmark's own
modules are searched for the original object; methods are wrapped on
their class.

Spans are kept in memory as ``{"name", "parent", "start", "end", "n"}``
dicts (``parent`` is the index of the enclosing span or ``None``; ``n``
is a per-call work count) and shipped to the parent process with the
workload summary when the child ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

#: Spans whose own time is the simulation they contain.  In a serial
#: run their inside is attributed through the program's registry timers
#: (decision, settle, window, aging); with a worker pool, their self
#: time is the parent blocking on the workers.
CONTAINERS = ("sim.run", "supervisor.jobs")


class Tracer:
    """An in-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        entry = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic(),
            "end": None,
            "n": 0,
        }
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield entry
        finally:
            entry["end"] = time.monotonic()
            self._stack.pop()


def _rebind(original, replacement) -> int:
    """Point every module-level binding of ``original`` at ``replacement``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith("repro.") or name == "workloads"
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def _wrap_function(tracer, original, span_name, count=None):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as entry:
            result = original(*args, **kwargs)
            if count is not None:
                entry["n"] = count(result)
            return result

    wrapper.__wrapped__ = original
    if _rebind(original, wrapper) == 0:
        raise RuntimeError(f"no binding of {original!r} found to trace")


def _wrap_method(tracer, cls, attr, span_name):
    original = getattr(cls, attr)

    def wrapper(self, *args, **kwargs):
        with tracer.span(span_name):
            return original(self, *args, **kwargs)

    wrapper.__wrapped__ = original
    setattr(cls, attr, wrapper)


def _wrap_pool_ensure(tracer, host_cls):
    """Time ``WorkerPoolHost.ensure``; count the calls that spawn a pool."""
    original = host_cls.ensure

    def live_pool(host):
        try:
            return host.pool
        except RuntimeError:
            return None

    def ensure(self, *args, **kwargs):
        with tracer.span("supervisor.pool_spawn") as entry:
            before = live_pool(self)
            original(self, *args, **kwargs)
            entry["n"] = int(live_pool(self) is not before)

    ensure.__wrapped__ = original
    host_cls.ensure = ensure


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; call once, before the workload."""
    from repro.aging.tables import default_aging_table
    from repro.sim.checkpoint import CampaignCheckpoint
    from repro.sim.fleet.aggregates import aggregate_store
    from repro.sim.fleet.store import ResultStore
    from repro.sim.simulator import LifetimeSimulator
    from repro.sim.supervisor import WorkerPoolHost, run_supervised_jobs
    from repro.thermal.cache import warm_thermal_cache
    from repro.variation.population import generate_population

    _wrap_function(
        tracer,
        generate_population,
        "variation.population",
        count=lambda population: len(population.chips),
    )
    _wrap_function(tracer, default_aging_table, "aging.table")
    _wrap_function(tracer, warm_thermal_cache, "thermal.warm")
    _wrap_function(tracer, aggregate_store, "fleet.aggregate")
    _wrap_function(tracer, run_supervised_jobs, "supervisor.jobs")
    _wrap_pool_ensure(tracer, WorkerPoolHost)
    _wrap_method(tracer, CampaignCheckpoint, "append", "checkpoint.append")
    _wrap_method(tracer, ResultStore, "append", "fleet.store_append")
    _wrap_method(tracer, LifetimeSimulator, "run", "sim.run")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
