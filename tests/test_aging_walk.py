"""The aging-table walk engine (`repro.aging.walk`).

The engine's contract is strict: every path through it — shared count
bounds, the fused age-shift lookup and the seeded bracket warm-start —
must return arrays *bit-identical* to
:meth:`repro.aging.tables.AgingTable.next_health`.  These tests pin
that equality across random monotone and non-monotone tables,
duplicate-heavy batches, dark cores, clamped ages and mixed shapes,
and through the estimation layers that route their walks through the
engine.
"""

import pickle

import numpy as np
import pytest

from repro.aging.estimator import CoreAgingEstimator
from repro.aging.health import HealthState, advance_batch
from repro.aging.tables import AgingTable, build_aging_table
from repro.aging.walk import (
    WalkEngine,
    get_walk_engine,
    walk_next_health,
)
from repro.obs import MetricsRegistry, use_registry


def _fresh_engine(table) -> WalkEngine:
    """A cold engine (no cached age shifts from other tests on the shared
    table)."""
    return WalkEngine(table)


def _random_batch(rng, n, table, dark_frac=0.25, pristine_frac=0.3):
    """A campaign-shaped batch: dark cores, pristine health, edge temps."""
    t = rng.uniform(280.0, 445.0, n)  # straddles the table's temp range
    d = rng.uniform(0.0, 1.0, n)
    d[rng.random(n) < dark_frac] = 0.0  # dark cores: duty exactly 0
    d[rng.random(n) < 0.05] = 1.0
    h = rng.uniform(0.6, 1.0, n)
    h[rng.random(n) < pristine_frac] = 1.0  # pristine: exactly 1.0
    h[rng.random(n) < 0.05] = 0.02  # deep degradation: age-axis clamp
    # Exactly-stored values land inverse ages on grid points.
    stored = table._values_flat
    pick = rng.random(n) < 0.15
    h[pick] = stored[rng.integers(0, stored.size, int(pick.sum()))]
    return t, d, np.clip(h, 1e-3, 1.0)


def _random_monotone_table(rng) -> AgingTable:
    """A random strictly-valid table, non-increasing along the age axis."""
    nt, ndty, ny = 5, 6, 12
    temp = 280.0 + np.cumsum(rng.uniform(5.0, 30.0, nt))
    duty = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.2, ndty - 1))])
    duty = duty / duty[-1]
    age = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 5.0, ny - 1))])
    factors = rng.uniform(0.9, 1.0, (nt, ndty, ny))
    factors[rng.random((nt, ndty, ny)) < 0.3] = 1.0  # exact flat runs
    factors[..., 0] = 1.0
    values = rng.uniform(0.95, 1.0, (nt, ndty, 1)) * np.cumprod(factors, axis=-1)
    values = np.maximum(values, 1e-3)
    table = AgingTable(temp, duty, age, values)
    assert table._age_monotone
    return table


def _random_nonmonotone_table(rng) -> AgingTable:
    values = rng.uniform(0.5, 1.0, (4, 5, 8))
    table = AgingTable(
        np.array([290.0, 330.0, 370.0, 410.0]),
        np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
        np.array([0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]),
        values,
    )
    assert not table._age_monotone
    return table


class TestDedupBitIdentity:
    def test_all_distinct_batch(self, aging_table):
        rng = np.random.default_rng(1)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 300, aging_table, dark_frac=0.0,
                                pristine_frac=0.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        assert counters["aging.walk_unique"] == 300

    def test_fuzz_random_monotone_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            table = _random_monotone_table(rng)
            engine = _fresh_engine(table)
            for _ in range(5):
                n = int(rng.integers(1, 300))
                t = rng.uniform(temp_lo := table.temp_grid_k[0] - 10,
                                table.temp_grid_k[-1] + 10, n)
                d = rng.uniform(0, 1, n)
                d[rng.random(n) < 0.3] = 0.0
                h = rng.uniform(0.4, 1.0, n)
                h[rng.random(n) < 0.3] = 1.0
                if rng.random() < 0.5:  # force duplicates
                    reps = rng.integers(0, n, n)
                    t, d, h = t[reps], d[reps], h[reps]
                epoch = float(rng.choice([0.0, 0.25, 1.0, 7.5]))
                np.testing.assert_array_equal(
                    engine.next_health(t, d, h, epoch),
                    table.next_health(t, d, h, epoch),
                )

    def test_fuzz_non_monotone_fallback(self):
        rng = np.random.default_rng(3)
        table = _random_nonmonotone_table(rng)
        engine = _fresh_engine(table)
        for _ in range(10):
            n = int(rng.integers(1, 150))
            t = rng.uniform(280, 420, n)
            d = rng.uniform(0, 1, n)
            h = rng.uniform(0.5, 1.0, n)
            if rng.random() < 0.5:
                reps = rng.integers(0, n, n)
                t, d, h = t[reps], d[reps], h[reps]
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, 0.5),
                table.next_health(t, d, h, 0.5),
            )

    def test_dark_cores_and_clamps(self, aging_table):
        engine = _fresh_engine(aging_table)
        t = np.array([250.0, 300.0, 500.0, 358.0, 358.0, 430.0])
        d = np.array([0.0, 0.0, 0.0, 1.0, 0.5, 1.0])
        h = np.array([1.0, 0.9, 1.0, 0.02, 1.0, 0.02])
        for epoch in (0.0, 0.5, 200.0):
            np.testing.assert_array_equal(
                engine.next_health(t, d, h, epoch),
                aging_table.next_health(t, d, h, epoch),
            )

    def test_single_element_and_scalar(self, aging_table):
        engine = _fresh_engine(aging_table)
        np.testing.assert_array_equal(
            engine.next_health(358.0, 0.5, 0.93, 0.5),
            aging_table.next_health(358.0, 0.5, 0.93, 0.5),
        )
        np.testing.assert_array_equal(
            engine.next_health([358.0], [0.5], [0.93], 0.5),
            aging_table.next_health([358.0], [0.5], [0.93], 0.5),
        )

    def test_broadcast_scalar_health(self, aging_table):
        rng = np.random.default_rng(4)
        engine = _fresh_engine(aging_table)
        t, d, _ = _random_batch(rng, 40, aging_table)
        np.testing.assert_array_equal(
            engine.next_health(t, d, 0.95, 0.5),
            aging_table.next_health(t, d, 0.95, 0.5),
        )

    def test_negative_epoch_rejected(self, aging_table):
        with pytest.raises(ValueError):
            _fresh_engine(aging_table).next_health([358.0], [0.5], [0.9], -0.1)


class TestEstimationWiring:
    def test_estimate_next_health_shapes(self, aging_table, chip, floorplan):
        from repro.core.estimation import OnlineHealthEstimator
        from repro.power import PowerModel
        from repro.thermal import ThermalPredictor, ThermalRCNetwork

        rng = np.random.default_rng(10)
        predictor = ThermalPredictor.learn(
            ThermalRCNetwork(floorplan), PowerModel.for_chip(chip)
        )
        estimator = OnlineHealthEstimator(predictor, aging_table)
        n = predictor.num_cores
        temps = rng.uniform(300, 400, n)
        duties = rng.uniform(0, 1, n)
        health = rng.uniform(0.8, 1.0, n)
        flat = estimator.estimate_next_health(temps, duties, health, 0.5)
        ref = aging_table.next_health(
            temps, estimator.resolve_duties(duties), health, 0.5
        )
        np.testing.assert_array_equal(flat, ref)
        temps2 = rng.uniform(300, 400, (7, n))
        duties2 = np.tile(duties, (7, 1))
        batched = estimator.estimate_next_health(temps2, duties2, health, 0.5)
        ref2 = aging_table.next_health(
            temps2.reshape(-1),
            estimator.resolve_duties(duties2).reshape(-1),
            np.tile(health, 7),
            0.5,
        ).reshape(7, n)
        np.testing.assert_array_equal(batched, ref2)
        rows = estimator.estimate_next_health_rows(
            temps2, duties2, np.tile(health, (7, 1)), 0.5
        )
        np.testing.assert_array_equal(rows, batched)

    def test_advance_batch_routes_through_engine(self, aging_table):
        rng = np.random.default_rng(11)
        states = [
            HealthState(aging_table, rng.uniform(2.0, 3.0, 8))
            for _ in range(5)
        ]
        temps = rng.uniform(300, 420, (5, 8))
        duties = rng.uniform(0, 1, (5, 8))
        registry = MetricsRegistry()
        with use_registry(registry):
            advance_batch(states, temps, duties, 0.5)
        snapshot = registry.snapshot()
        assert "aging.walk" in snapshot.timers
        assert snapshot.counters["aging.walk_unique"] > 0

    def test_health_state_estimate_vs_hatch(self, aging_table):
        rng = np.random.default_rng(12)
        state = HealthState(aging_table, rng.uniform(2.0, 3.0, 16))
        state.advance(rng.uniform(320, 400, 16), rng.uniform(0, 1, 16), 0.5)
        temps = rng.uniform(320, 400, 16)
        duties = rng.uniform(0, 1, 16)
        engine_next = state.estimate_next(temps, duties, 0.5)
        direct_next = aging_table.next_health(temps, duties, state.health, 0.5)
        np.testing.assert_array_equal(engine_next, direct_next)


class TestOptionsAndConfig:
    def test_pickled_table_drops_engine(self, aging_table):
        get_walk_engine(aging_table)  # ensure the cache exists
        clone = pickle.loads(pickle.dumps(aging_table))
        assert not hasattr(clone, "_walk_engine")
        rng = np.random.default_rng(14)
        t, d, h = _random_batch(rng, 30, aging_table)
        np.testing.assert_array_equal(
            walk_next_health(clone, t, d, h, 0.5),
            aging_table.next_health(t, d, h, 0.5),
        )


class TestSeededWalk:
    """Bracket warm-start: bit-identical for ANY seeds, fast for good ones."""

    def test_exact_seeds_bit_identical_and_reused(self, aging_table):
        rng = np.random.default_rng(20)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 400, aging_table)
        counts = engine.crossing_counts(t, d, h)
        assert counts is not None and counts.shape == t.shape
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(t, d, h, 0.5, seed_counts=counts)
        np.testing.assert_array_equal(
            got, aging_table.next_health(t, d, h, 0.5)
        )
        counters = registry.snapshot().counters
        # Seeds from the very same state verify nearly everywhere (the
        # few exceptions are grid-point sentinels the seeded gather
        # cannot express).
        assert counters["aging.walk_bracket_reuse"] >= 0.9 * t.size
        assert counters["aging.walk_unique"] == t.size

    def test_garbage_seeds_fuzz_bit_identical(self):
        """Any integer seeds — wild, negative, out of range — must be
        verified away without changing a single bit."""
        rng = np.random.default_rng(21)
        for _ in range(8):
            table = _random_monotone_table(rng)
            engine = _fresh_engine(table)
            t, d, h = _random_batch(rng, 250, table)
            n_y = table.age_grid_years.size
            seeds = rng.integers(-5, 3 * n_y, t.size)
            got = engine.next_health(t, d, h, 0.5, seed_counts=seeds)
            np.testing.assert_array_equal(
                got, table.next_health(t, d, h, 0.5)
            )

    def test_perturbed_temps_with_base_seeds(self, aging_table):
        """The delta-engine scenario: candidate temperatures are small
        perturbations of the base row whose counts seeded the walk."""
        rng = np.random.default_rng(22)
        engine = _fresh_engine(aging_table)
        t, d, h = _random_batch(rng, 300, aging_table)
        counts = engine.crossing_counts(t, d, h)
        t_pert = t + rng.uniform(-2.0, 2.0, t.size)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = engine.next_health(
                t_pert, d, h, 0.5, seed_counts=counts
            )
        np.testing.assert_array_equal(
            got, aging_table.next_health(t_pert, d, h, 0.5)
        )
        # Small thermal perturbations rarely move the age bracket, so
        # most seeds still verify.
        counters = registry.snapshot().counters
        assert counters["aging.walk_bracket_reuse"] > 0.5 * t.size

    def test_seed_length_mismatch_rejected(self, aging_table):
        engine = _fresh_engine(aging_table)
        rng = np.random.default_rng(23)
        t, d, h = _random_batch(rng, 50, aging_table)
        with pytest.raises(ValueError):
            engine.next_health(
                t, d, h, 0.5, seed_counts=np.zeros(49, dtype=np.intp)
            )

    def test_nonmonotone_table_ignores_seeds(self):
        rng = np.random.default_rng(24)
        table = _random_nonmonotone_table(rng)
        engine = _fresh_engine(table)
        assert engine.crossing_counts(
            np.array([300.0]), np.array([0.5]), np.array([0.9])
        ) is None
        t, d, h = _random_batch(rng, 200, table)
        seeds = rng.integers(0, 8, t.size)
        got = engine.next_health(t, d, h, 0.5, seed_counts=seeds)
        np.testing.assert_array_equal(got, table.next_health(t, d, h, 0.5))
