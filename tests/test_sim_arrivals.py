"""Mid-epoch arrivals inside the lifetime simulator."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig
from repro.workload import poisson_arrivals


@pytest.fixture(scope="module")
def arrival_cfg():
    # load_factor < 1 leaves idle powered-on cores for arrivals.
    return SimulationConfig(
        lifetime_years=0.5,
        epoch_years=0.5,
        dark_fraction_min=0.5,
        window_s=20.0,
        load_factor=0.6,
        seed=5,
    )


def arrivals_factory(epoch, window_s, rng):
    return poisson_arrivals(
        window_s, mean_interarrival_s=5.0, rng=rng, threads_per_app=(1, 2)
    )


class TestArrivals:
    def test_arrivals_recorded(self, chip, aging_table, arrival_cfg):
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
        result = sim.run(ctx, HayatManager())
        assert result.epochs[0].arrivals > 0

    def test_arrived_threads_get_cores(self, chip, aging_table, arrival_cfg):
        """With idle capacity available, arrivals end up mapped (either
        by the policy's incremental path or the first-fit fallback)."""
        for policy in (HayatManager(), VAAManager()):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
            result = sim.run(ctx, policy)
            epoch = result.epochs[0]
            # Unserved threads surface as QoS violations; with 40 % of
            # the budget idle most arrivals must be served.
            assert epoch.qos_violations < epoch.arrivals

    def test_no_schedule_means_no_arrivals(self, chip, aging_table, arrival_cfg):
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        result = LifetimeSimulator(arrival_cfg).run(ctx, HayatManager())
        assert all(e.arrivals == 0 for e in result.epochs)

    def test_deterministic_with_arrivals(self, chip, aging_table, arrival_cfg):
        healths = []
        for _ in range(2):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
            result = sim.run(ctx, HayatManager())
            healths.append(result.health_trajectory())
        np.testing.assert_array_equal(healths[0], healths[1])

    def test_hayat_incremental_path_used(self, chip, aging_table, arrival_cfg):
        """HayatManager exposes place_arrival; verify it actually places
        threads on frequency-feasible cores."""
        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        sim = LifetimeSimulator(arrival_cfg, arrivals_factory=arrivals_factory)
        result = sim.run(ctx, HayatManager())
        assert result.epochs[0].arrivals > 0
        # No structural damage across the run (validate ran each epoch in
        # the simulator; health stayed monotone).
        traj = result.health_trajectory()
        assert (np.diff(traj, axis=0) <= 1e-12).all() if len(traj) > 1 else True


def departing_factory(epoch, window_s, rng):
    """Arrivals that also depart within the window (6 s mean run)."""
    return poisson_arrivals(
        window_s, mean_interarrival_s=5.0, rng=rng, threads_per_app=(1, 2),
        mean_duration_s=6.0,
    )


#: EpochRecord fields of short arrivals runs (2 chips x {vaa, hayat} x
#: {0.5 floor at 60 % load, 0.25 floor at full load} x {open-ended,
#: departing} arrivals), recorded from the per-chip simulator the lane
#: engine replaced.  The lane engine must reproduce every field exactly.
RECORDED = Path(__file__).parent / "data" / "arrivals_epochs.json"

POLICIES = {"vaa": VAAManager, "hayat": HayatManager}
ARRIVALS = {"open": arrivals_factory, "departing": departing_factory}


def recorded_config(case, fixture):
    return SimulationConfig(
        **fixture["config"],
        dark_fraction_min=case["dark_fraction_min"],
        load_factor=case["load_factor"],
    )


def assert_epochs_equal(got, want, label):
    assert len(got) == len(want), label
    for record, expected in zip(got, want):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, np.asarray(expected[field.name])), (
                    label, record.epoch_index, field.name,
                )
            else:
                assert value == expected[field.name], (
                    label, record.epoch_index, field.name,
                )


class TestRecordedArrivals:
    @pytest.fixture(scope="class")
    def fixture(self):
        with open(RECORDED, encoding="utf-8") as handle:
            return json.load(handle)

    def test_reproduces_recorded_epochs(self, fixture, population, aging_table):
        chips = {chip.chip_id: chip for chip in population}
        for case in fixture["cases"]:
            cfg = recorded_config(case, fixture)
            ctx = ChipContext(
                chips[case["chip_id"]], aging_table,
                dark_fraction_min=cfg.dark_fraction_min,
            )
            result = LifetimeSimulator(
                cfg, arrivals_factory=ARRIVALS[case["arrivals"]]
            ).run(ctx, POLICIES[case["policy"]]())
            label = (
                case["chip_id"], case["policy"], case["dark_fraction_min"],
                case["arrivals"],
            )
            assert_epochs_equal(result.epochs, case["epochs"], label)

    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    @pytest.mark.parametrize("dark,load", [(0.5, 0.6), (0.25, 1.0)])
    def test_lockstep_lanes_match_one_lane_runs(
        self, population, aging_table, dark, load, kind
    ):
        """Three chips with arrivals (and departures) in one lockstep
        group equal their one-lane runs, and every lane's records reach
        the callback."""
        cfg = SimulationConfig(
            lifetime_years=1.0, epoch_years=0.5, dark_fraction_min=dark,
            window_s=20.0, load_factor=load, seed=5,
        )
        for policy_cls in POLICIES.values():
            seen = []
            grouped = LifetimeSimulator(
                cfg, arrivals_factory=ARRIVALS[kind],
                epoch_callback=seen.append,
            ).run_batch(
                [
                    ChipContext(chip, aging_table, dark_fraction_min=dark)
                    for chip in population
                ],
                policy_cls(),
            )
            assert len(seen) == len(population) * cfg.num_epochs
            for chip, result in zip(population, grouped):
                solo = LifetimeSimulator(
                    cfg, arrivals_factory=ARRIVALS[kind]
                ).run(
                    ChipContext(chip, aging_table, dark_fraction_min=dark),
                    policy_cls(),
                )
                assert sum(e.arrivals for e in result.epochs) > 0
                assert_epochs_equal(
                    result.epochs,
                    [dataclasses.asdict(e) for e in solo.epochs],
                    (chip.chip_id, policy_cls.name),
                )
