"""Lifetime simulator: integration across all substrates."""

import numpy as np
import pytest

from repro.baselines import VAAManager
from repro.core import HayatManager
from repro.sim import ChipContext, LifetimeSimulator, SimulationConfig
from repro.util.constants import AMBIENT_KELVIN


@pytest.fixture(scope="module")
def short_cfg():
    return SimulationConfig(
        lifetime_years=1.5,
        epoch_years=0.5,
        dark_fraction_min=0.5,
        window_s=5.0,
        seed=3,
    )


@pytest.fixture(scope="module")
def hayat_result(chip, aging_table, short_cfg):
    ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
    return LifetimeSimulator(short_cfg).run(ctx, HayatManager())


class TestLifetimeRun:
    def test_epoch_count(self, hayat_result, short_cfg):
        assert len(hayat_result.epochs) == short_cfg.num_epochs == 3

    def test_health_monotone_nonincreasing(self, hayat_result):
        traj = hayat_result.health_trajectory()
        assert (np.diff(traj, axis=0) <= 1e-12).all()

    def test_health_actually_degrades(self, hayat_result):
        assert hayat_result.health_trajectory()[-1].min() < 1.0

    def test_temperatures_physical(self, hayat_result):
        for epoch in hayat_result.epochs:
            assert epoch.avg_temp_k > AMBIENT_KELVIN
            assert epoch.peak_temp_k < 430.0
            assert (epoch.worst_temps_k >= AMBIENT_KELVIN - 1e-9).all()

    def test_duties_are_probabilities(self, hayat_result):
        for epoch in hayat_result.epochs:
            assert (epoch.duties >= 0).all() and (epoch.duties <= 1).all()

    def test_throughput_positive(self, hayat_result):
        assert all(e.total_ips > 0 for e in hayat_result.epochs)

    def test_deterministic_replay(self, chip, aging_table, short_cfg):
        runs = []
        for _ in range(2):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            runs.append(LifetimeSimulator(short_cfg).run(ctx, HayatManager()))
        np.testing.assert_array_equal(
            runs[0].health_trajectory(), runs[1].health_trajectory()
        )
        assert runs[0].total_dtm_events() == runs[1].total_dtm_events()

    def test_policies_see_identical_workloads(self, chip, aging_table, short_cfg):
        """The mix draw depends only on the config seed and chip, never
        on the policy — required for fair normalization."""
        mixes = {}
        for policy in (HayatManager(), VAAManager()):
            ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
            result = LifetimeSimulator(short_cfg).run(ctx, policy)
            mixes[policy.name] = [e.mix_description for e in result.epochs]
        assert mixes["hayat"] == mixes["vaa"]


class TestDerivedMetrics:
    def test_fmax_trajectory_shapes(self, hayat_result):
        assert hayat_result.fmax_trajectory_ghz().shape == (3, 64)
        assert hayat_result.chip_fmax_trajectory_ghz().shape == (3,)

    def test_aging_rates_in_unit_range(self, hayat_result):
        assert 0.0 <= hayat_result.chip_fmax_aging_rate() < 1.0
        assert 0.0 <= hayat_result.avg_fmax_aging_rate() < 1.0

    def test_lifetime_at_loose_requirement_is_full(self, hayat_result):
        loose = 0.5  # GHz, never violated
        assert hayat_result.lifetime_at_requirement_years(loose) == pytest.approx(
            1.5
        )

    def test_lifetime_at_impossible_requirement_is_zero(self, hayat_result):
        impossible = hayat_result.fmax_init_ghz.mean() + 1.0
        assert hayat_result.lifetime_at_requirement_years(impossible) == 0.0

    def test_lifetime_interpolates(self, hayat_result):
        """A requirement between start and end average frequency gives a
        lifetime strictly inside the simulated span."""
        start = float(hayat_result.fmax_init_ghz.mean())
        end = float(hayat_result.avg_fmax_trajectory_ghz()[-1])
        target = 0.5 * (start + end)
        lifetime = hayat_result.lifetime_at_requirement_years(target)
        assert 0.0 < lifetime < 1.5


class TestSettleClampConsistency:
    def test_final_settle_solve_is_clamped(self, chip, aging_table, monkeypatch):
        """Regression: the settle phase's *last* steady-state solve used
        to merge into the aging input unclamped, bypassing the reaction
        ceiling applied to every earlier round.  A steady state DTM
        would intercept must never exceed ``tsafe + headroom`` in
        ``worst_temps_k``.

        The coupled solver is stubbed to report a steady state far past
        the ceiling while DTM reports immediate quiescence (so that
        solve is the settle phase's last), and the window integrator is
        stubbed cold so only the settle merge feeds ``worst_temps_k``.
        """
        import repro.sim.simulator as simulator_module
        from repro.dtm import DTMReport

        cfg = SimulationConfig(
            lifetime_years=0.5, epoch_years=0.5, dark_fraction_min=0.5,
            window_s=5.0, seed=3,
        )
        sim = LifetimeSimulator(cfg)
        ceiling = sim.dtm.tsafe_k + sim.dtm.headroom_k

        real_solve = simulator_module.solve_coupled_steady_state

        def overheated_solve(network, power_model, freq, activity, powered_on,
                             **kwargs):
            temps, breakdown = real_solve(
                network, power_model, freq, activity, powered_on, **kwargs
            )
            return temps + (ceiling + 40.0 - temps.min()), breakdown

        class ColdIntegrator:
            """Window stub: every step lands at ambient, so the window
            contributes nothing to ``worst_temps_k``."""

            def __init__(self, network, dt_s):
                self.network = network

            def core_temperatures(self, all_nodes):
                return np.asarray(all_nodes)[: self.network.num_cores]

            def step(self, all_nodes, core_power_w):
                return np.full(
                    self.network.num_nodes, self.network.config.ambient_k
                )

            def step_batch(self, all_nodes, node_power_w):
                return np.full(
                    np.shape(all_nodes), self.network.config.ambient_k
                )

        monkeypatch.setattr(
            simulator_module, "solve_coupled_steady_state", overheated_solve
        )
        monkeypatch.setattr(
            simulator_module, "TransientIntegrator", ColdIntegrator
        )
        monkeypatch.setattr(
            sim.dtm, "enforce", lambda state, temps, fmax: DTMReport()
        )

        ctx = ChipContext(chip, aging_table, dark_fraction_min=0.5)
        result = sim.run(ctx, HayatManager())

        worst = result.epochs[0].worst_temps_k
        assert float(worst.max()) <= ceiling + 1e-9
        # The settle phase really did see the overheated solve.
        assert float(worst.max()) == pytest.approx(ceiling)
