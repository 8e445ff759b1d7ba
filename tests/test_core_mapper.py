"""Algorithm 1: constraints, ordering, and preferences."""

import numpy as np
import pytest

from repro.core import HayatMapper, MappingError, OnlineHealthEstimator
from repro.core.dcm import temperature_optimized_dcm
from repro.core.delta_eval import delta_options
from repro.mapping import ChipState
from repro.noc import MeshTopology
from repro.power import PowerModel
from repro.thermal import ThermalPredictor, ThermalRCNetwork
from repro.workload import make_mix
from tests.reference_mapper import reference_map_threads


@pytest.fixture(scope="module")
def setup(chip, floorplan, aging_table):
    net = ThermalRCNetwork(floorplan)
    pm = PowerModel.for_chip(chip)
    pred = ThermalPredictor.learn(net, pm)
    estimator = OnlineHealthEstimator(pred, aging_table)
    influence = net.influence_matrix()
    return estimator, influence


def build_state(chip, floorplan, influence, num_threads=16, seed=0):
    mix = make_mix(["bodytrack", "x264"], num_threads, np.random.default_rng(seed))
    dcm = temperature_optimized_dcm(floorplan, num_threads, influence)
    return ChipState(chip.num_cores, mix.threads, dcm)


class TestMapping:
    def test_all_threads_mapped(self, setup, chip, floorplan):
        estimator, influence = setup
        state = build_state(chip, floorplan, influence)
        mapper = HayatMapper(estimator)
        unmapped = mapper.map_threads(
            state, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0
        )
        assert unmapped == []
        assert (state.assignment >= 0).sum() == 16
        state.validate(chip.fmax_init_ghz)

    def test_frequency_requirements_respected(self, setup, chip, floorplan):
        estimator, influence = setup
        state = build_state(chip, floorplan, influence)
        HayatMapper(estimator).map_threads(
            state, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0
        )
        for core in np.flatnonzero(state.assignment >= 0):
            thread = state.threads[state.assignment[core]]
            assert chip.fmax_init_ghz[core] >= thread.fmin_ghz
            # Threads run at their required frequency, not faster.
            assert state.freq_ghz[core] == pytest.approx(thread.fmin_ghz)

    def test_deterministic(self, setup, chip, floorplan):
        estimator, influence = setup
        a = build_state(chip, floorplan, influence)
        b = build_state(chip, floorplan, influence)
        HayatMapper(estimator).map_threads(a, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0)
        HayatMapper(estimator).map_threads(b, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_stiff_threads_get_tightest_matches(self, setup, chip, floorplan):
        """Eq. 9's frequency matching, combined with the stiffest-first
        ordering, gives the stiff threads the smallest frequency
        headroom (they are placed while tight matches still exist);
        easy threads absorb the leftovers."""
        estimator, influence = setup
        state = build_state(chip, floorplan, influence, num_threads=24, seed=5)
        HayatMapper(estimator).map_threads(
            state, chip.fmax_init_ghz, np.ones(64), 0.5, 0.0
        )
        pairs = []
        for core in np.flatnonzero(state.assignment >= 0):
            thread = state.threads[state.assignment[core]]
            pairs.append((thread.fmin_ghz, chip.fmax_init_ghz[core] - thread.fmin_ghz))
        pairs.sort(reverse=True)  # stiffest first
        quartile = len(pairs) // 4
        stiff_gap = np.mean([gap for _, gap in pairs[:quartile]])
        easy_gap = np.mean([gap for _, gap in pairs[-quartile:]])
        assert stiff_gap < easy_gap

    def test_strict_raises_when_infeasible(self, setup, chip, floorplan):
        estimator, influence = setup
        state = build_state(chip, floorplan, influence)
        slow = np.full(64, 0.5)  # nothing meets any requirement
        with pytest.raises(MappingError):
            HayatMapper(estimator, strict=True).map_threads(
                state, slow, np.ones(64), 0.5, 0.0
            )

    def test_nonstrict_reports_unmapped(self, setup, chip, floorplan):
        estimator, influence = setup
        state = build_state(chip, floorplan, influence)
        slow = np.full(64, 0.5)
        unmapped = HayatMapper(estimator).map_threads(
            state, slow, np.ones(64), 0.5, 0.0
        )
        assert len(unmapped) == 16

    def test_rejects_bad_vector_shapes(self, setup, chip, floorplan):
        estimator, influence = setup
        state = build_state(chip, floorplan, influence)
        with pytest.raises(ValueError):
            HayatMapper(estimator).map_threads(
                state, np.ones(3), np.ones(64), 0.5, 0.0
            )


class TestMatchesReference:
    """``map_threads`` is a one-lane pass of the lockstep loop; it must
    place exactly as the sequential reference loop does."""

    def _both(self, setup, chip, floorplan, fmax=None, temps=None,
              preplace=0, **mapper_kwargs):
        estimator, influence = setup
        rng = np.random.default_rng(17)
        health = rng.uniform(0.9, 1.0, 64)
        fmax = chip.fmax_init_ghz * health if fmax is None else fmax
        states, unmapped = [], []
        for run in (HayatMapper.map_threads, reference_map_threads):
            state = build_state(chip, floorplan, influence, num_threads=20, seed=3)
            on = np.flatnonzero(state.powered_on)[:preplace]
            for thread_index, core in enumerate(on):
                state.place(
                    thread_index, int(core), state.threads[thread_index].fmin_ghz
                )
            unmapped.append(
                run(
                    HayatMapper(estimator, **mapper_kwargs),
                    state, fmax, health, 0.5, 1.2, initial_temps_k=temps,
                )
            )
            states.append(state)
        assert unmapped[0] == unmapped[1]
        np.testing.assert_array_equal(states[0].assignment, states[1].assignment)
        np.testing.assert_array_equal(states[0].freq_ghz, states[1].freq_ghz)
        return unmapped[0]

    def test_plain(self, setup, chip, floorplan):
        assert self._both(setup, chip, floorplan) == []

    def test_warm_start_and_preplaced(self, setup, chip, floorplan):
        temps = np.random.default_rng(5).uniform(320.0, 350.0, 64)
        self._both(setup, chip, floorplan, temps=temps, preplace=4)

    def test_strict(self, setup, chip, floorplan):
        self._both(setup, chip, floorplan, strict=True)

    def test_strict_infeasible_raises_like_reference(self, setup, chip, floorplan):
        slow = np.full(64, 0.5)
        messages = []
        for run in (HayatMapper.map_threads, reference_map_threads):
            estimator, influence = setup
            state = build_state(chip, floorplan, influence)
            with pytest.raises(MappingError) as error:
                run(
                    HayatMapper(estimator, strict=True),
                    state, slow, np.ones(64), 0.5, 0.0,
                )
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    def test_nonstrict_infeasible(self, setup, chip, floorplan):
        unmapped = self._both(setup, chip, floorplan, fmax=np.full(64, 1.5))
        assert unmapped

    def test_comm_weighted(self, setup, chip, floorplan):
        mesh = MeshTopology(floorplan)
        self._both(
            setup, chip, floorplan, preplace=2,
            comm_weight=6.0, hop_matrix=mesh.hop_matrix,
        )

    def test_all_overshoot(self, setup, chip, floorplan):
        self._both(setup, chip, floorplan, tsafe_k=1.0)

    def test_delta_engine_forced(self, setup, chip, floorplan):
        with delta_options(enabled=True, min_dense_rows=0):
            self._both(setup, chip, floorplan, preplace=3)
