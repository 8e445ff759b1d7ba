"""Proactive DTM: act on predicted, not measured, violations.

The baseline DTM (paper setup) is reactive — it waits for a sensor to
cross ``Tsafe``.  A proactive variant uses the online thermal predictor
to migrate threads *before* the emergency materializes, trading a few
preemptive migrations for fewer emergencies and throttles.  This is an
extension ablation: the paper's Hayat is proactive at the *mapping*
level; this asks what proactivity at the *enforcement* level adds.
"""

from __future__ import annotations

import numpy as np

from repro.dtm.policy import DTMPolicy, DTMReport
from repro.mapping.state import ChipState
from repro.thermal.predictor import ThermalPredictor
from repro.util.constants import DTM_HEADROOM_KELVIN, T_SAFE_KELVIN
from repro.util.validation import check_positive


class ProactiveDTMPolicy(DTMPolicy):
    """Reactive enforcement plus prediction-driven preemption.

    Parameters
    ----------
    predictor:
        The online thermal predictor (shared with the manager).
    margin_k:
        Preemption margin: cores whose *predicted* steady temperature
        exceeds ``tsafe - margin`` are treated before they violate.
    """

    #: Preemption can migrate threads even when no measured reading
    #: crosses a trigger, so quiet steps cannot be skipped: every lane
    #: runs the step-by-step window body.
    supports_fused_windows = False

    def __init__(
        self,
        predictor: ThermalPredictor,
        tsafe_k: float = T_SAFE_KELVIN,
        headroom_k: float = DTM_HEADROOM_KELVIN,
        throttle_factor: float = 0.7,
        margin_k: float = 3.0,
    ):
        super().__init__(tsafe_k, headroom_k, throttle_factor)
        self.predictor = predictor
        self.margin_k = check_positive("margin_k", margin_k)

    def enforce(
        self,
        state: ChipState,
        temps_k: np.ndarray,
        fmax_ghz: np.ndarray,
    ) -> DTMReport:
        """Reactive pass first, then preempt predicted near-violations."""
        report = super().enforce(state, temps_k, fmax_ghz)

        # Predict where the *current* mapping is heading.
        activity = np.zeros(state.num_cores)
        assignment = state.assignment
        for core in np.flatnonzero(assignment >= 0):
            activity[core] = state.threads[assignment[core]].mean_activity
        predicted = self.predictor.predict(
            state.freq_ghz, activity, state.powered_on, initial_temps_k=temps_k
        )

        threshold = self.tsafe_k - self.margin_k
        busy = state.assignment >= 0
        at_risk = np.flatnonzero(
            busy & (predicted > threshold) & (temps_k <= self.tsafe_k)
        )
        if at_risk.size == 0:
            return report
        order = at_risk[np.argsort(predicted[at_risk])[::-1]]
        claimed: set[int] = set()
        fenced = state.fenced
        for hot_core in order:
            thread = state.threads[state.assignment[hot_core]]
            candidates = [
                core
                for core in range(state.num_cores)
                if core != hot_core
                and core not in claimed
                and state.assignment[core] < 0
                and not fenced[core]
                and predicted[core] < threshold - self.headroom_k
                and temps_k[core] < self.target_limit_k
                and fmax_ghz[core] >= thread.fmin_ghz
            ]
            if not candidates:
                continue  # preemption is optional; no throttling here
            target = min(candidates, key=lambda c: predicted[c])
            state.migrate(int(hot_core), int(target))
            claimed.add(target)
            report.migrations += 1
            report.migrated_pairs.append((int(hot_core), int(target)))
        return report
