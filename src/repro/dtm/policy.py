"""The migrate-then-throttle DTM policy of the paper's setup."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mapping.state import ChipState
from repro.util.constants import DTM_HEADROOM_KELVIN, T_SAFE_KELVIN
from repro.util.validation import check_positive


@dataclass
class DTMReport:
    """What one DTM pass did."""

    migrations: int = 0
    throttles: int = 0
    migrated_pairs: list[tuple[int, int]] = field(default_factory=list)
    throttled_cores: list[int] = field(default_factory=list)

    @property
    def events(self) -> int:
        """Total interventions (the Fig. 7 count)."""
        return self.migrations + self.throttles

    def merge(self, other: "DTMReport") -> None:
        """Accumulate another pass's counts into this report."""
        self.migrations += other.migrations
        self.throttles += other.throttles
        self.migrated_pairs.extend(other.migrated_pairs)
        self.throttled_cores.extend(other.throttled_cores)


class DTMPolicy:
    """Hot-core migration with throttling fallback.

    Parameters
    ----------
    tsafe_k:
        The thermal emergency threshold (95 C in the paper).
    headroom_k:
        Migration targets must sit below ``tsafe_k - headroom_k``.
    throttle_factor:
        Frequency multiplier applied when throttling (< 1).  A throttled
        thread misses its throughput constraint — DTM trades performance
        for thermal safety.
    """

    #: Contract flag for compiled window segments: ``True`` means
    #: :meth:`enforce` mutates state *only* when :meth:`would_act`
    #: returns ``True``, so quiet steps may skip the enforcement pass
    #: entirely.  Policies that can act without a measured trigger
    #: (e.g. prediction-driven preemption) must override this to
    #: ``False`` to force the step-by-step window body.
    supports_fused_windows = True

    def __init__(
        self,
        tsafe_k: float = T_SAFE_KELVIN,
        headroom_k: float = DTM_HEADROOM_KELVIN,
        throttle_factor: float = 0.7,
    ):
        self.tsafe_k = check_positive("tsafe_k", tsafe_k)
        self.headroom_k = check_positive("headroom_k", headroom_k)
        if not 0.0 < throttle_factor < 1.0:
            raise ValueError("throttle_factor must lie in (0, 1)")
        self.throttle_factor = throttle_factor

    @property
    def target_limit_k(self) -> float:
        """Maximum temperature of an acceptable migration target."""
        return self.tsafe_k - self.headroom_k

    def enforce(
        self,
        state: ChipState,
        temps_k: np.ndarray,
        fmax_ghz: np.ndarray,
    ) -> DTMReport:
        """Resolve all thermal violations in one pass.

        Hottest violations are handled first (they are the most urgent
        and their migration frees the most heat).  Each migration marks
        its target so one cold core is not chosen twice within a pass
        (temperatures will not refresh until the next simulation step).
        """
        temps_k = np.asarray(temps_k, dtype=float)
        fmax_ghz = np.asarray(fmax_ghz, dtype=float)
        if temps_k.shape != (state.num_cores,):
            raise ValueError("temps_k must be a flat per-core vector")
        report = DTMReport()

        self._recover_throttled(state, temps_k, fmax_ghz)
        assignment = state.assignment_view
        busy = assignment >= 0
        violating = np.flatnonzero(busy & (temps_k > self.tsafe_k))
        if violating.size == 0:
            return report
        order = violating[np.argsort(temps_k[violating])[::-1]]

        # Eligibility shared by every violation this pass: idle, not
        # fenced, below the headroom band.  Migrations only ever remove
        # cores from this set (a claimed target turns busy; the vacated
        # source sits above Tsafe and was never in it), so the mask is
        # built once and cleared incrementally instead of re-scanning
        # all cores per hot core.
        free = (assignment < 0) & ~state.fenced_view & (temps_k < self.target_limit_k)
        temps_or_inf = np.where(free, temps_k, np.inf)

        for hot_core in order:
            thread = state.threads[assignment[hot_core]]
            cand = temps_or_inf.copy()
            cand[fmax_ghz < thread.fmin_ghz] = np.inf
            target = int(np.argmin(cand))
            if np.isfinite(cand[target]):
                state.migrate(int(hot_core), target)
                temps_or_inf[target] = np.inf
                report.migrations += 1
                report.migrated_pairs.append((int(hot_core), target))
            else:
                new_freq = float(state.freq_view[hot_core]) * self.throttle_factor
                state.set_frequency(int(hot_core), new_freq, throttled=True)
                report.throttles += 1
                report.throttled_cores.append(int(hot_core))
        return report

    def would_act(self, state: ChipState, temps_k: np.ndarray) -> bool:
        """Whether :meth:`enforce` would mutate state for these readings.

        True iff a throttled core has cooled below the headroom band
        (recovery) or a busy core exceeds ``Tsafe`` (violation).
        Compiled window segments use this contract to skip enforcement
        on quiet steps; see :attr:`supports_fused_windows`.
        """
        throttled = state.throttled_view
        if throttled.any() and bool(
            (temps_k[throttled] < self.target_limit_k).any()
        ):
            return True
        busy = state.assignment_view >= 0
        return bool((temps_k[busy] > self.tsafe_k).any())

    def _recover_throttled(
        self,
        state: ChipState,
        temps_k: np.ndarray,
        fmax_ghz: np.ndarray,
    ) -> None:
        """Restore throttled cores that have cooled below the headroom
        band to their thread's required frequency, capped at the core's
        aged safe limit (not counted as a DTM event: it is the throttle
        releasing, not a new intervention)."""
        throttled = np.flatnonzero(state.throttled_view)
        for core in throttled:
            if temps_k[core] < self.target_limit_k:
                thread = state.threads[state.assignment_view[core]]
                restored = min(thread.fmin_ghz, float(fmax_ghz[core]))
                state.set_frequency(int(core), restored, throttled=False)
