"""The accelerated-aging lifetime engine (Fig. 4).

Each epoch a policy decision builds every chip's state (DCM + mapping);
a settle phase iterates steady state and DTM to quiescence; a
fine-grained transient window runs under per-step DTM enforcement,
with Section VI's mid-epoch application arrivals and departures; and
the window's worst-case temperatures and duty cycles are upscaled to
the epoch length to advance the health state.

One engine runs any number of chips.  A *lane* is one chip's state
inside a lockstep group: the group advances epoch by epoch and window
step by window step together, with the per-lane control flow (policy
decisions, DTM enforcement, arrivals, stats bookkeeping) in Python and
the cross-lane arithmetic stacked.  A single chip is a group of one
lane.

A chip's result never depends on the lanes it shares a group with:

* Settle solves stack lanes as extra right-hand-side columns against
  the *same* process-wide Cholesky factor; a multi-RHS triangular solve
  computes each column with the per-vector op sequence, and per-lane
  leakage multipliers ride in as per-row inputs
  (:func:`~repro.thermal.coupled.solve_coupled_steady_state_batch`).
* Quiet window spans run as compiled segments
  (:func:`~repro.sim.window.compile_segment`) through one stacked
  backward-Euler step per window step
  (:meth:`~repro.thermal.rcnet.TransientIntegrator.step_batch`),
  evaluating leakage with :class:`~repro.power.model.PowerModel`'s IEEE
  op order.  A lane whose sensor readings enter the DTM trigger band (a
  busy core above ``tsafe_k``, or a throttled core cooled past
  recovery) runs ``enforce`` on that step and recompiles from the next;
  on every other step ``enforce`` provably would not act (see
  :meth:`~repro.dtm.policy.DTMPolicy.would_act`).
* Aging flattens the ``(chips, cores)`` axis through one elementwise
  table walk (:func:`repro.aging.health.advance_batch`).
* RNG streams are per chip (``SeedSequenceFactory(seed).child("mix",
  chip_token)``), so lockstep interleaving cannot perturb them.

Every lane executes every window step exactly once, so one global step
counter drives the group; lanes differ only in where their segment
boundaries fall.  A lane's segment ends at its next arrival step and
its next departure step, and admissions (departures first, then
arrivals) happen at segment boundaries.  Policies and the DTM must be
stateless across ``prepare_epoch``/``enforce`` calls, as every
built-in is.

Contexts share a group when they share the stacked kernels' inputs:
floorplan geometry, thermal config, power-model parameters and the
ground-truth aging table (:func:`_stack_key`).  Anything else runs as
its own one-lane group through the same code.  Two per-lane fallbacks
remain.  A lane whose power model is not the stock stack settles with
the per-chip solver and steps its window through its own
:meth:`~repro.power.model.PowerModel.evaluate`.  A lane whose DTM lacks
:attr:`~repro.dtm.policy.DTMPolicy.supports_fused_windows`, or whose
mapped threads carry a trace the compiler cannot sample
(``compile_segment`` returns ``None``), steps its window one step at a
time.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

import numpy as np

from repro.aging.health import advance_batch
from repro.core.delta_eval import delta_options
from repro.dtm.policy import DTMPolicy
from repro.mapping.state import ChipState
from repro.noc.metrics import evaluate_mapping
from repro.obs import get_registry
from repro.power.dynamic import DynamicPowerModel
from repro.power.leakage import REFERENCE_TEMP_K, LeakageModel
from repro.power.model import PowerModel
from repro.sim.config import SimulationConfig
from repro.sim.context import ChipContext
from repro.sim.results import EpochRecord, LifetimeResult
from repro.sim.window import (
    SEGMENT_CHUNK_STEPS,
    WindowStats,
    compile_segment,
    rewind_unexecuted_draws,
)
from repro.thermal.cache import floorplan_signature
from repro.thermal.coupled import (
    solve_coupled_steady_state,
    solve_coupled_steady_state_batch,
)
from repro.thermal.rcnet import TransientIntegrator
from repro.util.rng import SeedSequenceFactory
from repro.workload.mix import random_mix


def _stack_key(ctx: ChipContext):
    """Hashable identity of the kernels a lane can share, or ``None``.

    Lanes with equal keys share one lockstep group.  ``None`` marks a
    non-stock power-model stack, whose overrides the stacked kernels
    would bypass: such a lane always runs alone.
    """
    pm = ctx.power_model
    if (
        type(pm) is not PowerModel
        or type(pm.dynamic) is not DynamicPowerModel
        or type(pm.leakage) is not LeakageModel
    ):
        return None
    leak = pm.leakage
    return (
        floorplan_signature(ctx.floorplan),
        ctx.network.config,
        pm.dynamic.ceff_nf,
        pm.dynamic.vdd,
        leak.nominal_w,
        leak.gated_w,
        leak.beta_per_k,
        leak.fit_limit_k,
        leak.vth_nominal,
        leak.subthreshold_slope,
        id(ctx.truth_table),
    )


class _Lane:
    """One chip's mutable state threaded through the lockstep loops."""

    __slots__ = (
        "ctx", "result", "factory", "num_threads", "nominal_scaled",
        "mix", "arrivals", "state", "dcm_on", "fmax_now", "start_years",
        "migrations", "throttles", "worst_settle", "settle_duty",
        "settle_rounds", "temps", "all_nodes", "integrator", "stats",
        "segment", "seg_off", "seg_powered", "fused", "fire_steps",
        "pending", "departure_seq", "departed", "arrived",
    )

    def __init__(self, ctx: ChipContext):
        self.ctx = ctx


class LifetimeSimulator:
    """Drives one policy over chips' lifetimes.

    Parameters
    ----------
    config:
        Simulation parameters.
    dtm:
        The DTM enforcement policy (shared semantics across managers,
        per the paper's fairness setup).
    mix_factory:
        Callable ``(epoch_index, num_threads, rng) -> WorkloadMix``;
        defaults to a fresh random mix per epoch ("considering the same
        set of workloads, or potentially a different one", Section IV).
    arrivals_factory:
        Optional callable ``(epoch_index, window_s, rng) ->
        ArrivalSchedule`` generating mid-epoch application arrivals
        (Section VI's "new application starts within an aging epoch").
    epoch_callback:
        Optional callable ``(EpochRecord) -> None`` invoked after each
        chip's epoch — progress reporting, live logging, streaming
        export.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        dtm: DTMPolicy | None = None,
        mix_factory=None,
        arrivals_factory=None,
        epoch_callback=None,
    ):
        self.config = config if config is not None else SimulationConfig()
        self.dtm = dtm if dtm is not None else DTMPolicy(tsafe_k=self.config.tsafe_k)
        self._mix_factory = mix_factory if mix_factory is not None else (
            lambda epoch, num_threads, rng: random_mix(num_threads, rng)
        )
        self._arrivals_factory = arrivals_factory
        self._epoch_callback = epoch_callback
        #: Cap on the settle-phase (steady state -> DTM) rounds; a round
        #: with no interventions ends the phase early.
        self._max_settle_rounds = 16

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, ctx: ChipContext, policy) -> LifetimeResult:
        """Simulate one chip's lifetime; returns the full record."""
        return self.run_batch([ctx], policy)[0]

    def run_batch(self, ctxs: list[ChipContext], policy) -> list[LifetimeResult]:
        """Simulate every context's lifetime; one result per context.

        Contexts with equal :func:`_stack_key` advance in one lockstep
        group; ``results[i]`` is bit-identical to ``run(ctxs[i],
        policy)``.
        """
        ctxs = list(ctxs)
        keys = [_stack_key(ctx) for ctx in ctxs]
        groups: dict = {}
        for index, key in enumerate(keys):
            groups.setdefault(index if key is None else key, []).append(index)
        results: list = [None] * len(ctxs)
        obs = get_registry()
        with delta_options(enabled=self.config.delta_candidates):
            for indices in groups.values():
                lanes = [self._new_lane(ctxs[i], policy) for i in indices]
                if len(lanes) > 1:
                    obs.inc("sim.batched_chips", len(lanes))
                stacked = keys[indices[0]] is not None
                for epoch in range(self.config.num_epochs):
                    with obs.timer(
                        "sim.epoch",
                        epoch=epoch,
                        chips=len(lanes),
                        policy=policy.name,
                    ):
                        self._run_epoch(lanes, policy, epoch, stacked, obs)
                    if self._epoch_callback is not None:
                        for lane in lanes:
                            self._epoch_callback(lane.result.epochs[-1])
                for index, lane in zip(indices, lanes):
                    results[index] = lane.result
        return results

    def _new_lane(self, ctx: ChipContext, policy) -> _Lane:
        cfg = self.config
        lane = _Lane(ctx)
        lane.result = LifetimeResult(
            chip_id=ctx.chip.chip_id,
            policy_name=policy.name,
            dark_fraction_min=ctx.dark_fraction_min,
            fmax_init_ghz=ctx.chip.fmax_init_ghz.copy(),
        )
        lane.factory = SeedSequenceFactory(cfg.seed).child(
            "mix", ctx.chip_seed_token()
        )
        lane.num_threads = max(1, int(round(ctx.max_on_cores * cfg.load_factor)))
        # (nominal * scale): the left-to-right leakage prefix
        # PowerModel.evaluate computes per step, hoisted per lane
        # because the scale is the chip's own.
        lane.nominal_scaled = (
            ctx.power_model.leakage.nominal_w * ctx.power_model.leakage_scale
        )
        return lane

    # ------------------------------------------------------------------
    # one lockstep epoch
    # ------------------------------------------------------------------
    def _run_epoch(self, lanes, policy, epoch: int, stacked: bool, obs) -> None:
        cfg = self.config
        n = lanes[0].ctx.chip.num_cores

        for lane in lanes:
            lane.mix = self._mix_factory(
                epoch, lane.num_threads, lane.factory.rng("epoch", epoch)
            )
            lane.arrivals = (
                self._arrivals_factory(
                    epoch, cfg.window_s, lane.factory.rng("arrivals", epoch)
                )
                if self._arrivals_factory is not None
                else None
            )
            lane.start_years = lane.ctx.elapsed_years

        # Decisions: the policy's cross-lane prepare_epoch_batch when it
        # has one (bit-identical per lane, and it honours a subclass's
        # prepare_epoch override), per lane otherwise.
        prepare_batch = getattr(policy, "prepare_epoch_batch", None)
        with obs.timer("sim.decision"):
            if prepare_batch is not None:
                states = prepare_batch(
                    [lane.ctx for lane in lanes],
                    [lane.mix for lane in lanes],
                    cfg.epoch_years,
                )
            else:
                states = [
                    policy.prepare_epoch(lane.ctx, lane.mix, cfg.epoch_years)
                    for lane in lanes
                ]
        for lane, state in zip(lanes, states):
            ctx = lane.ctx
            state.validate()
            lane.state = state
            lane.dcm_on = state.powered_on
            lane.fmax_now = ctx.chip.fmax_init_ghz * ctx.health_state.health
            lane.migrations = 0
            lane.throttles = 0
            lane.worst_settle = np.full(n, ctx.network.config.ambient_k)
            lane.settle_duty = np.zeros(n)
            lane.settle_rounds = 0

        # Temperature excursions above this never persist: DTM reacts
        # within its control latency, so a core en route to a hotter
        # unmitigated steady state is intercepted here.  The settle
        # phase's steady-state solves overshoot that ceiling; recording
        # them clamped keeps the aging input physical.
        reaction_ceiling = self.dtm.tsafe_k + self.dtm.headroom_k
        with obs.timer("sim.settle"):
            self._settle(lanes, stacked, reaction_ceiling, obs)

        fusable = stacked and getattr(self.dtm, "supports_fused_windows", False)
        for lane in lanes:
            temps = lane.temps
            all_nodes = lane.ctx.network.initial_temperatures()
            all_nodes[:n] = temps
            all_nodes[n : 2 * n] = temps - 2.0  # spreader trails the junction
            all_nodes[-1] = temps.mean() - 5.0
            lane.all_nodes = all_nodes
            # One integrator per lane per epoch: the factors come from
            # the shared cache, only scratch space is new.
            lane.integrator = TransientIntegrator(
                lane.ctx.network, cfg.control_dt_s
            )
            # The final settle solve obeys the same reaction ceiling as
            # every earlier round (the window's own transient excursions
            # are real and stay unclamped).
            lane.stats = WindowStats(
                worst=np.maximum(
                    lane.worst_settle, np.minimum(temps, reaction_ceiling)
                ),
                duty_accum=np.zeros(n),
                peak=float(temps.max()),
            )
            lane.segment = None
            lane.seg_off = 0
            lane.seg_powered = None
            lane.fused = fusable
            # Min-heap of (departure time, sequence, thread indices):
            # each boundary pops only the due departures.
            lane.pending = []
            lane.departure_seq = 0
            lane.departed = set()
            lane.arrived = 0

        with obs.timer("sim.window"):
            self._run_window(lanes, policy, obs)

        # Epoch upscale: per-lane duties, one stacked aging-table walk.
        steps = cfg.steps_per_window
        duties_mat = np.empty((len(lanes), n))
        worst_mat = np.empty((len(lanes), n))
        for b, lane in enumerate(lanes):
            duties_mat[b] = np.clip(
                (lane.stats.duty_accum / cfg.window_s + lane.settle_duty)
                * cfg.duty_scale,
                0.0,
                1.0,
            )
            worst_mat[b] = lane.stats.worst
        with obs.timer("sim.aging"):
            advance_batch(
                [lane.ctx.health_state for lane in lanes],
                worst_mat,
                duties_mat,
                cfg.epoch_years,
            )

        for b, lane in enumerate(lanes):
            ctx = lane.ctx
            stats = lane.stats
            ctx.last_temps_k = lane.integrator.core_temperatures(
                lane.all_nodes
            ).copy()
            noc_report = evaluate_mapping(lane.state, ctx.noc)
            record = EpochRecord(
                epoch_index=epoch,
                start_years=lane.start_years,
                length_years=cfg.epoch_years,
                mix_description=lane.mix.describe(),
                dcm_on=lane.dcm_on,
                worst_temps_k=stats.worst,
                avg_temp_k=stats.temp_sum / steps,
                peak_temp_k=stats.peak,
                dtm_migrations=lane.migrations,
                dtm_throttles=lane.throttles,
                duties=duties_mat[b],
                health_after=ctx.health_state.health,
                qos_violations=self._qos_violations(
                    lane.state, lane.fmax_now, lane.departed
                ),
                total_ips=stats.ips_sum / steps,
                arrivals=lane.arrived,
                comm_weighted_hops=noc_report.weighted_hops,
                tsafe_violation_steps=stats.tsafe_violations,
            )
            lane.result.epochs.append(record)
            obs.inc("sim.epochs")
            obs.inc("sim.dtm_migrations", record.dtm_migrations)
            obs.inc("sim.dtm_throttles", record.dtm_throttles)
            obs.inc("sim.arrivals", record.arrivals)
            obs.inc("sim.qos_violations", record.qos_violations)
            obs.inc("sim.tsafe_violation_steps", record.tsafe_violation_steps)

    def _settle(self, lanes, stacked: bool, reaction_ceiling: float, obs) -> None:
        """Settle phase: DTM acts during the heat-up toward the mapping's
        steady state.

        Iterating (steady state -> DTM -> steady state) until quiescence
        mirrors the real closed loop without simulating the minutes-long
        sink transient step by step; a mapping that provokes many
        interventions here pays them in the Fig. 7 count.  Each round
        solves every still-settling lane in one stacked Picard solve
        (bit-identical per row to the one-lane solve).
        """
        cfg = self.config
        n = lanes[0].ctx.chip.num_cores
        active = list(lanes)
        for settle_round in range(self._max_settle_rounds):
            if stacked and len(active) > 1:
                k = len(active)
                freq = np.empty((k, n))
                activity = np.empty((k, n))
                powered = np.empty((k, n), dtype=bool)
                scale = np.empty((k, n))
                for j, lane in enumerate(active):
                    freq[j] = lane.state.freq_ghz
                    activity[j] = self._mean_activity_vector(lane.state)
                    powered[j] = lane.state.powered_on
                    scale[j] = lane.ctx.power_model.leakage_scale
                temps_rows, _ = solve_coupled_steady_state_batch(
                    active[0].ctx.network,
                    active[0].ctx.power_model,
                    freq,
                    activity,
                    powered,
                    leakage_scale=scale,
                )
                obs.inc("sim.batch_solves")
            else:
                # One settling lane solves alone: stacking one row buys
                # nothing, and a non-stock power model (always alone)
                # must run through its own evaluate().
                lane = active[0]
                temps_rows = [
                    solve_coupled_steady_state(
                        lane.ctx.network,
                        lane.ctx.power_model,
                        lane.state.freq_ghz,
                        self._mean_activity_vector(lane.state),
                        lane.state.powered_on,
                    )[0]
                ]
            still = []
            for lane, temps in zip(active, temps_rows):
                lane.temps = temps
                lane.worst_settle = np.maximum(
                    lane.worst_settle, np.minimum(temps, reaction_ceiling)
                )
                report = self.dtm.enforce(
                    lane.state, lane.ctx.read_temps(temps), lane.fmax_now
                )
                lane.migrations += report.migrations
                lane.throttles += report.throttles
                # Application arrivals recur all epoch long, so a
                # placement DTM had to undo is re-attempted repeatedly:
                # the vacated source core keeps hosting threads a
                # fraction of the time and ages accordingly (Section
                # II's migration penalty).
                for source, target in report.migrated_pairs:
                    thread = lane.state.threads[lane.state.assignment[target]]
                    lane.settle_duty[source] += (
                        cfg.settle_duty_fraction * thread.duty_cycle
                    )
                lane.settle_rounds = settle_round + 1
                if report.events != 0:
                    still.append(lane)
            active = still
            if not active:
                break
        for lane in lanes:
            obs.inc("sim.settle_rounds", lane.settle_rounds)

    # ------------------------------------------------------------------
    # the lockstep window
    # ------------------------------------------------------------------
    def _run_window(self, lanes, policy, obs) -> None:
        """Advance every lane through the window, one global step at a
        time.

        At a segment boundary a lane first admits its due departures
        and arrivals, then compiles its next segment.  Each global step
        advances each lane by exactly one backward-Euler step: quiet
        fused lanes share one stacked transient solve; a lane whose
        sensor readings trip the DTM band runs ``enforce`` on *its*
        breaking step (consuming the step) and recompiles from the
        next; a lane without a compilable segment runs the step-by-step
        body.
        """
        cfg = self.config
        dt = cfg.control_dt_s
        steps = cfg.steps_per_window
        n = lanes[0].ctx.chip.num_cores
        num_nodes = lanes[0].ctx.network.num_nodes
        base = lanes[0].ctx.network._entry.node_power_base
        integrator0 = lanes[0].integrator
        # Step times exactly as the step loop's `step * dt`
        # (int-to-float conversion is exact, the multiply is the same
        # IEEE op), so event-step comparisons match.
        times = np.arange(steps, dtype=float) * dt
        step_ends = times + dt

        for lane in lanes:
            lane.fire_steps = []
            if lane.fused and lane.arrivals is not None:
                # A step fires an event iff `t <= time < t + dt` with the
                # step loop's own floats; evaluating that predicate over
                # the whole step grid (rather than dividing) keeps the
                # fire steps exact even where `s*dt + dt != (s+1)*dt`.
                fire = set()
                for event in lane.arrivals.events:
                    hits = np.flatnonzero(
                        (times <= event.time_s) & (event.time_s < step_ends)
                    )
                    fire.update(int(s) for s in hits)
                lane.fire_steps = sorted(fire)

        leakage = lanes[0].ctx.power_model.leakage
        beta = leakage.beta_per_k
        fit_limit = leakage.fit_limit_k
        gated_w = leakage.gated_w
        tsafe = self.dtm.tsafe_k
        target_limit = self.dtm.target_limit_k

        fused_steps = 0
        segment_breaks = 0

        for step in range(steps):
            t = step * dt
            fused_now = []
            unfused_now = []
            for lane in lanes:
                if lane.segment is None:
                    if lane.arrivals is not None:
                        self._admit(lane, policy, t, dt)
                    if lane.fused:
                        self._compile(lane, times, step, steps, dt)
                (fused_now if lane.fused else unfused_now).append(lane)

            if fused_now:
                k = len(fused_now)
                stacked_temps = np.empty((num_nodes, k))
                stacked_power = np.empty((num_nodes, k))
                for j, lane in enumerate(fused_now):
                    stacked_temps[:, j] = lane.all_nodes
                    # LeakageModel.power_w's op order with constants
                    # hoisted: ((nominal * scale) * exp(beta * (min(T,
                    # limit) - ref))) on the lane's pre-step junction
                    # temperatures.
                    core_temps = lane.all_nodes[:n]
                    factor = np.exp(
                        beta
                        * (np.minimum(core_temps, fit_limit) - REFERENCE_TEMP_K)
                    )
                    leak = np.where(
                        lane.seg_powered, lane.nominal_scaled * factor, gated_w
                    )
                    stacked_power[:, j] = base
                    stacked_power[:n, j] = (
                        lane.segment.dyn_power_w[lane.seg_off] + leak
                    )
                new_temps = integrator0.step_batch(stacked_temps, stacked_power)
                obs.inc("sim.batch_solves")
                fused_steps += k
                for j, lane in enumerate(fused_now):
                    # Contiguous per-lane copy: downstream reductions
                    # (mean/max) must see the one-vector memory layout.
                    lane.all_nodes = np.ascontiguousarray(new_temps[:, j])
                    segment_breaks += self._post_fused_step(
                        lane, times, dt, tsafe, target_limit
                    )

            for lane in unfused_now:
                self._unfused_step(lane, t, dt)

        obs.inc("sim.fused_steps", fused_steps)
        if segment_breaks:
            obs.inc("sim.segment_breaks", segment_breaks)

    def _compile(self, lane, times, step: int, steps: int, dt: float) -> None:
        """Compile the lane's next segment from ``step``, capped at the
        chunk size, its next arrival step and its next departure step;
        an uncompilable trace drops the lane to the step-by-step body
        for the rest of the window."""
        seg_end = min(steps, step + SEGMENT_CHUNK_STEPS)
        nxt = bisect_right(lane.fire_steps, step)
        if nxt < len(lane.fire_steps):
            seg_end = min(seg_end, lane.fire_steps[nxt])
        if lane.pending:
            dep_step = int(np.searchsorted(times, lane.pending[0][0], side="left"))
            seg_end = min(seg_end, max(dep_step, step + 1))
        segment = compile_segment(
            lane.state, lane.ctx.power_model, times, step, seg_end, dt
        )
        if segment is None:
            lane.fused = False
        else:
            lane.segment = segment
            lane.seg_off = 0
            lane.seg_powered = lane.state.powered_view

    def _post_fused_step(self, lane, times, dt, tsafe, target_limit) -> int:
        """Per-lane bookkeeping after a fused step, with the step body's
        exact stats expressions.  Returns 1 when the lane's segment
        broke at this step."""
        segment = lane.segment
        stats = lane.stats
        core_temps = lane.all_nodes[: lane.ctx.chip.num_cores]
        readings = lane.ctx.read_temps(core_temps)
        stats.worst = np.maximum(stats.worst, core_temps)
        stats.temp_sum += float(core_temps.mean())
        stats.peak = max(stats.peak, float(core_temps.max()))
        stats.tsafe_violations += int((core_temps > tsafe).sum())
        trip = bool((readings[segment.busy] > tsafe).any())
        if not trip and segment.throttled_idx.size > 0:
            trip = bool((readings[segment.throttled_idx] < target_limit).any())
        if not trip:
            stats.duty_accum += segment.duty_step
            stats.ips_sum += segment.ips_total
            lane.seg_off += 1
            if lane.seg_off == segment.num_steps:
                lane.segment = None  # quiet completion; compile the next
            return 0
        done = lane.seg_off + 1  # the breaking step is consumed
        report = self.dtm.enforce(lane.state, readings, lane.fmax_now)
        lane.migrations += report.migrations
        lane.throttles += report.throttles
        if report.migrations and done < segment.num_steps:
            # The migration changed the core order the compile-time
            # phase draws beyond the break assumed; unwind them so the
            # next compile redraws in the new order (throttles leave the
            # order intact — nothing to unwind).
            rewind_unexecuted_draws(
                segment,
                times[segment.start_step : segment.start_step + done],
            )
        stats.duty_accum += lane.state.duty_vector() * dt
        stats.ips_sum += self._total_ips(lane.state)
        lane.segment = None
        return 1

    def _unfused_step(self, lane, t: float, dt: float) -> None:
        """The step-by-step window body on one lane."""
        state = lane.state
        stats = lane.stats
        integrator = lane.integrator
        activity = state.activity_vector(t)
        core_temps = integrator.core_temperatures(lane.all_nodes)
        breakdown = lane.ctx.power_model.evaluate(
            state.freq_ghz, activity, core_temps, state.powered_on
        )
        lane.all_nodes = integrator.step(lane.all_nodes, breakdown.total_w)
        core_temps = integrator.core_temperatures(lane.all_nodes)

        readings = lane.ctx.read_temps(core_temps)
        report = self.dtm.enforce(state, readings, lane.fmax_now)
        lane.migrations += report.migrations
        lane.throttles += report.throttles

        stats.worst = np.maximum(stats.worst, core_temps)
        stats.temp_sum += float(core_temps.mean())
        stats.peak = max(stats.peak, float(core_temps.max()))
        stats.tsafe_violations += int((core_temps > self.dtm.tsafe_k).sum())
        stats.duty_accum += state.duty_vector() * dt
        stats.ips_sum += self._total_ips(state)

    # ------------------------------------------------------------------
    # arrivals and departures
    # ------------------------------------------------------------------
    def _admit(self, lane, policy, t: float, dt: float) -> None:
        """Retire the lane's due departures, then place the arrivals due
        in ``[t, t + dt)``.  Departures within one step are independent
        (each thread holds at most one core), so pop order does not
        change the resulting state."""
        state = lane.state
        pending = lane.pending
        while pending and pending[0][0] <= t:
            _, _, indices = heapq.heappop(pending)
            self._depart(state, indices, lane.departed)
        for event in lane.arrivals.due(t, t + dt):
            indices = [state.add_thread(th) for th in event.application.threads]
            lane.arrived += len(indices)
            self._place_arrival(
                lane.ctx,
                policy,
                state,
                indices,
                lane.fmax_now,
                lane.integrator.core_temperatures(lane.all_nodes),
            )
            if np.isfinite(event.departure_s):
                heapq.heappush(
                    pending, (event.departure_s, lane.departure_seq, indices)
                )
                lane.departure_seq += 1

    def _place_arrival(
        self,
        ctx: ChipContext,
        policy,
        state: ChipState,
        thread_indices: list[int],
        fmax_now: np.ndarray,
        current_temps_k: np.ndarray,
    ) -> None:
        """Dispatch an arrival to the policy (fallback: first fit)."""
        place = getattr(policy, "place_arrival", None)
        if place is not None:
            place(
                ctx,
                state,
                thread_indices,
                self.config.epoch_years,
                current_temps_k=current_temps_k,
            )
            return
        for thread_index in thread_indices:
            thread = state.threads[thread_index]
            idle = state.powered_on & (state.assignment < 0)
            feasible = np.flatnonzero(idle & (fmax_now >= thread.fmin_ghz))
            if feasible.size == 0:
                feasible = np.flatnonzero(idle)
            if feasible.size == 0 and state.dcm.num_on < ctx.max_on_cores:
                # Wake a dark, unfenced core for the arrival.
                dark = np.flatnonzero(~state.powered_on & ~state.fenced)
                if dark.size:
                    wake = dark[fmax_now[dark] >= thread.fmin_ghz]
                    core = int(wake[0]) if wake.size else int(dark[0])
                    state.power_on(core)
                    feasible = np.array([core])
            if feasible.size == 0:
                continue  # no capacity; stays unscheduled (QoS)
            core = int(feasible[0])
            freq = min(thread.fmin_ghz, float(fmax_now[core]))
            state.place(thread_index, core, max(freq, 1e-3))

    @staticmethod
    def _mean_activity_vector(state: ChipState) -> np.ndarray:
        activity = np.zeros(state.num_cores)
        assignment = state.assignment
        for core in np.flatnonzero(assignment >= 0):
            activity[core] = state.threads[assignment[core]].mean_activity
        return activity

    @staticmethod
    def _total_ips(state: ChipState) -> float:
        total = 0.0
        assignment = state.assignment
        freq = state.freq_ghz
        for core in np.flatnonzero(assignment >= 0):
            total += state.threads[assignment[core]].ips_at(float(freq[core]))
        return total

    @staticmethod
    def _depart(
        state: ChipState, thread_indices: list[int], departed: set[int]
    ) -> None:
        """An application finished: free and gate its threads' cores.

        Only threads that actually held a core count as served; an
        arrival that never got mapped departs unserved and remains a
        QoS violation.
        """
        for thread_index in thread_indices:
            core = state.core_of_thread(thread_index)
            if core >= 0:
                state.unplace(core)
                state.power_off(core)
                departed.add(thread_index)

    @staticmethod
    def _qos_violations(
        state: ChipState, fmax_now: np.ndarray, departed: set[int] | None = None
    ) -> int:
        """Threads running below requirement at window end, plus
        threads that never got a core (departed threads completed their
        service and do not count)."""
        departed = departed or set()
        violations = 0
        assignment = state.assignment
        mapped = set()
        for core in np.flatnonzero(assignment >= 0):
            thread = state.threads[assignment[core]]
            mapped.add(int(assignment[core]))
            if state.freq_ghz[core] < thread.fmin_ghz - 1e-9:
                violations += 1
        violations += len(state.threads) - len(mapped) - len(departed - mapped)
        return violations
