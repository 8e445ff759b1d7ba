"""The Algorithm 1 placement loop, in lockstep over any number of lanes.

A *lane* is one chip's mapping problem.  Each *round* takes every
lane's next placeable thread (stiffest frequency requirement first),
stacks the per-candidate matrices of all lanes into one
``(sum_lane_candidates, num_cores)`` block, and runs a single stacked
temperature prediction, a single flattened aging-table walk and one
Eq. 9 sweep.  :meth:`repro.core.mapper.HayatMapper.map_threads` is a
one-lane pass; :func:`map_threads_batch` maps a whole chip batch.

A lane's placements never depend on the lanes it shares a group with:

* Every stacked kernel is row-independent — elementwise power and
  leakage math, a BLAS matmul partitioned over rows (never the shared
  reduction axis), and a per-element table walk.  Per-lane divergence
  (warm-start temperatures, process-variation leakage scale, current
  health) rides in as extra per-row inputs (``initial_temps_k``/
  ``leakage_scale`` matrices, :meth:`~repro.core.estimation.
  OnlineHealthEstimator.estimate_next_health_rows`).
* Control flow stays per lane: feasibility filtering, the
  all-overshoot least-bad fallback, Eq. 9 + Eq. 6 scoring, the
  communication penalty, and the carried-forward temperature estimate.
* Lanes diverge freely: different thread counts just finish in
  different rounds, and threads with no feasible core are recorded
  unmapped.  A lane that cannot share the stacked kernels —
  mismatched table/predictor parameters, or a ``strict`` mapper whose
  :class:`MappingError` must not leave sibling lanes half-mapped — runs
  as its own one-lane group (see :func:`unstackable_reason`).

Observability: ``sim.decision_batched_lanes`` counts lanes that mapped
in a group of two or more.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.weighting import WeightingFunction
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor

if TYPE_CHECKING:
    from repro.core.mapper import HayatMapper

__all__ = [
    "MapperLane",
    "MappingError",
    "map_threads_batch",
    "unstackable_reason",
]


class MappingError(RuntimeError):
    """No feasible placement exists for some thread."""


@dataclass
class MapperLane:
    """One chip's inputs to a lockstep mapping pass.

    Mirrors the argument list of :meth:`HayatMapper.map_threads`
    (``epoch_years`` is shared by the whole batch and passed to
    :func:`map_threads_batch` instead).
    """

    mapper: HayatMapper
    state: ChipState
    fmax_now_ghz: np.ndarray
    health_now: np.ndarray
    elapsed_years: float
    initial_temps_k: np.ndarray | None = None


def unstackable_reason(lane: MapperLane, ref: MapperLane) -> str | None:
    """Why ``lane`` cannot share ``ref``'s stacked kernels (or None).

    The stacked calls run through the *reference* lane's estimator, so
    everything that estimator bakes in — aging table, duty assumption,
    influence kernel, baseline, leakage-correction depth, power-model
    parameters — must match.  Per-chip leakage scale, warm-start
    temperatures and health explicitly do *not* need to match: they are
    threaded through as per-row inputs.
    """
    m, m0 = lane.mapper, ref.mapper
    if m.strict:
        # A strict lane may raise MappingError mid-round; running it
        # alone keeps a raise from leaving sibling lanes half-mapped.
        return "strict mapper"
    if lane.state.num_cores != ref.state.num_cores:
        return "mixed core counts"
    e, e0 = m.estimator, m0.estimator
    if e.table is not e0.table:
        return "distinct aging tables"
    if e.duty_assumption is not e0.duty_assumption:
        return "mixed duty assumptions"
    p, p0 = e.predictor, e0.predictor
    if p.leakage_iterations != p0.leakage_iterations:
        return "mixed leakage-correction depths"
    if p.influence is not p0.influence and not np.array_equal(
        p.influence, p0.influence
    ):
        return "mixed influence kernels"
    if not np.array_equal(p.baseline_k, p0.baseline_k):
        return "mixed thermal baselines"
    d, d0 = p.power_model.dynamic, p0.power_model.dynamic
    if (d.ceff_nf, d.vdd) != (d0.ceff_nf, d0.vdd):
        return "mixed dynamic-power parameters"
    a, b = p.power_model.leakage, p0.power_model.leakage
    if (a.nominal_w, a.gated_w, a.beta_per_k, a.fit_limit_k) != (
        b.nominal_w, b.gated_w, b.beta_per_k, b.fit_limit_k
    ):
        return "mixed leakage parameters"
    return None


class _LaneRun:
    """Mutable per-lane mapping state threaded through the rounds.

    The constructor is the mapping pass's preamble: argument
    validation, warm-start temperatures, the running frequency/activity/
    duty vectors seeded from already-placed threads, the stiffest-first
    order, and the incremental sibling map.
    """

    __slots__ = (
        "mapper", "state", "n", "fmax", "health_now", "elapsed",
        "temps", "freq", "activity", "duties", "powered", "assignment",
        "order", "pos", "comm", "unmapped", "leak_scale",
        "thread_index", "thread", "candidates", "seed_counts",
    )

    def __init__(self, lane: MapperLane):
        mapper = lane.mapper
        state = lane.state
        n = state.num_cores
        fmax = np.asarray(lane.fmax_now_ghz, dtype=float)
        health_now = np.asarray(lane.health_now, dtype=float)
        if fmax.shape != (n,) or health_now.shape != (n,):
            raise ValueError(
                "fmax_now_ghz and health_now must be per-core vectors"
            )
        if lane.initial_temps_k is None:
            temps = np.full(n, mapper.estimator.predictor.ambient_k)
        else:
            temps = np.asarray(lane.initial_temps_k, dtype=float).copy()

        self.mapper = mapper
        self.state = state
        self.n = n
        self.fmax = fmax
        self.health_now = health_now
        self.elapsed = lane.elapsed_years
        self.temps = temps
        self.freq = state.freq_ghz
        self.activity = np.zeros(n)
        self.assignment = state.assignment_view
        for core in np.flatnonzero(self.assignment >= 0):
            self.activity[core] = state.threads[
                self.assignment[core]
            ].mean_activity
        self.duties = state.duty_vector()
        self.powered = state.powered_view
        self.order = sorted(
            range(len(state.threads)),
            key=lambda i: state.threads[i].fmin_ghz,
            reverse=True,
        )
        self.pos = 0
        self.comm = (
            mapper._comm_state(state) if mapper.comm_weight > 0 else None
        )
        self.unmapped: list[int] = []
        self.leak_scale = mapper.estimator.predictor.power_model.leakage_scale
        self.seed_counts: np.ndarray | None = None

    def next_request(self) -> bool:
        """Advance to this lane's next placeable thread.

        Skips already-placed threads and records infeasible ones as
        unmapped; a strict lane raises :class:`MappingError` instead.
        Returns False once the lane's order is exhausted.
        """
        state = self.state
        while self.pos < len(self.order):
            thread_index = self.order[self.pos]
            self.pos += 1
            if state.core_of_thread(thread_index) >= 0:
                continue  # already placed (incremental/mid-epoch use)
            thread = state.threads[thread_index]
            idle = self.powered & (self.assignment < 0)
            feasible = idle & (self.fmax >= thread.fmin_ghz)
            candidates = np.flatnonzero(feasible)
            if candidates.size == 0:
                if self.mapper.strict:
                    raise MappingError(
                        f"no feasible core for {thread.thread_id} "
                        f"(fmin {thread.fmin_ghz:.2f} GHz)"
                    )
                self.unmapped.append(thread_index)
                continue
            self.thread_index = thread_index
            self.thread = thread
            self.candidates = candidates
            return True
        return False


def map_threads_batch(
    lanes: list[MapperLane], epoch_years: float
) -> list[list[int]]:
    """Map every lane's threads; returns each lane's unmapped indices.

    Every lane that can share the first non-strict lane's stacked
    kernels maps in one lockstep group; each other lane runs as its own
    one-lane group.  ``results[i]`` — and every placement and frequency
    written into ``lanes[i].state`` — is what ``lanes[i].mapper.
    map_threads(...)`` would produce.
    """
    lanes = list(lanes)
    group: list[int] = []
    alone: list[int] = []
    ref: MapperLane | None = None
    for i, lane in enumerate(lanes):
        if ref is None and not lane.mapper.strict:
            ref = lane
            group.append(i)
        elif ref is not None and unstackable_reason(lane, ref) is None:
            group.append(i)
        else:
            alone.append(i)

    if len(group) >= 2:
        get_registry().inc("sim.decision_batched_lanes", len(group))
    results: list[list[int]] = [[] for _ in lanes]
    for members in ([group] if group else []) + [[i] for i in alone]:
        runs = [_LaneRun(lanes[i]) for i in members]
        _map_group(runs, epoch_years)
        for i, run in zip(members, runs):
            results[i] = run.unmapped
    return results


def _map_group(runs: list[_LaneRun], epoch_years: float) -> None:
    """One lockstep pass over a compatible group of lane runs."""
    n = runs[0].n
    est0 = runs[0].mapper.estimator
    predictor0 = est0.predictor
    # Delta-candidate engagement requires plain predictor/estimator
    # semantics (subclasses keep the dense path they define; the group
    # already shares est0/predictor0 through unstackable_reason).  The
    # evaluator solves the incumbent placement once per round and
    # reconstructs each candidate's temperatures from its rank-1 power
    # change; the base row's crossing counts seed the aging-table walk.
    opts = current_delta_options()
    evaluator = (
        DeltaEvaluator(predictor0)
        if opts.enabled
        and type(est0) is OnlineHealthEstimator
        and type(predictor0) is ThermalPredictor
        else None
    )
    obs = get_registry()
    dynamic = predictor0.power_model.dynamic
    # Eq. 9 can be scored in one cross-lane sweep only when every lane
    # runs the stock weighting; a subclass keeps the per-lane call so
    # its override is honoured.
    batched_scoring = all(
        type(run.mapper.weighting) is WeightingFunction for run in runs
    )

    active = runs
    stacked_for: list[_LaneRun] | None = None
    while True:
        active = [run for run in active if run.next_request()]
        if not active:
            return

        if active != stacked_for:
            # (Re)build the persistent per-lane stacks.  Lanes only
            # ever leave the group, so this runs once per composition;
            # the commit loop below keeps the stacks in sync with each
            # lane's running vectors between rebuilds.
            lane_idx = np.arange(len(active))
            freq_l = np.array([run.freq for run in active])
            act_l = np.array([run.activity for run in active])
            on_l = np.array([run.powered for run in active])
            scale_l = np.array(
                [
                    np.broadcast_to(
                        np.asarray(run.leak_scale, dtype=float), (n,)
                    )
                    for run in active
                ]
            )
            duties_l = np.array([run.duties for run in active])
            health_l = np.array([run.health_now for run in active])
            temps_l = np.array([run.temps for run in active])
            fmax_l = np.array([run.fmax for run in active])
            tsafe_l = np.array([run.mapper.tsafe_k for run in active])
            if batched_scoring:
                # One row of Eq. 9 scalars per lane: (alpha, beta, wmax,
                # chip-health coefficient).
                score_l = np.array(
                    [
                        (
                            *run.mapper.weighting.config.coefficients(
                                run.elapsed
                            ),
                            run.mapper.weighting.config.wmax,
                            run.mapper.chip_health_coeff * n,
                        )
                        for run in active
                    ]
                )
            stacked_for = active

        # Stack every lane's candidate rows into one block.  Each
        # lane's rows carry its own running vectors plus the one-thread
        # delta — exactly the matrices its solo call would build,
        # assembled by gathers from the persistent lane stacks instead
        # of per-lane fills.  The delta path stacks only the duty
        # matrix (the walk needs it) plus one base row per lane; the
        # dense path stacks the full candidate matrices.
        counts = np.array([run.candidates.size for run in active])
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        row_lane = np.repeat(lane_idx, counts)
        rows = np.arange(total)
        cand_cols = np.concatenate([run.candidates for run in active])
        fmin_vec, mact_vec, duty_vec = np.array(
            [
                (run.thread.fmin_ghz, run.thread.mean_activity,
                 run.thread.duty_cycle)
                for run in active
            ]
        ).T
        duty_all = duties_l[row_lane]
        duty_all[rows, cand_cols] = duty_vec[row_lane]

        seed_lanes = None
        # Cost gate: the stacked base solve pays for itself only when
        # the dense work it replaces (total candidate rows x n) is large
        # enough; small rounds stay on the dense kernels.
        if evaluator is not None and total * n >= opts.min_dense_rows:
            with obs.timer("sim.delta_eval"):
                new_dyn = dynamic.power_w(fmin_vec, mact_vec)[row_lane]
                base = evaluator.solve_base(
                    freq_l, act_l, on_l, temps_l, leakage_scale=scale_l
                )
                temps_all = evaluator.candidate_temps(
                    base, row_lane, cand_cols, new_dyn
                )
                # Walk seeds are computed once per lane (first round)
                # and reused: `_ages_seeded` verifies every element, so
                # a stale count costs a relocation, not correctness.
                missing = [
                    li
                    for li, run in enumerate(active)
                    if run.seed_counts is None
                ]
                fresh = (
                    est0.seed_crossing_counts(
                        base.final[missing],
                        duties_l[missing],
                        health_l[missing],
                    )
                    if missing
                    else None
                )
                if missing and fresh is None:
                    seed_lanes = None  # non-monotone table: no seeds
                else:
                    if missing:
                        for row, li in enumerate(missing):
                            active[li].seed_counts = fresh[row]
                    seed_lanes = np.array(
                        [run.seed_counts for run in active]
                    )
            obs.inc("sim.delta_rounds")
        else:
            freq_all = freq_l[row_lane]
            act_all = act_l[row_lane]
            freq_all[rows, cand_cols] = fmin_vec[row_lane]
            act_all[rows, cand_cols] = mact_vec[row_lane]

            temps_all = predictor0.predict_batch(
                freq_all,
                act_all,
                on_l[row_lane],
                initial_temps_k=temps_l[row_lane],
                leakage_scale=scale_l[row_lane],
            )

        # Per-lane feasibility keep, then one stacked health walk over
        # the surviving rows (each row carrying its lane's health).
        tmax_all = temps_all.max(axis=1)
        ok_all = tmax_all <= tsafe_l[row_lane]
        if ok_all.all():
            # Common case: nothing to discard, so skip the fancy-indexed
            # row copies (same rows, same values).
            keep_global = rows
            kept_lane, kept_counts, kept_offsets = row_lane, counts, offsets
            temps_kept, duty_kept = temps_all, duty_all
        else:
            keep_parts: list[np.ndarray] = []
            for off, batch in zip(offsets, counts):
                thermally_ok = ok_all[off : off + batch]
                if thermally_ok.any():
                    keep_parts.append(off + np.flatnonzero(thermally_ok))
                else:
                    # Every placement overshoots; take the least-bad one
                    # and let DTM handle the consequences (the paper's
                    # naive-optimization fallback).
                    keep_parts.append(
                        [off + int(np.argmin(tmax_all[off : off + batch]))]
                    )
            keep_global = np.concatenate(keep_parts)
            kept_counts = np.array([len(part) for part in keep_parts])
            kept_lane = np.repeat(lane_idx, kept_counts)
            kept_offsets = np.cumsum(kept_counts) - kept_counts
            temps_kept = temps_all[keep_global]
            duty_kept = duty_all[keep_global]
        health_rows = health_l[kept_lane]
        seed_rows = seed_lanes[kept_lane] if seed_lanes is not None else None

        health_all = est0.estimate_next_health_rows(
            temps_kept, duty_kept, health_rows, epoch_years,
            seed_counts=seed_rows,
        )

        # Eq. 9 over all kept rows in one sweep: per-lane scalars
        # (alpha, beta, wmax, required frequency) ride in as per-row
        # gathers, so every element sees exactly the operands its
        # per-lane call saw and the sweep stays bit-identical.
        kept_cores_all = cand_cols[keep_global]
        if batched_scoring:
            ktotal = keep_global.size
            h_next = health_all[np.arange(ktotal), kept_cores_all]
            h_now = health_l[kept_lane, kept_cores_all]
            alpha, beta, wmax, coeff = score_l[kept_lane].T
            gap = fmax_l[kept_lane, kept_cores_all] - fmin_vec[kept_lane]
            raw = np.full(ktotal, np.inf)
            np.divide(alpha, np.maximum(gap, 1e-12), out=raw, where=gap > 0)
            # Nonpositive health raises per lane in the commit loop
            # below (as WeightingFunction.weight raises); silence the
            # sweep's speculative divide for that pathological case.
            with np.errstate(divide="ignore", invalid="ignore"):
                weights_all = (
                    np.minimum(wmax, raw)
                    + beta * h_next / h_now
                    + coeff * health_all.mean(axis=1)
                )

        # The winner commit and the carried-forward running vectors
        # stay per lane and mirror every write into the persistent lane
        # stacks.
        for li, (run, koff) in enumerate(zip(active, kept_offsets)):
            mapper = run.mapper
            thread = run.thread
            k = int(kept_counts[li])
            kept_cores = kept_cores_all[koff : koff + k]
            if batched_scoring:
                if (health_l[li, kept_cores] <= 0).any():
                    raise ValueError("current health must be positive")
                weights = weights_all[koff : koff + k]
            else:
                health_b = health_all[koff : koff + k]
                h_candidate_next = health_b[np.arange(k), kept_cores]
                weights = mapper.weighting.weight(
                    run.fmax[kept_cores],
                    thread.fmin_ghz,
                    h_candidate_next,
                    run.health_now[kept_cores],
                    run.elapsed,
                )
                weights = weights + mapper.chip_health_coeff * n * (
                    health_b.mean(axis=1)
                )
            if mapper.comm_weight > 0:
                weights = weights - mapper.comm_weight * mapper._comm_penalty(
                    run.state, thread, kept_cores, comm=run.comm
                )

            winner = int(np.argmax(weights))
            core = int(kept_cores[winner])
            run.state.place(run.thread_index, core, thread.fmin_ghz)

            run.freq[core] = thread.fmin_ghz
            run.activity[core] = thread.mean_activity
            run.duties[core] = thread.duty_cycle
            run.temps = temps_all[keep_global[koff + winner]]
            freq_l[li, core] = thread.fmin_ghz
            act_l[li, core] = thread.mean_activity
            duties_l[li, core] = thread.duty_cycle
            temps_l[li] = run.temps
            if run.comm is not None:
                insort(run.comm.setdefault(thread.app_name, []), core)
