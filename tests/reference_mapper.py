"""Sequential Algorithm 1: the test-only reference mapper.

One thread at a time, one chip at a time: the plain loop the lockstep
mapper (:mod:`repro.core.mapper_batch`) must reproduce bit for bit.
``reference_map_threads(mapper, ...)`` takes a
:class:`~repro.core.mapper.HayatMapper` for its estimator, weighting,
thermal constraint, strictness and communication settings, and places
exactly as ``mapper.map_threads(...)`` is required to.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.core.delta_eval import DeltaEvaluator, current_delta_options
from repro.core.estimation import OnlineHealthEstimator
from repro.core.mapper import HayatMapper, MappingError
from repro.mapping.state import ChipState
from repro.obs import get_registry
from repro.thermal.predictor import ThermalPredictor


def reference_map_threads(
    mapper: HayatMapper,
    state: ChipState,
    fmax_now_ghz: np.ndarray,
    health_now: np.ndarray,
    epoch_years: float,
    elapsed_years: float,
    initial_temps_k: np.ndarray | None = None,
) -> list[int]:
    """Place every unplaced thread of ``state.threads`` sequentially;
    returns the indices that could not be placed."""
    n = state.num_cores
    fmax_now_ghz = np.asarray(fmax_now_ghz, dtype=float)
    health_now = np.asarray(health_now, dtype=float)
    if fmax_now_ghz.shape != (n,) or health_now.shape != (n,):
        raise ValueError("fmax_now_ghz and health_now must be per-core vectors")

    if initial_temps_k is None:
        temps = np.full(n, mapper.estimator.predictor.ambient_k)
    else:
        temps = np.asarray(initial_temps_k, dtype=float).copy()

    # Running per-core vectors of the partially-built mapping,
    # seeded from whatever is already placed (incremental use).
    freq = state.freq_ghz
    activity = np.zeros(n)
    assignment = state.assignment_view
    for core in np.flatnonzero(assignment >= 0):
        activity[core] = state.threads[assignment[core]].mean_activity
    duties = state.duty_vector()
    powered = state.powered_view

    order = sorted(
        range(len(state.threads)),
        key=lambda i: state.threads[i].fmin_ghz,
        reverse=True,
    )
    unmapped: list[int] = []
    comm = mapper._comm_state(state) if mapper.comm_weight > 0 else None

    # Delta-candidate engagement: requires plain predictor/estimator
    # semantics (subclasses fall back to the dense path they
    # define) and the process/context option.  The evaluator solves
    # the incumbent placement once per round and reconstructs each
    # candidate's temperatures from its rank-1 power change; the
    # base row's crossing counts seed the aging-table walk.
    opts = current_delta_options()
    evaluator = (
        DeltaEvaluator(mapper.estimator.predictor)
        if opts.enabled
        and type(mapper.estimator) is OnlineHealthEstimator
        and type(mapper.estimator.predictor) is ThermalPredictor
        else None
    )
    obs = get_registry()

    # Candidate matrices are built in preallocated (n, n) buffers —
    # each thread's batch fills the leading rows instead of cutting
    # three fresh broadcast copies (values are identical; only the
    # storage is reused).  The delta path only ever builds the duty
    # matrix (the walk needs it); candidate frequency/activity
    # matrices exist solely to feed the dense predictor.
    freq_buf = np.empty((n, n))
    act_buf = np.empty((n, n))
    duty_buf = np.empty((n, n))
    all_rows = np.arange(n)
    seed_base = None  # walk seeds, computed on the first delta round

    for thread_index in order:
        if state.core_of_thread(thread_index) >= 0:
            continue  # already placed (incremental/mid-epoch use)
        thread = state.threads[thread_index]
        idle = powered & (assignment < 0)
        feasible = idle & (fmax_now_ghz >= thread.fmin_ghz)
        candidates = np.flatnonzero(feasible)
        if candidates.size == 0:
            if mapper.strict:
                raise MappingError(
                    f"no feasible core for {thread.thread_id} "
                    f"(fmin {thread.fmin_ghz:.2f} GHz)"
                )
            unmapped.append(thread_index)
            continue

        batch = candidates.size
        duty_b = duty_buf[:batch]
        duty_b[:] = duties
        rows = all_rows[:batch]
        duty_b[rows, candidates] = thread.duty_cycle

        # Cost gate: the delta path's per-round base solve only pays
        # for itself when the dense work it replaces (batch x n) is
        # large enough; small rounds stay on the dense kernels.
        if evaluator is not None and batch * n >= opts.min_dense_rows:
            with obs.timer("sim.delta_eval"):
                base = evaluator.solve_base(
                    freq, activity, powered, temps
                )
                dynamic = mapper.estimator.predictor.power_model.dynamic
                new_dyn = dynamic.power_w(thread.fmin_ghz, thread.mean_activity)
                temps_b = evaluator.candidate_temps(
                    base,
                    np.zeros(batch, dtype=np.intp),
                    candidates,
                    np.full(batch, new_dyn),
                )
                if seed_base is None:
                    # Computed once per mapping pass: seeds are
                    # verified per element, so the later rounds'
                    # slightly stale counts cost a few relocations,
                    # not correctness (health_now never changes
                    # within a pass and temperatures drift slowly).
                    seed_base = mapper.estimator.seed_crossing_counts(
                        base.final[0], duties, health_now
                    )
            obs.inc("sim.delta_rounds")
        else:
            freq_b = freq_buf[:batch]
            act_b = act_buf[:batch]
            freq_b[:] = freq
            act_b[:] = activity
            freq_b[rows, candidates] = thread.fmin_ghz
            act_b[rows, candidates] = thread.mean_activity
            on_b = np.broadcast_to(powered, (batch, n))
            temps_b = mapper.estimator.predict_temperature_batch(
                freq_b, act_b, on_b, current_temps_k=temps
            )
        tmax = temps_b.max(axis=1)
        thermally_ok = tmax <= mapper.tsafe_k
        if thermally_ok.all():
            # Common case: nothing to discard, so skip the fancy-
            # indexed row copies (same rows, same values).
            keep = all_rows[:batch]
            temps_keep, duty_keep = temps_b, duty_b
        elif thermally_ok.any():
            keep = np.flatnonzero(thermally_ok)
            temps_keep, duty_keep = temps_b[keep], duty_b[keep]
        else:
            # Every placement overshoots; take the least-bad one and
            # let DTM handle the consequences (the paper's naive-
            # optimization fallback).
            keep = np.array([int(np.argmin(tmax))])
            temps_keep, duty_keep = temps_b[keep], duty_b[keep]

        seeds_keep = (
            np.broadcast_to(seed_base, (len(keep), n))
            if seed_base is not None
            else None
        )
        health_b = mapper.estimator.estimate_next_health(
            temps_keep, duty_keep, health_now, epoch_years,
            seed_counts=seeds_keep,
        )
        kept_cores = candidates[keep]
        h_candidate_next = health_b[all_rows[: len(keep)], kept_cores]
        weights = mapper.weighting.weight(
            fmax_now_ghz[kept_cores],
            thread.fmin_ghz,
            h_candidate_next,
            health_now[kept_cores],
            elapsed_years,
        )
        weights = weights + mapper.chip_health_coeff * n * health_b.mean(axis=1)
        if mapper.comm_weight > 0:
            weights = weights - mapper.comm_weight * mapper._comm_penalty(
                state, thread, kept_cores, comm=comm
            )

        winner = int(np.argmax(weights))
        core = int(kept_cores[winner])
        state.place(thread_index, core, thread.fmin_ghz)

        freq[core] = thread.fmin_ghz
        activity[core] = thread.mean_activity
        duties[core] = thread.duty_cycle
        temps = temps_b[keep[winner]]
        if comm is not None:
            insort(comm.setdefault(thread.app_name, []), core)

    return unmapped
