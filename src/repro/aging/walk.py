"""Aging-table walk engine: the Algorithm 1 aging estimate.

Every candidate mapping Hayat scores (Algorithm 1) is aged by walking
the precomputed aging table: invert the current health to an
equivalent age at the candidate's (temperature, duty) cell, advance it
by one epoch, and read the new health back.  :class:`WalkEngine` does
that walk in the same IEEE op order as the reference
:meth:`repro.aging.tables.AgingTable.next_health`, so its results are
bit-identical, with three accelerations that change no bits:

1. **Shared count bounds** (:meth:`WalkEngine._shared_bounds`): the
   inverse lookup's bracket bounds depend only on the corner cell, the
   corner-weight positivity pattern and the health bits, so on large
   batches with heavily repeated healths they are computed once per
   group and gathered.

2. **Fused next-health shift** (:meth:`WalkEngine._located_shift`): the
   inverse walk reports, per element, the age-grid index its
   equivalent age landed on *exactly* (the common case: ~85% of
   campaign inverses resolve to grid points — pristine cores at age 0
   and edge-clamped dark cores).  For those elements the forward
   locate after ``age += epoch`` is a table lookup into a precomputed
   ``_axis_weights(grid, grid + epoch)`` pair instead of a fresh
   clip/searchsorted/divide: ``grid[k] + epoch`` is the *same IEEE
   sum* whether computed per element or once per grid point, so the
   gathered (index, fraction) pairs are bit-identical.

3. **Bracket warm-start** (:meth:`WalkEngine._walk_seeded`): the
   delta-candidate engine passes each lane's base-row crossing counts
   (:func:`walk_crossing_counts`) as guesses for its perturbed
   candidate rows; every seed is verified per element and relocated
   when stale (:meth:`AgingTable._ages_seeded`).

Non-monotone (synthetic) tables have no bracket structure to exploit
and fall back to :meth:`AgingTable.next_health` itself.

Observability: the engine times itself under ``aging.walk``, counts
every walked element as ``aging.walk_unique`` (the name predates the
removal of intra-batch deduplication and is kept for the readers of
that counter) and verified seeds as ``aging.walk_bracket_reuse``.
"""

from __future__ import annotations

import numpy as np

from repro.aging.tables import AgingTable, _axis_weights
from repro.obs import get_registry

__all__ = [
    "WalkEngine",
    "get_walk_engine",
    "walk_crossing_counts",
    "walk_next_health",
]


class WalkEngine:
    """Per-table walk engine; results bit-identical to
    :meth:`AgingTable.next_health`.

    Obtained via :func:`get_walk_engine`, which caches one engine on
    the table object (tables are process-lived and shared across
    epochs/chips).  The engine holds only derived state:
    :meth:`AgingTable.__getstate__` drops it from pickles, so campaign
    workers rebuild one lazily.
    """

    def __init__(self, table: AgingTable) -> None:
        # Only store the reference here — this may run while the table
        # itself is mid-unpickle (see AgingTable.__getstate__).
        self.table = table
        self._shift_cache: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def next_health(
        self, temp_k, duty, current_health, epoch_years, seed_counts=None
    ) -> np.ndarray:
        """Engine-routed :meth:`AgingTable.next_health`.

        Mirrors the table method's broadcasting and validation exactly;
        the returned array is bit-identical to the table's.

        ``seed_counts`` (same shape as the batch) warm-starts the
        inverse lookup with guessed age-bracket crossing counts — the
        delta-candidate engine passes each lane's base-row counts
        (:meth:`crossing_counts`).  Seeds are verified per element and
        change no bits (see :meth:`AgingTable._ages_seeded`).
        """
        if epoch_years < 0:
            raise ValueError("epoch_years must be non-negative")
        temp_b = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty_b = np.atleast_1d(np.asarray(duty, dtype=float))
        if temp_b.shape != duty_b.shape:
            temp_b, duty_b = np.broadcast_arrays(temp_b, duty_b)
        health = np.atleast_1d(np.asarray(current_health, dtype=float))
        if health.shape != temp_b.shape:
            health = np.broadcast_to(health, temp_b.shape)
        shape = temp_b.shape
        t = np.ascontiguousarray(temp_b, dtype=float).reshape(-1)
        d = np.ascontiguousarray(duty_b, dtype=float).reshape(-1)
        h = np.ascontiguousarray(health, dtype=float).reshape(-1)
        if t.size == 0:
            return np.empty(shape)
        obs = get_registry()
        with obs.timer("aging.walk"):
            obs.inc("aging.walk_unique", t.shape[0])
            if seed_counts is not None and self.table._age_monotone:
                seeds = np.asarray(seed_counts, dtype=np.intp)
                if seeds.size != t.size:
                    raise ValueError(
                        "seed_counts must match the batch element count"
                    )
                out = self._walk_seeded(
                    t, d, h, epoch_years, seeds.reshape(-1), obs
                )
            else:
                out = self._walk_core(t, d, h, epoch_years)
        return out.reshape(shape)

    def crossing_counts(self, temp_k, duty, current_health):
        """Age-bracket crossing counts of a base row, for seeding.

        Returns the exact per-element count
        :meth:`AgingTable._crossing_counts` computes for these inputs
        (shape preserved), or ``None`` for non-monotone tables, whose
        inverse has no count structure to seed.  The counts feed
        :meth:`next_health` ``seed_counts`` for candidate batches whose
        temperatures are small perturbations of this base row.
        """
        table = self.table
        if not table._age_monotone:
            return None
        temp_b = np.atleast_1d(np.asarray(temp_k, dtype=float))
        duty_b = np.atleast_1d(np.asarray(duty, dtype=float))
        if temp_b.shape != duty_b.shape:
            temp_b, duty_b = np.broadcast_arrays(temp_b, duty_b)
        health = np.atleast_1d(np.asarray(current_health, dtype=float))
        if health.shape != temp_b.shape:
            health = np.broadcast_to(health, temp_b.shape)
        shape = temp_b.shape
        t = np.ascontiguousarray(temp_b, dtype=float).reshape(-1)
        d = np.ascontiguousarray(duty_b, dtype=float).reshape(-1)
        h = np.ascontiguousarray(health, dtype=float).reshape(-1)
        if t.size == 0:
            return np.empty(shape, dtype=np.intp)
        it, ft = _axis_weights(table.temp_grid_k, t, table._temp_spans)
        idx_d, fd = _axis_weights(table.duty_grid, d, table._duty_spans)
        weights = table._corner_weights(ft, fd)
        rows, bases = table._corner_rows(it, idx_d)
        count = table._crossing_counts(h, weights, rows, bases)
        return count.reshape(shape)

    def _walk_seeded(self, t, d, h, epoch_years, seeds, obs) -> np.ndarray:
        """The walk warm-started from guessed crossing counts.

        Structurally :meth:`_walk_core` with the inverse lookup replaced
        by the verify-or-relocate seeded form — bit-identical for any
        seeds (:meth:`AgingTable._ages_seeded`).  Skips the shared-bound
        hoist (the seeded path never computes batch-wide bounds) and
        counts verified seeds as ``aging.walk_bracket_reuse``.
        """
        table = self.table
        n = t.shape[0]
        it, ft = _axis_weights(table.temp_grid_k, t, table._temp_spans)
        idx_d, fd = _axis_weights(table.duty_grid, d, table._duty_spans)
        weights = table._corner_weights(ft, fd)
        rows, bases = table._corner_rows(it, idx_d)
        grid_index = np.empty(n, dtype=np.intp)
        ages, reused = table._ages_seeded(
            it, ft, idx_d, fd, h, weights, rows, bases, seeds, grid_index
        )
        if reused:
            obs.inc("aging.walk_bracket_reuse", reused)
        ages += epoch_years
        iy, fy = self._located_shift(ages, grid_index, epoch_years)
        new_health = table._health_located(
            it, ft, idx_d, fd, iy, fy, weights, bases[0]
        )
        return np.minimum(new_health, h)

    def _walk_core(self, t, d, h, epoch_years) -> np.ndarray:
        """One inverse+forward walk over flat arrays.

        Textually mirrors :meth:`AgingTable.next_health` (locate (T, d)
        once, invert, advance, read, clamp) with two engine-only
        accelerations that change no bits: count bounds shared across
        (cell, weight-positivity, health) groups
        (:meth:`_shared_bounds`) and the fused age-axis locate for
        on-grid inverse ages (:meth:`_located_shift`).
        """
        table = self.table
        if not table._age_monotone:
            # Synthetic non-monotone tables use the exhaustive reference
            # inverse; nothing here to fuse.
            return table.next_health(t, d, h, epoch_years)
        it, ft = _axis_weights(table.temp_grid_k, t, table._temp_spans)
        idx_d, fd = _axis_weights(table.duty_grid, d, table._duty_spans)
        weights = table._corner_weights(ft, fd)
        rows, bases = table._corner_rows(it, idx_d)
        bounds = self._shared_bounds(rows, weights, h)
        grid_index = np.empty(t.shape[0], dtype=np.intp)
        ages = table._ages_located(
            it, ft, idx_d, fd, h, weights, rows, bases,
            bounds=bounds, grid_index=grid_index,
        )
        ages += epoch_years
        iy, fy = self._located_shift(ages, grid_index, epoch_years)
        new_health = table._health_located(
            it, ft, idx_d, fd, iy, fy, weights, bases[0]
        )
        return np.minimum(new_health, h)

    def _shared_bounds(self, rows, weights, h):
        """Count bounds computed once per (cell, positivity, health) group.

        The bounds of :meth:`AgingTable._count_bounds` are an exact
        function of the corner row set (determined by ``rows[0]``), the
        *actual* positivity pattern of the four corner weights, and the
        health bits — note positivity of the weight products themselves,
        not of the (ft, fd) factors: ``(1-ft)*(1-fd)`` can underflow to
        exactly 0.0 with both factors positive, and the bounds must see
        the same zero-weight exclusions the blend sees.  Grouping by
        that triple and gathering the representatives' bounds therefore
        reproduces every element's integers exactly.  Worth it only
        when health values repeat heavily (campaign batches: a few
        hundred distinct healths across ~13k elements), so it bails to
        per-element bounds otherwise.

        The size gate reflects the measured crossover: the two keying
        sorts cost ~O(n log n) up front, while the per-element
        ``_count_bounds`` they displace is a handful of vectorized
        searchsorted/reduction passes — cheap until the batch is large.
        On campaign-shaped batches the hoist only pays for itself from
        a few thousand elements up (cross-lane batched decisions);
        per-chip decision batches (~0.1-2k) lose ~100us per call to it.
        """
        n = h.shape[0]
        if n < 3072:
            return None
        uh, h_ids = np.unique(h.view(np.uint64), return_inverse=True)
        if uh.size > n >> 3:
            return None
        wpos = weights > 0.0
        pose = (
            wpos[0].astype(np.intp)
            | (wpos[1].astype(np.intp) << 1)
            | (wpos[2].astype(np.intp) << 2)
            | (wpos[3].astype(np.intp) << 3)
        )
        cell_pos = (rows[0] << 4) | pose
        key = cell_pos * uh.size + h_ids
        ukey, rep, inv = np.unique(key, return_index=True, return_inverse=True)
        if ukey.size > n >> 1:
            return None
        lo_b, hi_b, floor = self.table._count_bounds(
            rows[:, rep], wpos[:, rep], h[rep]
        )
        return lo_b[inv], hi_b[inv], floor[inv]

    def _located_shift(self, ages, grid_index, epoch_years):
        """Locate ``ages`` on the age axis, reusing on-grid positions.

        ``grid_index[i] == k`` certifies the *pre-shift* inverse age was
        exactly ``grid[k]`` (or exactly 0.0 for the ``n_y`` sentinel),
        so the shifted age equals ``grid[k] + epoch`` — the identical
        IEEE sum whether formed per element or once per grid slot.
        Locating the precomputed ``grid + epoch`` vector once and
        gathering therefore returns bit-identical (index, fraction)
        pairs; off-grid interpolants (``-1``) run through
        ``_axis_weights`` on their subset, elementwise as always.
        """
        table = self.table
        n = ages.shape[0]
        on_grid = grid_index >= 0
        n_on = int(np.count_nonzero(on_grid))
        if n_on * 2 < n:
            return _axis_weights(table.age_grid_years, ages, table._age_spans)
        key = float(epoch_years).hex()
        pair = self._shift_cache.get(key)
        if pair is None:
            if len(self._shift_cache) >= 64:
                self._shift_cache.clear()
            # Slot n_y holds the zero-age clamp (0.0 + epoch), which the
            # age grid itself need not contain.
            shifted = np.append(table.age_grid_years, 0.0) + epoch_years
            pair = _axis_weights(table.age_grid_years, shifted, table._age_spans)
            self._shift_cache[key] = pair
        iy_all, fy_all = pair
        iy = np.empty(n, dtype=np.intp)
        fy = np.empty(n)
        gi = grid_index[on_grid]
        iy[on_grid] = iy_all[gi]
        fy[on_grid] = fy_all[gi]
        off = ~on_grid
        if n_on < n:
            iy_o, fy_o = _axis_weights(
                table.age_grid_years, ages[off], table._age_spans
            )
            iy[off] = iy_o
            fy[off] = fy_o
        return iy, fy


def get_walk_engine(table: AgingTable) -> WalkEngine:
    """The table's cached engine, created lazily on first use."""
    engine = getattr(table, "_walk_engine", None)
    if engine is None:
        engine = WalkEngine(table)
        table._walk_engine = engine
    return engine


def walk_next_health(
    table, temp_k, duty, current_health, epoch_years, seed_counts=None
) -> np.ndarray:
    """:meth:`AgingTable.next_health` routed through the walk engine.

    The single entry point the estimation layers call.  ``seed_counts``
    (from :func:`walk_crossing_counts`) warm-starts the inverse lookup;
    it is verified per element and changes no bits.
    """
    return get_walk_engine(table).next_health(
        temp_k, duty, current_health, epoch_years, seed_counts=seed_counts
    )


def walk_crossing_counts(table, temp_k, duty, current_health):
    """Base-row age-bracket crossing counts for seeding later walks.

    Returns ``None`` when the table is non-monotone — callers simply
    skip seeding then.  The counts are exact for these inputs; a
    candidate whose temperature perturbation moves its bracket is
    detected and relocated during the seeded walk, so stale counts cost
    a fallback, never a wrong answer.
    """
    return get_walk_engine(table).crossing_counts(temp_k, duty, current_health)
