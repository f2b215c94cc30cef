"""Cross-stage element-pair similarity memoization.

The paper's computation-reuse idea (Section 5.2) carries exact
similarities from the check filter into the NN filter -- but only
within a single candidate of a single pass.  This module extends the
reuse across the two stages that evaluate ``phi_alpha`` on element
pairs one by one -- candidate selection and verification -- across all
candidates of a pass and across queries of a long-lived
:class:`~repro.service.SilkMothService`.  The NN filter does not use
it: its group search scores each distinct text once per call
(:func:`repro.filters.nearest_neighbor.nn_search_group`).

Who fills it depends on batch size.  Selection goes through
:meth:`SimilarityMemo.edit_value` (compute on miss) when its
query-wide batch is short; a long one is scored in one lane batch that
bypasses the memo (``edit_batch_min_tasks``, :mod:`repro.backends.base`).
Verification's dense grid reads a block's cells with
:meth:`SimilarityMemo.lookup` (never computes), computes the unknown
cells in one batch and hands them back with :meth:`SimilarityMemo.store`
-- the hits it gets are mostly the symmetric half: a pair scored for
reference R against S is served when S becomes the reference.  Its
sharing-cells batch (:func:`repro.matching.score.edit_weight_matrices`)
goes through ``edit_values`` like selection's.  On the benchmark's
``discover_eds`` round (seed 11) that is 4 249 hits for 2 555 misses,
on ``verify_eds`` 897 for 21 037.

A :class:`SimilarityMemo` interns element texts into small integer ids
and keeps an LRU map from unordered id pairs to the canonical
``phi_alpha`` value (every supported similarity is symmetric).  A
cached value answers any caller-side floor: ``phi_alpha`` is already
thresholded, so the floored result is ``value if value >= floor else
0.0`` -- exactly what :meth:`SimilarityFunction.edit_at_least`
returns.

Pair values depend only on the two texts and the (kind, alpha) of the
owning engine's ``phi``, so they never go stale; the engine still
drops the memo on every write (:meth:`repro.core.engine.SilkMoth.add_set`,
``remove_set``, ``compact``) so entries for removed sets cannot
accumulate, which is also what makes staleness trivially impossible to
reintroduce as the keying evolves.

Sizing: ``SilkMothConfig.sim_cache_size`` pairs, defaulting to the
``SILKMOTH_SIM_CACHE`` environment variable and then 65536 (see
:mod:`repro.settings`); ``0`` disables memoization entirely.

Trade-off to know when sizing: a miss computes the *canonical*
(floor-free, alpha-banded) value so it can serve every later floor --
slightly more work per miss than the caller's bounded one-shot call.
On workloads whose distinct-pair count vastly exceeds the capacity
(constant eviction, near-zero hit rate) that overhead is not paid
back; size the cache to the working set, or set it to ``0`` to get
the bounded one-shot behaviour.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.functions import SimilarityFunction


class SimilarityMemo:
    """LRU cache of element-pair ``phi_alpha`` values.

    Parameters
    ----------
    capacity:
        Maximum cached pairs; ``0`` disables the memo (every call
        computes).  The text-interning table is bounded by a multiple
        of the capacity and resets together with the pairs.

    One memo belongs to one engine, hence one ``phi``: values cached
    under different (kind, alpha) must never share a memo.
    """

    #: Interned texts tolerated beyond the live pairs' worst case
    #: (``2 * capacity``) before the id table is rebuilt.
    _IDS_SLACK = 1024

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._ids: dict = {}
        self._ids_limit = 2 * capacity + self._IDS_SLACK
        self._pairs: OrderedDict = OrderedDict()
        #: Lifetime lookup counters (the pipeline snapshots deltas into
        #: per-pass stats).
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever be served (``capacity > 0``)."""
        return self.capacity > 0

    def __len__(self) -> int:
        """Number of cached pairs."""
        return len(self._pairs)

    def clear(self) -> None:
        """Drop every cached pair and interned id (counters survive)."""
        self._ids.clear()
        self._pairs.clear()

    def _key(self, x: str, y: str) -> tuple:
        """The unordered id pair of two texts, interning them as needed.

        The id table only grows past the live pairs' reach when most
        entries belong to long-evicted pairs; once it hits
        ``_ids_limit`` both maps are rebuilt, which keeps memory
        proportional to the configured capacity.
        """
        ids = self._ids
        a = ids.get(x)
        if a is None:
            if len(ids) >= self._ids_limit:
                self.clear()
            a = ids[x] = len(ids)
        b = ids.get(y)
        if b is None:
            if len(ids) >= self._ids_limit:
                self.clear()
                a = ids[x] = 0
            b = ids[y] = len(ids)
        return (a, b) if a <= b else (b, a)

    def lookup(self, x: str, texts) -> list:
        """The cached canonical ``phi_alpha(x, y)`` per *y* in *texts*.

        ``None`` where the memo holds nothing; never computes and
        interns nothing.  Counts one hit or miss per text exactly like
        :meth:`edit_value`, so a batched caller that looks a row up
        here, computes the ``None`` cells itself and hands them to
        :meth:`store` leaves the same counters and the same cache
        contents as per-pair :meth:`edit_value` calls would.
        """
        ids = self._ids
        a = ids.get(x)
        if a is None:
            self.misses += len(texts)
            return [None] * len(texts)
        pairs = self._pairs
        row = []
        for y in texts:
            b = ids.get(y)
            if b is None:
                row.append(None)
                continue
            key = (a, b) if a <= b else (b, a)
            value = pairs.get(key)
            if value is not None:
                pairs.move_to_end(key)
            row.append(value)
        missed = row.count(None)
        self.misses += missed
        self.hits += len(row) - missed
        return row

    def store(self, x: str, y: str, value: float) -> None:
        """Cache *value* as the canonical (floor-free) ``phi_alpha(x, y)``.

        The other half of :meth:`lookup`; interning honours the same
        id-table rebuild rule as :meth:`edit_value`, so a rebuild
        between the two calls only costs the dropped entries.
        """
        if self.capacity == 0:
            return
        pairs = self._pairs
        pairs[self._key(x, y)] = value
        if len(pairs) > self.capacity:
            pairs.popitem(last=False)

    def edit_value(
        self, phi: SimilarityFunction, x: str, y: str, floor: float = 0.0
    ) -> float:
        """``phi_alpha(x, y)`` floored at *floor*, served from the cache.

        Semantics match ``phi.edit_at_least(x, y, floor)``: the return
        value is 0.0 whenever the raw similarity is below *floor*, and
        the alpha-thresholded similarity otherwise.  The cache stores
        the canonical (floor-free) value, so one computation serves
        every later floor.
        """
        if self.capacity == 0:
            return phi.edit_at_least(x, y, floor)
        key = self._key(x, y)
        pairs = self._pairs
        value = pairs.get(key)
        if value is not None:
            self.hits += 1
            pairs.move_to_end(key)
        else:
            self.misses += 1
            value = phi.edit_at_least(x, y, 0.0)
            pairs[key] = value
            if len(pairs) > self.capacity:
                pairs.popitem(last=False)
        return value if value >= floor else 0.0
