"""Online serving layer: a mutable, cached, snapshot-able SilkMoth.

:class:`SilkMothService` wraps the batch engine as a long-lived system:
sets can be added, removed and updated between queries (tombstones +
lazy index cleanup keep every answer exact), repeated references are
served from an LRU query cache whose answers are maintained across
writes (a remove edits them, an add marks the ones it may extend
stale, and their next hit completes them with one floored pass),
batches deduplicate and fan out across processes, and the whole service
round-trips through version-2 snapshots.  ``search``, ``search_many``
and the cache logic live in :class:`repro.service.batch.QueryFront`,
which :class:`repro.cluster.SilkMothCluster` shares: each server only
supplies how an uncached pass runs.

Quickstart::

    from repro import SilkMothConfig
    from repro.service import SilkMothService

    service = SilkMothService(SilkMothConfig(delta=0.5))
    service.add_set(["77 Mass Ave Boston MA"])
    service.add_set(["77 Massachusetts Avenue Boston MA"])
    hits = service.search(["77 Mass Avenue Boston MA"])
    service.remove_set(0)           # tombstone; next query is exact
    print(service.stats.cache_hit_rate)
"""

from repro.service.cache import (
    LRUQueryCache,
    config_fingerprint,
    reference_fingerprint,
)
from repro.service.service import SilkMothService
from repro.service.stats import ServiceStats

__all__ = [
    "LRUQueryCache",
    "ServiceStats",
    "SilkMothService",
    "config_fingerprint",
    "reference_fingerprint",
]
