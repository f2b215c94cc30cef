"""Online serving: add, remove, and query against a live service.

The batch engine answers one query over a frozen collection; the
service keeps the engine resident and stays exact while the collection
changes underneath it.  This walkthrough runs a tiny address service
through the full online lifecycle: ingest, query (cold then cached),
mutate (the cached answer is kept up to date), batch with duplicates, and
snapshot/restore.

Run:  PYTHONPATH=src python examples/service_online.py
"""

import tempfile
from pathlib import Path

from repro import Relatedness, SilkMothConfig, SilkMothService

SETS = [
    ["77 Massachusetts Avenue Boston MA", "Fifth Street Seattle WA"],
    ["77 Mass Ave Boston MA", "5th St Seattle WA"],
    ["One Kendall Square Cambridge MA"],
]
REFERENCE = ["77 Mass Avenue Boston MA", "Fifth St Seattle WA"]


def show(label: str, results) -> None:
    ids = [r.set_id for r in results]
    print(f"{label:<28} -> related set ids {ids}")


def main() -> None:
    config = SilkMothConfig(metric=Relatedness.SIMILARITY, delta=0.25)
    service = SilkMothService(config)

    # Ingest: each set is searchable the moment add_set returns.
    for elements in SETS:
        service.add_set(elements)
    print(f"serving {len(service)} live sets\n")

    # Cold query runs the full signature/filter/verify pipeline ...
    show("cold query", service.search(REFERENCE))
    # ... the repeat is a cache hit: no pipeline pass at all.
    show("same query (cached)", service.search(REFERENCE))
    print(
        f"pipeline passes so far: {service.engine.stats.passes} "
        f"(cache hits: {service.stats.cache_hits})\n"
    )

    # Writes keep the cached answer current: a remove deletes the set's
    # row, and an add it may extend makes the next hit run one pass
    # over the sets added since.
    service.remove_set(0)
    show("after remove_set(0)", service.search(REFERENCE))
    new = service.update_set(1, ["77 Mass Ave Boston MA", "Main St Austin TX"])
    show(f"after update (new id {new.set_id})", service.search(REFERENCE))

    # Batches deduplicate before touching the pipeline.
    batch = service.search_many([REFERENCE, REFERENCE, ["One Kendall Square"]])
    print(
        f"\nbatch of 3 answered with {service.stats.batch_queries_deduplicated} "
        "duplicate collapsed"
    )
    show("batch[2]", batch[2])

    # Snapshot and restore: live-set membership and results survive.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "service.json"
        service.save(path)
        restored = SilkMothService.load(path, config)
        assert restored.live_set_ids() == service.live_set_ids()
        show("restored service", restored.search(REFERENCE))

    stats = service.stats
    print(
        f"\nlifetime: {stats.queries} queries, "
        f"hit rate {stats.cache_hit_rate:.0%}, "
        f"{stats.mutations} mutations, {stats.compactions} compactions"
    )


if __name__ == "__main__":
    main()
