"""Sharded discovery: one dataset, N worker shards, identical answers.

The cluster shards the collection across worker engines, sends each
query to every shard (each prunes with the query's signature, as the
single node does), and merges the shard answers -- bit-identical to
the single-node engine.  This walkthrough builds the same tiny dataset
twice (single node and a three-shard cluster), compares their
discovery output, shows discovery's floor skipping the shards that
hold only sets below it, mutates the cluster, and round-trips it
through a manifest + per-shard version-3 snapshots.

Run:  PYTHONPATH=src python examples/cluster_discovery.py
"""

import tempfile
from pathlib import Path

from repro import SetCollection, SilkMoth, SilkMothCluster, SilkMothConfig

SETS = [
    ["jazz piano trio", "blue note records"],
    ["jazz piano quartet", "blue note pressing"],
    ["gravel bike frame", "carbon fork"],
    ["gravel bike frameset", "carbon fork tapered"],
    ["sourdough starter", "rye flour"],
]

CONFIG = SilkMothConfig(delta=0.4)


def main() -> None:
    """Run the sharded-vs-single-node walkthrough."""
    single = SilkMoth(SetCollection.from_strings(SETS), CONFIG)
    expected = single.discover()

    with SilkMothCluster.from_sets(SETS, CONFIG, shards=3) as cluster:
        got = cluster.discover()
        assert got == expected, "cluster must equal the single node"
        print(f"single node found {len(expected)} related pair(s); "
              f"3-shard cluster found the same pairs:")
        for row in got:
            print(f"  sets {row.reference_id} ~ {row.set_id} "
                  f"(relatedness {row.relatedness:.2f})")

        # Discovery reports each pair once, so reference r only probes
        # the sets after it: a shard whose sets all lie below r + 1 is
        # skipped.  (Shard 2 holds set 2 alone, so references 2 and 3
        # skip it; shard 0 ends at set 3, so reference 3 skips it too.)
        stats = cluster.stats
        print(f"discovery fan-out: {stats.shards_routed_total} shard "
              f"pass(es) run, {stats.shards_skipped_total} skipped by "
              f"the floor")

        # A search has no floor: it reaches every shard.
        cluster.search(["gravel bike frame"])
        verdict = cluster.last_pass
        print(f"search: {verdict.shards_routed} of "
              f"{verdict.shards_total} shard(s) searched")

        # Mutations keep the global numbering of the single-node service.
        new_id = cluster.add_set(["sourdough starter", "spelt flour"])
        cluster.remove_set(2)
        print(f"added global set {new_id}, tombstoned set 2; "
              f"live ids now {cluster.live_set_ids()}")

        with tempfile.TemporaryDirectory() as tmp:
            manifest = Path(tmp) / "cluster.json"
            cluster.save(manifest)
            shard_files = sorted(
                p.name for p in Path(tmp).glob("cluster-shard*.json")
            )
            print(f"saved manifest + shard snapshots: {shard_files}")
            reloaded = SilkMothCluster.load(manifest, CONFIG)
            try:
                hits = reloaded.search(["sourdough starter", "rye flour"])
                print(f"reloaded cluster answers: related set ids "
                      f"{[r.set_id for r in hits]}")
            finally:
                reloaded.close()

        print(f"lifetime: {cluster.stats.queries} query(ies), "
              f"shard skip rate {cluster.stats.shard_skip_rate:.0%}")


if __name__ == "__main__":
    main()
