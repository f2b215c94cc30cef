"""Snapshots written when the compute backend was a choice still load.

Service snapshots and cluster manifests used to carry per-backend pass
timings (``stats.backend_seconds``) and the planner's backend decision
(``planner.backend`` / ``backend_source``).  The documents below are
written by hand in that format.  Loading one must not raise, must
restore its lifetime counters -- which hinges on the config fingerprint
being the one those files recorded, pinned here -- and must answer
searches exactly as a service built from the same sets does.  The old
keys are ignored.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import SilkMothCluster
from repro.core.config import Relatedness, SilkMothConfig
from repro.io.persistence import document_checksum
from repro.service import SilkMothService
from repro.service.cache import config_fingerprint
from repro.sim.functions import SimilarityKind

CONFIG = SilkMothConfig(delta=0.5)
#: ``config_fingerprint(CONFIG)`` as snapshots have always recorded it.
FINGERPRINT = "b343478428e4d5a02006995c7a9d480a185a7379"
EDS_CONFIG = SilkMothConfig(similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6)
#: Every config below, with the fingerprint its snapshots recorded.
PINNED = {
    "jaccard": (CONFIG, FINGERPRINT),
    "eds": (EDS_CONFIG, "28de1a544c00f54249afd81d85a44c571efeb6fb"),
    "neds-q2": (
        SilkMothConfig(similarity=SimilarityKind.NEDS, delta=0.7, alpha=0.5, q=2),
        "5ec083ebad6bb1ff2629c72f44bbcbd212beb903",
    ),
    "dice-containment": (
        SilkMothConfig(
            similarity=SimilarityKind.DICE,
            metric=Relatedness.CONTAINMENT,
            delta=0.6,
        ),
        "ac8d49ce40cb8eccf4868b7a877f879cda17c39b",
    ),
    "cosine-auto": (
        SilkMothConfig(
            similarity=SimilarityKind.COSINE, delta=0.8, alpha=0.3, scheme="auto"
        ),
        "cc572a68136d57ec6925f996fa1fc4fd929cdd45",
    ),
    "jaccard-unfiltered": (
        SilkMothConfig(
            delta=0.7,
            check_filter=False,
            nn_filter=False,
            reduction=False,
            size_filter=False,
        ),
        "c8cdeb5c8d8895de33f4ef1ffbbd7aa78137cbc6",
    ),
}
SETS = [["ash bay", "elm"], ["ash bay", "fir"], ["oak"], ["ash", "elm fir"]]
REFERENCES = [["ash bay", "elm"], ["elm fir", "ash"], ["oak"], ["zzz"]]

STAGE_SECONDS = {
    "check": 1.5e-05, "nn": 8.5e-05, "select": 8.6e-05,
    "signature": 6.6e-05, "verify": 0.000135,
}
OLD_STATS = {
    "queries": 7, "cache_hits": 3, "cache_misses": 4, "batches": 1,
    "batch_queries_deduplicated": 2, "adds": 4, "removes": 1, "updates": 0,
    "compactions": 0, "invalidations": 1, "snapshots_saved": 2,
    "sim_cache_hits": 0, "sim_cache_misses": 0, "cache_hit_rate": 0.4286,
    "sim_cache_hit_rate": 0.0, "mutations": 5, "query_seconds_total": 0.0042,
    "mean_query_seconds": 0.0006, "stage_seconds": STAGE_SECONDS,
    "backend_seconds": {
        "python": {
            "seconds": 0.000387, "passes": 4, "stage_seconds": STAGE_SECONDS,
        },
        "numpy": {"seconds": 0.0009, "passes": 1},
    },
}
OLD_DECISION = {
    "scheme": "dichotomy", "scheme_source": "config",
    "backend": "python", "backend_source": "auto",
    "q": 1, "q_source": "token", "q_constraint_ok": True,
    "signature_valid": True, "full_scan": False,
    "reasons": [
        "jaccard tokenises to words; gram length fixed at 1",
        "scheme=dichotomy pinned by configuration",
        "backend=python auto-selected: probe work 20 (10 postings x mean "
        "list 2.0) < 32,768: probes hand the kernels batches too short to "
        "repay array dispatch",
    ],
}


def _write(path, payload: dict) -> None:
    payload["checksum"] = document_checksum(payload)
    path.write_text(json.dumps(payload) + "\n")


def _answers(searcher) -> list:
    return [
        [(r.set_id, r.score, r.relatedness) for r in searcher.search(reference)]
        for reference in REFERENCES
    ]


def _fresh_service(config=CONFIG) -> SilkMothService:
    service = SilkMothService(config, wal_dir=False)
    for elements in SETS:
        service.add_set(elements)
    service.remove_set(2)
    return service


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fingerprints_are_the_recorded_ones(name):
    """Counters survive a reload only under an unchanged fingerprint."""
    config, fingerprint = PINNED[name]
    assert config_fingerprint(config) == fingerprint


@pytest.mark.parametrize("name", ["jaccard", "eds"])
def test_an_old_service_snapshot_loads(tmp_path, name):
    config, fingerprint = PINNED[name]
    path = tmp_path / "service.json"
    _write(path, {
        "format": "silkmoth-collection", "version": 2,
        "similarity": config.similarity.value, "q": config.effective_q,
        "sets": SETS, "deleted": [2],
        "service": {
            "generation": 5, "config_fingerprint": fingerprint,
            "stats": OLD_STATS, "planner": OLD_DECISION,
        },
    })
    service = SilkMothService.load(path, config)
    assert service.generation == 5
    assert service.live_set_ids() == [0, 1, 3]
    restored = service.stats.to_dict()
    for name in ("queries", "cache_hits", "adds", "removes", "snapshots_saved"):
        assert restored[name] == OLD_STATS[name], name
    assert restored["query_seconds_total"] == OLD_STATS["query_seconds_total"]
    assert restored["stage_seconds"] == STAGE_SECONDS
    assert "backend_seconds" not in restored
    assert _answers(service) == _answers(_fresh_service(config))
    # Its next snapshot is in the current format.
    service.save(tmp_path / "again.json")
    saved = json.loads((tmp_path / "again.json").read_text())["service"]
    assert "backend_seconds" not in saved["stats"]
    assert not any("backend" in key for key in saved["planner"])


def test_retired_invalidation_counters_load(tmp_path):
    """Stats written while writes still dropped certified answers carry
    per-reason drop counts; the two reasons no write has any more are
    ignored, the uncertified count is kept."""
    config, fingerprint = PINNED["jaccard"]
    stats = dict(
        OLD_STATS, invalidations=9, invalidated_uncertified=2,
        invalidated_token_hit=4, invalidated_member=3,
    )
    path = tmp_path / "service.json"
    _write(path, {
        "format": "silkmoth-collection", "version": 2,
        "similarity": config.similarity.value, "q": config.effective_q,
        "sets": SETS, "deleted": [2],
        "service": {
            "generation": 5, "config_fingerprint": fingerprint,
            "stats": stats, "planner": OLD_DECISION,
        },
    })
    service = SilkMothService.load(path, config)
    restored = service.stats.to_dict()
    assert restored["invalidated_uncertified"] == 2
    assert restored["invalidations"] == 2
    assert restored["cache_refreshes"] == 0
    assert restored["queries"] == OLD_STATS["queries"]
    assert "invalidated_token_hit" not in restored
    assert "invalidated_member" not in restored
    assert _answers(service) == _answers(_fresh_service(config))


@pytest.mark.parametrize("transport", ["inline", "process"])
@pytest.mark.parametrize("summary_bits", [0, 256])
def test_an_old_cluster_manifest_loads(tmp_path, summary_bits, transport):
    """Keys later builds dropped (``shard_generations``, the shard-meta
    ``generation``, ``summary_bits`` even when it asked for Bloom
    summaries, the per-replica log positions under ``wal``) are
    ignored."""
    manifest = tmp_path / "m.json"
    shard_sets = [[SETS[0], SETS[2]], [SETS[1], SETS[3]]]
    for k, (sets, local_to_global) in enumerate(
        zip(shard_sets, ([0, 2], [1, 3]))
    ):
        _write(tmp_path / f"m-shard{k}.json", {
            "format": "silkmoth-collection", "version": 3,
            "similarity": "jaccard", "q": 1, "sets": sets,
            "deleted": [1] if k == 0 else [], "service": {},
            "shard": {
                "shard_index": k, "local_to_global": local_to_global,
                "generation": 1 if k == 0 else 0,
            },
        })
    cluster_stats = dict(
        OLD_STATS, shards_routed_total=9, shards_skipped_total=1,
        broadcasts=3, rebalance_moves=0, failovers=0, replicas_lost=0,
        replicas_revived=0, degraded_failures=0, shard_skip_rate=0.1,
    )
    _write(manifest, {
        "format": "silkmoth-cluster", "version": 1,
        "similarity": "jaccard", "q": 1,
        "shards": ["m-shard0.json", "m-shard1.json"],
        "cluster": {
            "placement": [[0, 0], [1, 0], [0, 1], [1, 1]], "deleted": [2],
            "generation": 1, "shard_generations": [1, 0],
            "config_fingerprint": FINGERPRINT, "summary_bits": summary_bits,
            "transport": "inline", "stats": cluster_stats,
            "wal": {
                "dir": str(tmp_path / "wal"),
                "positions": [
                    {"segment": 2, "segment_records": 0, "appended": 3},
                    None,
                ],
            },
        },
    })
    with SilkMothCluster.load(
        manifest, CONFIG, transport=transport
    ) as cluster:
        assert cluster.live_set_ids() == [0, 1, 3]
        restored = cluster.stats.to_dict()
        for name in ("queries", "adds", "removes", "shards_routed_total"):
            assert restored[name] == cluster_stats[name], name
        assert restored["stage_seconds"] == STAGE_SECONDS
        assert "backend_seconds" not in restored
        assert "broadcasts" not in restored
        assert _answers(cluster) == _answers(_fresh_service())
