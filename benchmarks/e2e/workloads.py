"""The six benchmark workloads (README.md says why each exists).

A workload turns ``--seed`` into inputs once, then runs any number of
identical *rounds* against the public API only::

    state = workload.setup()        # timed  -> setup_s
    out = workload.run(state)       # timed  -> wall_s
    counters = workload.finish(state, out)   # untimed epilogue + counters
    workload.close(state)           # release workers / files

Every round does the same work on fresh program state, so the rounds of
one invocation are samples of one quantity.  ``check(out)`` runs once,
outside every timed span, and returns what is wrong with the outputs.

The corpora come from pinned pools (``POOL_SEED``) and ``--seed`` draws
from them -- which sets, in what order, which reference when -- so that
seeds differ in content while the work per round stays within a few
percent.  Generating a whole corpus from ``--seed`` moves the work per
round by 16-50 % between seeds (README.md, "Seeds"); the clock could
not be told from the data.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    SetCollection,
    SilkMoth,
    SilkMothCluster,
    SilkMothConfig,
    SilkMothService,
    SimilarityKind,
    brute_force_search,
)
from repro.workloads import (
    inclusion_dependency,
    schema_matching,
    string_matching,
)

#: Seed of the pinned corpus pools (not the run's ``--seed``).
POOL_SEED = 20170901
#: References compared against the brute-force oracle per invocation.
ORACLE_REFERENCES = 8
#: Scratch space for WAL directories; inside the checkout, git-ignored.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"

#: Frozen sizes: (full, smoke).  Tuned once so a round's measured span
#: is about a second on a quiet core, then left alone -- every number
#: the benchmark has produced since is at these sizes.
SIZES = {
    "discover_eds": {"n_sets": (800, 60)},
    "discover_jaccard": {"n_sets": (1000, 80)},
    "verify_eds": {"clusters": (24, 4)},
    "serve_search": {
        "n_sets": (2000, 120), "queries": (150, 12), "batch": (100, 10),
    },
    "serve_mixed_wal": {
        "n_sets": (200, 24), "ops": (1200, 200), "references": (200, 16),
    },
}
#: A sampled collection is this share of its pool, so seeds differ in
#: content (one set in ten) and not only in order.
POOL_SHARE = 0.9


def _size(name: str, key: str, smoke: bool) -> int:
    return SIZES[name][key][1 if smoke else 0]


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=8).hexdigest()


def _collection(sets, config: SilkMothConfig) -> SetCollection:
    return SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )


def _funnel_counters(stats) -> dict:
    """The pipeline's own funnel counters (a ``RunStats``), by metric name."""
    return {
        "pipeline.passes": stats.passes,
        "signatures.tokens": stats.signature_tokens,
        "filters.select_postings_scanned": stats.select_postings_scanned,
        "filters.select_distinct_pairs": stats.select_distinct_pairs,
        "filters.select_size_gate_drops": stats.select_size_gate_drops,
        "filters.initial_candidates": stats.initial_candidates,
        "filters.after_check": stats.after_check,
        "filters.after_nn": stats.after_nn,
        "matching.verified": stats.verified,
        "matching.matches": stats.matches,
        "sim.memo_hits": stats.sim_cache_hits,
        "sim.memo_misses": stats.sim_cache_misses,
    }


def _oracle_failures(rows_of, references, collection, config) -> list[str]:
    """Compare the engine's rows for *references* with brute force.

    *rows_of(reference_id)* is the set of related set ids the engine
    reported; *references* maps a reference id to its ``SetRecord`` and
    the set id to skip (the reference itself, in self-discovery).
    """
    failures = []
    for ref_id, (record, skip) in references.items():
        expected = {
            result.set_id
            for result in brute_force_search(
                record, collection, config, skip_set=skip
            )
        }
        if rows_of(ref_id) != expected:
            failures.append(
                f"reference {ref_id}: engine {sorted(rows_of(ref_id))} "
                f"!= brute force {sorted(expected)}"
            )
    return failures


class Workload:
    """Interface of one workload; see the module docstring."""

    name: str
    #: Operations one round performs (reference passes, or queries +
    #: mutations): the numerator of ``throughput_ops_s``.
    ops: int
    config: SilkMothConfig

    def setup(self):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def finish(self, state, out) -> dict:
        """Untimed epilogue of a round; returns the program's counters."""
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what :meth:`setup` acquired (idempotent)."""

    def failed_ops(self, out) -> int:
        """Operations of the round that raised."""
        return 0

    def digest(self, out) -> str:
        raise NotImplementedError

    def decision(self, state) -> dict:
        """The planner's decision the round ran under."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Discovery workloads
# ----------------------------------------------------------------------
class Discover(Workload):
    """``SilkMoth.discover()`` over one seeded collection."""

    def __init__(self, name: str, sets, config: SilkMothConfig, seed: int):
        self.name = name
        self.sets = [list(elements) for elements in sets]
        self.config = config
        self.seed = seed
        self.ops = len(self.sets)

    def setup(self):
        return SilkMoth(_collection(self.sets, self.config), self.config)

    def run(self, engine):  # a SilkMoth, or a SilkMothCluster
        return engine.discover()

    def finish(self, engine, out) -> dict:
        counters = _funnel_counters(engine.stats)
        counters["index.postings"] = engine.index.total_postings()
        return counters

    def decision(self, engine) -> dict:
        return engine.decision.to_dict()

    def digest(self, out) -> str:
        return _digest(sorted((row.reference_id, row.set_id) for row in out))

    def check(self, out) -> list[str]:
        collection = _collection(self.sets, self.config)
        related: dict[int, set[int]] = {}
        for row in out:  # SET-SIMILARITY: each unordered pair reported once
            related.setdefault(row.reference_id, set()).add(row.set_id)
            related.setdefault(row.set_id, set()).add(row.reference_id)
        rng = random.Random(self.seed + 1)
        picked = rng.sample(
            range(len(self.sets)), min(ORACLE_REFERENCES, len(self.sets))
        )
        references = {i: (collection[i], i) for i in picked}
        return _oracle_failures(
            lambda i: related.get(i, set()), references, collection, self.config
        )


class ClusterDiscover(Discover):
    """The same inputs through 2 process shards."""

    SHARDS = 2

    def setup(self):
        return SilkMothCluster.from_sets(
            self.sets, self.config, shards=self.SHARDS, transport="process"
        )

    def finish(self, cluster, out) -> dict:
        counters = _funnel_counters(cluster.run_stats)
        busy = [
            sum(info["stats"]["stage_seconds"].values())
            for info in cluster.shard_infos()
        ]
        counters["cluster.shard_busy_max_s"] = max(busy)
        counters["cluster.shard_busy_sum_s"] = sum(busy)
        counters["cluster.shards_routed"] = cluster.stats.shards_routed_total
        counters["cluster.shards_skipped"] = cluster.stats.shards_skipped_total
        return counters

    def close(self, cluster) -> None:
        cluster.close()

    def decision(self, cluster) -> dict:
        return cluster.shard_infos()[0]["decision"]

    def check(self, out) -> list[str]:
        failures = super().check(out)
        single = SilkMoth(_collection(self.sets, self.config), self.config)
        if self.digest(single.discover()) != self.digest(out):
            failures.append("cluster pairs differ from single-node discover()")
        return failures


_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


def _perturbed(rng: random.Random, text: str, edits: int) -> str:
    chars = list(text)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and chars:
            chars[rng.randrange(len(chars))] = rng.choice(_ALPHABET)
        elif op == 1:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_ALPHABET))
        elif chars:
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


def clustered_edit_sets(clusters: int, seed: int) -> list[list[str]]:
    """Clusters of 3 sets sharing 6 base strings of 18-34 chars, 0-3 edits.

    Every set has the same size and the clusters overlap heavily, so
    most candidates survive the filters and reach verification.
    """
    rng = random.Random(seed)
    sets = []
    for _ in range(clusters):
        base = [
            "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(18, 34)))
            for _ in range(6)
        ]
        for _ in range(3):
            sets.append([_perturbed(rng, text, rng.randint(0, 3)) for text in base])
    return sets


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def _ids(results) -> tuple:
    return tuple(result.set_id for result in results)


def _service_oracle(service, references, seed: int) -> list[str]:
    """``service.search`` against brute force for a few seeded references."""
    rng = random.Random(seed + 1)
    picked = rng.sample(
        range(len(references)), min(ORACLE_REFERENCES, len(references))
    )
    answers = {i: set(_ids(service.search(references[i]))) for i in picked}
    collection = service.collection
    records = {i: (collection.query_set(references[i]), None) for i in picked}
    return _oracle_failures(answers.get, records, collection, service.config)


def _service_counters(service) -> dict:
    counters = _funnel_counters(service.engine.stats)
    stats = service.stats
    counters["index.postings"] = service.index.total_postings()
    counters["index.compactions"] = stats.compactions
    counters["service.cache_hits"] = stats.cache_hits
    counters["service.cache_misses"] = stats.cache_misses
    counters["service.batch_deduplicated"] = stats.batch_queries_deduplicated
    return counters


class ServeSearch(Workload):
    """Cold ``search`` calls, then one ``search_many`` batch; no WAL."""

    name = "serve_search"

    def __init__(self, seed: int, smoke: bool):
        n_sets = _size(self.name, "n_sets", smoke)
        queries = _size(self.name, "queries", smoke)
        batch = _size(self.name, "batch", smoke)
        pool = inclusion_dependency(
            n_sets=int(n_sets / POOL_SHARE), seed=POOL_SEED
        )
        self.config = pool.config
        self.seed = seed
        # The references are pinned: columns of the pool with more than
        # 4 distinct values (paper section 8.1), all distinct.  A query
        # costs anything from 1 to 20 times the median, so drawing them
        # per seed would move wall_s by what was drawn.  The seed picks
        # the collection, and which references phase A sees.
        eligible = sorted({tuple(s) for s in pool.sets if len(set(s)) > 4})
        unique = batch - int(batch * 0.3)
        references = [
            list(s)
            for s in random.Random(POOL_SEED).sample(eligible, queries + unique)
        ]
        rng = random.Random(seed)
        self.sets = [list(s) for s in rng.sample(pool.sets, n_sets)]
        rng.shuffle(references)
        self.queries = references[:queries]
        # Phase B: references phase A never saw, 30 % in-batch duplicates.
        self.batch = references[queries:] + rng.choices(
            references[queries:], k=batch - unique
        )
        rng.shuffle(self.batch)
        self.ops = queries + batch

    def setup(self):
        return SilkMothService(
            self.config, _collection(self.sets, self.config), wal_dir=False
        )

    def run(self, service):
        answers = [_ids(service.search(reference)) for reference in self.queries]
        answers += [_ids(results) for results in service.search_many(self.batch)]
        return answers

    def finish(self, service, out) -> dict:
        counters = _service_counters(service)
        counters["service.batch_refs"] = len(self.batch)
        return counters

    def decision(self, service) -> dict:
        return service.decision.to_dict()

    def digest(self, out) -> str:
        return _digest(out)

    def check(self, out) -> list[str]:
        return _service_oracle(self.setup(), self.queries, self.seed)


@dataclass
class MixedOut:
    """What one ``serve_mixed_wal`` round produced."""

    answers: list = field(default_factory=list)
    failed: int = 0
    fingerprint: str = ""
    recovered_fingerprint: str = ""
    compactions: int = 0


class ServeMixedWal(Workload):
    """80 % Zipf searches / 20 % mutations with the WAL on, then recovery."""

    name = "serve_mixed_wal"

    def __init__(self, seed: int, smoke: bool):
        n_sets = _size(self.name, "n_sets", smoke)
        n_refs = _size(self.name, "references", smoke)
        self.ops = _size(self.name, "ops", smoke)
        pool = inclusion_dependency(n_sets=2 * n_sets, seed=POOL_SEED)
        self.config = pool.config
        self.seed = seed
        # The collection, the writes and how often each reference is
        # asked for are pinned: the most popular reference alone is a
        # sixth of the searches and a query costs 1 to 20 times the
        # median, so drawing any of them per seed moves the work of a
        # round by 10-35 %.  The seed orders the searches, hence what the
        # cache holds when a write clears it and which state each sees.
        drawn = [list(s) for s in pool.sets]
        self.sets, spare = drawn[:n_sets], drawn[n_sets:]
        eligible = sorted({tuple(s) for s in drawn if len(set(s)) > 4})
        pinned = random.Random(POOL_SEED)
        self.references = [list(s) for s in pinned.sample(eligible, n_refs)]
        # Zipf-like popularity: reference k is drawn with weight 1/(k+1).
        cumulative = list(
            itertools.accumulate(1.0 / (k + 1) for k in range(n_refs))
        )
        self.stream = []
        live, next_id = list(range(n_sets)), n_sets
        for _ in range(self.ops):
            if pinned.random() < 0.8:
                k = bisect.bisect_left(cumulative, pinned.random() * cumulative[-1])
                self.stream.append(("search", self.references[k]))
                continue
            kind = pinned.random()
            if kind < 0.5:
                slot = pinned.randrange(len(live))
                self.stream.append(("update", live[slot], pinned.choice(spare)))
                live[slot], next_id = next_id, next_id + 1
            elif kind < 0.75:
                self.stream.append(("add", pinned.choice(spare)))
                live.append(next_id)
                next_id += 1
            else:
                self.stream.append(
                    ("remove", live.pop(pinned.randrange(len(live))))
                )
        slots = [i for i, op in enumerate(self.stream) if op[0] == "search"]
        searches = [self.stream[i] for i in slots]
        random.Random(seed).shuffle(searches)
        for i, op in zip(slots, searches):
            self.stream[i] = op
        self.user_bytes = sum(
            len(element.encode())
            for op in self.stream
            if op[0] in ("update", "add")
            for element in op[-1]
        )

    def setup(self):
        TMP_ROOT.mkdir(exist_ok=True)
        wal_dir = tempfile.mkdtemp(dir=TMP_ROOT, prefix="wal-")
        try:
            return SilkMothService(
                self.config,
                _collection(self.sets, self.config),
                wal_dir=Path(wal_dir) / "log",
                wal_fsync=True,
            )
        except BaseException:
            shutil.rmtree(wal_dir, ignore_errors=True)
            raise

    @staticmethod
    def _apply(service, op):
        if op[0] == "search":
            return _ids(service.search(op[1]))
        if op[0] == "update":
            return service.update_set(op[1], op[2]).set_id
        if op[0] == "add":
            return service.add_set(op[1]).set_id
        return service.remove_set(op[1]).set_id

    def run(self, service):
        out = MixedOut()
        for op in self.stream:
            try:
                out.answers.append(self._apply(service, op))
            except Exception as exc:  # every op that raises is a failed op
                out.answers.append(repr(exc))
                out.failed += 1
        return out

    def finish(self, service, out) -> dict:
        counters = _service_counters(service)
        counters["io.user_bytes"] = self.user_bytes
        out.compactions = service.stats.compactions
        out.fingerprint = service.state_fingerprint()
        wal_dir = service.wal.directory
        service.close()
        recovered = SilkMothService.recover(
            wal_dir, self.config, checkpoint=False
        )
        try:
            out.recovered_fingerprint = recovered.state_fingerprint()
            counters["io.recover_replayed"] = recovered.wal_recovery.replayed
        finally:
            recovered.close()
        return counters

    def close(self, service) -> None:
        service.close()
        shutil.rmtree(service.wal.directory.parent, ignore_errors=True)

    def failed_ops(self, out) -> int:
        return out.failed

    def decision(self, service) -> dict:
        return service.decision.to_dict()

    def digest(self, out) -> str:
        return _digest((out.answers, out.fingerprint))

    def check(self, out) -> list[str]:
        failures = []
        if out.recovered_fingerprint != out.fingerprint:
            failures.append("recovered state differs from the state at close")
        if out.compactions < 2:
            # Background work must complete several cycles within a round.
            failures.append(
                f"only {out.compactions} compaction+checkpoint cycles fired"
            )
        # Exactness under mutation: replay the writes, then ask the oracle.
        service = SilkMothService(
            self.config, _collection(self.sets, self.config), wal_dir=False
        )
        for op in self.stream:
            if op[0] != "search":
                self._apply(service, op)
        return failures + _service_oracle(service, self.references, self.seed)


# ----------------------------------------------------------------------
_DISCOVERY_POOLS = {
    "discover_eds": string_matching,
    "discover_jaccard": schema_matching,
}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """Build workload *name*'s inputs from *seed*."""
    if name in _DISCOVERY_POOLS:
        n_sets = _size(name, "n_sets", smoke)
        pool = _DISCOVERY_POOLS[name](
            n_sets=int(n_sets / POOL_SHARE), seed=POOL_SEED
        )
        sets = random.Random(seed).sample(pool.sets, n_sets)
        return Discover(name, sets, pool.config, seed)
    if name in ("verify_eds", "cluster_discover"):
        # Byte-identical inputs for both: the cluster's wall_s over
        # verify_eds's is the scale-out factor.  The seed only orders
        # the sets: how many candidates reach verify swings by half
        # between generated corpora of this size.
        sets = clustered_edit_sets(
            _size("verify_eds", "clusters", smoke), POOL_SEED
        )
        random.Random(seed).shuffle(sets)
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6
        )
        cls = Discover if name == "verify_eds" else ClusterDiscover
        return cls(name, sets, config, seed)
    if name == "serve_search":
        return ServeSearch(seed, smoke)
    if name == "serve_mixed_wal":
        return ServeMixedWal(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
