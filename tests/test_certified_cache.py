"""Maintained cache answers: no write drops a certified answer.

The result cache keeps its answers across writes
(:mod:`repro.service.cache`): a remove deletes the removed set's row
from the answers holding it, an add drops the uncertified answers and
marks stale those whose signature certificate the added set hits, and
a hit on a stale answer completes it with one pass floored at its
watermark.  The differential oracle below runs generated histories of
adds, removes, updates, ``search`` and ``search_many`` and, after every
operation, compares every reference's answer -- ids and scores -- with
brute force over the live sets.  The references carry tokens the
collection has not seen (some adds bring them in later) and empty
elements, the two cases where a signature token alone does not decide
a hit.

Every test runs once per kernel mode (``strategies.kernels``).
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute_force import brute_force_search
from repro.cluster import SilkMothCluster
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.records import SetCollection
from repro.core.results import SearchResult
from repro.obs.diag import format_health
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer, set_trace_enabled
from repro.pipeline.stages import CandidateSelectStage
from repro.service import LRUQueryCache, SilkMothService, reference_fingerprint
from repro.service.cache import EMPTY, EPHEMERAL, UNCERTIFIED
from repro.sim.functions import SimilarityKind
from repro.tokenize.tokenizers import Tokenizer
from strategies.kernels import kernel_axis  # noqa: F401  (module-wide axis)

WORDS = ["ash", "bay", "elm", "fir", "oak", "sky", "yew", "ivy"]
#: Tokens no initial set holds: references ask for them, adds bring
#: some of them in.
FRESH = ["zeta", "omega", "kappa", "sigma"]

CONFIGS = {
    "jaccard-similarity": SilkMothConfig(delta=0.5),
    "jaccard-containment": SilkMothConfig(
        metric=Relatedness.CONTAINMENT, delta=0.6
    ),
    "eds-similarity": SilkMothConfig(
        similarity=SimilarityKind.EDS, delta=0.5, alpha=0.6
    ),
    "eds-containment": SilkMothConfig(
        similarity=SimilarityKind.EDS,
        metric=Relatedness.CONTAINMENT,
        delta=0.6,
        alpha=0.6,
    ),
}


def _element(rng: random.Random, words) -> str:
    return " ".join(rng.sample(words, rng.randint(1, 2)))


def _set(rng: random.Random, words, empty: float = 0.1) -> list:
    return [
        "" if rng.random() < empty else _element(rng, words)
        for _ in range(rng.randint(1, 3))
    ]


def _pool(seed: int):
    """(initial sets, references, sets an add may bring) for *seed*."""
    rng = random.Random(seed)
    initial = [_set(rng, WORDS) for _ in range(12)]
    references = [_set(rng, WORDS) for _ in range(4)]
    references += [
        _set(rng, WORDS + FRESH, empty=0.3),
        ["", _element(rng, WORDS)],
        # Unseen tokens only: the signature is all ephemeral ids.
        ["zeta omega", "kappa"],
        ["sigma"],
    ]
    spare = [_set(rng, WORDS) for _ in range(6)]
    spare += [_set(rng, WORDS + FRESH) for _ in range(3)]
    spare += [list(reference) for reference in references[-4:]]
    spare += [["", "fir"], ["", "zeta"]]
    return initial, references, spare


def _oracle(config, live: dict, reference) -> list:
    """Brute force over the live sets: (id, score, value) rows."""
    ids = sorted(live)
    collection = SetCollection(
        Tokenizer(kind=config.similarity, q=config.effective_q)
    )
    for set_id in ids:
        collection.add_set(live[set_id])
    record = collection.query_set(reference)
    return [
        (ids[r.set_id], r.score, r.relatedness)
        for r in brute_force_search(record, collection, config)
    ]


def _rows(answer) -> list:
    return sorted((r.set_id, r.score, r.relatedness) for r in answer)


class _Server:
    """One surface over the service and the cluster, with a live-set model."""

    def __init__(self, kind: str, config, initial):
        self.kind = kind
        self.config = config
        if kind == "cluster":
            self.server = SilkMothCluster.from_sets(
                initial, config, shards=2, transport="inline"
            )
        else:
            self.server = SilkMothService(config, wal_dir=False)
            for elements in initial:
                self.server.add_set(elements)
        self.processes = 2 if kind == "service-pool" else None
        self.live = {i: list(elements) for i, elements in enumerate(initial)}
        self.next_id = len(initial)
        #: Cached answers removes edited (rather than dropped).
        self.edited = 0
        cache = self.server.cache
        removed = cache.removed

        def counting(set_id):
            edited = removed(set_id)
            self.edited += edited
            return edited

        cache.removed = counting

    def close(self) -> None:
        if self.kind == "cluster":
            self.server.close()

    def cached(self, reference) -> bool:
        return (
            reference_fingerprint(reference),
            self.server._config_fp,
        ) in self.server.cache._entries

    def add(self, elements) -> None:
        got = self.server.add_set(elements)
        assert getattr(got, "set_id", got) == self.next_id
        self.live[self.next_id] = list(elements)
        self.next_id += 1

    def remove(self, set_id: int) -> None:
        self.server.remove_set(set_id)
        del self.live[set_id]

    def update(self, set_id: int, elements) -> None:
        got = self.server.update_set(set_id, elements)
        assert getattr(got, "set_id", got) == self.next_id
        del self.live[set_id]
        self.live[self.next_id] = list(elements)
        self.next_id += 1


def _run_history(server: _Server, seed: int, references, spare, ops: int):
    """Apply a generated history; check every answer after every op.

    Returns how many cached answers outlived an add: references cached
    before one and still cached after it.
    """
    rng = random.Random(seed)
    config = server.config
    expected = {}
    survived = 0

    def truth(reference):
        key = tuple(reference)
        if key not in expected:
            expected[key] = _oracle(config, server.live, reference)
        return expected[key]

    def check(reference, answer):
        assert _rows(answer) == sorted(truth(reference)), (reference, server.live)

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.25:
            before = [r for r in references if server.cached(r)]
            server.add(rng.choice(spare))
            survived += sum(server.cached(r) for r in before)
            expected.clear()
        elif roll < 0.35 and len(server.live) > 4:
            server.remove(rng.choice(sorted(server.live)))
            expected.clear()
        elif roll < 0.5 and len(server.live) > 4:
            server.update(rng.choice(sorted(server.live)), rng.choice(spare))
            expected.clear()
        elif roll < 0.75:
            reference = rng.choice(references)
            check(reference, server.server.search(reference))
        else:
            batch = rng.sample(references, 4)
            batch.append(batch[0])
            answers = server.server.search_many(batch, processes=server.processes)
            for reference, answer in zip(batch, answers):
                check(reference, answer)
        # After every operation, every reference answers exactly.
        for reference in references:
            check(reference, server.server.search(reference))
    return survived


@pytest.mark.parametrize("kind", ["service", "service-pool", "cluster"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_answer_equals_brute_force_after_every_operation(kind, name):
    config = CONFIGS[name]
    initial, references, spare = _pool(seed=17)
    server = _Server(kind, config, initial)
    try:
        survived = _run_history(server, 23, references, spare, ops=60)
        stats = server.server.stats
        assert stats.cache_hits > 0
        # Removes edited cached answers on every server.
        assert server.edited > 0
        if kind == "cluster":
            # Shards sign in their own vocabularies: no certificate, so
            # every add dropped every cached answer.
            assert survived == 0
            assert stats.cache_refreshes == 0
        else:
            # The probes' own passes are certified: answers outlive
            # adds, and hits completed the stale ones.
            assert survived > 0
            assert stats.cache_refreshes > 0
    finally:
        server.close()


def _searched(service, reference) -> list:
    passes = service.engine.stats.passes
    answer = service.search(reference)
    return [r.set_id for r in answer], service.engine.stats.passes - passes


def test_a_cached_answer_survives_an_add_that_misses_its_signature():
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    for elements in (["ash bay", "elm"], ["ash bay", "fir"], ["oak sky"]):
        service.add_set(elements)
    reference = ["ash bay", "elm"]
    assert _searched(service, reference) == ([0], 1)
    service.add_set(["yew ivy", "oak"])  # no token of the reference
    assert _searched(service, reference) == ([0], 0)  # a hit, no pass
    service.add_set(["ash bay", "elm"])  # hits the signature
    assert _searched(service, reference) == ([0, 4], 1)  # a refresh
    assert service.stats.cache_refreshes == 1
    assert service.stats.cache_misses == 1
    assert service.stats.invalidations == 0


def test_an_add_that_makes_an_unseen_token_real_marks_the_answer_stale():
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    service.add_set(["ash bay"])
    reference = ["zeta omega"]
    assert _searched(service, reference) == ([], 1)
    service.add_set(["zeta omega"])  # grows the vocabulary
    assert _searched(service, reference) == ([1], 1)
    assert service.stats.cache_refreshes == 1


def test_a_refresh_takes_the_certificate_of_its_pass():
    """The refreshed answer must be re-certified in today's vocabulary.

    Signed before ``zeta`` and ``omega`` were real, the answer's
    certificate is the ephemeral marker alone.  Once an add has made
    them real, an add holding them no longer grows the vocabulary, so
    it hits only a certificate re-signed since.
    """
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    service.add_set(["ash bay"])
    reference = ["zeta omega"]
    key = (reference_fingerprint(reference), service._config_fp)
    assert _searched(service, reference) == ([], 1)
    assert service.cache.get(key).tokens == frozenset({EPHEMERAL})
    service.add_set(["zeta", "omega"])  # makes both real; unrelated
    assert _searched(service, reference) == ([], 1)  # the refresh
    assert EPHEMERAL not in service.cache.get(key).tokens
    known = len(service.collection.vocabulary)
    service.add_set(["zeta omega"])  # holds them, grows nothing
    assert len(service.collection.vocabulary) == known
    assert _searched(service, reference) == ([2], 1)
    assert service.stats.cache_refreshes == 2


def test_one_refresh_is_one_pass_over_the_sets_added_since(monkeypatch):
    config = SilkMothConfig(delta=0.4)
    initial, _, _ = _pool(seed=5)
    reference = ["fir", "yew"]  # answered by sets 3, 5 and 11
    writes = [
        ("add", ["fir"]),
        ("remove", 3),
        ("add", ["oak sky"]),
        ("add", ["fir", "yew", "elm"]),
        ("update", 11, ["yew"]),
        ("add", ["elm ash"]),
    ]

    def build():
        service = SilkMothService(config, wal_dir=False)
        for elements in initial:
            service.add_set(elements)
        return service

    def write(service):
        for op, *args in writes:
            getattr(service, f"{op}_set")(*args)

    service = build()
    cold = service.search(reference)
    watermark = len(service.collection)
    write(service)
    entry = service.cache.get((reference_fingerprint(reference), service._config_fp))
    assert entry.stale and entry.watermark == watermark

    surfaced = []
    run = CandidateSelectStage.run

    def recording(self, plan, state, stats):
        run(self, plan, state, stats)
        surfaced.append(list(state.surfaced))

    monkeypatch.setattr(CandidateSelectStage, "run", recording)
    passes = service.engine.stats.passes
    refreshed = service.search(reference)
    assert service.engine.stats.passes == passes + 1
    assert service.stats.cache_refreshes == 1
    (candidates,) = surfaced
    assert candidates and min(candidates) >= watermark
    monkeypatch.undo()

    fresh = build()
    write(fresh)
    expected = fresh.search(reference)
    rows = [(r.set_id, r.score, r.relatedness) for r in refreshed]
    assert rows == [(r.set_id, r.score, r.relatedness) for r in expected]
    # Set 5's row is the cached one; the others are the refresh's.
    assert [r.set_id for r in cold] == [3, 5, 11]
    assert [r.set_id for r in refreshed] == [5, 12, 14, 15]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_refresh_reuses_the_signed_reference_of_its_answer(monkeypatch, name):
    """No token of the reference was interned since it was signed, so
    the refresh neither tokenises nor signs: one pass on the entry's
    signed reference, rows equal to a fresh service's."""
    config = CONFIGS[name]
    initial, _, _ = _pool(seed=5)
    reference = ["fir", "yew", "zeta"]  # zeta stays unseen throughout
    writes = [
        ("add", ["fir", "yew", "oak"]),  # related: hits the signature
        ("remove", 3),
        ("add", ["oak sky"]),
        ("update", 11, ["fir", "yew"]),
    ]

    def build():
        service = SilkMothService(config, wal_dir=False)
        for elements in initial:
            service.add_set(elements)
        return service

    def write(service):
        for op, *args in writes:
            getattr(service, f"{op}_set")(*args)

    service = build()
    service.search(reference)
    key = (reference_fingerprint(reference), service._config_fp)
    signed = service.cache.get(key).signed
    assert signed is not None and signed.record.unseen
    write(service)
    assert service.cache.get(key).stale

    calls = []
    query_set = SetCollection.query_set
    scheme = type(service.engine.scheme)
    generate = scheme.generate

    def counting_query_set(self, elements):
        calls.append("query_set")
        return query_set(self, elements)

    def counting_generate(self, *args):
        calls.append("generate")
        return generate(self, *args)

    monkeypatch.setattr(SetCollection, "query_set", counting_query_set)
    monkeypatch.setattr(scheme, "generate", counting_generate)
    passes = service.engine.stats.passes
    refreshed = service.search(reference)
    assert calls == []
    assert service.engine.stats.passes == passes + 1
    assert service.stats.cache_refreshes == 1
    assert service.cache.get(key).signed is signed
    monkeypatch.undo()

    fresh = build()
    write(fresh)
    assert _rows(refreshed) == _rows(fresh.search(reference))


def test_no_pass_leaves_its_signed_reference_in_the_run_window():
    """The run stats' window keeps passes, never the signed references
    the cache holds -- cold, refreshed, batched or re-signed."""
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    for elements in SCRIPT_SETS:
        service.add_set(elements)
    _script(service)
    service.search_many([["ash bay", "fir"], ["oak sky"], ["ivy yew"]])
    per_pass = service.engine.stats.per_pass
    assert service.stats.cache_refreshes == 2 and len(per_pass) >= 6
    assert all(stats.signed is None for stats in per_pass)


def test_a_query_span_says_when_a_hit_ran_a_refresh():
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    for elements in SCRIPT_SETS:
        service.add_set(elements)
    reference = ["oak sky"]
    service.search(reference)
    set_trace_enabled(True)
    try:
        get_tracer().drain()
        service.search(reference)  # a plain hit
        service.add_set(["oak sky"])  # hits its signature
        service.search(reference)  # a stale hit: one refresh pass
        spans = get_tracer().drain()
    finally:
        set_trace_enabled(None)
        get_tracer().drain()
    plain, stale = [s["attrs"] for s in spans if s["name"] == "service.query"]
    assert plain == {"cache": "hit"}
    assert stale == {"cache": "hit", "refreshed": True}


def test_an_empty_element_add_reaches_an_empty_element_answer():
    """Empty elements score 1 with no token in common, so an added set
    with one counts as a hit on a reference with one (select surfaces
    such pairs in its own empty-element phase)."""
    service = SilkMothService(SilkMothConfig(delta=0.7), wal_dir=False)
    service.add_set(["", "ash"])
    reference = ["", "ash"]
    key = (reference_fingerprint(reference), service._config_fp)
    assert _searched(service, reference) == ([0], 1)
    assert service.engine.stats.full_scans == 0  # a certified answer
    service.add_set(["oak", "fir"])  # no token, no empty element
    assert _searched(service, reference) == ([0], 0)
    service.add_set(["", "fir"])  # no token in common, an empty element
    assert service.cache.get(key).stale
    assert _searched(service, reference) == ([0], 1)
    assert service.stats.cache_refreshes == 1


def _script(server) -> None:
    """A fixed write sequence between searches (set ids 0..3 to start)."""
    for reference in (["ash bay", "elm"], ["oak sky"], ["yew ivy"]):
        server.search(reference)
    server.add_set(["oak sky"])      # hits ["oak sky"]'s signature
    server.add_set(["new words"])    # grows the vocabulary, hits nothing
    server.search(["oak sky"])       # a refresh on the service
    server.remove_set(0)             # held by ["ash bay", "elm"]'s answer
    server.update_set(3, ["elm"])    # remove held by ["yew ivy"]'s answer
    server.search(["zeta"])          # an ephemeral signature
    server.add_set(["zeta"])         # grows the vocabulary
    server.search(["zeta"])          # a refresh on the service


SCRIPT_SETS = [["ash bay", "elm"], ["ash bay", "fir"], ["oak sky"], ["yew ivy"]]


def _exposed(name: str) -> float:
    family = get_registry().get(name)
    return family.value() if family is not None else 0


def test_write_counters_on_the_service_and_the_cluster():
    config = SilkMothConfig(delta=0.5)
    service = SilkMothService(config, wal_dir=False)
    for elements in SCRIPT_SETS:
        service.add_set(elements)
    refreshes = _exposed("silkmoth_cache_refreshes_total")
    _script(service)
    stats = service.stats
    assert (stats.invalidated_uncertified, stats.cache_refreshes) == (0, 2)
    assert _exposed("silkmoth_cache_refreshes_total") - refreshes == 2
    assert stats.invalidations == 0
    assert stats.to_dict()["cache_refreshes"] == 2
    health = service.health()
    assert health["cache"]["cache_refreshes"] == 2
    assert "invalidated_token_hit" not in health["cache"]
    assert (
        "writes:       2 stale answer(s) refreshed, 0 uncertified dropped"
        in format_health(health)
    )

    with SilkMothCluster.from_sets(
        SCRIPT_SETS, config, shards=2, transport="inline"
    ) as cluster:
        _script(cluster)
        stats = cluster.stats
        # Every cluster answer is uncertified: adds drop them all, and
        # none is ever stale.
        assert (stats.invalidated_uncertified, stats.cache_refreshes) == (5, 0)
        assert cluster.health()["cache"]["invalidated_uncertified"] == 5


# -- the cache's own structure ------------------------------------------


def _answer(*set_ids) -> tuple:
    return tuple(SearchResult(set_id, 1.0, 1.0) for set_id in set_ids)


def _maps_match(cache: LRUQueryCache) -> None:
    """The token and member maps file exactly the live entries' keys
    and rows."""
    filed = {key for keys in cache._by_token.values() for key in keys}
    members = {key for keys in cache._by_member.values() for key in keys}
    live = set(cache._entries)
    assert filed == live
    assert members == {k for k, e in cache._entries.items() if e.answer}
    for key, entry in cache._entries.items():
        assert all(key in cache._by_token[token] for token in entry.tokens)
        assert all(key in cache._by_member[r.set_id] for r in entry.answer)
    held = {(r.set_id, k) for k, e in cache._entries.items() for r in e.answer}
    assert held == {(i, k) for i, keys in cache._by_member.items() for k in keys}
    assert all(cache._by_token.values()) and all(cache._by_member.values())


def test_maps_hold_only_live_entries():
    cache = LRUQueryCache(capacity=3)
    cache.put(("a", "c"), _answer(10, 11), frozenset({1, 2}), 20)
    cache.put(("b", "c"), _answer(11), None, 20)
    cache.put(("c", "c"), _answer(), frozenset({2, EMPTY}), 20)
    _maps_match(cache)
    cache.put(("d", "c"), _answer(12), frozenset({EPHEMERAL, 5}), 20)  # evicts a
    assert ("a", "c") not in cache._entries and cache.evictions == 1
    _maps_match(cache)
    assert 1 not in cache._by_token and 10 not in cache._by_member
    assert cache.removed(11) == 1  # b loses the row, keeps the entry
    assert cache.get(("b", "c")).answer == ()
    _maps_match(cache)
    assert cache.added({EMPTY}) == 1  # drops b, marks c stale
    assert cache.get(("c", "c")).stale and not cache.get(("d", "c")).stale
    _maps_match(cache)
    cache.put(("c", "c"), _answer(21), frozenset({3}), 22)  # its refresh
    assert not cache.get(("c", "c")).stale
    assert EMPTY not in cache._by_token
    _maps_match(cache)
    assert cache.invalidate() == 2
    _maps_match(cache)
    assert not cache._by_token and not cache._by_member


def test_an_uncertified_entry_survives_a_remove_but_not_an_add():
    cache = LRUQueryCache()
    cache.put(("a", "c"), _answer(1, 2), None, 5)
    assert cache._by_token == {UNCERTIFIED: {("a", "c")}}
    assert cache.removed(3) == 0
    assert cache.get(("a", "c")).answer == _answer(1, 2)
    assert cache.removed(1) == 1
    assert cache.get(("a", "c")).answer == _answer(2)
    assert cache.added(set()) == 1  # any add drops it
    assert len(cache) == 0


def test_a_pool_answer_never_survives_an_add():
    service = SilkMothService(SilkMothConfig(delta=0.5), wal_dir=False)
    for elements in SCRIPT_SETS:
        service.add_set(elements)
    references = [["ash bay", "elm"], ["oak sky"]]
    service.search_many(references, processes=2)
    assert all(
        (reference_fingerprint(r), service._config_fp) in service.cache._entries
        for r in references
    )
    service.add_set(["unrelated words"])
    assert len(service.cache) == 0
    assert service.stats.invalidated_uncertified == 2
