"""The query cache: an LRU of search answers, maintained across writes.

A search result depends only on (a) the multiset of reference element
strings, (b) the engine configuration, and (c) the logical contents of
the searched collection.  (a) and (b) are folded into a fingerprint
key.  (c) is handled at each write, resting on two facts: relatedness
is pairwise, and the paper's Lemma 1 -- a set related to R shares a
token with R's signature, whenever that set was added.

* **remove S**: the answers holding S lose that one row;
* **add S**: the entries whose *certificate* S can hit go *stale*;
  entries no certificate vouches for are dropped;
* **update** is a remove followed by an add.

Set ids are never reused, so the sets added since an entry was cached
are those with id >= its *watermark* (the collection's length then):
a hit on a stale entry is completed by one pass floored there
(:class:`repro.service.batch.QueryFront`), whose certificate replaces
the entry's.

An entry's certificate (:func:`certificate`) is the signature token set
of the pass that answered it, plus two marker keys: :data:`EPHEMERAL`
when the signature holds a query-only token id (``query_set`` gives
unseen tokens negative ids; an add that grows the vocabulary may give
one of them a real id, so such an add hits the marker), and
:data:`EMPTY` when the reference has an element with no token (an
empty element scores 1 against another empty element with no token in
common).  :func:`write_keys` lists what an added set can hit.  Entries
no signature vouches for -- full-scan passes, empty references, pool
workers' and shards' passes, whose token ids are not the caller's --
are *uncertified*: any add drops them.  A token -> entries map and a
set id -> entries map make a write cost its own token and member
count, never the cache size.

Fingerprints use SHA-1 over a canonical JSON encoding.  Element order
within a reference does not affect the exact result set (the matching
is over the *set* of elements), so element strings are sorted --
duplicates retained, because ``|R|`` counts them -- making the cache
hit for any reordering of the same reference.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.core.config import SilkMothConfig
from repro.core.records import SetRecord
from repro.signatures.base import SignedReference


def reference_fingerprint(elements: Sequence[str]) -> str:
    """Stable digest of a reference's element multiset."""
    canonical = json.dumps(sorted(elements), ensure_ascii=False)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def config_fingerprint(config: SilkMothConfig) -> str:
    """Stable digest of every config field that can change results or
    which pipeline ran (scheme/filters change work, not output, but two
    configs are only "the same query" if they run the same way)."""
    canonical = json.dumps(
        {
            "metric": config.metric.value,
            "similarity": config.similarity.value,
            "delta": config.delta,
            "alpha": config.alpha,
            "q": config.effective_q,
            "scheme": config.scheme,
            "check_filter": config.check_filter,
            "nn_filter": config.nn_filter,
            "reduction": config.reduction,
            "size_filter": config.size_filter,
        },
        sort_keys=True,
    )
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


#: Certificate keys that are not token ids (see the module docstring).
#: Every uncertified entry is filed under :data:`UNCERTIFIED`, which
#: every add hits.
UNCERTIFIED = "uncertified"
EPHEMERAL = "ephemeral"
EMPTY = "empty"


_index_tokens = attrgetter("index_tokens")


def _has_empty_element(record: SetRecord) -> bool:
    return not all(map(_index_tokens, record.elements))


def certificate(signed: SignedReference | None) -> frozenset | None:
    """The certificate of an answer (``None``: uncertified).

    *signed* is the answering pass's signed reference
    (:attr:`~repro.core.stats.PassStats.signed`), in the vocabulary of
    the collection the cache serves.
    """
    if signed is None or signed.signature is None:
        return None
    keys = signed.signature.tokens
    if keys and min(keys) < 0:
        keys = {token for token in keys if token >= 0}
        keys.add(EPHEMERAL)
    if _has_empty_element(signed.record):
        keys = set(keys)
        keys.add(EMPTY)
    return frozenset(keys)


def write_keys(record: SetRecord, grew_vocabulary: bool) -> set:
    """The certificate keys the added set *record* can hit.

    Its index tokens (what a signature probe meets), :data:`EMPTY` for
    an element with no token, and :data:`EPHEMERAL` when the add grew
    the vocabulary.
    """
    keys = set().union(*map(_index_tokens, record.elements))
    if _has_empty_element(record):
        keys.add(EMPTY)
    if grew_vocabulary:
        keys.add(EPHEMERAL)
    return keys


@dataclass(eq=False)
class CacheEntry:
    """One cached answer: rows in ascending set id, certificate keys,
    the collection length it is current to, the signed reference its
    refresh reuses (``None``: uncertified), and whether an add since
    may have extended it."""

    answer: tuple
    tokens: frozenset | tuple
    watermark: int
    signed: SignedReference | None = None
    stale: bool = False


class LRUQueryCache:
    """Bounded LRU of query answers, maintained across writes."""

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = OrderedDict()
        #: Certificate key -> the cache keys filed under it.
        self._by_token: dict[object, set] = {}
        #: Set id -> the cache keys whose answer holds it.
        self._by_member: dict[int, set] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[str, str]) -> CacheEntry | None:
        """The entry for *key*, else ``None``.

        A stale entry's rows are still exact, but sets added at or
        above its watermark may be missing from them.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self,
        key: tuple[str, str],
        answer,
        certificate: frozenset | None,
        watermark: int,
        signed: SignedReference | None = None,
    ) -> CacheEntry:
        """Cache *answer* (rows in ascending set id) for *key*,
        LRU-evicting; replaces any entry *key* had.

        *certificate* is the answer's :func:`certificate` (``None``:
        uncertified); *watermark* is the collection's length when the
        answer was computed; *signed* is what it was certified from.
        """
        entry = CacheEntry(
            tuple(answer),
            (UNCERTIFIED,) if certificate is None else certificate,
            watermark,
            None if certificate is None else signed,
        )
        if self.capacity == 0:
            return entry
        if key in self._entries:
            self._drop(key)
        self._entries[key] = entry
        for token in entry.tokens:
            self._by_token.setdefault(token, set()).add(key)
        for row in entry.answer:
            self._by_member.setdefault(row.set_id, set()).add(key)
        while len(self._entries) > self.capacity:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
        return entry

    def _drop(self, key: tuple[str, str]) -> None:
        """Delete one entry from the LRU and from both maps."""
        entry = self._entries.pop(key)
        for index, items in (
            (self._by_token, entry.tokens),
            (self._by_member, [row.set_id for row in entry.answer]),
        ):
            for item in items:
                keys = index[item]
                keys.discard(key)
                if not keys:
                    del index[item]

    def removed(self, set_id: int) -> int:
        """A remove of *set_id*: the answers holding it lose its row;
        returns how many."""
        keys = self._by_member.pop(set_id, ())
        for key in keys:
            entry = self._entries[key]
            entry.answer = tuple(
                row for row in entry.answer if row.set_id != set_id
            )
        return len(keys)

    def added(self, tokens) -> int:
        """An add whose certificate keys are *tokens* (:func:`write_keys`).

        Drops every uncertified entry and marks stale every entry whose
        certificate holds one of *tokens*; returns the number dropped.
        """
        by_token = self._by_token
        dropped = list(by_token.get(UNCERTIFIED, ()))
        for key in dropped:
            self._drop(key)
        entries = self._entries
        for token in by_token.keys() & tokens:
            for key in by_token[token]:
                entries[key].stale = True
        return len(dropped)

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_token.clear()
        self._by_member.clear()
        return dropped
