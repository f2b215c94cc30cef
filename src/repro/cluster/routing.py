"""Signature routing: which shards can possibly answer a query.

The coordinator's :class:`ShardRouter` keeps one :class:`ShardSummary`
per shard -- a transport-agnostic digest of every index token the
shard holds.  A query is fanned out only to shards whose summary
intersects the reference's token universe; the rest are skipped
without any work.

Soundness does not lean on the pipeline at all.  A shard may be skipped
only under the pair-level certificate of
:func:`repro.planner.validity.prefix_scheme_valid`: when every element
pair with ``phi_alpha > 0`` provably shares an index token (always true
for the token kinds; true for the edit kinds exactly when the
no-shared-gram similarity cap falls below ``alpha``), a shard sharing
no token with the reference cannot contain any element pair scoring
above zero, so every candidate's matching score is 0 < theta and the
shard would return nothing -- whether its own pass would have used
signatures or a full scan.  When the certificate does not hold (edit
kinds with a small alpha), routing degrades to broadcast and stays
exact.

Empty elements are the one source of similarity without tokens
(``phi(empty, empty) = 1``), so summaries carry a ``has_empty`` flag
and a reference with an empty element always routes to shards holding
one.

Tokens are summarised by a *stable* 64-bit hash of the token string
(:func:`token_hash`), never by vocabulary ids: each shard interns its
own vocabulary, so the token string is all the shards share.  The
coordinator builds every summary itself, from the raw texts its
:class:`~repro.cluster.directory.ShardDirectory` holds; no shard is
asked what it indexes.  Summaries are exact hash sets: no false
positives, so routing skips every shard it can.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import SilkMothConfig
from repro.planner.validity import prefix_scheme_valid
from repro.obs.trace import span
from repro.tokenize.tokenizers import Tokenizer


def token_hash(token: str) -> int:
    """Stable 64-bit digest of one token string.

    Python's built-in ``hash`` is salted per process, so routing state
    built by one process would be useless to another; blake2b is stable
    across processes, platforms and Python versions.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class ShardSummary:
    """Routing digest of one shard: token hashes plus the empty flag.

    Mutation contract: :meth:`add_set_tokens` must be called for every
    set added to the shard (summaries are append-only between rebuilds;
    removals leave stale entries, which can only over-route).
    :meth:`ShardRouter.rebuild` replaces them wholesale from the live
    sets at compaction, when tombstoned sets' tokens are dropped.
    """

    tokens: set = field(default_factory=set)
    has_empty: bool = False

    def add_set_tokens(self, hashes: Iterable[int], has_empty: bool) -> None:
        """Fold one added set's token hashes (and empty flag) in."""
        self.tokens.update(hashes)
        if has_empty:
            self.has_empty = True

    def may_answer(self, probe: "ReferenceProbe") -> bool:
        """Whether this shard could return a non-empty result for *probe*."""
        if probe.has_empty and self.has_empty:
            return True
        return not self.tokens.isdisjoint(probe.hashes)


@dataclass(frozen=True)
class ReferenceProbe:
    """One query's routing view: its index-token hashes + empty flag."""

    hashes: frozenset[int]
    has_empty: bool


def element_token_hashes(
    tokenizer: Tokenizer, elements: Iterable[str]
) -> tuple[frozenset[int], bool]:
    """Hash every index token of *elements*; flag empty-tokenising ones.

    Uses the same :meth:`Tokenizer.index_tokens` the shards index with,
    so the routing view can never drift from what a shard would probe.
    """
    hashes: set[int] = set()
    has_empty = False
    for text in elements:
        tokens = tokenizer.index_tokens(text)
        if not tokens:
            has_empty = True
            continue
        for token in tokens:
            hashes.add(token_hash(token))
    return frozenset(hashes), has_empty


def reference_probe(
    tokenizer: Tokenizer, elements: Sequence[str]
) -> ReferenceProbe:
    """Build the routing probe for one raw reference."""
    hashes, has_empty = element_token_hashes(tokenizer, elements)
    return ReferenceProbe(hashes=hashes, has_empty=has_empty)


def routing_certificate_holds(config: SilkMothConfig) -> bool:
    """Whether skipping zero-overlap shards is provably exact.

    This is exactly the prefix-family validity lemma
    (:func:`repro.planner.validity.prefix_scheme_valid`) applied at the
    *pair* level: zero shared index tokens must force
    ``phi_alpha = 0``.  Token kinds qualify unconditionally; edit kinds
    qualify when the no-shared-gram similarity cap falls below
    ``alpha``.  When this returns False the coordinator broadcasts
    every query to every shard -- slower, never wrong.
    """
    return prefix_scheme_valid(
        config.similarity, config.alpha, config.effective_q
    )


class ShardRouter:
    """The coordinator's routing state: one summary per shard.

    Owns the tokenizer the probes hash with and the certificate
    verdict for the cluster's config; without the certificate every
    query broadcasts and the summaries are never consulted.
    """

    def __init__(self, config: SilkMothConfig, n_shards: int):
        self.tokenizer = Tokenizer(
            kind=config.similarity, q=config.effective_q
        )
        self.certificate = routing_certificate_holds(config)
        self.summaries = [ShardSummary() for _ in range(n_shards)]

    def add(self, shard: int, elements: Iterable[str]) -> None:
        """Fold one set placed on *shard* into its summary."""
        self.summaries[shard].add_set_tokens(
            *element_token_hashes(self.tokenizer, elements)
        )

    def shards_for(self, elements: Sequence[str]) -> list[int]:
        """Shard indices that might answer the raw reference *elements*."""
        if not self.certificate:
            # Broadcast mode never consults a probe; skip hashing.
            return list(range(len(self.summaries)))
        with span("cluster.route"):
            probe = reference_probe(self.tokenizer, elements)
            return [
                k
                for k, summary in enumerate(self.summaries)
                if summary.may_answer(probe)
            ]

    def rebuild(self, live: Iterable[tuple[int, Sequence[str]]]) -> None:
        """Replace every summary by a fold of the *live* ``(shard,
        elements)`` sets (the coordinator's
        :meth:`~repro.cluster.directory.ShardDirectory.live_sets`)."""
        self.summaries = [ShardSummary() for _ in self.summaries]
        for shard, elements in live:
            self.add(shard, elements)
