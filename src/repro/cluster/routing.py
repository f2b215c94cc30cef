"""Signature routing: which shards can possibly answer a query.

The coordinator keeps one :class:`ShardSummary` per shard -- a compact,
transport-agnostic digest of every index token the shard holds.  A
query is fanned out only to shards whose summary *might* intersect the
reference's token universe; the rest are skipped without any work.

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
own vocabulary, and worker processes cannot share Python ``hash``
values (per-process salting), so the string digest is the only
representation that survives every transport.

Two summary implementations share one interface: the exact set (no
false positives) and a Bloom filter whose size is capped by the
``SILKMOTH_SHARD_SUMMARY_BITS`` knob (false positives only ever route
to *extra* shards, which costs speed, never exactness).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import SilkMothConfig
from repro.planner.validity import prefix_scheme_valid
from repro.tokenize.tokenizers import Tokenizer

#: Hash functions per Bloom summary (classic small-k choice; with the
#: summary sized generously the false-positive rate stays low, and a
#: false positive only routes one extra shard).
BLOOM_HASHES = 3


def token_hash(token: str) -> int:
    """Stable 64-bit digest of one token string.

    Python's built-in ``hash`` is salted per process, so routing state
    built by one process would be useless to another; blake2b is stable
    across processes, platforms and Python versions.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ExactTokenSummary:
    """The exact summary: a set of 64-bit token hashes.

    Memory grows with the shard's distinct tokens; membership tests are
    exact, so routing skips every shard it possibly can.
    """

    def __init__(self) -> None:
        self._hashes: set[int] = set()

    def add(self, token_hash_value: int) -> None:
        """Record one token hash as present in the shard."""
        self._hashes.add(token_hash_value)

    def might_contain(self, token_hash_value: int) -> bool:
        """Exact membership -- no false positives, no false negatives."""
        return token_hash_value in self._hashes

    def __len__(self) -> int:
        return len(self._hashes)

    @property
    def kind(self) -> str:
        """Summary implementation name (cluster info reports)."""
        return "exact"


class BloomTokenSummary:
    """A fixed-size Bloom filter over token hashes.

    The bit array is a Python big-int (bit ``i`` set iff some token
    hashed onto it), so memory is ``bits / 8`` bytes regardless of how
    many tokens the shard holds.  ``might_contain`` can return false
    positives -- routing then fans out to a shard that will answer with
    zero results -- but never false negatives, so exactness is
    unaffected.
    """

    def __init__(self, bits: int):
        if bits < 8:
            raise ValueError(f"a Bloom summary needs >= 8 bits, got {bits}")
        self.bits = bits
        self._array = 0
        self._count = 0

    def _positions(self, token_hash_value: int) -> Iterable[int]:
        """The :data:`BLOOM_HASHES` bit positions for one token hash.

        Derived Kirsch-Mitzenmacher style from the two 32-bit halves of
        the 64-bit digest, so no extra hashing is needed per probe.
        """
        low = token_hash_value & 0xFFFFFFFF
        high = token_hash_value >> 32
        for i in range(BLOOM_HASHES):
            yield (low + i * high) % self.bits

    def add(self, token_hash_value: int) -> None:
        """Set the token's bits in the filter."""
        for position in self._positions(token_hash_value):
            self._array |= 1 << position
        self._count += 1

    def might_contain(self, token_hash_value: int) -> bool:
        """Membership with possible false positives (sound for routing)."""
        return all(
            self._array >> position & 1
            for position in self._positions(token_hash_value)
        )

    def __len__(self) -> int:
        return self._count

    @property
    def kind(self) -> str:
        """Summary implementation name (cluster info reports)."""
        return "bloom"


def make_token_summary(summary_bits: int):
    """Build the summary implementation the sizing knob selects."""
    if summary_bits > 0:
        return BloomTokenSummary(summary_bits)
    return ExactTokenSummary()


@dataclass
class ShardSummary:
    """Routing digest of one shard: token summary plus the empty flag.

    Mutation contract: :meth:`add_set_tokens` must be called for every
    set added to the shard (summaries are append-only between rebuilds;
    removals leave stale entries, which can only over-route).
    :meth:`rebuild` replaces the state wholesale after compaction, when
    tombstoned sets' tokens are finally dropped.
    """

    tokens: object = field(default_factory=ExactTokenSummary)
    has_empty: bool = False

    def add_set_tokens(self, hashes: Iterable[int], has_empty: bool) -> None:
        """Fold one added set's token hashes (and empty flag) in."""
        for value in hashes:
            self.tokens.add(value)
        if has_empty:
            self.has_empty = True

    def may_answer(self, probe: "ReferenceProbe") -> bool:
        """Whether this shard could return a non-empty result for *probe*."""
        if probe.has_empty and self.has_empty:
            return True
        return any(self.tokens.might_contain(value) for value in probe.hashes)

    def rebuild(
        self, hashes: Iterable[int], has_empty: bool, summary_bits: int
    ) -> None:
        """Replace the summary from a fresh shard token inventory."""
        self.tokens = make_token_summary(summary_bits)
        for value in hashes:
            self.tokens.add(value)
        self.has_empty = has_empty


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
