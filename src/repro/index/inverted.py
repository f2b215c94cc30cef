"""The inverted index ``I``, stored as packed posting arrays.

For each token id ``t``, ``I[t]`` is the list of (set_id, element_index)
postings whose element contains ``t`` (by *index* tokens).  Postings are
kept sorted by (set_id, element_index) so candidate selection can
deduplicate with a sorted merge and the nearest-neighbour filter can
binary-search the slices of a whole group of candidate sets in one
left-to-right pass (:meth:`InvertedIndex.keys_in_sets`; paper Section
5.2, footnote 7).  An element contributes exactly one posting per
distinct token, which is what lets that filter count intersections off
the lists.

Storage layout: each posting list is one ``array('q')`` of packed int64
keys, ``(set_id << 32) | element_index`` (:data:`PACK_SHIFT`).  Packing
keeps the lists columnar -- no per-posting tuple objects -- so the
candidate-selection kernel (:mod:`repro.backends.select`) can merge,
deduplicate and mask postings as flat integer runs, and the numpy
merge can view a list as an ``int64`` ndarray without copying
(``numpy.frombuffer``).  Sorting packed keys orders postings exactly
like sorting ``(set_id, element_index)`` tuples, so every binary-search
invariant of the tuple era carries over unchanged.  :meth:`postings`
still materialises :class:`Posting` tuples for callers that want the
row view; the hot paths never do.

Beside these *occurrence postings* the index keeps one second level for
candidate selection, and which one follows from the collection's
tokenizer kind alone:

* **Token kinds: the content table.**  Column data repeats its values,
  and a token-kind score depends on an element's token set only, so
  selection probes *distinct contents* instead of occurrences.  Every
  distinct non-empty ``index_tokens`` gets a dense content id in
  first-seen order; the table maps token -> ascending content ids
  (:meth:`InvertedIndex.content_ids`), content id -> a representative
  :class:`~repro.core.records.ElementRecord`
  (:meth:`~InvertedIndex.content_records`), content id -> the
  ascending distinct set ids it occurs in
  (:meth:`~InvertedIndex.content_sets`), and content id -> its token
  count (:meth:`~InvertedIndex.content_sizes`).  Content ids mean something
  only between two mutations of the index: :meth:`~InvertedIndex.compact`
  renumbers them.
* **Edit kinds: the forward column**, packed posting key -> the
  :class:`~repro.core.records.ElementRecord` it addresses
  (:meth:`InvertedIndex.posting_elements`): one ``dict`` probe per
  merged key -- driven by a C-level ``map`` -- replaces the
  ``collection[set_id].elements[j]`` dereference.  (A content list is
  ordered by *first* occurrence, so a candidate floor cannot cut it
  with a bisect; the edit probe, which already scores each distinct
  text once per call, keeps the floored occurrence runs.)

Both share the records' own objects (no copies), are filled by
:meth:`~InvertedIndex.add_record` and pruned by
:meth:`~InvertedIndex.compact`.  Everything else -- the NN filter, the
signature costs, the planner's profile, the reference select kernel --
reads the occurrence postings, which are the same for both kinds.  The
token-kind NN filter also reads one flat column beside them, the
index-token count of every stored element
(:meth:`InvertedIndex.token_count_column`): the ``|s_j|`` of the closed
form, addressed by packed key without dereferencing a record.

Mutability: removals are *lazy*.  Tombstoning a set leaves its postings
in place (candidate selection skips them via the collection's tombstone
set) and only bumps a dead-posting counter; :meth:`compact` physically
drops them once the dead fraction justifies a rewrite.  This keeps
posting lists append-only on the hot path, which is what makes online
mutation cheap.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.core.records import ElementRecord, SetCollection, SetRecord

#: Bits the set id is shifted left by inside one packed posting key.
PACK_SHIFT = 32

#: Mask extracting the element index from a packed posting key.
PACK_MASK = (1 << PACK_SHIFT) - 1

#: Largest set id a packed key can carry (int64 stays positive, so
#: comparisons and sorts on packed keys match tuple order).
MAX_SET_ID = (1 << (63 - PACK_SHIFT)) - 1


def pack_posting(set_id: int, element_index: int) -> int:
    """One posting as a packed int64 key: ``(set_id << 32) | element``."""
    return (set_id << PACK_SHIFT) | element_index


class Posting(NamedTuple):
    """One occurrence of a token: which set, which element within it."""

    set_id: int
    element_index: int


def record_posting_count(record: SetRecord) -> int:
    """How many postings *record* contributes to the index.

    An empty-after-tokenisation element is stored as one posting on the
    empty-element list, so it counts as 1 -- keeping the live/dead
    accounting (and therefore compaction triggering) consistent with
    what is actually stored.
    """
    return sum(len(element.index_tokens) or 1 for element in record.elements)


class InvertedIndex:
    """Token id -> sorted packed postings, over a :class:`SetCollection`."""

    def __init__(self, collection: SetCollection):
        self.collection = collection
        self._lists: dict[int, array] = {}
        # Elements with no index tokens at all (empty after
        # tokenisation).  They are invisible to every token probe yet
        # score similarity 1 against an empty query element, so
        # candidate selection must be able to enumerate them.
        self._empty: array = array("q")
        # Element count per indexed set id (positionally addressed):
        # the size-gate input the selection kernel reads as a flat
        # column instead of dereferencing collection records per set.
        self._sizes: array = array("q")
        # Token kinds: index-token count per stored element, one run per
        # set in the order the sets were added, and per set id the
        # offset of its run (token_count_column).
        self._token_counts: array = array("q")
        self._count_offsets: array = array("q")
        # The second level candidate selection reads (module docstring):
        # the content table for token kinds, the forward column (packed
        # posting key -> the element's record) for edit kinds.
        self._token_based = collection.tokenizer.kind.is_token_based
        self._elements: dict[int, ElementRecord] = {}
        self._content_of: dict[frozenset[int], int] = {}
        self._content_lists: dict[int, array] = {}
        self._content_records: list[ElementRecord] = []
        self._content_sets: list[array] = []
        # Per content id: its token count (the |c| of the closed form).
        self._content_sizes: array = array("q")
        self._max_set_id = -1
        self._live_postings = 0
        self._dead_postings = 0
        self._compactions = 0
        self._build()

    def _build(self) -> None:
        for record in self.collection:
            self.add_record(record)
        # A freshly indexed collection may already carry tombstones
        # (e.g. one rebuilt from a service snapshot).
        for set_id in self.collection.deleted_ids:
            self.note_removed(self.collection[set_id])

    def add_record(self, record: SetRecord) -> None:
        """Index one more set record (incremental update).

        Postings normally stay sorted because records are appended to
        the collection in set-id order; if a caller ever indexes records
        out of order, the touched lists are re-sorted so the
        binary-search invariant can't silently break.  The second level
        follows: each element enters the forward column (edit kinds) or
        the content table (token kinds, :meth:`_add_content`) and the
        token count column (token kinds).
        """
        set_id = record.set_id
        if not 0 <= set_id <= MAX_SET_ID:
            raise ValueError(
                f"set_id {set_id} outside the packable range 0..{MAX_SET_ID}"
            )
        lists = self._lists
        in_order = set_id > self._max_set_id
        base = set_id << PACK_SHIFT
        touched: set[int] = set()
        token_based = self._token_based
        elements = self._elements
        offset = len(self._token_counts)
        count = self._token_counts.append
        added = 0
        for element_index, element in enumerate(record.elements):
            key = base | element_index
            tokens = element.index_tokens
            size = len(tokens)
            if token_based:
                count(size)
            else:
                elements[key] = element
            if not size:
                self._empty.append(key)
                added += 1
                continue
            for token in tokens:
                postings = lists.get(token)
                if postings is None:
                    postings = lists[token] = array("q")
                postings.append(key)
            added += size
            if not in_order:
                touched.update(tokens)
            if token_based:
                self._add_content(element, set_id, in_order)
        self._live_postings += added
        for token in touched:
            lists[token] = array("q", sorted(lists[token]))
        if not in_order:
            self._empty = array("q", sorted(self._empty))
        sizes = self._sizes
        if set_id >= len(sizes):
            sizes.extend([0] * (set_id + 1 - len(sizes)))
        sizes[set_id] = len(record.elements)
        if token_based:
            offsets = self._count_offsets
            if set_id >= len(offsets):
                offsets.extend([0] * (set_id + 1 - len(offsets)))
            offsets[set_id] = offset
        self._max_set_id = max(self._max_set_id, set_id)

    def _add_content(
        self, element: ElementRecord, set_id: int, in_order: bool
    ) -> None:
        """Note one occurrence of a non-empty element in the content table.

        A known content only gains *set_id* in its occurrence array:
        appended in the usual ascending case, bisected into place when
        the record arrives out of order, and never twice (a set may
        hold a content at several positions).
        """
        content = self._content_of.get(element.index_tokens)
        if content is None:
            self._new_content(element, array("q", (set_id,)))
            return
        sets = self._content_sets[content]
        if in_order:
            if sets[-1] != set_id:
                sets.append(set_id)
        else:
            at = bisect_left(sets, set_id)
            if at == len(sets) or sets[at] != set_id:
                sets.insert(at, set_id)

    def _new_content(self, element: ElementRecord, sets: array) -> None:
        """List *element*'s token set as the next content, occurring in *sets*.

        The new id is larger than every id listed so far, so the token
        -> content lists ascend by construction, whatever order the
        sets arrive in.
        """
        tokens = element.index_tokens
        self._content_of[tokens] = content = len(self._content_records)
        self._content_records.append(element)
        self._content_sets.append(sets)
        self._content_sizes.append(len(tokens))
        lists = self._content_lists
        for token in tokens:
            contents = lists.get(token)
            if contents is None:
                contents = lists[token] = array("q")
            contents.append(content)

    def note_removed(self, record: SetRecord) -> None:
        """Account for a tombstoned record's now-dead postings.

        The postings are not touched (lazy deletion); callers decide
        when :attr:`dead_fraction` warrants a :meth:`compact`.
        """
        n = record_posting_count(record)
        self._dead_postings += n
        self._live_postings -= n

    @property
    def dead_fraction(self) -> float:
        """Fraction of stored postings that belong to tombstoned sets."""
        stored = self._live_postings + self._dead_postings
        return self._dead_postings / stored if stored else 0.0

    @property
    def compactions(self) -> int:
        """How many times :meth:`compact` rewrote the posting lists."""
        return self._compactions

    def compact(self) -> int:
        """Physically drop postings of tombstoned sets.

        Returns the number of postings removed.  Posting-list order is
        preserved (filtering a sorted array keeps it sorted), so every
        index invariant survives.  The second level follows: the
        forward column loses the dropped keys, the content table the
        dead occurrences and every content left without one; the token
        count column loses the dead sets' runs.
        """
        deleted = self.collection.deleted_ids
        if not deleted or not self._dead_postings:
            return 0
        removed = 0
        empty_tokens = []
        for token, postings in self._lists.items():
            kept = array(
                "q", (k for k in postings if (k >> PACK_SHIFT) not in deleted)
            )
            if len(kept) != len(postings):
                removed += len(postings) - len(kept)
                if kept:
                    self._lists[token] = kept
                else:
                    empty_tokens.append(token)
        for token in empty_tokens:
            del self._lists[token]
        if self._empty:
            kept_empty = array(
                "q",
                (k for k in self._empty if (k >> PACK_SHIFT) not in deleted),
            )
            removed += len(self._empty) - len(kept_empty)
            self._empty = kept_empty
        if removed and self._token_based:
            self._compact_contents(deleted)
            self._compact_token_counts(deleted)
        elif removed:
            self._elements = {
                key: element
                for key, element in self._elements.items()
                if (key >> PACK_SHIFT) not in deleted
            }
        self._dead_postings = 0
        self._compactions += 1
        return removed

    def _compact_token_counts(self, deleted: frozenset) -> None:
        """Rewrite the token count column without the *deleted* sets' runs.

        Live runs move down in set-id order; a deleted set's offset is
        left stale, which nothing reads: its postings are gone.
        """
        old = self._token_counts
        offsets = self._count_offsets
        sizes = self._sizes
        counts = array("q")
        for set_id, start in enumerate(offsets):
            if sizes[set_id] and set_id not in deleted:
                offsets[set_id] = len(counts)
                counts.extend(old[start : start + sizes[set_id]])
        self._token_counts = counts

    def _compact_contents(self, deleted: frozenset) -> None:
        """Rebuild the content table without the *deleted* sets.

        Surviving contents keep their relative order and are renumbered
        densely, so the token -> content lists ascend again; nothing
        outside the index holds a content id across calls.
        """
        stored = zip(self._content_records, self._content_sets)
        self._content_of = {}
        self._content_lists = {}
        self._content_records = []
        self._content_sets = []
        self._content_sizes = array("q")
        for element, sets in stored:
            if not deleted.isdisjoint(sets):
                sets = array("q", (s for s in sets if s not in deleted))
                if not sets:
                    continue
            self._new_content(element, sets)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, token: int) -> bool:
        return token in self._lists

    def postings(self, token: int) -> list[Posting]:
        """All postings for *token* as tuples (empty if unindexed).

        Row-oriented compatibility view over :meth:`posting_keys`; the
        selection kernel never calls it.  May include postings of
        tombstoned sets until :meth:`compact` runs; callers that care
        filter against the collection's ``deleted_ids``.
        """
        keys = self._lists.get(token)
        if not keys:
            return []
        return [Posting(k >> PACK_SHIFT, k & PACK_MASK) for k in keys]

    def posting_keys(self, token: int) -> array:
        """Packed sorted posting keys for *token* (shared, do not mutate).

        The columnar view the candidate-selection kernel probes: one
        ``array('q')`` of ``(set_id << 32) | element_index`` keys in
        ascending order, with no per-posting objects.  Tombstoned sets
        stay present until :meth:`compact`, exactly as in
        :meth:`postings`.
        """
        keys = self._lists.get(token)
        return keys if keys is not None else _EMPTY_KEYS

    def list_length(self, token: int) -> int:
        """``|I[t]|`` -- the cost of a token in signature selection.

        A token the index does not hold (an ephemeral query token)
        costs 0; tombstoned sets count until :meth:`compact`.
        """
        postings = self._lists.get(token)
        return len(postings) if postings else 0

    def posting_lists(self) -> Mapping[int, array]:
        """Token id -> its packed posting array (shared, do not mutate).

        The list-length view that costs every token of a reference in
        one C-level pass (``rank_tokens``: ``map(len, map(get, tokens,
        repeat(())))``), each length equal to :meth:`list_length`.  The
        mapping is the index's own and stays current across
        :meth:`add_record` and :meth:`compact`, so nothing derived from
        it needs invalidating.
        """
        return self._lists

    def keys_in_sets(self, token: int, set_ids: Sequence[int]) -> list[int]:
        """Packed keys of *token*'s postings inside the ascending *set_ids*.

        One galloping pass over the posting run: each set id costs one
        ``bisect_left`` that starts where the previous set's slice
        ended (Section 5.2, footnote 7), and the matching keys are read
        off in place.  A repeated set id finds nothing the second time.
        """
        keys = self._lists.get(token)
        found: list[int] = []
        if not keys:
            return found
        lo, end = 0, len(keys)
        for set_id in set_ids:
            lo = bisect_left(keys, set_id << PACK_SHIFT, lo)
            if lo == end:
                break
            stop = (set_id + 1) << PACK_SHIFT
            key = keys[lo]
            while key < stop:
                found.append(key)
                lo += 1
                if lo == end:
                    return found
                key = keys[lo]
        return found

    def empty_postings(self) -> list[Posting]:
        """Postings of elements that tokenised to nothing, as tuples.

        Like :meth:`postings`, may include tombstoned sets until
        :meth:`compact` runs.
        """
        return [Posting(k >> PACK_SHIFT, k & PACK_MASK) for k in self._empty]

    def empty_posting_keys(self) -> array:
        """Packed keys of the empty-element postings (shared view)."""
        return self._empty

    def set_sizes(self) -> array:
        """Element count per set id (flat column, positionally indexed).

        The size-gate input of the selection kernel: ``set_sizes()[s]``
        equals ``len(collection[s])`` for every indexed set.  Sizes are
        recorded at :meth:`add_record` time and stay valid because
        records are immutable; replacing a set allocates a fresh id.
        """
        return self._sizes

    def token_count_column(self) -> tuple[array, array]:
        """``(offsets, counts)``: every stored element's index-token count.

        ``counts[offsets[s] + j] == len(collection[s].elements[j].index_tokens)``
        for every key ``(s << 32) | j`` a posting list holds -- the
        ``|s_j|`` the NN filter's token-kind closed form needs, read as
        two flat positional lookups (``numpy.frombuffer`` views them as
        int64 without copying).  Filled by :meth:`add_record` in any set
        order; :meth:`compact` drops the tombstoned sets' entries, so
        only ids it has not compacted away are meaningful.  Both arrays
        are the index's own (shared, do not mutate) and are rewritten by
        :meth:`compact`, so read them afresh per call.  Both are empty
        for an edit-kind collection, whose NN search scores texts.
        """
        return self._count_offsets, self._token_counts

    def posting_elements(self) -> dict[int, ElementRecord]:
        """Packed posting key -> element record (shared, do not mutate).

        The forward column edit-kind candidate selection gathers its
        scoring targets from: one entry per stored element, holding the
        collection's own :class:`~repro.core.records.ElementRecord`.
        Like the posting lists it keeps tombstoned sets' entries until
        :meth:`compact`.  Empty for a token-kind collection, whose
        selection reads the content table instead.
        """
        return self._elements

    def content_ids(self, token: int) -> array:
        """Ascending ids of the distinct contents holding *token* (shared).

        The content table's probe side (token kinds; always empty for
        an edit-kind collection): where :meth:`posting_keys` lists every
        occurrence of *token*, this lists each distinct ``index_tokens``
        containing it once.  A content whose every set is tombstoned
        stays listed until :meth:`compact`.
        """
        contents = self._content_lists.get(token)
        return contents if contents is not None else _EMPTY_KEYS

    def content_records(self) -> list[ElementRecord]:
        """Content id -> a record with that content (shared, do not mutate).

        The representative is the first occurrence indexed; only its
        ``index_tokens`` mean anything for the content (two texts may
        tokenise to one content).
        """
        return self._content_records

    def content_sets(self) -> list[array]:
        """Content id -> ascending distinct set ids holding it (shared).

        A set appears once however many of its positions hold the
        content; tombstoned sets stay listed until :meth:`compact`, so
        readers gate the ids exactly as they gate posting keys.
        """
        return self._content_sets

    def content_sizes(self) -> array:
        """Content id -> its token count ``|c|`` (shared, do not mutate)."""
        return self._content_sizes

    def tokens(self) -> Iterable[int]:
        """The indexed token ids (one per posting list), unordered."""
        return self._lists.keys()

    def total_postings(self) -> int:
        """Total number of postings stored (index size diagnostic)."""
        return sum(len(postings) for postings in self._lists.values())


#: Shared immutable empty posting array handed out for unindexed tokens.
_EMPTY_KEYS = array("q")
