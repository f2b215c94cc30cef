"""Data model: elements, sets, and collections of sets.

A :class:`SetRecord` is the unit of relatedness search -- a column, a
schema, a tokenised string, depending on the application.  Each of its
:class:`ElementRecord` members carries both the original text (needed by
edit-similarity verification) and two tokenised views:

* ``index_tokens`` -- the tokens used for the inverted index and nearest
  neighbour search (words, or q-grams),
* ``signature_tokens`` -- the tokens signatures may select (words, or
  q-chunks; a subset of the q-gram space).

A :class:`SetCollection` owns a shared :class:`Vocabulary` and a
:class:`Tokenizer` so that a reference collection R and a searched
collection S can be tokenised consistently.

Records are *shared*: column data repeats its values, so a collection
keeps an element dictionary (text -> the one immutable
:class:`ElementRecord` every occurrence of that text holds) and
tokenises each distinct text once.  Two elements of one collection are
the same object exactly when their texts are equal; a set that lists a
text twice still has two positions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from numbers import Integral

from repro.sim.functions import SimilarityKind
from repro.tokenize.tokenizers import Tokenizer
from repro.tokenize.vocabulary import Vocabulary


def is_set_id(value) -> bool:
    """Whether *value* can name a set: an integer that is not a ``bool``.

    Range and liveness are the id space's own checks; this one keeps a
    float, a string or ``True`` from passing them by comparison.
    """
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ElementRecord:
    """One element of a set, with its tokenised views.

    Attributes
    ----------
    text:
        Original element string.
    index_tokens:
        Distinct token ids for index/NN purposes.
    signature_tokens:
        Distinct token ids signatures may select from.  Equal to
        ``index_tokens`` for Jaccard; the q-chunk subset for edit kinds.
    length:
        The element "size" the paper's formulas use: number of word
        tokens under Jaccard, string length under edit similarity.

    For the token kinds ``signature_tokens`` *is* ``index_tokens`` (one
    frozenset) and ``length`` its size.  Records are immutable and
    shared by every occurrence of their text in a collection
    (:meth:`SetCollection.make_element`).
    """

    text: str
    index_tokens: frozenset[int]
    signature_tokens: frozenset[int]
    length: int

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class SetRecord:
    """A set of elements, identified by its position in the collection."""

    set_id: int
    elements: tuple[ElementRecord, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ElementRecord]:
        return iter(self.elements)

    @property
    def token_universe(self) -> frozenset[int]:
        """All distinct signature-token ids in the set (the paper's R^T)."""
        universe: set[int] = set()
        for element in self.elements:
            universe |= element.signature_tokens
        return frozenset(universe)


@dataclass(frozen=True)
class QueryRecord(SetRecord):
    """A query reference; ``unseen``: the tokens it gave ephemeral ids."""

    unseen: frozenset[str] = frozenset()


class SetCollection(Sequence):
    """An ordered collection of :class:`SetRecord` sharing one vocabulary.

    Set ids are positional and stable: removing a set tombstones it
    (the record stays addressable by id so index postings and stored
    results keep meaning) rather than renumbering the survivors.  Batch
    code that never mutates sees no tombstones and behaves exactly as
    before; the online service (:mod:`repro.service`) relies on
    :meth:`remove_set` / :meth:`replace_set` for mutability.

    The element dictionary grows with the distinct texts ever added and
    with nothing else: tombstoned records already live as long as the
    collection, and query references (:meth:`query_set`) read it
    without writing.
    """

    def __init__(self, tokenizer: Tokenizer, vocabulary: Vocabulary | None = None):
        self.tokenizer = tokenizer
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._sets: list[SetRecord] = []
        # Element dictionary: text -> the record all its occurrences share.
        self._records: dict[str, ElementRecord] = {}
        self._deleted: set[int] = set()
        self._deleted_frozen: frozenset[int] = frozenset()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_strings(
        cls,
        sets: Iterable[Sequence[str]],
        kind: SimilarityKind = SimilarityKind.JACCARD,
        q: int = 1,
        vocabulary: Vocabulary | None = None,
    ) -> "SetCollection":
        """Build a collection from raw data: one sequence of element strings per set."""
        collection = cls(Tokenizer(kind=kind, q=q), vocabulary)
        for elements in sets:
            collection.add_set(elements)
        return collection

    def add_set(self, elements: Sequence[str]) -> SetRecord:
        """Tokenise *elements* and append them as a new set."""
        record = SetRecord(
            set_id=len(self._sets),
            elements=tuple(self.make_element(text) for text in elements),
        )
        self._sets.append(record)
        return record

    def query_set(self, elements: Sequence[str]) -> SetRecord:
        """Tokenise *elements* as a throwaway query reference.

        Unlike :meth:`add_set`, the record is not appended and unseen
        tokens are NOT interned: they get ephemeral negative ids
        (shared across the record's elements), so serving arbitrary
        query traffic cannot grow this collection's vocabulary -- or
        its element dictionary: a text the collection knows reuses the
        stored record (every token of it is interned, so that record is
        field for field what tokenising it here would build), an
        unknown one is tokenised and forgotten.  The record's
        ``set_id`` is -1: it does not address this collection.
        """
        ephemeral: dict[str, int] = {}
        elements = tuple(
            self.make_element(text, intern=False, ephemeral=ephemeral)
            for text in elements
        )
        return QueryRecord(-1, elements, frozenset(ephemeral))

    def make_element(
        self,
        text: str,
        intern: bool = True,
        ephemeral: dict[str, int] | None = None,
    ) -> ElementRecord:
        """The record of one element string under this collection's vocabulary.

        A text the collection already holds returns the stored record
        -- the same object -- without tokenising; a new text is
        tokenised and, when interning, stored for its next occurrence.
        With ``intern=False``, unseen tokens get ephemeral negative ids
        instead of growing the vocabulary, and the record is not
        stored -- for query-side references that are discarded after
        one search pass.  *ephemeral* carries the shared unseen-token
        mapping across one record's elements.
        """
        record = self._records.get(text)
        if record is not None:
            return record
        if intern:
            to_ids = self.vocabulary.intern_all
        else:
            def to_ids(tokens):
                return self.vocabulary.resolve_all(tokens, ephemeral)
        index_tokens = frozenset(to_ids(self.tokenizer.index_tokens(text)))
        if self.tokenizer.kind.is_token_based:
            signature_tokens = index_tokens
            length = len(index_tokens)
        else:
            signature_tokens = frozenset(
                to_ids(self.tokenizer.signature_tokens(text))
            )
            length = len(text)
        record = ElementRecord(text, index_tokens, signature_tokens, length)
        if intern:
            self._records[text] = record
        return record

    # -- mutation -------------------------------------------------------
    def remove_set(self, set_id: int) -> SetRecord:
        """Tombstone the set with *set_id* and return its record.

        The record keeps its position (ids are never reused), but it no
        longer participates in search, discovery, or brute force.

        Raises
        ------
        KeyError
            If *set_id* is not an integer, is out of range or is
            already removed.
        """
        if not (is_set_id(set_id) and 0 <= set_id < len(self._sets)):
            raise KeyError(
                f"set_id {set_id!r} out of range (0..{len(self._sets) - 1})"
            )
        if set_id in self._deleted:
            raise KeyError(f"set_id {set_id} is already removed")
        self._deleted.add(set_id)
        self._deleted_frozen = frozenset(self._deleted)
        return self._sets[set_id]

    def replace_set(
        self, set_id: int, elements: Sequence[str]
    ) -> tuple[SetRecord, SetRecord]:
        """Tombstone *set_id* and append *elements* as a new set.

        Returns ``(old_record, new_record)`` -- the old one so callers
        (e.g. the index) can account for its now-dead postings, the new
        one under its fresh id.  The old id stays a tombstone, which
        keeps every inverted-index posting list append-only; that is
        what makes online updates cheap.
        """
        old = self.remove_set(set_id)
        return old, self.add_set(elements)

    def is_live(self, set_id: int) -> bool:
        """Whether *set_id* addresses a live (non-tombstoned) set."""
        return (
            is_set_id(set_id)
            and 0 <= set_id < len(self._sets)
            and set_id not in self._deleted
        )

    @property
    def deleted_ids(self) -> frozenset[int]:
        """Ids of tombstoned sets.

        Cached: candidate selection reads this once per query pass, so
        it must not cost O(lifetime removals) to build each time.
        """
        return self._deleted_frozen

    @property
    def live_count(self) -> int:
        """Number of live sets (total minus tombstones)."""
        return len(self._sets) - len(self._deleted)

    def iter_live(self) -> Iterator[SetRecord]:
        """Iterate only the live records, in set-id order."""
        deleted = self._deleted
        if not deleted:
            return iter(self._sets)
        return (r for r in self._sets if r.set_id not in deleted)

    def sibling(self) -> "SetCollection":
        """An empty collection sharing this one's tokenizer and vocabulary.

        Use this to tokenise a reference collection R consistently with a
        searched collection S.  The sibling starts its own (empty)
        element dictionary: its records equal this collection's for
        equal texts but are not the same objects.
        """
        return SetCollection(self.tokenizer, self.vocabulary)

    # -- Sequence protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, index):
        return self._sets[index]

    def __iter__(self) -> Iterator[SetRecord]:
        return iter(self._sets)
