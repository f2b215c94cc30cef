"""Signature data structure and the scheme interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

from repro.core.records import SetRecord
from repro.index.inverted import InvertedIndex
from repro.sim.functions import SimilarityFunction


@dataclass(frozen=True)
class Signature:
    """A generated signature for one reference set.

    Attributes
    ----------
    tokens:
        The flattened signature ``L^T`` -- the token ids probed against
        the inverted index during candidate selection.
    per_element:
        The unflattened signature: ``per_element[i]`` is ``l_i``, the
        signature tokens drawn from element i (possibly empty).
    element_bounds:
        ``element_bounds[i]`` is a sound upper bound on
        ``phi_alpha(r_i, s)`` for any element ``s`` of a set sharing no
        token with ``l_i``.  These bounds drive the check and
        nearest-neighbour filters.
    scheme:
        Registry name of the scheme that produced the signature.
    """

    tokens: frozenset[int]
    per_element: tuple[frozenset[int], ...]
    element_bounds: tuple[float, ...]
    scheme: str

    @property
    def residual(self) -> float:
        """Sum of the per-element bounds (the filters' starting estimate)."""
        return sum(self.element_bounds)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SignedReference:
    """A query reference and the signature a pass generated for it
    (``None``: a full scan).  Validity is arithmetic on the reference
    and theta (Lemma 1), so a later pass may probe with it again
    across adds, replans and compactions while it is :meth:`current`.
    """

    record: SetRecord
    signature: Signature | None

    def __len__(self) -> int:
        return len(self.record)

    def current(self, vocabulary) -> bool:
        """Whether no token the record gave an ephemeral id is real now."""
        return not any(map(vocabulary.__contains__, self.record.unseen))


def cheapest(tokens: Iterable[int], index: InvertedIndex, count: int) -> frozenset[int]:
    """The *count* tokens with the shortest inverted lists (ties by id)."""
    ranked = sorted(tokens, key=lambda t: (index.list_length(t), t))
    return frozenset(ranked[:count])


class SignatureScheme(abc.ABC):
    """Strategy interface for signature generation.

    ``generate`` returns None when the scheme admits no valid signature
    for the given parameters (possible for edit similarity when q is too
    large, Section 7.3); the engine then falls back to comparing the
    reference against every set.
    """

    #: Registry name, overridden by concrete schemes.
    name: str = "abstract"

    @abc.abstractmethod
    def generate(
        self,
        reference: SetRecord,
        theta: float,
        phi: SimilarityFunction,
        index: InvertedIndex,
    ) -> Signature | None:
        """Build a valid signature for *reference* under threshold *theta*."""
