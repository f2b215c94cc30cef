"""Element-level similarity functions (paper Section 2.1).

SilkMoth measures relatedness between *sets* via a maximum weighted
bipartite matching whose edge weights come from an element-level
similarity function ``phi``.  This subpackage implements the three
functions the paper supports:

* :func:`jaccard` -- token-based Jaccard similarity,
* :func:`eds` -- edit similarity ``1 - 2*LD / (|x| + |y| + LD)``,
* :func:`neds` -- normalised edit similarity ``1 - LD / max(|x|, |y|)``,

plus :func:`levenshtein` (the underlying edit distance, run by the
bit-parallel Myers kernel with the classic DP kept as reference --
see :mod:`repro.sim.levenshtein` and :mod:`repro.sim.myers`),
:class:`SimilarityFunction`, the ``alpha``-thresholded wrapper used
throughout the engine, and :class:`SimilarityMemo`, the cross-stage
element-pair similarity cache (:mod:`repro.sim.memo`).
"""

from repro.sim.levenshtein import levenshtein, levenshtein_within
from repro.sim.memo import SimilarityMemo
from repro.sim.myers import myers_distance, myers_within
from repro.sim.functions import (
    SimilarityFunction,
    SimilarityKind,
    eds,
    jaccard,
    neds,
)

__all__ = [
    "SimilarityFunction",
    "SimilarityKind",
    "SimilarityMemo",
    "eds",
    "jaccard",
    "levenshtein",
    "levenshtein_within",
    "myers_distance",
    "myers_within",
    "neds",
]
