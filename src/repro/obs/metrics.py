"""Process-wide metrics registry: labelled counters.

Mirrors the Prometheus client data model at the scale this repo
needs, with zero dependencies: a counter *family* owns a name, a help
string, and children keyed by label values; exporters
(:mod:`repro.obs.export`) render the registry as Prometheus text
exposition or JSON.  Counters are **always on** -- dict lookups and
float adds, cheap enough for every hot path -- and registration is
idempotent so instrumented modules can be imported in any order.

Counting is the registry's one job.  Latencies are recorded once, in
the quantile sketches of :mod:`repro.obs.sketch`, whose ``summary``
exposition carries the ``_sum`` / ``_count`` a histogram would.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class _Child:
    """One labelled series inside a counter family."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Metric:
    """A named counter family."""

    def __init__(
        self, name: str, help_text: str, label_names: Tuple[str, ...] = ()
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def child(self, **labels: object) -> _Child:
        """The series for this label combination (opened on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = _Child()
            self._children[key] = child
        return child

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` to one labelled series (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.child(**labels).value += amount

    def series(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        """Stable (label-values, child) pairs for exporters."""
        return sorted(self._children.items())

    def value(self, **labels: object) -> float:
        """Current value of one series (0 if unseen)."""
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class MetricsRegistry:
    """Holds every counter family; registration is idempotent."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(
        self, name: str, help_text: str, label_names: Iterable[str] = ()
    ) -> Metric:
        """Create (or fetch the existing) counter family called ``name``.

        Re-registering returns the original family so long as the
        label names match; a label clash raises -- two modules
        disagreeing about a family's shape is a bug worth failing on.
        """
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}"
                )
            return existing
        metric = Metric(name, help_text, tuple(label_names))
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        """The family called ``name``, or ``None``."""
        return self._metrics.get(name)

    def families(self) -> List[Metric]:
        """Every registered family, sorted by name."""
        return [self._metrics[k] for k in sorted(self._metrics)]


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh registry (test isolation) and return it."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    return _REGISTRY
