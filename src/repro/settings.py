"""The ``SILKMOTH_*`` environment variables, declared once.

Every operational setting the package reads from the environment is a
:class:`Setting` in :data:`SETTINGS`: its name, kind, default, range
and a one-line doc.  :func:`resolve` is the only reader -- explicit
argument first, then the environment, then the default -- and applies
one parse policy to all of them:

* for every kind but ``flag``, an empty or whitespace-only value counts
  as unset;
* a ``flag`` is false iff its stripped, lowercased value is one of
  ``""``, ``0``, ``false``, ``no`` or ``off``; anything else is true;
* numbers must be finite and inside the declared range;
* a malformed or out-of-range value, explicit or from the environment,
  raises ``ValueError`` naming the variable and the value.

String arguments parse exactly like environment values, so a command
line or a test may pass either form.  Resolution is lazy: nothing is
read at import, so monkeypatched test environments and shard worker
processes (which inherit their parent's environment) always see the
current value.  The three hot-path readers (``trace_enabled``,
``slowlog_ms``, ``sketch_alpha``) cache the resolved value themselves.

The engine's exactness parameters (delta, alpha, q) are not here; they
live on :class:`~repro.core.config.SilkMothConfig` and are checked by
the planner.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Values (stripped, lowercased) that switch a flag off.
FALSE_WORDS = frozenset({"", "0", "false", "no", "off"})


@dataclass(frozen=True)
class Setting:
    """One declared environment variable.

    ``low`` (and optionally ``high``) bound numeric kinds, inclusively
    unless ``exclusive``; ``choices`` lists a ``choice`` kind's values.  A
    ``path`` resolves to a :class:`~pathlib.Path` (an explicit
    ``False`` disables it without consulting the environment); a
    ``spec`` is a crash-point spec ``point[:n]`` resolving to
    ``(point, n)``.
    """

    name: str
    kind: str
    default: Any
    doc: str
    low: Optional[float] = None
    high: Optional[float] = None
    exclusive: bool = False
    choices: Tuple[str, ...] = ()

    @property
    def shown_default(self) -> str:
        """The default as the docs and CLI help print it."""
        if self.default is None:
            return "unset"
        if self.kind == "flag":
            return "on" if self.default else "off"
        if self.kind == "float":
            return format(self.default, "g")
        return str(self.default)

    @property
    def range_text(self) -> str:
        """The accepted range of a bounded numeric setting, in words."""
        if self.high is not None:
            left, right = "()" if self.exclusive else "[]"
            return f"in {left}{self.low:g}, {self.high:g}{right}"
        return f"{'>' if self.exclusive else '>='} {self.low:g}"

    def coerce(self, value: Any) -> Any:
        """Parse (strings) or check (native values) one set value."""
        try:
            return _COERCE[self.kind](self, value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self.name}={value!r}: {exc}") from None

    def _in_range(self, number):
        below = self.low is not None and (
            number <= self.low if self.exclusive else number < self.low
        )
        above = self.high is not None and (
            number >= self.high if self.exclusive else number > self.high
        )
        if below or above:
            raise ValueError(f"must be {self.range_text}")
        return number


def _coerce_int(setting: Setting, value: Any) -> int:
    try:
        if isinstance(value, str):
            number = int(value)
        else:
            number = operator.index(value)
    except (TypeError, ValueError):
        raise ValueError("expected an integer") from None
    return setting._in_range(number)


def _coerce_float(setting: Setting, value: Any) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError("expected a number") from None
    if not math.isfinite(number):
        raise ValueError("expected a finite number")
    return setting._in_range(number)


def _coerce_flag(setting: Setting, value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() not in FALSE_WORDS
    return bool(value)


def _coerce_choice(setting: Setting, value: Any) -> str:
    name = value.strip() if isinstance(value, str) else value
    if name not in setting.choices:
        raise ValueError(f"expected one of {', '.join(setting.choices)}")
    return name


def _coerce_path(setting: Setting, value: Any) -> Optional[Path]:
    if value is False:
        return None
    return Path(value.strip() if isinstance(value, str) else value)


def _coerce_spec(setting: Setting, value: Any) -> Tuple[str, int]:
    point, _, count = str(value).partition(":")
    point, count = point.strip(), count.strip()
    if not point:
        raise ValueError("expected point[:n], got an empty point")
    try:
        after = int(count) if count else 1
    except ValueError:
        raise ValueError("expected point[:n] with an integer n") from None
    if after < 1:
        raise ValueError("expected point[:n] with n >= 1")
    return point, after


_COERCE = {
    "int": _coerce_int,
    "float": _coerce_float,
    "flag": _coerce_flag,
    "choice": _coerce_choice,
    "path": _coerce_path,
    "spec": _coerce_spec,
}


#: Every ``SILKMOTH_*`` variable the package reads, by name.
SETTINGS: Dict[str, Setting] = {
    setting.name: setting
    for setting in (
        Setting(
            "SILKMOTH_SHARDS", "int", 4,
            "shard engines a SilkMothCluster holds", low=1,
        ),
        Setting(
            "SILKMOTH_REPLICAS", "int", 1,
            "transport endpoints per logical shard", low=1,
        ),
        Setting(
            "SILKMOTH_SHARD_DEADLINE", "float", 0.0,
            "seconds a shard may take per pass before failover; <= 0 "
            "disables",
        ),
        Setting(
            "SILKMOTH_FAILOVER_BACKOFF", "float", 0.05,
            "base seconds of the exponential pause before a failover",
            low=0,
        ),
        Setting(
            "SILKMOTH_CLUSTER_TRANSPORT", "choice", "inline",
            "shard carrier", choices=("inline", "process", "socket"),
        ),
        Setting(
            "SILKMOTH_WAL_DIR", "path", None,
            "write-ahead-log directory; unset disables durability",
        ),
        Setting(
            "SILKMOTH_WAL_SEGMENT_BYTES", "int", 1 << 20,
            "size at which the active WAL segment rotates", low=1,
        ),
        # On by default: an atomic rename alone survives a process
        # crash but not a power cut (it can reach disk before the data).
        Setting(
            "SILKMOTH_FSYNC", "flag", True,
            "fsync WAL appends, checkpoints and snapshots",
        ),
        Setting(
            "SILKMOTH_SIM_CACHE", "int", 65536,
            "element pairs the similarity memo holds; 0 disables", low=0,
        ),
        Setting(
            "SILKMOTH_SKETCH_ALPHA", "float", 0.01,
            "relative-error bound of the latency quantile sketches",
            low=0, high=1, exclusive=True,
        ),
        Setting(
            "SILKMOTH_SLOWLOG_MS", "float", 100.0,
            "slow-query threshold in ms; 0 captures all, < 0 disables",
        ),
        Setting(
            "SILKMOTH_SLOWLOG_CAPACITY", "int", 256,
            "slow-query ring size in entries", low=1,
        ),
        Setting(
            "SILKMOTH_SLOWLOG_EXPORT", "path", None,
            "JSONL file the CLI appends captured slow queries to",
        ),
        Setting("SILKMOTH_TRACE", "flag", False, "per-query tracing spans"),
        Setting(
            "SILKMOTH_TRACE_EXPORT", "path", None,
            "JSONL file the CLI writes buffered spans to",
        ),
        Setting(
            "SILKMOTH_CRASH_AT", "spec", None,
            "fault injection: simulated power cut at the n-th hit of a "
            "crash point",
        ),
    )
}


def resolve(name: str, explicit: Any = None) -> Any:
    """Value of setting *name*: *explicit*, else the environment, else
    the declared default (see the module doc for the parse policy)."""
    setting = SETTINGS[name]
    for value in (explicit, os.environ.get(name)):
        if value is None:
            continue
        blank = isinstance(value, str) and not value.strip()
        if blank and setting.kind != "flag":
            continue
        return setting.coerce(value)
    return setting.default


def resolve_all() -> Dict[str, Any]:
    """Resolve every declared setting from the environment now.

    Entry points call this first so that a malformed variable fails
    before any work starts; the values are not cached.
    """
    return {name: resolve(name) for name in SETTINGS}


def help_default(name: str) -> str:
    """``"SILKMOTH_X, then D"``: where a CLI option's default comes from."""
    return f"{name}, then {SETTINGS[name].shown_default}"
