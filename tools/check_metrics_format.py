#!/usr/bin/env python3
"""Lint a Prometheus text-format exposition (version 0.0.4).

CI's telemetry smoke leg pipes ``silkmoth stats --metrics prom``
through this tool so a malformed exposition -- which a real Prometheus
scraper would reject silently or partially -- fails the build instead.
The checks mirror what ``repro.obs.export.to_prometheus_text``
promises:

* metric and label names match the Prometheus naming grammar;
* every sample is preceded by ``# HELP`` and ``# TYPE`` lines for its
  family, and the TYPE is one the exporter emits: ``counter`` or
  ``summary``.  A ``histogram`` or ``gauge`` family is a problem: the
  registry only counts, and every latency is a quantile summary;
* sample values parse as floats and counter samples are non-negative;
* summary ``quantile`` samples are sorted by quantile and their values
  are monotone non-decreasing (a p99 below the p50 is a bug);
* the exposition is *deterministic*: families first appear in
  name-sorted order, and within a family the labelled series appear in
  sorted label-value order -- so two expositions of the same state
  diff cleanly.

Usage::

    silkmoth stats data.txt --metrics prom | python tools/check_metrics_format.py
    python tools/check_metrics_format.py metrics.prom
"""

from __future__ import annotations

import re
import sys

#: Prometheus metric-name grammar.
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Prometheus label-name grammar.
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: One sample line: name, optional {labels}, value.
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")
#: One label pair inside the braces (values are escaped strings).
LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: The TYPEs the exporter emits.
_TYPES = ("counter", "summary")
#: Suffixes a summary family's samples may carry (quantile samples use
#: the bare family name).
_SUMMARY_SUFFIXES = ("_sum", "_count")


def _family_of(sample_name: str, types: dict) -> str:
    """Map a sample name to its declaring family (summary suffixes
    collapse onto the base name)."""
    if sample_name in types:
        return sample_name
    for suffix in _SUMMARY_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "summary":
                return base
    return sample_name


def lint(text: str) -> list:
    """Return a list of ``(line_number, message)`` problems (empty = clean)."""
    problems = []
    helps: dict = {}
    types: dict = {}
    # Family name -> line of first appearance (HELP/TYPE/sample), in
    # file order -- the exposition must introduce families name-sorted.
    family_order: dict = {}
    # Family -> consecutive-deduped (lineno, label-values) series keys in
    # file order (quantile excluded) -- must be sorted per family.
    series_order: dict = {}
    # (family, label-key) -> list of (lineno, quantile, value) for
    # summary quantile samples, in file order.
    quantiles: dict = {}

    def _note_family(name: str, lineno: int) -> None:
        family_order.setdefault(name, lineno)

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                problems.append((lineno, "malformed HELP line"))
                continue
            helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            _note_family(parts[2], lineno)
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append((lineno, "malformed TYPE line"))
                continue
            if parts[3] not in _TYPES:
                problems.append(
                    (
                        lineno,
                        f"{parts[2]} has TYPE {parts[3]}; the exporter "
                        "emits only counter and summary",
                    )
                )
                continue
            if parts[2] in types:
                problems.append((lineno, f"duplicate TYPE for {parts[2]}"))
            types[parts[2]] = parts[3]
            _note_family(parts[2], lineno)
            continue
        if line.startswith("#"):
            continue  # arbitrary comments are legal
        match = SAMPLE_RE.match(line)
        if not match:
            problems.append((lineno, f"unparseable sample line: {line!r}"))
            continue
        name, label_blob, raw_value = match.groups()
        if not METRIC_NAME_RE.match(name):
            problems.append((lineno, f"invalid metric name {name!r}"))
            continue
        family = _family_of(name, types)
        if family not in types:
            problems.append((lineno, f"sample {name!r} has no TYPE line"))
        if family not in helps:
            problems.append((lineno, f"sample {name!r} has no HELP line"))
        _note_family(family, lineno)
        labels = {}
        ordered_values = []
        if label_blob:
            for label_name, label_value in LABEL_PAIR_RE.findall(label_blob):
                if not LABEL_NAME_RE.match(label_name):
                    problems.append(
                        (lineno, f"invalid label name {label_name!r}")
                    )
                labels[label_name] = label_value
                if label_name != "quantile":
                    ordered_values.append(label_value)
        series_key = tuple(ordered_values)
        family_series = series_order.setdefault(family, [])
        if not family_series or family_series[-1][1] != series_key:
            family_series.append((lineno, series_key))
        try:
            value = float(raw_value)
        except ValueError:
            problems.append((lineno, f"unparseable value {raw_value!r}"))
            continue
        kind = types.get(family)
        if kind == "counter" and value < 0:
            problems.append((lineno, f"counter {name} is negative"))
        if kind == "summary" and name == family and "quantile" in labels:
            try:
                q = float(labels["quantile"])
            except ValueError:
                problems.append(
                    (lineno, f"unparseable quantile {labels['quantile']!r}")
                )
                continue
            quantiles.setdefault((family, series_key), []).append(
                (lineno, q, value)
            )
    for (family, _), rows in quantiles.items():
        qs = [q for _, q, _ in rows]
        first_line = rows[0][0]
        if qs != sorted(qs):
            problems.append(
                (first_line, f"{family} quantile labels not sorted")
            )
        # Monotonicity is a property of the (q, value) pairs, not of
        # the file order: sort by quantile before comparing values.
        values = [
            value for _, _, value in sorted(rows, key=lambda row: row[1])
        ]
        if values != sorted(values):
            problems.append(
                (
                    first_line,
                    f"{family} quantile values not monotone in quantile",
                )
            )
    previous = None
    for family, lineno in family_order.items():
        if previous is not None and family < previous:
            problems.append(
                (
                    lineno,
                    f"family {family} appears after {previous}; families "
                    "must be emitted in sorted name order",
                )
            )
        previous = family
    for family, entries in series_order.items():
        keys = [key for _, key in entries]
        deduped = []
        for key in keys:
            if key not in deduped:
                deduped.append(key)
        if len(deduped) != len(keys):
            problems.append(
                (
                    entries[0][0],
                    f"{family} label sets interleaved (series must be "
                    "contiguous)",
                )
            )
        elif keys != sorted(keys):
            problems.append(
                (
                    entries[0][0],
                    f"{family} label sets not in sorted order",
                )
            )
    return problems


def main(argv=None) -> int:
    """Entry point: lint stdin or the file named in argv; 0 when clean."""
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        with open(argv[0], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        print("error: empty exposition", file=sys.stderr)
        return 1
    problems = lint(text)
    for lineno, message in problems:
        print(f"line {lineno}: {message}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    samples = sum(
        1
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )
    print(f"exposition OK ({samples} sample line(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
