"""Command-line interface: ``silkmoth`` discover / search / stats.

The CLI is a thin layer over the library so that related-set discovery
works on real files without writing any Python:

* ``silkmoth discover titles.txt --delta 0.8 --sim eds --alpha 0.8``
  finds all related pairs within one input (the paper's DISCOVERY mode).
* ``silkmoth search data.jsonl --reference 3 --metric containment``
  finds everything related to one reference set (SEARCH mode).
* ``silkmoth stats data.csv --format csv-columns`` prints the Table 3
  style dataset profile without running any search.
* ``silkmoth explain titles.txt --reference 0`` prints the planner's
  query plan (scheme, q validity, fallback decision); add
  ``--candidate N`` to also trace one pair through the pipeline.
* ``silkmoth service snapshot|query|info`` drives the online serving
  layer: build a mutable service snapshot, serve batched reference
  queries against it (with cache and fan-out), or inspect one.
* ``silkmoth cluster shard|query|info`` drives the sharded layer:
  split an input dataset into a cluster manifest plus per-shard
  version-3 snapshots, serve reference queries against the cluster
  (every query goes to every shard), or inspect a manifest's shards
  and planner decisions.
* ``silkmoth wal inspect|recover`` drives the durability layer:
  summarise a write-ahead-log directory (checkpoint header, segments,
  torn tail) or replay it into a recovered service, optionally
  snapshotting the result with ``--output``.
* ``silkmoth trace out.jsonl [--top N]`` renders an exported span
  trace as a flame tree, or aggregates span self-time into a hotspot
  table with ``--top``.
* ``silkmoth slowlog slow.jsonl`` views captured slow queries with
  their full plan provenance; ``silkmoth health target.json`` rolls
  latency sketches, cache hit rates, WAL and replica state into one
  JSON/human summary for a snapshot or cluster manifest.

Input formats (``--format``):

=============  ========================================================
``text``       one set per line, elements are whitespace words
``jsonl``      one JSON array of element strings per line
``csv-columns``  each CSV column is a set of cell values
``csv-schema``   the whole CSV is one set; each column is an element
=============  ========================================================

Results go to stdout as TSV by default, or to ``--output`` as CSV/JSON
(by file extension).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import closing
from pathlib import Path

from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.core.topk import TopKSearcher
from repro.io.loaders import (
    load_csv_columns,
    load_csv_schema,
    load_jsonl_sets,
    load_string_sets,
)
from repro.io.persistence import CLUSTER_FORMAT_NAME, FORMAT_NAME, read_document
from repro.io.wal import CHECKPOINT_NAME, WalError
from repro.io.writers import (
    write_discovery_csv,
    write_discovery_json,
    write_search_csv,
    write_search_json,
)
from repro.settings import SETTINGS, help_default, resolve, resolve_all
from repro.sim.functions import SimilarityKind
from repro.signatures import SCHEME_NAMES

#: --format choices accepted by every subcommand.
FORMATS = ("text", "jsonl", "csv-columns", "csv-schema")


class UsageError(Exception):
    """A bad argument value or an empty input: printed as is, exit 1."""


def load_sets(path: str, fmt: str) -> tuple[list[list[str]], list[str]]:
    """Load *path* as sets per *fmt*; returns (sets, set labels)."""
    if fmt == "text":
        sets = load_string_sets(path)
        labels = [f"line{i + 1}" for i in range(len(sets))]
    elif fmt == "jsonl":
        sets = load_jsonl_sets(path)
        labels = [f"set{i}" for i in range(len(sets))]
    elif fmt == "csv-columns":
        by_column = load_csv_columns(path)
        labels = list(by_column)
        sets = [by_column[name] for name in labels]
    elif fmt == "csv-schema":
        sets = [load_csv_schema(path)]
        labels = [Path(path).stem]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return sets, labels


def _load_input(
    path: str, fmt: str, empty: str = "no sets found in input"
) -> tuple[list[list[str]], list[str]]:
    """:func:`load_sets`, with an input holding no sets a usage error."""
    sets, labels = load_sets(path, fmt)
    if not sets:
        raise UsageError(empty)
    return sets, labels


def _open_input(
    args: argparse.Namespace,
) -> tuple[SilkMothConfig, list[str], SetCollection]:
    """An input-taking command's config, set labels and sets, tokenised
    per the config's similarity kind and q."""
    config = build_config(args)
    sets, labels = _load_input(args.input, args.format)
    collection = SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )
    return config, labels, collection


def _check_index(flag: str, index: int, count: int) -> None:
    """*index* must address one of *count* input sets."""
    if not 0 <= index < count:
        raise UsageError(f"{flag} {index} out of range (0..{count - 1})")


def _remove(target, set_ids) -> None:
    """Tombstone each ``--remove`` id on a collection or a cluster."""
    for set_id in set_ids or ():
        if not target.is_live(set_id):
            raise UsageError(f"--remove {set_id} out of range or duplicated")
        target.remove_set(set_id)


def build_config(args: argparse.Namespace) -> SilkMothConfig:
    """Translate parsed CLI flags into a :class:`SilkMothConfig`."""
    return SilkMothConfig(
        metric=Relatedness(args.metric),
        similarity=SimilarityKind(args.sim),
        delta=args.delta,
        alpha=args.alpha,
        q=args.q,
        scheme=args.scheme,
        check_filter=not args.no_check_filter,
        nn_filter=not args.no_nn_filter,
        reduction=not args.no_reduction,
    )


def open_target(
    path: "str | Path", fmt: "str | None" = None, **settings
) -> tuple[str, SilkMothConfig]:
    """A snapshot, manifest or checkpoint's format and tokenizer config.

    The file is read -- and checked -- by the one snapshot reader,
    without tokenising; *settings* are further config fields
    (thresholds) for a command that serves under the file's tokenizer.
    """
    payload = read_document(path, fmt)
    kind = SimilarityKind(payload["similarity"])
    config = SilkMothConfig(
        similarity=kind,
        q=payload["q"] if kind.is_edit_based else None,
        **settings,
    )
    return payload["format"], config


def _write_rows(columns: tuple, rows) -> None:
    """Stdout TSV: *columns* plus score and relatedness, then one line
    per ``(column values, result)`` in *rows*."""
    lines = [(*columns, "score", "relatedness")]
    lines += [(*keys, f"{r.score:.6g}", f"{r.relatedness:.6g}") for keys, r in rows]
    sys.stdout.write("".join("\t".join(line) + "\n" for line in lines))


def _write_output(args, results, kind: str, labels: list[str]) -> None:
    """Emit results to --output (csv/json by extension) or stdout TSV."""
    discovery = kind == "discovery"
    if args.output:
        writers = {
            ".csv": (write_discovery_csv, write_search_csv),
            ".json": (write_discovery_json, write_search_json),
        }.get(Path(args.output).suffix.lower())
        if writers is None:
            raise SystemExit(
                f"--output must end in .csv or .json, got {args.output!r}"
            )
        writers[0 if discovery else 1](args.output, results)
    elif discovery:
        _write_rows(
            ("reference", "set"),
            (((labels[r.reference_id], labels[r.set_id]), r) for r in results),
        )
    else:
        _write_rows(("set",), (((labels[r.set_id],), r) for r in results))


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_discover(args: argparse.Namespace) -> int:
    """``silkmoth discover``: all related pairs within the input."""
    config, labels, collection = _open_input(args)
    engine = SilkMoth(collection, config)
    started = time.perf_counter()
    results = engine.discover()
    elapsed = time.perf_counter() - started
    _write_output(args, results, "discovery", labels)
    if not args.quiet:
        stats = engine.stats
        print(
            f"# {len(results)} related pair(s) among {len(collection)} sets "
            f"in {elapsed:.3f}s; verified {stats.verified} of "
            f"{stats.initial_candidates} initial candidates",
            file=sys.stderr,
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """``silkmoth search``: everything related to one reference set."""
    config, labels, collection = _open_input(args)
    _check_index("--reference", args.reference, len(collection))
    reference = collection[args.reference]
    started = time.perf_counter()
    if args.top_k is not None:
        searcher = TopKSearcher(collection, config)
        outcome = searcher.search(
            reference, args.top_k, skip_set=args.reference
        )
        results = list(outcome.results)
    else:
        engine = SilkMoth(collection, config)
        results = engine.search(reference, skip_set=args.reference)
    elapsed = time.perf_counter() - started
    _write_output(args, results, "search", labels)
    if not args.quiet:
        print(
            f"# {len(results)} related set(s) for reference "
            f"{labels[args.reference]!r} in {elapsed:.3f}s",
            file=sys.stderr,
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the query plan report, plus a pair trace with --candidate."""
    from repro.core.explain import explain, format_explanation

    config, _, collection = _open_input(args)
    _check_index("--reference", args.reference, len(collection))
    if args.candidate is not None:
        _check_index("--candidate", args.candidate, len(collection))
    engine = SilkMoth(collection, config)
    reference = collection[args.reference]
    print(engine.plan(reference, skip_set=args.reference).describe())
    if args.candidate is not None:
        print()
        explanation = explain(engine, reference, args.candidate)
        print(format_explanation(explanation, engine, reference))
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Verify exactness on this input: engine output == brute force."""
    import random

    from repro.baselines.brute_force import brute_force_search

    config, labels, collection = _open_input(args)
    engine = SilkMoth(collection, config)
    rng = random.Random(args.seed)
    sample = list(range(len(collection)))
    if args.sample and args.sample < len(sample):
        sample = sorted(rng.sample(sample, args.sample))
    started = time.perf_counter()
    mismatches = 0
    for reference_id in sample:
        reference = collection[reference_id]
        got = sorted(
            r.set_id for r in engine.search(reference, skip_set=reference_id)
        )
        expected = sorted(
            r.set_id
            for r in brute_force_search(
                reference, collection, config, skip_set=reference_id
            )
        )
        if got != expected:
            mismatches += 1
            print(
                f"MISMATCH for reference {labels[reference_id]!r}: "
                f"engine={got} brute-force={expected}",
                file=sys.stderr,
            )
    elapsed = time.perf_counter() - started
    if mismatches:
        print(
            f"selfcheck FAILED: {mismatches}/{len(sample)} references differ",
            file=sys.stderr,
        )
        return 1
    print(
        f"selfcheck passed: {len(sample)} reference(s) verified exact "
        f"against brute force in {elapsed:.3f}s"
    )
    return 0


def cmd_service_snapshot(args: argparse.Namespace) -> int:
    """Build a version-2 service snapshot from an input dataset.

    The snapshot stores raw sets plus tombstones; the serving process
    rebuilds the inverted index on load and re-plans against its own
    statistics, so the planner metadata recorded here is config-only
    (validity and fallback facts are exact; a ``scheme="auto"``
    choice is finalised at serving time) and flagged
    ``planned_without_index``.
    """
    from repro.io.persistence import save_service_snapshot
    from repro.planner import plan_query

    config, _, collection = _open_input(args)
    _remove(collection, args.remove)
    # Config-only plan: the validity/fallback facts are exact, and the
    # serving process re-plans against live index statistics on load
    # anyway -- building an index here just for metadata would double
    # the snapshot cost.  The flag makes the provenance explicit.
    planner_meta = plan_query(config).to_dict()
    planner_meta["planned_without_index"] = True
    save_service_snapshot(
        args.output,
        collection,
        metadata={
            "generation": len(collection.deleted_ids),
            "planner": planner_meta,
        },
    )
    if not args.quiet:
        print(
            f"# snapshot {args.output}: {collection.live_count} live set(s), "
            f"{len(collection.deleted_ids)} tombstone(s)",
            file=sys.stderr,
        )
    return 0


def _serve(args: argparse.Namespace, open_front, describe) -> int:
    """The body of ``service query`` and ``cluster query``.

    Serves the references ``--repeat`` times over the
    :class:`~repro.service.batch.QueryFront` that ``open_front(config)``
    opens; ``describe(front)`` gives the summary line's two
    front-specific parts, ``(where, tail)``.
    """
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {args.repeat}")
    config = build_config(args)
    references, labels = _load_input(
        args.references, args.format, "no reference sets found"
    )
    with closing(open_front(config)) as front:
        started = time.perf_counter()
        for _ in range(args.repeat):
            batches = front.search_many(
                references, processes=getattr(args, "processes", None)
            )
        elapsed = time.perf_counter() - started
        _write_rows(
            ("reference", "set"),
            (
                ((label, str(r.set_id)), r)
                for label, results in zip(labels, batches)
                for r in results
            ),
        )
        if not args.quiet:
            where, tail = describe(front)
            print(
                f"# served {front.stats.queries} query(ies){where} in "
                f"{elapsed:.3f}s; cache hit rate "
                f"{front.stats.cache_hit_rate:.0%}; {tail}",
                file=sys.stderr,
            )
    return 0


def cmd_service_query(args: argparse.Namespace) -> int:
    """Serve a batch of reference queries from a service snapshot."""
    from repro.service import SilkMothService

    return _serve(
        args,
        lambda config: SilkMothService.load(args.snapshot, config),
        lambda service: (
            "",
            f"{service.stats.batch_queries_deduplicated} deduplicated in batch",
        ),
    )


def cmd_service_info(args: argparse.Namespace) -> int:
    """Describe a service snapshot without running any queries."""
    from repro.io.persistence import load_service_snapshot

    collection, metadata = load_service_snapshot(args.snapshot)
    deleted = sorted(collection.deleted_ids)
    print(f"similarity:   {collection.tokenizer.kind.value}")
    print(f"q:            {collection.tokenizer.q}")
    print(f"total sets:   {len(collection)}")
    print(f"live sets:    {collection.live_count}")
    print(f"tombstones:   {len(deleted)}" + (f" {deleted}" if deleted else ""))
    if metadata:
        print(f"generation:   {metadata.get('generation', 0)}")
        planner = metadata.get("planner")
        if isinstance(planner, dict):
            for key in ("scheme", "q", "full_scan"):
                if key in planner:
                    print(f"planner.{key}: {planner[key]}")
        stats = metadata.get("stats")
        if isinstance(stats, dict):
            for key in sorted(stats):
                print(f"stats.{key}: {stats[key]}")
    return 0


def cmd_cluster_shard(args: argparse.Namespace) -> int:
    """Shard an input dataset into a cluster manifest + v3 snapshots."""
    from repro.cluster import SilkMothCluster

    config = build_config(args)
    sets, _ = _load_input(args.input, args.format)
    with SilkMothCluster.from_sets(
        sets, config, shards=args.shards, transport="inline"
    ) as cluster:
        _remove(cluster, args.remove)
        cluster.save(args.output)
        if not args.quiet:
            print(
                f"# cluster manifest {args.output}: "
                f"{len(cluster)} live set(s) across "
                f"{cluster.n_shards} shard(s)",
                file=sys.stderr,
            )
    return 0


def cmd_cluster_query(args: argparse.Namespace) -> int:
    """Serve a batch of reference queries from a cluster manifest."""
    from repro.cluster import SilkMothCluster

    def describe(cluster) -> tuple[str, str]:
        stats = cluster.stats
        return f" over {cluster.n_shards} shard(s)", (
            f"shard fan-outs {stats.shards_routed_total} routed / "
            f"{stats.shards_skipped_total} skipped "
            f"(skip rate {stats.shard_skip_rate:.0%})"
        )

    return _serve(
        args,
        lambda config: SilkMothCluster.load(
            args.manifest,
            config,
            transport=args.transport,
            replicas=args.replicas,
            deadline=args.deadline,
            backoff=args.backoff,
        ),
        describe,
    )


def cmd_cluster_info(args: argparse.Namespace) -> int:
    """Describe a cluster manifest without serving any queries.

    The inspection config is derived from the manifest's tokenizer
    settings (default thresholds): shard planner decisions shown here
    are therefore the *default-config* view; ``cluster query`` plans
    under the real serving flags.
    """
    from repro.cluster import SilkMothCluster

    _, config = open_target(args.manifest, CLUSTER_FORMAT_NAME)
    with SilkMothCluster.load(args.manifest, config) as cluster:
        print(f"similarity:   {config.similarity.value}")
        print(f"q:            {config.effective_q}")
        print(f"shards:       {cluster.n_shards}")
        print(f"total sets:   {cluster.total_sets}")
        print(f"live sets:    {len(cluster)}")
        print(f"generation:   {cluster.generation}")
        info = cluster.info()
        print(f"shard live:   {info['shard_live_sets']}")
        if "profile" in info:
            profile = info["profile"]
            print(
                f"profile:      {profile['total_postings']} posting(s), "
                f"{profile['distinct_tokens']} token list(s) "
                f"(upper bound across shards)"
            )
        print(cluster.plan_report())
    return 0


def cmd_wal_inspect(args: argparse.Namespace) -> int:
    """``silkmoth wal inspect``: summarise a WAL directory's contents."""
    from repro.io.wal import describe_wal

    summary = describe_wal(args.wal_dir)
    if args.json:
        _print_json(summary)
        return 0
    checkpoint = summary["checkpoint"]
    if checkpoint is None:
        print("checkpoint:   none (log-only directory)")
    else:
        print(f"checkpoint:   generation {checkpoint['generation']}, "
              f"{checkpoint['sets']} set(s), {checkpoint['deleted']} "
              f"tombstone(s), {checkpoint['bytes']} byte(s)")
    for segment in summary["segments"]:
        span_txt = (
            f"seq {segment['first_seq']}..{segment['last_seq']}"
            if segment["records"]
            else "empty"
        )
        torn = ", torn tail" if segment["torn"] else ""
        print(
            f"segment:      {segment['name']}: {segment['records']} "
            f"record(s) ({span_txt}), {segment['bytes']} byte(s){torn}"
        )
    print(f"records:      {summary['records']}")
    print(f"replayable:   {summary['replayable']}")
    if summary["torn_tail"] is not None:
        print("torn tail:    1 undecodable trailing record (tolerated)")
    return 0


def cmd_wal_recover(args: argparse.Namespace) -> int:
    """``silkmoth wal recover``: rebuild a service from its WAL.

    The tokenizer settings come from the WAL's own checkpoint (a
    recovery tool cannot ask the crashed process what config it ran
    under); *delta*/*alpha* only shape query-time behaviour, not the
    recovered state, so their defaults are fine for snapshotting.
    """
    from repro.service import SilkMothService

    checkpoint = Path(args.wal_dir) / CHECKPOINT_NAME
    if not checkpoint.exists():
        raise WalError(
            f"{args.wal_dir}: no {CHECKPOINT_NAME}; not a WAL directory "
            "(or the base checkpoint was lost)"
        )
    _, config = open_target(
        checkpoint, FORMAT_NAME, delta=args.delta, alpha=args.alpha
    )
    with closing(
        SilkMothService.recover(
            args.wal_dir, config, checkpoint=not args.no_checkpoint
        )
    ) as service:
        report = service.wal_recovery
        lines = [
            f"recovered:    generation {service.generation}",
            f"replayed:     {report.replayed} record(s) ({report.skipped} "
            f"skipped, checkpoint at {report.checkpoint_generation})",
        ]
        if report.torn_tail is not None:
            lines.append("torn tail:    dropped 1 partial record")
        lines.append(f"fingerprint:  {service.state_fingerprint()}")
        print("\n".join(lines), file=sys.stderr)
        if args.output:
            service.save(args.output)
            print(f"snapshot:     {args.output}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``silkmoth stats``: profile the input dataset (Table 3 style).

    With ``--metrics prom|json`` the command instead runs one discovery
    pass over the input to exercise the full pipeline, then prints the
    telemetry registry in Prometheus text exposition format (0.0.4) or
    as JSON -- a one-shot scrape endpoint for dashboards and the CI
    telemetry smoke leg (see ``docs/observability.md``).
    """
    if args.metrics:
        from repro.obs import to_json, to_prometheus_text

        config, _, collection = _open_input(args)
        SilkMoth(collection, config).discover()
        if args.metrics == "prom":
            sys.stdout.write(to_prometheus_text())
        else:
            print(to_json())
        return 0
    sets, labels = _load_input(args.input, args.format)
    n_sets = len(sets)
    elements_per_set = sum(len(s) for s in sets) / n_sets
    token_counts = [
        len(element.split()) for elements in sets for element in elements
    ]
    tokens_per_element = (
        sum(token_counts) / len(token_counts) if token_counts else 0.0
    )
    print(f"sets:               {n_sets}")
    print(f"elements per set:   {elements_per_set:.2f}")
    print(f"word tokens/element:{tokens_per_element:.2f}")
    largest = max(range(n_sets), key=lambda i: len(sets[i]))
    print(f"largest set:        {labels[largest]!r} ({len(sets[largest])} elements)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``silkmoth trace``: render an exported JSONL trace as a flame tree.

    With ``--top N`` the command instead aggregates span *self-time*
    across the whole file and prints the N hottest span names -- the
    "where does the time go" view over any number of traces.
    """
    from repro.obs import format_flame, format_hotspots, load_jsonl

    spans = load_jsonl(args.trace_file)
    if not spans:
        raise UsageError("no spans in trace file")
    if args.top is not None:
        print(format_hotspots(spans, args.top))
    else:
        print(format_flame(spans))
    return 0


def cmd_slowlog(args: argparse.Namespace) -> int:
    """``silkmoth slowlog``: view a JSONL slow-query export.

    Entries print slowest first with their planner decision, funnel
    counters and per-stage seconds; ``--top N`` truncates, ``--json``
    dumps the raw entries for machine diffing.
    """
    from repro.obs import format_slowlog, load_slowlog_jsonl

    entries = load_slowlog_jsonl(args.slowlog_file)
    if not entries:
        raise UsageError("no slow queries captured")
    if args.json:
        _print_json(entries)
    else:
        print(format_slowlog(entries, top=args.top))
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """``silkmoth health``: one rollup for a snapshot or cluster manifest.

    A ``silkmoth-cluster`` manifest loads as a cluster (latency
    sketches merged across every shard), a snapshot as a single-node
    service.  ``--references FILE`` serves that batch first so the
    latency/cache sections describe real traffic; the tokenizer
    settings come from the target file itself.
    """
    from repro.cluster import SilkMothCluster
    from repro.obs import format_health
    from repro.service import SilkMothService

    fmt, config = open_target(args.target)
    references = None
    if args.references:
        references, _ = load_sets(args.references, args.format)
    if fmt == CLUSTER_FORMAT_NAME:
        front = SilkMothCluster.load(
            args.target, config, transport=args.transport
        )
    else:
        front = SilkMothService.load(args.target, config)
    with closing(front):
        if references:
            front.search_many(references)
        payload = front.health()
    if args.json:
        _print_json(payload)
    else:
        print(format_health(payload))
    return 0


#: Arguments several subcommands take, declared once: the
#: ``add_argument`` keywords per name.
SHARED_ARGUMENTS = {
    "input": {"help": "input data file"},
    "--format": {
        "choices": FORMATS,
        "default": "text",
        "help": "how to map the input (or references) file to sets "
        "(default: text)",
    },
    "--metric": {
        "choices": [m.value for m in Relatedness],
        "default": "similarity",
        "help": "set relatedness metric (default: similarity)",
    },
    "--sim": {
        "choices": [k.value for k in SimilarityKind],
        "default": "jaccard",
        "help": "element similarity function (default: jaccard)",
    },
    "--delta": {
        "type": float, "default": 0.7, "help": "relatedness threshold (0, 1]"
    },
    "--alpha": {
        "type": float,
        "default": 0.0,
        "help": "element similarity threshold [0, 1] (default: 0)",
    },
    "--q": {
        "type": int,
        "default": None,
        "help": "gram length for edit similarity (default: largest valid "
        "q; out-of-constraint values stay exact via the planner's "
        "full-scan fallback -- see `silkmoth explain`)",
    },
    "--scheme": {
        "choices": ("auto",) + SCHEME_NAMES,
        "default": "dichotomy",
        "help": "signature scheme (default: dichotomy; 'auto' lets the "
        "planner's cost model choose from index statistics)",
    },
    "--no-check-filter": {
        "action": "store_true", "help": "disable the check filter"
    },
    "--no-nn-filter": {
        "action": "store_true", "help": "disable the nearest neighbour filter"
    },
    "--no-reduction": {
        "action": "store_true", "help": "disable reduction-based verification"
    },
    "--quiet": {"action": "store_true", "help": "suppress the summary line"},
    "--references": {
        "required": True, "help": "file of reference sets to serve"
    },
    "--remove": {
        "type": int,
        "action": "append",
        "help": "tombstone this set id before saving (repeatable)",
    },
    "--repeat": {
        "type": int,
        "default": 1,
        "help": "serve the batch this many times (shows the cache hit rate)",
    },
    "--transport": {
        "choices": SETTINGS["SILKMOTH_CLUSTER_TRANSPORT"].choices,
        "default": None,
        "help": "cluster shard transport "
        f"(default: {help_default('SILKMOTH_CLUSTER_TRANSPORT')})",
    },
    "--json": {"action": "store_true", "help": "emit JSON instead of text"},
}
#: The engine-configuration flags of every query-running command
#: (:func:`build_config` reads them).
CONFIG = (
    "--metric", "--sim", "--delta", "--alpha", "--q", "--scheme",
    "--no-check-filter", "--no-nn-filter", "--no-reduction",
)


def _subcommand(group, name: str, func, help: str, *arguments) -> None:
    """One subparser running *func*, taking *arguments* in order: each a
    :data:`SHARED_ARGUMENTS` name or a ``(name, keywords)`` pair (its
    own argument, or keywords overriding a shared one's)."""
    parser = group.add_parser(name, help=help)
    for argument in arguments:
        flag, keywords = (
            (argument, {}) if isinstance(argument, str) else argument
        )
        parser.add_argument(
            flag, **{**SHARED_ARGUMENTS.get(flag, {}), **keywords}
        )
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="silkmoth",
        description=(
            "Exact related-set discovery and search with maximum matching "
            "constraints (SilkMoth, VLDB 2017)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dataset = ("input", "--format", *CONFIG)
    results = (
        *dataset,
        ("--output", {"help": "write results to this file (.csv or .json); "
                      "default stdout TSV"}),
        "--quiet",
    )
    reference = ("--reference", {
        "type": int, "required": True,
        "help": "index of the reference set within the input",
    })
    serving = ("--references", "--format", *CONFIG)
    _subcommand(
        sub, "discover", cmd_discover,
        "find all related pairs within the input", *results,
    )
    _subcommand(
        sub, "search", cmd_search,
        "find all sets related to one reference set", *results, reference,
        ("--top-k", {
            "type": int, "default": None,
            "help": "return only the k most related sets (iterative "
            "deepening)",
        }),
    )
    _subcommand(
        sub, "explain", cmd_explain,
        "print the planner's query plan for a reference, and trace the "
        "pipeline's decisions for one candidate with --candidate",
        *results, reference,
        ("--candidate", {
            "type": int, "default": None,
            "help": "candidate set index (omit for the plan report alone)",
        }),
    )
    _subcommand(
        sub, "selfcheck", cmd_selfcheck,
        "verify exactness against brute force on (a sample of) the input",
        *results,
        ("--sample", {
            "type": int, "default": 20,
            "help": "how many reference sets to verify (default 20; 0 = all)",
        }),
        ("--seed", {"type": int, "default": 0,
                    "help": "sampling seed (default 0)"}),
    )
    _subcommand(
        sub, "stats", cmd_stats,
        "profile the input dataset, or emit pipeline telemetry with --metrics",
        *dataset,
        ("--metrics", {
            "choices": ("prom", "json"), "default": None,
            "help": "run one discovery pass and print the metrics registry "
            "in Prometheus text format or JSON instead of the dataset "
            "profile",
        }),
    )
    _subcommand(
        sub, "trace", cmd_trace,
        "summarise an exported JSONL trace as a text flame tree",
        ("trace_file", {"help": "JSONL trace (SILKMOTH_TRACE_EXPORT)"}),
        ("--top", {
            "type": int, "default": None,
            "help": "print the N hottest span names by aggregated "
            "self-time instead of the flame tree",
        }),
    )
    _subcommand(
        sub, "slowlog", cmd_slowlog,
        "view a JSONL slow-query export (SILKMOTH_SLOWLOG_EXPORT)",
        ("slowlog_file", {"help": "JSONL slowlog (SILKMOTH_SLOWLOG_EXPORT)"}),
        ("--top", {"type": int, "default": None,
                   "help": "show only the N slowest entries"}),
        "--json",
    )
    _subcommand(
        sub, "health", cmd_health,
        "roll sketches, caches, WAL and replica state into one view",
        ("target", {"help": "service snapshot or cluster manifest file"}),
        ("--references", {
            "required": False, "default": None,
            "help": "serve this reference file first so the rollup "
            "reflects traffic",
        }),
        "--format", "--transport", "--json",
    )

    service = sub.add_parser(
        "service",
        help="online serving: build, inspect, and query service snapshots",
    ).add_subparsers(dest="service_command", required=True)
    snapshot_file = ("snapshot", {"help": "service snapshot file"})
    _subcommand(
        service, "snapshot", cmd_service_snapshot,
        "build a version-2 service snapshot from an input dataset",
        *dataset,
        ("--output", {"required": True,
                      "help": "where to write the snapshot (.json)"}),
        "--remove", "--quiet",
    )
    _subcommand(
        service, "query", cmd_service_query,
        "serve a batch of reference queries from a snapshot",
        snapshot_file, *serving,
        ("--processes", {
            "type": int, "default": None,
            "help": "fan cold queries out across this many processes",
        }),
        "--repeat", "--quiet",
    )
    _subcommand(
        service, "info", cmd_service_info,
        "describe a service snapshot without querying it", snapshot_file,
    )

    cluster = sub.add_parser(
        "cluster",
        help="sharded serving: build, query, and inspect cluster manifests",
    ).add_subparsers(dest="cluster_command", required=True)
    manifest_file = ("manifest", {"help": "cluster manifest file"})
    _subcommand(
        cluster, "shard", cmd_cluster_shard,
        "shard an input dataset into a manifest + per-shard snapshots",
        *dataset,
        ("--output", {"required": True,
                      "help": "where to write the manifest (.json)"}),
        ("--shards", {
            "type": int, "default": None,
            "help": f"shard count (default: {help_default('SILKMOTH_SHARDS')})",
        }),
        "--remove", "--quiet",
    )
    _subcommand(
        cluster, "query", cmd_cluster_query,
        "serve a batch of reference queries from a manifest",
        manifest_file, *serving, "--transport",
        ("--replicas", {
            "type": int, "default": None,
            "help": "transport endpoints per shard; reads fail over between "
            f"them (default: {help_default('SILKMOTH_REPLICAS')})",
        }),
        ("--deadline", {
            "type": float, "default": None,
            "help": "per-pass shard deadline in seconds, 0 disables; a "
            "missed deadline fails the replica over "
            f"(default: {help_default('SILKMOTH_SHARD_DEADLINE')})",
        }),
        ("--backoff", {
            "type": float, "default": None,
            "help": "base pause in seconds before each failover retry "
            f"(default: {help_default('SILKMOTH_FAILOVER_BACKOFF')})",
        }),
        "--repeat", "--quiet",
    )
    _subcommand(
        cluster, "info", cmd_cluster_info,
        "describe a cluster manifest without querying it", manifest_file,
    )

    wal = sub.add_parser(
        "wal",
        help="durability: inspect or recover a write-ahead-log directory",
    ).add_subparsers(dest="wal_command", required=True)
    _subcommand(
        wal, "inspect", cmd_wal_inspect,
        "summarise a WAL directory (checkpoint, segments, torn tail)",
        ("wal_dir", {"help": "WAL directory (SILKMOTH_WAL_DIR)"}),
        "--json",
    )
    _subcommand(
        wal, "recover", cmd_wal_recover,
        "replay a WAL directory into a recovered service and report "
        "(or snapshot, with --output) the result",
        ("wal_dir", {"help": "WAL directory to recover from"}),
        ("--output", {
            "default": None,
            "help": "also write the recovered state as a service snapshot "
            "(.json)",
        }),
        ("--no-checkpoint", {
            "action": "store_true",
            "help": "leave the log untouched instead of checkpointing the "
            "recovered state (for forensic inspection)",
        }),
        "--delta", "--alpha",
    )
    return parser


def _export_telemetry() -> None:
    """Export buffered spans and captured slow queries, after every
    command (success or error).

    With tracing on, spans go to ``SILKMOTH_TRACE_EXPORT`` (viewable
    with ``silkmoth trace``).  With slow-query capture on, the ring is
    drained by *appending* to ``SILKMOTH_SLOWLOG_EXPORT`` -- created
    even when empty, so CI artifact steps always find it, and appended
    so a pipeline of commands accumulates entries (viewable with
    ``silkmoth slowlog``).
    """
    from repro.obs.diag import get_slowlog, slowlog_ms
    from repro.obs.trace import export_jsonl, trace_enabled

    for what, enabled, variable, export in (
        ("trace", trace_enabled(), "SILKMOTH_TRACE_EXPORT", export_jsonl),
        (
            "slowlog",
            slowlog_ms() >= 0,
            "SILKMOTH_SLOWLOG_EXPORT",
            lambda path: get_slowlog().append_jsonl(path),
        ),
    ):
        path = resolve(variable) if enabled else None
        if path is not None:
            try:
                export(path)
            except OSError as exc:
                print(f"warning: {what} export failed: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    settings_valid = False
    try:
        # A malformed SILKMOTH_* variable fails here, before any work;
        # the exit-time export reads settings, so it needs them valid.
        resolve_all()
        settings_valid = True
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, WalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if settings_valid:
            _export_telemetry()


if __name__ == "__main__":
    raise SystemExit(main())
