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
  (signature routing decides which shards each query touches), or
  inspect a manifest's shards and planner decisions.
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
import sys
import time
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
from repro.io.writers import (
    write_discovery_csv,
    write_discovery_json,
    write_search_csv,
    write_search_json,
)
from repro.io.wal import WalError
from repro.settings import SETTINGS, help_default, resolve, resolve_all
from repro.sim.functions import SimilarityKind
from repro.signatures import SCHEME_NAMES

#: --format choices accepted by every subcommand.
FORMATS = ("text", "jsonl", "csv-columns", "csv-schema")


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


def build_collection(
    sets: list[list[str]], config: SilkMothConfig
) -> SetCollection:
    """Tokenise raw *sets* per the config's similarity kind and q."""
    return SetCollection.from_strings(
        sets, kind=config.similarity, q=config.effective_q
    )


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Engine-configuration flags shared by every query-running command."""
    parser.add_argument(
        "--metric",
        choices=[m.value for m in Relatedness],
        default="similarity",
        help="set relatedness metric (default: similarity)",
    )
    parser.add_argument(
        "--sim",
        choices=[k.value for k in SimilarityKind],
        default="jaccard",
        help="element similarity function (default: jaccard)",
    )
    parser.add_argument(
        "--delta", type=float, default=0.7, help="relatedness threshold (0, 1]"
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=0.0,
        help="element similarity threshold [0, 1] (default: 0)",
    )
    parser.add_argument(
        "--q",
        type=int,
        default=None,
        help=(
            "gram length for edit similarity (default: largest valid q; "
            "out-of-constraint values stay exact via the planner's "
            "full-scan fallback -- see `silkmoth explain`)"
        ),
    )
    parser.add_argument(
        "--scheme",
        choices=("auto",) + SCHEME_NAMES,
        default="dichotomy",
        help=(
            "signature scheme (default: dichotomy; 'auto' lets the "
            "planner's cost model choose from index statistics)"
        ),
    )
    parser.add_argument(
        "--no-check-filter", action="store_true", help="disable the check filter"
    )
    parser.add_argument(
        "--no-nn-filter",
        action="store_true",
        help="disable the nearest neighbour filter",
    )
    parser.add_argument(
        "--no-reduction",
        action="store_true",
        help="disable reduction-based verification",
    )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input data file")
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="how to map the input file to sets (default: text)",
    )
    _add_config_options(parser)
    parser.add_argument(
        "--output",
        help="write results to this file (.csv or .json); default stdout TSV",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress summary"
    )


def _write_output(args, results, kind: str, labels: list[str]) -> None:
    """Emit results to --output (csv/json by extension) or stdout TSV."""
    if args.output:
        suffix = Path(args.output).suffix.lower()
        if suffix == ".csv":
            writer = write_discovery_csv if kind == "discovery" else write_search_csv
        elif suffix == ".json":
            writer = (
                write_discovery_json if kind == "discovery" else write_search_json
            )
        else:
            raise SystemExit(
                f"--output must end in .csv or .json, got {args.output!r}"
            )
        writer(args.output, results)
        return
    out = sys.stdout
    if kind == "discovery":
        out.write("reference\tset\tscore\trelatedness\n")
        for r in results:
            out.write(
                f"{labels[r.reference_id]}\t{labels[r.set_id]}"
                f"\t{r.score:.6g}\t{r.relatedness:.6g}\n"
            )
    else:
        out.write("set\tscore\trelatedness\n")
        for r in results:
            out.write(f"{labels[r.set_id]}\t{r.score:.6g}\t{r.relatedness:.6g}\n")


def cmd_discover(args: argparse.Namespace) -> int:
    """``silkmoth discover``: all related pairs within the input."""
    config = build_config(args)
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    collection = build_collection(sets, config)
    engine = SilkMoth(collection, config)
    started = time.perf_counter()
    results = engine.discover()
    elapsed = time.perf_counter() - started
    _write_output(args, results, "discovery", labels)
    if not args.quiet:
        stats = engine.stats
        print(
            f"# {len(results)} related pair(s) among {len(sets)} sets "
            f"in {elapsed:.3f}s; verified {stats.verified} of "
            f"{stats.initial_candidates} initial candidates",
            file=sys.stderr,
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """``silkmoth search``: everything related to one reference set."""
    config = build_config(args)
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    if not 0 <= args.reference < len(sets):
        print(
            f"--reference {args.reference} out of range (0..{len(sets) - 1})",
            file=sys.stderr,
        )
        return 1
    collection = build_collection(sets, config)
    started = time.perf_counter()
    if args.top_k is not None:
        searcher = TopKSearcher(collection, config)
        outcome = searcher.search(
            collection[args.reference], args.top_k, skip_set=args.reference
        )
        results = list(outcome.results)
    else:
        engine = SilkMoth(collection, config)
        results = engine.search(
            collection[args.reference], skip_set=args.reference
        )
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

    config = build_config(args)
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    checked = [("--reference", args.reference)]
    if args.candidate is not None:
        checked.append(("--candidate", args.candidate))
    for name, index in checked:
        if not 0 <= index < len(sets):
            print(
                f"{name} {index} out of range (0..{len(sets) - 1})",
                file=sys.stderr,
            )
            return 1
    collection = build_collection(sets, config)
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

    config = build_config(args)
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    collection = build_collection(sets, config)
    engine = SilkMoth(collection, config)
    rng = random.Random(args.seed)
    sample = list(range(len(sets)))
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

    config = build_config(args)
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    collection = build_collection(sets, config)
    removals = args.remove or ()
    for set_id in removals:
        if not collection.is_live(set_id):
            print(f"--remove {set_id} out of range or duplicated", file=sys.stderr)
            return 1
        collection.remove_set(set_id)
    from repro.planner import plan_query

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
            "generation": len(removals),
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


def cmd_service_query(args: argparse.Namespace) -> int:
    """Serve a batch of reference queries from a service snapshot."""
    from repro.service import SilkMothService

    if args.repeat < 1:
        print(f"--repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 1
    config = build_config(args)
    service = SilkMothService.load(args.snapshot, config)
    references, labels = load_sets(args.references, args.format)
    if not references:
        print("no reference sets found", file=sys.stderr)
        return 1
    started = time.perf_counter()
    for _ in range(args.repeat):
        batches = service.search_many(references, processes=args.processes)
    elapsed = time.perf_counter() - started
    out = sys.stdout
    out.write("reference\tset\tscore\trelatedness\n")
    for label, results in zip(labels, batches):
        for r in results:
            out.write(f"{label}\t{r.set_id}\t{r.score:.6g}\t{r.relatedness:.6g}\n")
    if not args.quiet:
        stats = service.stats
        print(
            f"# served {stats.queries} query(ies) in {elapsed:.3f}s; "
            f"cache hit rate {stats.cache_hit_rate:.0%}; "
            f"{stats.batch_queries_deduplicated} deduplicated in batch",
            file=sys.stderr,
        )
    return 0


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
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    with SilkMothCluster.from_sets(
        sets,
        config,
        shards=args.shards,
        transport="inline",
    ) as cluster:
        for set_id in args.remove or ():
            if not cluster.is_live(set_id):
                print(
                    f"--remove {set_id} out of range or duplicated",
                    file=sys.stderr,
                )
                return 1
            cluster.remove_set(set_id)
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

    if args.repeat < 1:
        print(f"--repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 1
    config = build_config(args)
    references, labels = load_sets(args.references, args.format)
    if not references:
        print("no reference sets found", file=sys.stderr)
        return 1
    with SilkMothCluster.load(
        args.manifest,
        config,
        transport=args.transport,
        replicas=args.replicas,
        deadline=args.deadline,
        backoff=args.backoff,
    ) as cluster:
        started = time.perf_counter()
        for _ in range(args.repeat):
            batches = cluster.search_many(references)
        elapsed = time.perf_counter() - started
        out = sys.stdout
        out.write("reference\tset\tscore\trelatedness\n")
        for label, results in zip(labels, batches):
            for r in results:
                out.write(
                    f"{label}\t{r.set_id}\t{r.score:.6g}\t{r.relatedness:.6g}\n"
                )
        if not args.quiet:
            stats = cluster.stats
            print(
                f"# served {stats.queries} query(ies) over "
                f"{cluster.n_shards} shard(s) in {elapsed:.3f}s; "
                f"cache hit rate {stats.cache_hit_rate:.0%}; "
                f"shard fan-outs {stats.shards_routed_total} routed / "
                f"{stats.shards_skipped_total} skipped "
                f"(skip rate {stats.shard_skip_rate:.0%})",
                file=sys.stderr,
            )
    return 0


def cmd_cluster_info(args: argparse.Namespace) -> int:
    """Describe a cluster manifest without serving any queries.

    The inspection config is derived from the manifest's tokenizer
    settings (default thresholds): shard planner decisions shown here
    are therefore the *default-config* view; ``cluster query`` plans
    under the real serving flags.
    """
    from repro.cluster import SilkMothCluster
    from repro.io.persistence import load_cluster_manifest

    payload = load_cluster_manifest(args.manifest)
    config = SilkMothConfig(
        similarity=SimilarityKind(payload["similarity"]),
        q=int(payload["q"]) if SimilarityKind(payload["similarity"]).is_edit_based else None,
    )
    with SilkMothCluster.load(args.manifest, config) as cluster:
        print(f"similarity:   {payload['similarity']}")
        print(f"q:            {payload['q']}")
        print(f"shards:       {cluster.n_shards}")
        print(f"total sets:   {cluster.total_sets}")
        print(f"live sets:    {len(cluster)}")
        print(f"generation:   {cluster.generation}")
        info = cluster.info()
        print(
            "routing:      "
            + (
                "summary intersection"
                if info["routing_certificate"]
                else "broadcast"
            )
        )
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
    import json

    from repro.io.wal import describe_wal

    summary = describe_wal(args.wal_dir)
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
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
    import json

    from repro.service import SilkMothService

    checkpoint = Path(args.wal_dir) / "checkpoint.json"
    if not checkpoint.exists():
        raise WalError(
            f"{args.wal_dir}: no checkpoint.json; not a WAL directory "
            "(or the base checkpoint was lost)"
        )
    with open(checkpoint, encoding="utf-8") as handle:
        header = json.load(handle)
    kind = SimilarityKind(header["similarity"])
    q = int(header["q"])
    config = SilkMothConfig(
        similarity=kind,
        q=q if kind.is_edit_based else None,
        delta=args.delta,
        alpha=args.alpha,
    )
    service = SilkMothService.recover(
        args.wal_dir, config, checkpoint=not args.no_checkpoint
    )
    report = service.wal_recovery
    print(f"recovered:    generation {service.generation}", file=sys.stderr)
    print(
        f"replayed:     {report.replayed} record(s) "
        f"({report.skipped} skipped, checkpoint at "
        f"{report.checkpoint_generation})",
        file=sys.stderr,
    )
    if report.torn_tail is not None:
        print("torn tail:    dropped 1 partial record", file=sys.stderr)
    print(f"fingerprint:  {service.state_fingerprint()}", file=sys.stderr)
    if args.output:
        service.save(args.output)
        print(f"snapshot:     {args.output}", file=sys.stderr)
    service.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``silkmoth stats``: profile the input dataset (Table 3 style).

    With ``--metrics prom|json`` the command instead runs one discovery
    pass over the input to exercise the full pipeline, then prints the
    telemetry registry in Prometheus text exposition format (0.0.4) or
    as JSON -- a one-shot scrape endpoint for dashboards and the CI
    telemetry smoke leg (see ``docs/observability.md``).
    """
    sets, labels = load_sets(args.input, args.format)
    if not sets:
        print("no sets found in input", file=sys.stderr)
        return 1
    if getattr(args, "metrics", None):
        from repro.obs import to_json, to_prometheus_text

        config = build_config(args)
        collection = build_collection(sets, config)
        engine = SilkMoth(collection, config)
        engine.discover()
        if args.metrics == "prom":
            sys.stdout.write(to_prometheus_text())
        else:
            print(to_json())
        return 0
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
        print("no spans in trace file", file=sys.stderr)
        return 1
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
    import json

    from repro.obs import format_slowlog, load_slowlog_jsonl

    entries = load_slowlog_jsonl(args.slowlog_file)
    if not entries:
        print("no slow queries captured", file=sys.stderr)
        return 1
    if args.json:
        json.dump(entries, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(format_slowlog(entries, top=args.top))
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """``silkmoth health``: one rollup for a snapshot or cluster manifest.

    Sniffs the target file: a ``silkmoth-cluster`` manifest loads as a
    cluster (latency sketches merged across every shard), anything else
    as a single-node service.  ``--references FILE`` serves that batch
    first so the latency/cache sections describe real traffic; the
    tokenizer settings come from the target file itself.
    """
    import json

    from repro.obs import format_health

    with open(args.target, encoding="utf-8") as handle:
        try:
            peek = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{args.target}: not a JSON snapshot or manifest: {exc}"
            ) from exc
    references = None
    if args.references:
        references, _ = load_sets(args.references, args.format)
    is_cluster = (
        isinstance(peek, dict) and peek.get("format") == "silkmoth-cluster"
    )
    if is_cluster:
        from repro.cluster import SilkMothCluster

        kind = SimilarityKind(peek["similarity"])
        config = SilkMothConfig(
            similarity=kind,
            q=int(peek["q"]) if kind.is_edit_based else None,
        )
        with SilkMothCluster.load(
            args.target, config, transport=args.transport
        ) as cluster:
            if references:
                cluster.search_many(references)
            payload = cluster.health()
    else:
        from repro.io.persistence import load_service_snapshot
        from repro.service import SilkMothService

        collection, _ = load_service_snapshot(args.target)
        kind = collection.tokenizer.kind
        config = SilkMothConfig(
            similarity=kind,
            q=collection.tokenizer.q if kind.is_edit_based else None,
        )
        service = SilkMothService.load(args.target, config)
        try:
            if references:
                service.search_many(references)
            payload = service.health()
        finally:
            service.close()
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(format_health(payload))
    return 0


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

    discover = sub.add_parser(
        "discover", help="find all related pairs within the input"
    )
    _add_common_options(discover)
    discover.set_defaults(func=cmd_discover)

    search = sub.add_parser(
        "search", help="find all sets related to one reference set"
    )
    _add_common_options(search)
    search.add_argument(
        "--reference",
        type=int,
        required=True,
        help="index of the reference set within the input",
    )
    search.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="return only the k most related sets (iterative deepening)",
    )
    search.set_defaults(func=cmd_search)

    explain_cmd = sub.add_parser(
        "explain",
        help=(
            "print the planner's query plan for a reference, and trace "
            "the pipeline's decisions for one candidate with --candidate"
        ),
    )
    _add_common_options(explain_cmd)
    explain_cmd.add_argument(
        "--reference", type=int, required=True, help="reference set index"
    )
    explain_cmd.add_argument(
        "--candidate",
        type=int,
        default=None,
        help="candidate set index (omit for the plan report alone)",
    )
    explain_cmd.set_defaults(func=cmd_explain)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="verify exactness against brute force on (a sample of) the input",
    )
    _add_common_options(selfcheck)
    selfcheck.add_argument(
        "--sample",
        type=int,
        default=20,
        help="how many reference sets to verify (default 20; 0 = all)",
    )
    selfcheck.add_argument(
        "--seed", type=int, default=0, help="sampling seed (default 0)"
    )
    selfcheck.set_defaults(func=cmd_selfcheck)

    stats = sub.add_parser(
        "stats",
        help=(
            "profile the input dataset, or emit pipeline telemetry "
            "with --metrics"
        ),
    )
    stats.add_argument("input", help="input data file")
    stats.add_argument("--format", choices=FORMATS, default="text")
    _add_config_options(stats)
    stats.add_argument(
        "--metrics",
        choices=("prom", "json"),
        default=None,
        help=(
            "run one discovery pass and print the metrics registry in "
            "Prometheus text format or JSON instead of the dataset profile"
        ),
    )
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="summarise an exported JSONL trace as a text flame tree",
    )
    trace.add_argument("trace_file", help="JSONL trace (SILKMOTH_TRACE_EXPORT)")
    trace.add_argument(
        "--top",
        type=int,
        default=None,
        help=(
            "print the N hottest span names by aggregated self-time "
            "instead of the flame tree"
        ),
    )
    trace.set_defaults(func=cmd_trace)

    slowlog = sub.add_parser(
        "slowlog",
        help="view a JSONL slow-query export (SILKMOTH_SLOWLOG_EXPORT)",
    )
    slowlog.add_argument(
        "slowlog_file", help="JSONL slowlog (SILKMOTH_SLOWLOG_EXPORT)"
    )
    slowlog.add_argument(
        "--top",
        type=int,
        default=None,
        help="show only the N slowest entries",
    )
    slowlog.add_argument(
        "--json", action="store_true", help="dump the raw entries as JSON"
    )
    slowlog.set_defaults(func=cmd_slowlog)

    health = sub.add_parser(
        "health",
        help="roll sketches, caches, WAL and replica state into one view",
    )
    health.add_argument(
        "target", help="service snapshot or cluster manifest file"
    )
    health.add_argument(
        "--references",
        default=None,
        help="serve this reference file first so the rollup reflects traffic",
    )
    health.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="how to map the references file to sets (default: text)",
    )
    health.add_argument(
        "--transport",
        choices=SETTINGS["SILKMOTH_CLUSTER_TRANSPORT"].choices,
        default=None,
        help=(
            "cluster shard transport (default: "
            f"{help_default('SILKMOTH_CLUSTER_TRANSPORT')})"
        ),
    )
    health.add_argument(
        "--json", action="store_true", help="emit the rollup as JSON"
    )
    health.set_defaults(func=cmd_health)

    service = sub.add_parser(
        "service",
        help="online serving: build, inspect, and query service snapshots",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    snapshot = service_sub.add_parser(
        "snapshot",
        help="build a version-2 service snapshot from an input dataset",
    )
    snapshot.add_argument("input", help="input data file")
    snapshot.add_argument("--format", choices=FORMATS, default="text")
    _add_config_options(snapshot)
    snapshot.add_argument(
        "--output", required=True, help="where to write the snapshot (.json)"
    )
    snapshot.add_argument(
        "--remove",
        type=int,
        action="append",
        help="tombstone this set id before saving (repeatable)",
    )
    snapshot.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    snapshot.set_defaults(func=cmd_service_snapshot)

    query = service_sub.add_parser(
        "query", help="serve a batch of reference queries from a snapshot"
    )
    query.add_argument("snapshot", help="service snapshot file")
    query.add_argument(
        "--references", required=True, help="file of reference sets to serve"
    )
    query.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="how to map the references file to sets (default: text)",
    )
    _add_config_options(query)
    query.add_argument(
        "--processes",
        type=int,
        default=None,
        help="fan cold queries out across this many processes",
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (shows the cache hit rate)",
    )
    query.add_argument(
        "--quiet", action="store_true", help="suppress the stats summary"
    )
    query.set_defaults(func=cmd_service_query)

    info = service_sub.add_parser(
        "info", help="describe a service snapshot without querying it"
    )
    info.add_argument("snapshot", help="service snapshot file")
    info.set_defaults(func=cmd_service_info)

    cluster = sub.add_parser(
        "cluster",
        help="sharded serving: build, query, and inspect cluster manifests",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    shard = cluster_sub.add_parser(
        "shard",
        help="shard an input dataset into a manifest + per-shard snapshots",
    )
    shard.add_argument("input", help="input data file")
    shard.add_argument("--format", choices=FORMATS, default="text")
    _add_config_options(shard)
    shard.add_argument(
        "--output", required=True, help="where to write the manifest (.json)"
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        help=f"shard count (default: {help_default('SILKMOTH_SHARDS')})",
    )
    shard.add_argument(
        "--remove",
        type=int,
        action="append",
        help="tombstone this global set id before saving (repeatable)",
    )
    shard.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    shard.set_defaults(func=cmd_cluster_shard)

    cluster_query = cluster_sub.add_parser(
        "query", help="serve a batch of reference queries from a manifest"
    )
    cluster_query.add_argument("manifest", help="cluster manifest file")
    cluster_query.add_argument(
        "--references", required=True, help="file of reference sets to serve"
    )
    cluster_query.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="how to map the references file to sets (default: text)",
    )
    _add_config_options(cluster_query)
    cluster_query.add_argument(
        "--transport",
        choices=SETTINGS["SILKMOTH_CLUSTER_TRANSPORT"].choices,
        default=None,
        help=(
            "shard transport "
            f"(default: {help_default('SILKMOTH_CLUSTER_TRANSPORT')})"
        ),
    )
    cluster_query.add_argument(
        "--replicas",
        type=int,
        default=None,
        help=(
            "transport endpoints per shard; reads fail over between "
            f"them (default: {help_default('SILKMOTH_REPLICAS')})"
        ),
    )
    cluster_query.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "per-pass shard deadline in seconds, 0 disables; a missed "
            "deadline fails the replica over "
            f"(default: {help_default('SILKMOTH_SHARD_DEADLINE')})"
        ),
    )
    cluster_query.add_argument(
        "--backoff",
        type=float,
        default=None,
        help=(
            "base pause in seconds before each failover retry "
            f"(default: {help_default('SILKMOTH_FAILOVER_BACKOFF')})"
        ),
    )
    cluster_query.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (shows the cache hit rate)",
    )
    cluster_query.add_argument(
        "--quiet", action="store_true", help="suppress the stats summary"
    )
    cluster_query.set_defaults(func=cmd_cluster_query)

    cluster_info = cluster_sub.add_parser(
        "info", help="describe a cluster manifest without querying it"
    )
    cluster_info.add_argument("manifest", help="cluster manifest file")
    cluster_info.set_defaults(func=cmd_cluster_info)

    wal = sub.add_parser(
        "wal",
        help="durability: inspect or recover a write-ahead-log directory",
    )
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)

    wal_inspect = wal_sub.add_parser(
        "inspect",
        help="summarise a WAL directory (checkpoint, segments, torn tail)",
    )
    wal_inspect.add_argument("wal_dir", help="WAL directory (SILKMOTH_WAL_DIR)")
    wal_inspect.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    wal_inspect.set_defaults(func=cmd_wal_inspect)

    wal_recover = wal_sub.add_parser(
        "recover",
        help=(
            "replay a WAL directory into a recovered service and report "
            "(or snapshot, with --output) the result"
        ),
    )
    wal_recover.add_argument("wal_dir", help="WAL directory to recover from")
    wal_recover.add_argument(
        "--output",
        default=None,
        help="also write the recovered state as a service snapshot (.json)",
    )
    wal_recover.add_argument(
        "--no-checkpoint",
        action="store_true",
        help=(
            "leave the log untouched instead of checkpointing the "
            "recovered state (for forensic inspection)"
        ),
    )
    wal_recover.add_argument(
        "--delta", type=float, default=0.7, help="relatedness threshold (0, 1]"
    )
    wal_recover.add_argument(
        "--alpha",
        type=float,
        default=0.0,
        help="element similarity threshold [0, 1] (default: 0)",
    )
    wal_recover.set_defaults(func=cmd_wal_recover)

    return parser


def _flush_trace() -> None:
    """Export buffered spans to ``SILKMOTH_TRACE_EXPORT`` when tracing.

    Runs after every command (success or error) so that
    ``SILKMOTH_TRACE=1 SILKMOTH_TRACE_EXPORT=out.jsonl silkmoth ...``
    always leaves a readable JSONL trace behind, viewable with
    ``silkmoth trace out.jsonl``.
    """
    from repro.obs.trace import export_jsonl, trace_enabled

    if not trace_enabled():
        return
    path = resolve("SILKMOTH_TRACE_EXPORT")
    if path is not None:
        try:
            export_jsonl(path)
        except OSError as exc:
            print(f"warning: trace export failed: {exc}", file=sys.stderr)


def _flush_slowlog() -> None:
    """Export captured slow queries to ``SILKMOTH_SLOWLOG_EXPORT``.

    Runs after every command (success or error), mirroring
    :func:`_flush_trace`: when an export path is configured and capture
    is enabled, the ring is drained by *appending* to the JSONL file --
    created even when empty, so CI artifact steps always find it, and
    appended so a pipeline of commands accumulates entries -- viewable
    with ``silkmoth slowlog``.
    """
    from repro.obs.diag import get_slowlog, slowlog_ms

    if slowlog_ms() < 0:
        return
    path = resolve("SILKMOTH_SLOWLOG_EXPORT")
    if path is not None:
        try:
            get_slowlog().append_jsonl(path)
        except OSError as exc:
            print(f"warning: slowlog export failed: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    settings_valid = False
    try:
        # A malformed SILKMOTH_* variable fails here, before any work;
        # the exit-time flushes read settings, so they need it valid.
        resolve_all()
        settings_valid = True
        return args.func(args)
    except (ValueError, OSError, WalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if settings_valid:
            _flush_trace()
            _flush_slowlog()


if __name__ == "__main__":
    raise SystemExit(main())
