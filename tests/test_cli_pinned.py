"""Every leaf subcommand pinned on one fixed tiny input.

Each test runs one ``silkmoth`` leaf command in-process and asserts its
exit code and its exact stdout and stderr, with only the timing figures
masked.  The telemetry registries and every ``SILKMOTH_*`` variable are
reset around each test, so the output depends on nothing but the
command and the input below.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.obs.diag import reset_slowlog, set_slowlog_ms
from repro.obs.metrics import reset_registry
from repro.obs.sketch import reset_sketch_registry
from repro.obs.trace import get_tracer, set_trace_enabled
from repro.settings import SETTINGS

DATA = "apple pie crust\napple pie\nbanana split\nbanana bread loaf\n"
REFERENCES = "apple pie\nbanana bread\n"

#: A timing figure: seconds or milliseconds with a fractional part.
_TIMING = re.compile(r"\d+\.\d+(m?s)\b")


def _reset_telemetry() -> None:
    reset_slowlog()
    reset_sketch_registry()
    reset_registry()
    get_tracer().drain()
    set_slowlog_ms(None)
    set_trace_enabled(None)


@pytest.fixture(autouse=True)
def clean_process(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("SILKMOTH_FSYNC", "0")
    _reset_telemetry()
    yield
    monkeypatch.undo()
    _reset_telemetry()


@pytest.fixture
def files(tmp_path, monkeypatch):
    """The fixed input, the references and the working directory."""
    (tmp_path / "data.txt").write_text(DATA)
    (tmp_path / "refs.txt").write_text(REFERENCES)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv) -> tuple[int, str, str]:
    """``main(argv)``: (exit code, stdout, stderr), timings masked."""
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return (
        code,
        _TIMING.sub(r"<t>\1", captured.out),
        _TIMING.sub(r"<t>\1", captured.err),
    )


def snapshot(capsys) -> None:
    assert run(
        capsys, "service", "snapshot", "data.txt", "--delta", "0.4",
        "--remove", "3", "--output", "svc.json", "--quiet",
    ) == (0, "", "")


def manifest(capsys) -> None:
    assert run(
        capsys, "cluster", "shard", "data.txt", "--shards", "2",
        "--delta", "0.4", "--output", "clu.json", "--quiet",
    ) == (0, "", "")


def wal_dir(capsys, monkeypatch) -> None:
    """A WAL directory: a snapshot served once with SILKMOTH_WAL_DIR."""
    snapshot(capsys)
    monkeypatch.setenv("SILKMOTH_WAL_DIR", "wal")
    assert run(
        capsys, "service", "query", "svc.json", "--references", "refs.txt",
        "--delta", "0.4", "--quiet",
    )[0] == 0
    monkeypatch.delenv("SILKMOTH_WAL_DIR")


def test_discover(files, capsys):
    assert run(capsys, "discover", "data.txt", "--delta", "0.4") == (
        0,
        "reference\tset\tscore\trelatedness\n"
        "line1\tline2\t2\t0.666667\n",
        "# 1 related pair(s) among 4 sets in <t>s; verified 2 of 2 "
        "initial candidates\n",
    )


def test_search(files, capsys):
    assert run(
        capsys, "search", "data.txt", "--reference", "0", "--delta", "0.4"
    ) == (
        0,
        "set\tscore\trelatedness\nline2\t2\t0.666667\n",
        "# 1 related set(s) for reference 'line1' in <t>s\n",
    )


def test_explain(files, capsys):
    code, out, err = run(
        capsys, "explain", "data.txt", "--reference", "0",
        "--candidate", "1", "--delta", "0.4",
    )
    assert (code, err) == (0, "")
    assert out == (
        "query plan\n"
        "  metric / similarity     : similarity / jaccard\n"
        "  delta / alpha           : 0.4 / 0\n"
        "  gram length q           : 1 (token)\n"
        "  paper q-constraint      : satisfied\n"
        "  signature scheme        : dichotomy (config)\n"
        "  signature validity      : provably exact\n"
        "  candidate selection     : signature probe\n"
        "  index statistics        : 4 live sets, 10 elements, 7 tokens, "
        "skew 1.4\n"
        "  reasons:\n"
        "    - jaccard tokenises to words; gram length fixed at 1\n"
        "    - scheme=dichotomy pinned by configuration\n"
        "  stages:\n"
        "  signature : dichotomy\n"
        "  select    : index probe with signature tokens\n"
        "  check     : on\n"
        "  nn        : on\n"
        "  verify    : exact maximum matching\n"
        "\n"
        "reference set 0 vs candidate set 1\n"
        "  theta (delta * |R|)     : 1.2000\n"
        "  signature tokens        : apple, crust\n"
        "  candidate shares token  : True\n"
        "  check-filter estimate   : 2.0000\n"
        "  NN-filter estimate      : 2.0000\n"
        "  matching score          : 2.0000\n"
        "  relatedness             : 0.6667\n"
        "  survives stages         : signature, check, nn, verify\n"
        "  verdict                 : RELATED\n"
        "  alignment:\n"
        "    'apple' <-> 'apple'  (phi = 1.0000)\n"
        "    'pie' <-> 'pie'  (phi = 1.0000)\n"
    )


def test_selfcheck(files, capsys):
    assert run(capsys, "selfcheck", "data.txt", "--delta", "0.4") == (
        0,
        "selfcheck passed: 4 reference(s) verified exact against brute "
        "force in <t>s\n",
        "",
    )


def test_stats(files, capsys):
    assert run(capsys, "stats", "data.txt") == (
        0,
        "sets:               4\n"
        "elements per set:   2.50\n"
        "word tokens/element:1.00\n"
        "largest set:        'line1' (3 elements)\n",
        "",
    )


def test_trace(files, capsys, monkeypatch):
    monkeypatch.setenv("SILKMOTH_TRACE", "1")
    monkeypatch.setenv("SILKMOTH_TRACE_EXPORT", "trace.jsonl")
    set_trace_enabled(None)
    assert run(
        capsys, "search", "data.txt", "--reference", "0", "--delta", "0.4",
        "--quiet",
    )[0] == 0
    monkeypatch.delenv("SILKMOTH_TRACE")
    monkeypatch.delenv("SILKMOTH_TRACE_EXPORT")
    set_trace_enabled(None)
    code, out, err = run(capsys, "trace", "trace.jsonl")
    assert (code, err) == (0, "")
    # Trace ids and pids vary; the tree's shape, names and attributes
    # do not.
    out = re.sub(r"(?m)^trace \S+$", "trace <id>", out)
    assert re.sub(r"pid=\d+", "pid=<pid>", out) == TRACE_OUT


def test_slowlog(files, capsys, monkeypatch):
    monkeypatch.setenv("SILKMOTH_SLOWLOG_MS", "0")
    monkeypatch.setenv("SILKMOTH_SLOWLOG_EXPORT", "slow.jsonl")
    set_slowlog_ms(None)
    assert run(
        capsys, "search", "data.txt", "--reference", "0", "--delta", "0.4",
        "--quiet",
    )[0] == 0
    monkeypatch.delenv("SILKMOTH_SLOWLOG_MS")
    monkeypatch.delenv("SILKMOTH_SLOWLOG_EXPORT")
    set_slowlog_ms(None)
    code, out, err = run(capsys, "slowlog", "slow.jsonl")
    assert (code, err) == (0, "")
    assert out == SLOWLOG_OUT


def test_health(files, capsys):
    snapshot(capsys)
    assert run(capsys, "health", "svc.json", "--references", "refs.txt") == (
        0,
        HEALTH_OUT,
        "",
    )


def test_service_snapshot(files, capsys):
    assert run(
        capsys, "service", "snapshot", "data.txt", "--delta", "0.4",
        "--remove", "3", "--output", "svc.json",
    ) == (0, "", "# snapshot svc.json: 3 live set(s), 1 tombstone(s)\n")


def test_service_info(files, capsys):
    snapshot(capsys)
    assert run(capsys, "service", "info", "svc.json") == (
        0,
        "similarity:   jaccard\n"
        "q:            1\n"
        "total sets:   4\n"
        "live sets:    3\n"
        "tombstones:   1 [3]\n"
        "generation:   1\n"
        "planner.scheme: dichotomy\n"
        "planner.q: 1\n"
        "planner.full_scan: False\n",
        "",
    )


def test_service_query_with_processes(files, capsys):
    snapshot(capsys)
    assert run(
        capsys, "service", "query", "svc.json", "--references", "refs.txt",
        "--delta", "0.4", "--repeat", "2", "--processes", "2",
    ) == (
        0,
        "reference\tset\tscore\trelatedness\n"
        "line1\t0\t2\t0.666667\n"
        "line1\t1\t2\t1\n",
        "# served 4 query(ies) in <t>s; cache hit rate 50%; "
        "0 deduplicated in batch\n",
    )


def test_cluster_shard(files, capsys):
    assert run(
        capsys, "cluster", "shard", "data.txt", "--shards", "2",
        "--delta", "0.4", "--remove", "1", "--output", "clu.json",
    ) == (
        0,
        "",
        "# cluster manifest clu.json: 3 live set(s) across 2 shard(s)\n",
    )
    assert sorted(p.name for p in files.glob("clu*.json")) == [
        "clu-shard0.json", "clu-shard1.json", "clu.json",
    ]


def test_cluster_info(files, capsys):
    manifest(capsys)
    assert run(capsys, "cluster", "info", "clu.json") == (
        0,
        "similarity:   jaccard\n"
        "q:            1\n"
        "shards:       2\n"
        "total sets:   4\n"
        "live sets:    4\n"
        "generation:   0\n"
        "shard live:   [2, 2]\n"
        "profile:      10 posting(s), 10 token list(s) (upper bound "
        "across shards)\n"
        "cluster: 2 shard(s), transport inline\n"
        "  shard 0: 2 live set(s), scheme=dichotomy, full_scan=False; "
        "scheme pinned by configuration\n"
        "  shard 1: 2 live set(s), scheme=dichotomy, full_scan=False; "
        "scheme pinned by configuration\n",
        "",
    )


def test_cluster_query(files, capsys):
    manifest(capsys)
    assert run(
        capsys, "cluster", "query", "clu.json", "--references", "refs.txt",
        "--delta", "0.4", "--repeat", "2",
    ) == (
        0,
        "reference\tset\tscore\trelatedness\n"
        "line1\t0\t2\t0.666667\n"
        "line1\t1\t2\t1\n"
        "line2\t3\t2\t0.666667\n",
        "# served 4 query(ies) over 2 shard(s) in <t>s; cache hit rate "
        "50%; shard fan-outs 4 routed / 0 skipped (skip rate 0%)\n",
    )


def test_wal_inspect(files, capsys, monkeypatch):
    wal_dir(capsys, monkeypatch)
    assert run(capsys, "wal", "inspect", "wal") == (
        0,
        "checkpoint:   generation 1, 4 set(s), 1 tombstone(s), "
        "1204 byte(s)\n"
        "segment:      wal-00000002.log: 0 record(s) (empty), 0 byte(s)\n"
        "records:      0\n"
        "replayable:   0\n",
        "",
    )


def test_wal_recover_with_output(files, capsys, monkeypatch):
    wal_dir(capsys, monkeypatch)
    code, out, err = run(
        capsys, "wal", "recover", "wal", "--output", "recovered.json"
    )
    assert (code, out) == (0, "")
    assert re.sub(r"fingerprint:  \S+", "fingerprint:  <fp>", err) == (
        "recovered:    generation 1\n"
        "replayed:     0 record(s) (0 skipped, checkpoint at 1)\n"
        "fingerprint:  <fp>\n"
        "snapshot:     recovered.json\n"
    )
    assert run(capsys, "service", "info", "recovered.json")[1].startswith(
        "similarity:   jaccard\nq:            1\ntotal sets:   4\n"
        "live sets:    3\ntombstones:   1 [3]\ngeneration:   1\n"
    )


TRACE_OUT = (
    "trace <id>\n"
    "  planner.plan  wall=<t>s cpu=<t>s pid=<pid>\n"
    "trace <id>\n"
    "  pipeline.pass  wall=<t>s cpu=<t>s pid=<pid> matches=1 "
    "scheme=dichotomy\n"
    "    stage.signature  wall=<t>s cpu=<t>s pid=<pid>\n"
    "    stage.select  wall=<t>s cpu=<t>s pid=<pid>\n"
    "      select.kernel  wall=<t>s cpu=<t>s pid=<pid> distinct_pairs=2 "
    "postings_scanned=2 size_gate_drops=0\n"
    "    stage.check  wall=<t>s cpu=<t>s pid=<pid>\n"
    "    stage.nn  wall=<t>s cpu=<t>s pid=<pid>\n"
    "    stage.verify  wall=<t>s cpu=<t>s pid=<pid>\n"
)
SLOWLOG_OUT = (
    "pass  <t>ms  scheme=dichotomy\n"
    "  planner: scheme=dichotomy (config), full_scan=False\n"
    "    reason: jaccard tokenises to words; gram length fixed at 1\n"
    "    reason: scheme=dichotomy pinned by configuration\n"
    "  funnel: signature_tokens=2 initial_candidates=1 after_check=1 "
    "after_nn=1 verified=1 matches=1 sim_cache_hits=0 sim_cache_misses=0 "
    "select_postings_scanned=2 select_distinct_pairs=2 "
    "select_size_gate_drops=0 full_scan=False\n"
    "  stages: check=<t>ms nn=<t>ms select=<t>ms signature=<t>ms "
    "verify=<t>ms\n"
)
HEALTH_OUT = (
    "status:       ok\n"
    "kind:         service\n"
    "live_sets:    3\n"
    "generation:   1\n"
    "cache:        hit rate 0% (2 query(ies)); sim memo 0%\n"
    "writes:       0 stale answer(s) refreshed, 0 uncertified dropped\n"
    "wal:          disabled\n"
    "slowlog:      0 entry(ies) over <t>ms\n"
    "latency:      silkmoth_pass_latency_quantile n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_query_latency_quantile n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_stage_latency_quantile{stage=check} n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_stage_latency_quantile{stage=nn} n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_stage_latency_quantile{stage=select} n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_stage_latency_quantile{stage=signature} n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
    "latency:      silkmoth_stage_latency_quantile{stage=verify} n=2 p50=<t>ms p90=<t>ms p99=<t>ms "
    "p999=<t>ms\n"
)
