"""Loading a file tokenises each stored element once.

The snapshot reader checks a document without tokenising it, so the
only tokenisation on a load path is the one that builds the collection
that serves.  Counted here: every element that goes into a
:class:`~repro.core.records.SetCollection` through
:meth:`~repro.core.records.SetCollection.make_element` with interning
on -- the stored-set path (query references resolve without
interning and are not counted).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster import SilkMothCluster
from repro.core.config import SilkMothConfig
from repro.core.records import SetCollection
from repro.settings import SETTINGS

SETS = [
    ["ash bay", "elm"],
    ["oak", "fir elm"],
    ["ivy cedar"],
    ["pine", "yew", "larch"],
    ["beech"],
]
STORED = sum(len(elements) for elements in SETS)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("SILKMOTH_FSYNC", "0")


@pytest.fixture
def tokenised(monkeypatch):
    """A list that collects every stored element text tokenised."""
    texts: list[str] = []
    make_element = SetCollection.make_element

    def counting(self, text, intern=True, ephemeral=None):
        if intern:
            texts.append(text)
        return make_element(self, text, intern, ephemeral)

    monkeypatch.setattr(SetCollection, "make_element", counting)
    return texts


def test_cluster_load_tokenises_each_element_once(tmp_path, tokenised):
    manifest = tmp_path / "cluster.json"
    config = SilkMothConfig(delta=0.5)
    with SilkMothCluster.from_sets(SETS, config, shards=2) as cluster:
        cluster.remove_set(1)
        cluster.save(manifest)
    tokenised.clear()
    with SilkMothCluster.load(manifest, config, transport="inline") as loaded:
        assert sorted(tokenised) == sorted(
            text for elements in SETS for text in elements
        )
        assert len(tokenised) == STORED
        assert loaded.search(["ash bay", "elm"])


@pytest.mark.parametrize(
    "argv", [["health", "svc.json"], ["service", "info", "svc.json"]]
)
def test_cli_tokenises_each_snapshot_element_once(
    tmp_path, monkeypatch, capsys, tokenised, argv
):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(elements) + "\n" for elements in SETS))
    assert main(
        ["service", "snapshot", str(data), "--format", "jsonl",
         "--remove", "2", "--output", "svc.json", "--quiet"]
    ) == 0
    tokenised.clear()
    assert main(argv) == 0
    assert len(tokenised) == STORED
