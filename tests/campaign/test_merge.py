"""Merging campaign stores: dedupe, ordering, refusal of bad inputs."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignStore, merge_stores
from repro.core.experiment import ExperimentSpec
from repro.errors import ConfigError

#: Cells by label, each a distinct spec.
SEEDS = {"aaa": 1, "bbb": 2, "ccc": 3}


def key(label: str) -> str:
    return ExperimentSpec(seed=SEEDS[label]).stable_hash()


def rec(label: str, **fields) -> dict:
    """A record keyed the way a run keys it: by its spec's hash."""
    spec = ExperimentSpec(seed=SEEDS[label])
    return {"cell": spec.stable_hash(), "spec": spec.to_dict(), **fields}


def write_store(path, records):
    store = CampaignStore(path)
    for record in records:
        store.append(record)
    return store


def cells_in(path):
    return [cell for cell, _record in CampaignStore(path).records()]


def test_merge_concatenates_and_dedupes(tmp_path):
    write_store(tmp_path / "a.jsonl",
                [rec("aaa", x=1), rec("bbb", x=2)])
    write_store(tmp_path / "b.jsonl",
                [rec("bbb", x=9), rec("ccc", x=3)])
    merged, dropped = merge_stores(
        tmp_path / "out.jsonl", [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert (merged, dropped) == (3, 1)
    assert cells_in(tmp_path / "out.jsonl") == [key("aaa"), key("bbb"), key("ccc")]
    # First wins: cells are deterministic functions of their spec, so
    # keeping the earliest record keeps the merge stable.
    records = dict(CampaignStore(tmp_path / "out.jsonl").records())
    assert records[key("bbb")]["x"] == 2


def test_merge_force_appends_only_new_cells(tmp_path):
    """A merge into a non-empty output appends only the cells it does
    not hold yet."""
    write_store(tmp_path / "out.jsonl",
                [rec("aaa", x=1), rec("bbb", x=2)])
    write_store(tmp_path / "a.jsonl",
                [rec("bbb", x=9), rec("ccc", x=3)])
    merged, dropped = merge_stores(
        tmp_path / "out.jsonl", [tmp_path / "a.jsonl"])
    # Only the genuinely new cell lands; the existing record for bbb
    # is kept (first wins), not duplicated or overwritten.
    assert (merged, dropped) == (1, 1)
    assert cells_in(tmp_path / "out.jsonl") == [key("aaa"), key("bbb"), key("ccc")]
    records = dict(CampaignStore(tmp_path / "out.jsonl").records())
    assert records[key("bbb")]["x"] == 2


def test_merge_force_into_empty_behaves_like_plain(tmp_path):
    """An output that exists but holds no completed record (here only
    a killed writer's fragment) is merged into like a fresh one."""
    (tmp_path / "out.jsonl").write_text('{"cell":"torn', encoding="utf-8")
    write_store(tmp_path / "a.jsonl", [rec("aaa")])
    merged, dropped = merge_stores(
        tmp_path / "out.jsonl", [tmp_path / "a.jsonl"])
    assert (merged, dropped) == (1, 0)
    assert cells_in(tmp_path / "out.jsonl") == [key("aaa")]


def test_merge_missing_input(tmp_path):
    write_store(tmp_path / "a.jsonl", [rec("aaa")])
    with pytest.raises(ConfigError, match="does not exist"):
        merge_stores(tmp_path / "out.jsonl",
                     [tmp_path / "a.jsonl", tmp_path / "missing.jsonl"])


def test_merge_tolerates_torn_line(tmp_path):
    write_store(tmp_path / "a.jsonl", [rec("aaa")])
    with (tmp_path / "a.jsonl").open("a", encoding="utf-8") as handle:
        handle.write('{"cell": "tor')  # killed mid-append
    merged, dropped = merge_stores(tmp_path / "out.jsonl",
                                   [tmp_path / "a.jsonl"])
    assert (merged, dropped) == (1, 0)


def test_merged_output_is_canonical(tmp_path):
    write_store(tmp_path / "a.jsonl", [rec("aaa")])
    merge_stores(tmp_path / "out.jsonl", [tmp_path / "a.jsonl"])
    line = (tmp_path / "out.jsonl").read_text(encoding="utf-8").strip()
    assert line == json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":"))


def test_merge_refuses_a_stale_record(tmp_path):
    """A record keyed by an older hash (here the one that included the
    spec's name) is refused, and nothing is written."""
    stale = rec("bbb")
    stale["cell"] = "0123456789abcdef"
    write_store(tmp_path / "a.jsonl", [rec("aaa")])
    write_store(tmp_path / "b.jsonl", [stale])
    with pytest.raises(ConfigError, match=str(tmp_path / "b.jsonl")):
        merge_stores(tmp_path / "out.jsonl",
                     [tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
    assert not (tmp_path / "out.jsonl").exists()
