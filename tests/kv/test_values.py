"""Tests for value descriptors and stats."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.kv.stats import KVStats
from repro.kv.values import Value, materialize, value_for


class TestValue:
    def test_negative_length_rejected(self):
        with pytest.raises(ConfigError):
            Value(seed=1, length=-1)

    def test_materialize_deterministic(self):
        value = Value(seed=1234, length=100)
        assert materialize(value) == materialize(value)
        assert len(materialize(value)) == 100

    def test_materialize_empty(self):
        assert materialize(Value(seed=1, length=0)) == b""

    def test_different_seeds_differ(self):
        a = materialize(Value(seed=1, length=64))
        b = materialize(Value(seed=2, length=64))
        assert a != b

    def test_value_for_versions_differ(self):
        v0 = value_for(7, 0, 4000)
        v1 = value_for(7, 1, 4000)
        assert v0 != v1
        assert v0.length == v1.length == 4000

    def test_value_for_is_stable(self):
        assert value_for(42, 3, 128) == value_for(42, 3, 128)


class TestStats:
    def test_ops_total(self):
        stats = KVStats(puts=3, gets=2, deletes=1, scans=4)
        assert stats.ops == 10

    def test_snapshot_is_independent(self):
        stats = KVStats(puts=1)
        snap = stats.as_dict()
        stats.puts = 99
        assert snap["puts"] == 1
