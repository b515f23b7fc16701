"""Percentile edge cases for ClientLatencies (empty, single, degenerate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import ClientLatencies
from repro.errors import ConfigError


class TestEmptySeries:
    def test_everything_is_zero(self):
        lat = ClientLatencies(3)
        assert lat.count() == 0
        assert lat.pooled().size == 0
        assert lat.pooled_summary() == {
            "ops": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
        assert lat.summary()[1] == {
            "client": 1, "ops": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "p99": 0.0,
        }

    def test_per_client_summary_rows_exist_with_zero_ops(self):
        rows = ClientLatencies(2).summary()
        assert [row["client"] for row in rows] == [0, 1]
        assert all(row["ops"] == 0 and row["p99"] == 0.0 for row in rows)

    def test_mixed_empty_and_nonempty_clients(self):
        lat = ClientLatencies(2)
        lat.sink(0).append(3e-4)
        assert lat.count(1) == 0
        assert lat.summary()[1]["p50"] == 0.0
        # The empty client doesn't distort the pooled percentile.
        assert lat.pooled_summary()["p50"] == pytest.approx(3e-4)


class TestSingleOp:
    def test_every_percentile_is_that_op(self):
        lat = ClientLatencies(1)
        lat.sink(0).append(2.5e-4)
        for q in (0, 1, 50, 95, 99, 100):
            assert np.percentile(lat.pooled(), q) == pytest.approx(2.5e-4)
        (row,) = lat.summary()
        assert row["mean"] == row["p50"] == row["p99"] == pytest.approx(2.5e-4)
        summary = lat.pooled_summary()
        assert summary["ops"] == 1
        assert summary["mean"] == pytest.approx(2.5e-4)
        assert summary["p50"] == summary["p99"] == pytest.approx(2.5e-4)


class TestAllEqual:
    def test_percentiles_collapse_to_the_common_value(self):
        lat = ClientLatencies(2)
        for client in range(2):
            lat.sink(client).extend([1e-3] * 100)
        for row in lat.summary():
            assert row["ops"] == 100
            for stat in ("mean", "p50", "p99"):
                assert row[stat] == pytest.approx(1e-3)
        summary = lat.pooled_summary()
        for stat in ("mean", "p50", "p95", "p99"):
            assert summary[stat] == pytest.approx(1e-3)
        assert summary["ops"] == 200


class TestValidation:
    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigError):
            ClientLatencies(0)

    def test_sink_aliases_the_series(self):
        lat = ClientLatencies(1)
        lat.sink(0).extend([1e-4, 2e-4])
        assert lat.count(0) == 2
        assert lat.series(0)[1] == pytest.approx(2e-4)
