"""Plain-text table rendering for figure reproductions.

Benchmarks print the same rows/series the paper's figures report;
these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an aligned text table."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    title: str,
    headers: Sequence[str],
    series: Sequence[Sequence],
    max_points: int = 12,
) -> str:
    """Render a (possibly thinned) time series as a table."""
    rows = list(series)
    if len(rows) > max_points:
        step = (len(rows) - 1) / (max_points - 1)
        rows = [rows[round(i * step)] for i in range(max_points)]
    return render_table(headers, rows, title=title)


def render_shard_table(per_shard: Sequence[dict], title: str = "") -> str:
    """The per-shard breakdown of a result's ``fleet`` block.

    Open-loop rows carry admission counts, latency percentiles and
    queue depths, and — from fault injection on — the chaos columns
    (failures, retries, recovery and down time, health); closed-loop
    rows have latencies per client, not per shard, so only op counts.
    """
    if not per_shard or "p95" not in per_shard[0]:
        return render_table(
            ["shard", "ops"],
            [[str(row["shard"]), str(row["ops"])] for row in per_shard],
            title=title)
    chaos = "health" in per_shard[0]
    rows = [
        [str(row["shard"]), str(row["offered"]), str(row["admitted"]),
         str(row["rejected"]), str(row["ops"]),
         f"{row['p50'] * 1e6:.0f}", f"{row['p95'] * 1e6:.0f}",
         f"{row['p99'] * 1e6:.0f}", str(row["qdepth_max"]),
         f"{row['qdepth_mean']:.2f}"]
        + ([str(row["failed"]), str(row["retries"]),
            f"{row['recovery_seconds'] * 1e3:.1f}",
            f"{row['downtime_seconds'] * 1e3:.1f}", row["health"]]
           if chaos else [])
        for row in per_shard
    ]
    return render_table(
        ["shard", "offered", "admitted", "rejected", "ops", "p50 us",
         "p95 us", "p99 us", "qd max", "qd mean"]
        + (["failed", "retries", "recov ms", "down ms", "health"]
           if chaos else []),
        rows, title=title)


def render_campaign(records: Sequence[dict], title: str = "") -> str:
    """Consolidated cross-cell table for a campaign's JSONL records.

    Takes the serialized records (as stored/loaded by
    :class:`repro.campaign.store.CampaignStore`), so a finished
    campaign file can be re-rendered without re-running anything
    (``repro campaign --render``).  Tail-latency columns (pooled p95 /
    p99 across clients — response time across shards for open-loop
    fleet cells — in microseconds) are filled for pool-driven cells;
    the inline runner records no per-op latencies, so its cells show
    ``-``.  Fleet columns (offered ops/s, goodput ops/s, SLO
    attainment) are filled for fleet cells; fleet cells with per-shard
    latency rows (open-loop runs) are followed by a per-shard
    breakdown table, and traced cells by their per-op latency
    attribution tables.  GC columns come from the device's
    GC-attributable SMART counters; records from before those counters
    existed show ``-``.
    """
    rows = []
    attributions = []
    shard_sections = []
    for record in records:
        spec = record["spec"]
        steady = record.get("steady")
        status = "out-of-space" if record.get("out_of_space") else "ok"
        if steady is None:
            perf = ["-", "-", "-", "-"]
        else:
            perf = [
                f"{steady['kv_tput'] / 1000.0:.2f}",
                f"{steady['wa_a']:.1f}",
                f"{steady['wa_d']:.2f}",
                f"{steady['space_amp']:.2f}",
            ]
        latency = record.get("latency")
        if latency is None:
            tail = ["-", "-"]
        else:
            tail = [f"{latency['p95'] * 1e6:.0f}", f"{latency['p99'] * 1e6:.0f}"]
        fleet = record.get("fleet")
        if fleet is None:
            load = ["-", "-", "-"]
        else:
            load = [
                f"{fleet['offered_rate']:.0f}",
                f"{fleet['goodput']:.0f}",
                f"{fleet['slo_attainment'] * 100:.1f}",
            ]
        # Chaos columns (availability, retry amplification, slowest
        # shard recovery): records from before fault injection existed
        # show `-`.
        if fleet is None or fleet.get("availability") is None:
            chaos = ["-", "-", "-"]
        else:
            recov = max(
                (row.get("recovery_seconds", 0.0)
                 for row in fleet["per_shard"]), default=0.0,
            )
            chaos = [
                f"{fleet['availability'] * 100:.1f}",
                f"{fleet['retry_amplification']:.3f}",
                f"{recov * 1e3:.1f}",
            ]
        smart = record.get("smart", {})
        gc = [
            "-" if smart.get("gc_reclaims") is None
            else str(smart["gc_reclaims"]),
            "-" if smart.get("gc_pages_moved") is None
            else str(smart["gc_pages_moved"]),
        ]
        rows.append([
            spec["engine"], spec["ssd"], spec["drive_state"],
            f"{spec['dataset_fraction']:g}", f"{spec['op_reserved_fraction']:g}",
            str(spec.get("nclients", 1)), str(spec.get("nshards", 1)),
            *perf, *tail, *load, *chaos, *gc, status, record["cell"],
        ])
        if fleet is not None and any("p95" in row for row in fleet["per_shard"]):
            shard_sections.append((record["cell"], fleet))
        if record.get("attribution"):
            attributions.append((record["cell"], record["attribution"]))
    text = render_table(
        ["engine", "SSD", "state", "data/cap", "OP", "clients", "shards",
         "KOps/s", "WA-A", "WA-D", "space amp", "p95 us", "p99 us",
         "offer/s", "good/s", "SLO%", "avail%", "retry amp", "recov ms",
         "gc recl", "gc moved", "status", "cell"],
        rows, title=title,
    )
    sections = [text]
    for cell, fleet in shard_sections:
        sections.append(render_shard_table(
            fleet["per_shard"],
            title=(f"per-shard breakdown [{cell}] "
                   f"({fleet['arrival']} @ {fleet['arrival_rate']:g}/s, "
                   f"SLO {fleet['slo_ms']:g} ms)"),
        ))
    if attributions:
        from repro.obs.attribution import render_attribution

        for cell, attribution in attributions:
            sections.append(render_attribution(
                attribution, title=f"latency attribution [{cell}]",
            ))
    return "\n\n".join(sections)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)
