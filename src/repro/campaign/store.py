"""JSON-lines persistence for campaign records.

One line per completed cell, keyed by the cell spec's stable hash.
Appends are canonical (sorted keys, fixed separators) so that a
resumed campaign's merged output is byte-identical to an uninterrupted
run; a truncated final line — the signature of a killed process — is
ignored on load and dropped by the next append rather than poisoning
the resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

from repro.core.experiment import ExperimentSpec
from repro.errors import ConfigError


def canonical_line(record: dict) -> str:
    """The canonical serialized form of one cell record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class CampaignStore:
    """Append-only JSONL store of completed cell records."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """Completed records by cell hash (last wins, for resume lookups)."""
        return dict(self.records())

    def records(self) -> list[tuple[str, dict]]:
        """(cell hash, record) pairs in file order; tolerates torn lines.

        Preserves duplicates and order, which is what merging needs.
        A record is complete only once its newline is on disk: an
        unterminated tail is what :meth:`append` drops, so it is not
        reported here either, even if it happens to parse.
        """
        if not self.path.exists():
            return []
        out: list[tuple[str, dict]] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    continue  # unterminated tail of a killed writer
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from an interrupted campaign
                cell = record.get("cell")
                if cell:
                    out.append((cell, record))
        return out

    def checked_records(self) -> list[tuple[str, dict]]:
        """:meth:`records`, refusing a file with a stale record, whose
        ``cell`` is not its spec's hash (written before a change to the
        spec or the hash): a resume would run and record it twice."""
        pairs = self.records()
        for cell, record in pairs:
            try:
                current = ExperimentSpec.from_dict(record["spec"]).stable_hash()
            except (ConfigError, KeyError, TypeError, ValueError):
                current = None
            if cell != current:
                raise ConfigError(f"{self.path} holds cell {cell}, keyed by an "
                                  "older spec hash; use a fresh file")
        return pairs

    def append(self, record: dict) -> None:
        """Durably append one completed cell record.

        An unterminated tail — the fragment a killed writer left — is
        truncated away first; appending after it would glue the new
        record onto the fragment and lose both.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a+b") as handle:
            end = pos = handle.seek(0, os.SEEK_END)
            keep = 0  # offset just past the last newline
            while pos > 0:
                step = min(pos, 1 << 16)
                pos -= step
                handle.seek(pos)
                cut = handle.read(step).rfind(b"\n")
                if cut >= 0:
                    keep = pos + cut + 1
                    break
            if keep != end:
                handle.truncate(keep)
            handle.write((canonical_line(record) + "\n").encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())


def merge_stores(out: str | Path, inputs: Sequence[str | Path],
                 force: bool = False) -> tuple[int, int]:
    """Concatenate campaign stores into *out*, deduplicating by cell.

    Inputs are taken in order and, within each, in file order; the
    first record seen for a cell hash wins (cells are deterministic
    functions of their spec, so duplicates across shards of one
    campaign are interchangeable — keeping the first keeps the merge
    stable).  Refuses a non-empty *out* so completed work is never
    silently mixed into — unless *force*, which instead seeds the
    dedup set from *out*'s existing cells and appends only new ones
    (the incremental "fold this shard in" workflow).  A missing input
    or a stale record is refused before anything is written.  Returns
    ``(merged, duplicates_dropped)``.
    """
    out_store = CampaignStore(out)
    if out_store.records() and not force:
        raise ConfigError(
            f"{out_store.path} already holds completed cells; merge into "
            "a fresh file, delete it first, or pass --force to append "
            "only cells it does not hold yet"
        )
    seen = {cell for cell, _record in out_store.checked_records()}
    sources = []  # every input is read and checked before one is merged
    for path in inputs:
        store = CampaignStore(path)
        if not store.path.exists():
            raise ConfigError(f"merge input {store.path} does not exist")
        sources.append(store.checked_records())
    merged = dropped = 0
    for records in sources:
        for cell, record in records:
            if cell in seen:
                dropped += 1
                continue
            seen.add(cell)
            out_store.append(record)
            merged += 1
    return merged, dropped
