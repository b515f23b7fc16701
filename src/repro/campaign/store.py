"""Cell records, keyed by the cell spec's stable hash: a JSON-lines
file, or memory when there is no path.

A store is a cache of cells: what it holds does not run again, and the
first record of a cell wins wherever records are read (render, reuse
and merge).  Appends are canonical (sorted keys, fixed separators), so
a campaign or figure sweep that was cut short and re-run writes the
bytes an uninterrupted run does; a truncated final line — the
signature of a killed process — is ignored on load and dropped by the
next append.
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
    """Append-only store of completed cell records.

    ``cells`` holds the first record of each cell by hash, in the order
    the cells were first recorded; with a *path* it starts as what the
    file holds, and every append goes to the file first.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = None if path is None else Path(path)
        self.cells: dict[str, dict] = {}
        for cell, record in self.records():
            self.cells.setdefault(cell, record)

    def records(self) -> list[tuple[str, dict]]:
        """The file's (cell hash, record) pairs in file order,
        duplicates included; tolerates torn lines.

        A record is complete only once its newline is on disk: an
        unterminated tail is what :meth:`append` drops, so it is not
        reported here either, even if it happens to parse.
        """
        if self.path is None or not self.path.exists():
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

    def checked(self) -> CampaignStore:
        """This store, refusing one with a stale record, whose ``cell``
        is not its spec's hash (written before a change to the spec or
        the hash): it would run and record that cell twice."""
        for cell, record in self.cells.items():
            try:
                current = ExperimentSpec.from_dict(record["spec"]).stable_hash()
            except (ConfigError, KeyError, TypeError, ValueError):
                current = None
            if cell != current:
                raise ConfigError(f"{self.path} holds cell {cell}, keyed by an "
                                  "older spec hash; use a fresh file")
        return self

    def append(self, record: dict) -> None:
        """Hold one completed cell record, durably if the store has a file.

        In the file, an unterminated tail — the fragment a killed
        writer left — is truncated away first; appending after it would
        glue the new record onto the fragment and lose both.
        """
        if self.path is not None:
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
        self.cells.setdefault(record["cell"], record)


def merge_stores(out: str | Path, inputs: Sequence[str | Path]) -> tuple[int, int]:
    """Append to *out* the cells of *inputs* that it does not hold yet.

    Inputs are taken in order and, within each, in file order; the
    first record seen for a cell hash wins, *out*'s own included
    (cells are deterministic functions of their spec, so duplicates
    across shards of one campaign are interchangeable — keeping the
    first keeps the merge stable).  A missing input or a stale record
    is refused before anything is written.  Returns ``(merged,
    duplicates_dropped)``.
    """
    out_store = CampaignStore(out).checked()
    sources = []  # every input is read and checked before one is merged
    for path in inputs:
        if not Path(path).exists():
            raise ConfigError(f"merge input {path} does not exist")
        sources.append(CampaignStore(path).checked())
    merged = dropped = 0
    for source in sources:
        for cell, record in source.records():
            if cell in out_store.cells:
                dropped += 1
                continue
            out_store.append(record)
            merged += 1
    return merged, dropped
