"""Layer guards: names that only one layer may write.

Each guard is a ``grep -rnE`` over the ``*.py`` files under its roots,
minus the lines of its owner (a path prefix of the ``path:line:``
output, like ``grep -v '^owner'``).  A hit is a layer reaching into
another's internals:

* ``timeline`` — the device timing model is private to
  ``flash/ssd.py`` (DESIGN.md §4.2);
* ``fs-private`` — file-to-device resolution is the filesystem's:
  other layers ask ``byte_runs`` (DESIGN.md §13.1);
* ``engine-device`` — engines reach the device only through the
  filesystem's ``pwrite`` / ``append`` / ``write_runs`` / ``read_runs``;
* ``key-to-shard`` — key-to-shard mapping is the fleet's: the load and
  the driver ask ``Router.shard_run`` for whole same-shard runs
  (DESIGN.md §10.1).

Comments and docstrings count, as they do for ``grep``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Guard:
    pattern: str
    roots: tuple[str, ...]
    owner: str | None  # output prefix left out, as ``grep -v '^owner'``


GUARDS = {
    "timeline": Guard(
        r"_channels|ChannelTimeline|ScalarTimeline|mean_write_backlog"
        r"|scalar_busy_until",
        ("src/repro",), "src/repro/flash/ssd.py:"),
    "fs-private": Guard(
        r"_byte_range_runs|_single_run|_run_arrays|fs\._",
        ("src/repro",), "src/repro/fs/"),
    "engine-device": Guard(
        r"\.device\.|fs_device|page_run|contiguous_device_range",
        ("src/repro/lsm", "src/repro/btree"), None),
    "key-to-shard": Guard(
        r"shard_for|ShardedStore|ClientPool",
        ("src/repro",), "src/repro/fleet/"),
}


def violations(root: Path, guard: Guard) -> list[str]:
    """The ``path:line:text`` lines of *root* that break *guard*."""
    pattern = re.compile(guard.pattern)
    found = []
    for top in guard.roots:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(text, 1):
                hit = f"{rel}:{number}:{line}"
                if pattern.search(line) and not (
                        guard.owner and hit.startswith(guard.owner)):
                    found.append(hit)
    return found


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_no_layer_reaches_past_its_guard(name):
    found = violations(ROOT, GUARDS[name])
    assert found == [], f"{name}:\n  " + "\n  ".join(found)


# -- each guard catches what it claims ----------------------------------

#: Per guard: its owner's file (where the lines are allowed), a file
#: the guard watches, and one planted line per alternative it forbids.
PLANTED = {
    "timeline": ("src/repro/flash/ssd.py", "src/repro/core/stack.py", [
        "n = len(ssd._timeline._channels)",
        "from repro.flash.ssd import ChannelTimeline",
        "timeline = ScalarTimeline(config)",
        "backlog = ssd.mean_write_backlog()",
        "horizon = ssd.scalar_busy_until",
    ]),
    "fs-private": ("src/repro/fs/filesystem.py", "src/repro/btree/pager.py", [
        "runs = _byte_range_runs(extents, 0, 4096)",
        "run = self._single_run(name)",
        "starts, lens = _run_arrays(runs)",
        "extents = self.fs._files[name]",
    ]),
    "engine-device": ("src/repro/core/stack.py", "src/repro/lsm/wal.py", [
        "ssd = self.fs.device.ssd",
        "fs_device = fs.device",
        "start = fs.page_run(name, 0)",
        "start, n = fs.contiguous_device_range(name)",
    ]),
    "key-to-shard": ("src/repro/fleet/router.py", "src/repro/core/experiment.py", [
        "shard = router.shard_for(key)",
        "store = ShardedStore(stores, router)",
        "pool = ClientPool(store, nclients)",
    ]),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_a_planted_line_breaks_the_guard(tmp_path, name):
    allowed, watched, lines = PLANTED[name]
    for rel in (allowed, watched):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(["import os", *lines]) + "\n",
                        encoding="utf-8")
    assert violations(tmp_path, GUARDS[name]) == [
        f"{watched}:{number}:{line}" for number, line in enumerate(lines, 2)]
