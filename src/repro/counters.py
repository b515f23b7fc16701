"""Layer-labelled counter blocks: how every layer's counters are read.

The paper's method is one tool per layer (SMART, iostat, engine
stats) read together (§3.3).  Each layer counts by kind at the call
site, bumping plain attributes of its own block
(``smart.gc_pages_moved += n``); reading is pull-only.  A block knows
its layer, so a run's counters are one flat ``layer.name`` dict
(:meth:`repro.core.stack.Stack.snapshot`, DESIGN.md §10.5).
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar, Iterable, Sequence


def sum_counters(snapshots: Sequence[dict]) -> dict:
    """Field-wise sum of same-shaped counter dicts (a fleet's counters
    are the sum over its shards')."""
    return {key: sum(snap[key] for snap in snapshots) for key in snapshots[0]}


class Counters:
    """Base of a layer's counter block: a dataclass of additive numbers
    that the layer bumps in place; ``layer`` prefixes them in a snapshot."""

    __slots__ = ()
    layer: ClassVar[str]

    def as_dict(self) -> dict:
        """Plain-dict view, for reports and serialization."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def labelled(self) -> dict:
        """``{"<layer>.<field>": value}`` — this block's part of a snapshot."""
        return {f"{self.layer}.{name}": value
                for name, value in self.as_dict().items()}

    @classmethod
    def total(cls, blocks: Iterable["Counters"]):
        """The field-wise sum of *blocks* as one block."""
        return cls(**sum_counters([block.as_dict() for block in blocks]))
