"""Drive-state control: trimmed vs preconditioned (paper §3.4).

The paper experiments with two initial conditions of the SSD:

* **Trimmed** — all blocks erased with ``blkdiscard``; initial writes
  land in free blocks without garbage-collection overhead.
* **Preconditioned** — the drive is first written sequentially end to
  end (every logical address has data) and then hit with random writes
  worth twice its capacity, so that garbage collection is in steady
  state before the experiment begins.

These two states bracket the spectrum of real deployments; pitfall 3
(§4.3) is about reporting which one an experiment used.
"""

from __future__ import annotations

from enum import Enum

from repro import rng
from repro.flash.ssd import SSD


class DriveState(str, Enum):
    """Initial condition of the drive before an experiment."""

    TRIMMED = "trimmed"
    PRECONDITIONED = "preconditioned"


def trim_device(ssd: SSD) -> None:
    """Reset the drive like ``blkdiscard``: every block becomes clean."""
    ssd.trim_all()
    ssd.settle()


#: Random writes after the sequential fill, in multiples of the range.
PRECONDITION_CHURN = 2.0
#: Pages per preconditioning write request (at most 1/16 of the range).
PRECONDITION_BATCH_PAGES = 4096


def precondition_device(
    ssd: SSD,
    seed: int = rng.DEFAULT_SEED,
    npages: int | None = None,
) -> None:
    """Age the drive per the paper's §3.4 recipe.

    First write the target logical range sequentially so every address
    has associated data, then issue uniformly random writes totalling
    :data:`PRECONDITION_CHURN` times the range so garbage collection
    reaches steady state.  The device is left idle (settled) so the
    following experiment starts from a quiescent but aged drive.

    ``npages`` restricts preconditioning to ``[0, npages)``: in the
    over-provisioning experiments (§4.6) only the range the filesystem
    is shown is preconditioned while the reserved tail stays trimmed.
    """
    npages = ssd.npages if npages is None else npages
    # Batches must stay well below the range size; otherwise a whole
    # permutation pass would invalidate every block before GC observes
    # it, hiding the relocation cost the recipe is meant to create.
    batch_pages = max(1, min(PRECONDITION_BATCH_PAGES, npages // 16))
    for offset in range(0, npages, batch_pages):
        count = min(batch_pages, npages - offset)
        ssd.write_runs((offset,), (count,), background=True)

    generator = rng.substream(seed, "precondition")
    remaining = int(npages * PRECONDITION_CHURN)
    while remaining > 0:
        # A random permutation pass guarantees unique pages per batch
        # while remaining uniform over the address range.
        order = generator.permutation(npages)
        for offset in range(0, min(remaining, npages), batch_pages):
            batch = order[offset : offset + min(batch_pages, remaining - offset)]
            if batch.size == 0:
                break
            ssd.write_runs(batch.tolist(), [1] * batch.size, background=True)
        remaining -= npages

    ssd.settle()


def apply_drive_state(
    ssd: SSD,
    state: DriveState,
    seed: int = rng.DEFAULT_SEED,
    npages: int | None = None,
) -> None:
    """Put the drive in the requested initial condition.

    The whole drive is always trimmed first; preconditioning then ages
    only ``[0, npages)`` — the range the block layer exposes — so any
    reserved tail keeps acting as over-provisioning (§4.6).
    """
    if state == DriveState.TRIMMED:
        trim_device(ssd)
    elif state == DriveState.PRECONDITIONED:
        trim_device(ssd)
        precondition_device(ssd, seed=seed, npages=npages)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown drive state {state!r}")
