"""Device profiles mirroring the three SSDs of the paper (§4.7).

The paper evaluates an Intel P3600 (SSD1, enterprise flash), an Intel
660p (SSD2, consumer QLC flash) and an Intel Optane (SSD3, 3DXP).  Our
profiles capture the *architectural* differences the paper uses to
explain its results, at 1/1000 capacity scale (400 MiB nominal instead
of 400 GB — see DESIGN.md §2 for the scaling substitution):

* **SSD1** — generous hardware over-provisioning, high sustained
  program bandwidth, small write cache, moderate latencies: fast and
  steady, but every write observes flash-ish latency.
* **SSD2** — little hardware over-provisioning, slow (QLC) sustained
  program rate, but a large low-latency write cache: absorbs
  WiredTiger's small uniform writes, collapses under RocksDB's bursts.
* **SSD3** — byte-addressable 3DXP model: in-place updates (no GC,
  WA-D == 1), very low latency, high sustained bandwidth.

The absolute numbers are calibrated so that steady-state throughputs
land in the paper's ballpark; DESIGN.md §3 lists the deliberate
deviations.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError
from repro.flash.config import SSDConfig
from repro.units import MIB, usec

SSD1_ENTERPRISE = SSDConfig(
    name="ssd1-enterprise-flash",
    page_size=4096,
    # "Blocks" model the FTL's GC stripe across channels/dies, which on
    # real drives is much larger than a single LSM data file; keeping
    # stripe >> file size preserves the hot/cold mixing that drives WA-D.
    pages_per_block=1024,  # 4 MiB GC stripe
    nblocks=125,  # 500 MiB raw -> 400 MiB logical at 25% OP
    hw_overprovision=0.25,
    read_latency=usec(90.0),
    page_read_time=usec(10.0),
    program_time=usec(200.0),
    erase_time=usec(2000.0),
    channels=16,
    bus_bytes_per_s=2000e6,
    write_cache_bytes=4 * MIB,
    write_latency=usec(200.0),
    gc_low_watermark=0.02,
    gc_high_watermark=0.05,
)

SSD2_CONSUMER = SSDConfig(
    name="ssd2-consumer-qlc",
    page_size=4096,
    pages_per_block=512,  # 2 MiB GC stripe
    nblocks=208,  # 416 MiB raw -> 400 MiB logical at 4% OP
    hw_overprovision=0.04,
    read_latency=usec(70.0),
    page_read_time=usec(12.0),
    program_time=usec(500.0),
    erase_time=usec(3500.0),
    channels=8,
    bus_bytes_per_s=1800e6,
    write_cache_bytes=64 * MIB,
    write_latency=usec(15.0),
    gc_low_watermark=0.02,
    gc_high_watermark=0.05,
    fold_penalty=4.0,
)

SSD3_OPTANE = SSDConfig(
    name="ssd3-optane",
    page_size=4096,
    pages_per_block=256,
    nblocks=400,  # no spare capacity needed: no GC
    hw_overprovision=0.0,
    read_latency=usec(10.0),
    page_read_time=usec(2.0),
    program_time=usec(40.0),
    erase_time=0.0,
    channels=8,
    bus_bytes_per_s=2400e6,
    write_cache_bytes=1 * MIB,
    write_latency=usec(10.0),
    byte_addressable=True,
)

PROFILES: dict[str, SSDConfig] = {
    "ssd1": SSD1_ENTERPRISE,
    "ssd2": SSD2_CONSUMER,
    "ssd3": SSD3_OPTANE,
}


def get_profile(name: str, capacity_bytes: int | None = None) -> SSDConfig:
    """Return a profile by short name, optionally rescaled.

    *capacity_bytes* adjusts the **logical** capacity while preserving
    the profile's over-provisioning ratio, block geometry and timing.
    """
    key = name.lower()
    if key not in PROFILES:
        raise ConfigError(f"unknown SSD profile {name!r}; expected one of {sorted(PROFILES)}")
    profile = PROFILES[key]
    if capacity_bytes is None:
        return profile
    return scale_profile(profile, capacity_bytes)


def scale_profile(profile: SSDConfig, capacity_bytes: int) -> SSDConfig:
    """Rescale a profile to roughly *capacity_bytes* of logical space.

    The write cache is scaled proportionally so that cache-to-capacity
    ratios (and hence the burst-absorption behaviour) are preserved.
    """
    if capacity_bytes <= 0:
        raise ConfigError("capacity must be positive")
    # Tiny devices shrink the GC stripe so that the minimum spare-block
    # requirement does not dominate the over-provisioning ratio.
    pages_per_block = profile.pages_per_block
    block_bytes = pages_per_block * profile.page_size
    while capacity_bytes // block_bytes < 16 and pages_per_block > 32:
        pages_per_block //= 2
        block_bytes //= 2
    logical_blocks = max(3, -(-capacity_bytes // block_bytes))
    if profile.byte_addressable:
        spare_blocks = round(logical_blocks * profile.hw_overprovision)
    else:
        # Small devices need at least the FTL's minimum spare capacity.
        spare_blocks = max(5, round(logical_blocks * profile.hw_overprovision))
    nblocks = logical_blocks + spare_blocks
    # Recompute the OP ratio so the logical capacity comes out exact.
    hw_op = nblocks / logical_blocks - 1.0
    if hw_op >= 1.0:
        raise ConfigError(
            f"capacity {capacity_bytes} too small to scale profile {profile.name!r}"
        )
    cache_ratio = profile.write_cache_bytes / profile.logical_bytes
    cache = max(256 * 1024, int(cache_ratio * logical_blocks * block_bytes))
    return replace(
        profile,
        nblocks=nblocks,
        pages_per_block=pages_per_block,
        hw_overprovision=hw_op,
        write_cache_bytes=cache,
    )
