"""Flash SSD simulator: FTL, garbage collection, timing and SMART.

Public surface:

* :class:`~repro.flash.config.SSDConfig` — device geometry/timing.
* :class:`~repro.flash.ssd.SSD` — the simulated device.
* :mod:`~repro.flash.profiles` — SSD1/SSD2/SSD3 presets from the paper.
* :mod:`~repro.flash.state` — trimmed / preconditioned drive control.
* :mod:`~repro.flash.gc` — garbage-collection victim policies.
"""

from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer, WorkUnits
from repro.flash.gc import FifoPolicy, GCPolicy, GreedyPolicy, make_policy
from repro.flash.profiles import (
    PROFILES,
    SSD1_ENTERPRISE,
    SSD2_CONSUMER,
    SSD3_OPTANE,
    get_profile,
    scale_profile,
)
from repro.flash.smart import SmartAttributes
from repro.flash.ssd import SSD
from repro.flash.state import (
    DriveState,
    apply_drive_state,
    precondition_device,
    trim_device,
)

__all__ = [
    "SSDConfig",
    "SSD",
    "FlashTranslationLayer",
    "WorkUnits",
    "SmartAttributes",
    "GCPolicy",
    "GreedyPolicy",
    "FifoPolicy",
    "make_policy",
    "PROFILES",
    "SSD1_ENTERPRISE",
    "SSD2_CONSUMER",
    "SSD3_OPTANE",
    "get_profile",
    "scale_profile",
    "DriveState",
    "apply_drive_state",
    "precondition_device",
    "trim_device",
]
