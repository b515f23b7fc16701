"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class CampaignError(ReproError):
    """A campaign pass ended with cells unfinished (a worker died)."""


class DeviceError(ReproError):
    """Base class for SSD / block-device errors."""


class OutOfRangeError(DeviceError):
    """An LBA outside the device's logical address space was accessed."""


class TransientDeviceError(DeviceError):
    """A fault-injected device error that may succeed on retry.

    Raised only when a :class:`repro.faults.FaultPlan` is active; the
    block layer re-drives a failed write in a bounded
    retry-with-backoff loop (``BlockDevice.retry``) that absorbs these.
    """


class ProgramFaultError(TransientDeviceError):
    """A flash program (write) operation failed before any page was
    committed; the host must re-drive the whole request."""


class DeviceFullError(DeviceError):
    """The FTL could not find a garbage-collection victim with free space.

    This indicates a logic error (logical capacity should always be
    collectable thanks to hardware over-provisioning) or a device that
    was configured with zero over-provisioning.
    """


class FilesystemError(ReproError):
    """Base class for filesystem errors."""


class NoSpaceError(FilesystemError):
    """The filesystem has no free extent large enough for an allocation."""


class FileNotFoundError_(FilesystemError):
    """The named file does not exist (suffixed to avoid shadowing builtins)."""


class FileExistsError_(FilesystemError):
    """The named file already exists (suffixed to avoid shadowing builtins)."""


class KVError(ReproError):
    """Base class for key-value engine errors."""


class StoreClosedError(KVError):
    """An operation was issued against a closed key-value store."""
