"""Analytical device write-amplification models: the closed-form oracle
``test_wa_closed_forms.py`` holds the simulated FTL against.

The storage community has closed-form models for the WA-D of a
page-mapped FTL under uniform random writes (the paper cites
Desnoyers [21], Hu et al. [31], and Stoica & Ailamaki [67]).  Two
standard forms are implemented:

* :func:`wa_greedy_uniform` — the classic small-spare approximation
  for greedy victim selection, ``WA = 1 / (2 (1 - u))`` with *u* the
  valid fraction of the **raw** flash capacity.  Exact greedy analyses
  and simulations land *below* this value (it assumes victims hold the
  average validity; greedy picks better-than-average victims), so it
  is best read as an upper estimate.  Our simulator measures
  0.7-0.85x of it across the practical OP range —
  ``tests/flash/test_wa_closed_forms.py`` asserts that band.
* :func:`wa_fifo_uniform` — FIFO (oldest-block-first) cleaning: the
  victim validity *p* solves the classic fixed point
  ``p = exp(-(1 - p) / u)`` and ``WA = 1 / (1 - p)``.

:func:`lambert_w` (principal branch, Halley iteration) is a
dependency-free utility for extending these models.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def lambert_w(x: float, tolerance: float = 1e-12, max_iter: int = 64) -> float:
    """Principal branch W0 of the Lambert W function for x >= -1/e."""
    if x < -1.0 / math.e - 1e-12:
        raise ConfigError("lambert_w defined for x >= -1/e on the principal branch")
    if x > math.e:
        w = math.log(x) - math.log(math.log(x))
    elif x > 0:
        w = x / math.e
    else:
        # Series expansion around the branch point for x in [-1/e, 0].
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p - p * p / 3.0
    for _ in range(max_iter):
        ew = math.exp(w)
        f = w * ew - x
        if w == -1.0:
            denominator = ew
        else:
            denominator = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / denominator
        w -= step
        if abs(step) < tolerance:
            break
    return w


def wa_greedy_uniform(utilization: float) -> float:
    """Small-spare greedy estimate: ``1 / (2 (1 - u))``.

    *utilization* is valid data divided by raw flash capacity.  An
    upper estimate; see the module docstring.
    """
    if not 0.0 <= utilization < 1.0:
        raise ConfigError("utilization must be in [0, 1)")
    if utilization == 0.0:
        return 1.0
    return max(1.0, 1.0 / (2.0 * (1.0 - utilization)))


def wa_fifo_uniform(utilization: float) -> float:
    """FIFO cleaning under uniform random writes.

    Victim validity solves ``p = exp(-(1 - p) / u)``; WA = 1/(1-p).
    """
    if not 0.0 <= utilization < 1.0:
        raise ConfigError("utilization must be in [0, 1)")
    if utilization == 0.0:
        return 1.0
    p = utilization
    for _ in range(256):
        p = math.exp(-(1.0 - p) / utilization)
    if p >= 1.0:  # pragma: no cover - numerically unreachable for u < 1
        return float("inf")
    return max(1.0, 1.0 / (1.0 - p))


def wa_for_config(logical_used_fraction: float, hw_overprovision: float) -> float:
    """Greedy WA-D estimate for a device configuration.

    Converts "fraction of the logical space holding valid data" plus
    the hardware over-provisioning ratio into raw-capacity utilization
    and applies the greedy estimate.
    """
    if not 0.0 <= logical_used_fraction <= 1.0:
        raise ConfigError("logical_used_fraction must be in [0, 1]")
    if hw_overprovision < 0:
        raise ConfigError("hw_overprovision must be >= 0")
    raw_utilization = logical_used_fraction / (1.0 + hw_overprovision)
    return wa_greedy_uniform(min(raw_utilization, 1.0 - 1e-9))
