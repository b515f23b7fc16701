"""Campaign orchestration: declarative grids of experiments.

The paper's methodology is a *grid*, not a run (engines x SSDs x drive
states x dataset sizes x over-provisioning).  This package expands a
declarative :class:`CampaignSpec` into cells, runs them on a process
pool (each through :func:`run_cell`, the one route from a spec to its
record), keeps their records in a JSONL store that a re-run reuses, and
audits the grid itself against the seven pitfalls.
"""

from repro.campaign.runner import CampaignOutcome, run_campaign, run_cell
from repro.campaign.spec import PRESETS, CampaignSpec
from repro.campaign.store import CampaignStore, canonical_line, merge_stores

__all__ = [
    "CampaignOutcome",
    "CampaignSpec",
    "CampaignStore",
    "PRESETS",
    "canonical_line",
    "merge_stores",
    "run_campaign",
    "run_cell",
]
